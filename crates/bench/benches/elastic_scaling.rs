//! Elastic scale-out bench: throughput of a placement-skewed cluster
//! (all data bootstrapped onto one memnode) before and after growing the
//! cluster online with `add_memnode()` + `rebalance()`.
//!
//! The paper's incremental-growth claim is that added memory nodes absorb
//! load. On one host every in-process memnode shares the same cores, so
//! measured throughput alone cannot show it. Next to the measured ops/s
//! the bench therefore reports a cost model computed from counters after
//! each window: every memnode is one serial server taking [`SERVICE`] per
//! request it serves, so by the bottleneck law the busiest memnode caps
//! throughput at `1 / (max_m requests_m/op × SERVICE)`. With every slot on
//! one memnode that node serves every request; after `add_memnode()` +
//! `rebalance()` the same closed-loop workload spreads over more servers
//! and the bound rises.

use minuet_bench::{bench_secs, bench_tree_config, records};
use minuet_core::{occupancy, MinuetCluster, TreeConfig};
use minuet_workload::{encode_key, fmt_count, load_keys, occupancy_row, print_table};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const GROW_TO: usize = 4;
/// Modeled memnode service time per request served.
const SERVICE: Duration = Duration::from_micros(50);
/// The least modeled speedup scale-out must deliver.
const MIN_MODEL_SPEEDUP: f64 = 2.0;

/// One measured window: client operations and each memnode's requests.
struct Window {
    ops: u64,
    secs: f64,
    /// Requests each memnode served during the window, by id.
    requests: Vec<u64>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    /// Requests per operation at the busiest memnode.
    fn busiest_per_op(&self) -> f64 {
        self.requests.iter().copied().max().unwrap_or(0) as f64 / self.ops.max(1) as f64
    }

    /// The cost model: the bottleneck-law bound on ops/s when each memnode
    /// serves its requests one at a time, [`SERVICE`] each.
    fn modeled_ops_per_s(&self) -> f64 {
        1.0 / (self.busiest_per_op() * SERVICE.as_secs_f64())
    }
}

/// The series that count a request served: a one-phase execution, a
/// prepare or a decision, whatever its outcome.
const SERVED: [&str; 5] = [
    "memnode.single_commits",
    "memnode.prepares",
    "memnode.commits",
    "memnode.aborts",
    "memnode.busy",
];

/// Requests served so far by each memnode, by id.
fn requests(mc: &Arc<MinuetCluster>) -> Vec<u64> {
    mc.sinfonia
        .nodes_snapshot()
        .iter()
        .map(|n| {
            let snap = n.obs_snapshot().unwrap();
            SERVED.iter().map(|name| snap.counter(name).unwrap()).sum()
        })
        .collect()
}

/// Closed-loop mixed get/put for the measured window.
fn measure(mc: &Arc<MinuetCluster>, nrecords: u64) -> Window {
    let start = requests(mc);
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let window = bench_secs();
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let mc = mc.clone();
            let stop = stop.clone();
            let ops = ops.clone();
            s.spawn(move || {
                let mut p = mc.proxy();
                let mut rng: u64 = 0x2545F4914F6CDD1D ^ (t as u64);
                while !stop.load(Ordering::Relaxed) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = encode_key(rng % nrecords);
                    if rng.is_multiple_of(2) {
                        p.get(0, &k).unwrap();
                    } else {
                        p.put(0, k, rng.to_le_bytes().to_vec()).unwrap();
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    Window {
        ops: ops.load(Ordering::Relaxed),
        secs: window.as_secs_f64(),
        requests: requests(mc)
            .iter()
            .zip(&start)
            .map(|(end, start)| end - start)
            .collect(),
    }
}

fn show_occupancy(mc: &Arc<MinuetCluster>, title: &str) {
    let rows: Vec<Vec<String>> = occupancy(mc, 0)
        .unwrap()
        .iter()
        .map(|o| {
            occupancy_row(
                &o.mem.to_string(),
                o.live as u64,
                o.free_listed as u64,
                o.bump as u64,
                o.migrating as u64,
                o.retiring,
            )
        })
        .collect();
    print_table(
        title,
        &["memnode", "live", "free", "bump", "migrating", "state"],
        &rows,
    );
}

fn main() {
    minuet_bench::header(
        "Elastic scaling",
        "adding memory nodes grows capacity incrementally (§1); \
         rebalancing shifts existing load onto them",
    );

    let nrecords = records();
    let cfg = TreeConfig {
        max_memnodes: GROW_TO,
        ..bench_tree_config()
    };
    // Placement skew: the whole tree starts on a single memnode.
    let mc = MinuetCluster::new(1, 1, cfg);
    {
        let keys = load_keys(nrecords, 0xC0FFEE);
        let mut p = mc.proxy();
        for k in keys {
            p.put(0, k, vec![0u8; 8]).unwrap();
        }
    }
    mc.sinfonia.transport.set_inject(None);

    let before = measure(&mc, nrecords);
    show_occupancy(&mc, "before (1 memnode)");

    let t0 = Instant::now();
    for _ in 1..GROW_TO {
        mc.add_memnode().unwrap();
    }
    let report = mc.rebalance().unwrap();
    let grow_time = t0.elapsed();

    let after = measure(&mc, nrecords);
    show_occupancy(&mc, &format!("after ({GROW_TO} memnodes, rebalanced)"));

    let row = |phase: &str, memnodes: usize, w: &Window| {
        vec![
            phase.into(),
            memnodes.to_string(),
            fmt_count(w.ops_per_s()),
            format!("{:.2}x", w.ops_per_s() / before.ops_per_s()),
            format!("{:.2}", w.busiest_per_op()),
            fmt_count(w.modeled_ops_per_s()),
            format!("{:.2}x", w.modeled_ops_per_s() / before.modeled_ops_per_s()),
        ]
    };
    print_table(
        &format!("elastic scaling: skewed workload throughput (cost model: {SERVICE:?}/request)"),
        &[
            "phase",
            "memnodes",
            "measured ops/s",
            "speedup",
            "busiest req/op",
            "cost model ops/s",
            "speedup",
        ],
        &[row("before", 1, &before), row("after", GROW_TO, &after)],
    );
    let migrate = |name| mc.sinfonia.obs().registry.counter(name).get();
    println!(
        "grow+rebalance: {} nodes migrated in {:.2?} ({} rounds); migrations: {} started, \
         {} completed, {} aborted, {} retries",
        report.moved,
        grow_time,
        report.rounds,
        migrate("migrate.started"),
        migrate("migrate.completed"),
        migrate("migrate.aborted"),
        migrate("migrate.retries"),
    );
    let speedup = after.modeled_ops_per_s() / before.modeled_ops_per_s();
    assert!(
        speedup >= MIN_MODEL_SPEEDUP,
        "scale-out no longer spreads load: modeled speedup {speedup:.2}x < {MIN_MODEL_SPEEDUP}x \
         (busiest memnode serves {:.2} requests/op before, {:.2} after)",
        before.busiest_per_op(),
        after.busiest_per_op()
    );
    println!("PASS: modeled speedup {speedup:.2}x >= {MIN_MODEL_SPEEDUP}x");
}
