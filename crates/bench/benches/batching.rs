//! Batching bench: round trips per operation, throughput, and latency as
//! a function of batch size × injected RTT.
//!
//! Minuet's costs are round trips (every figure of the paper is shaped by
//! them), so batching is measured in the paper's own currency: a single
//! `put` pays ~2 round trips (leaf fetch + commit); a `multi_put` of K
//! co-located keys shares one traversal per leaf, one grouped fetch round
//! trip per memnode, and one pipelined commit round trip per memnode —
//! so round trips per op collapse toward `2·M/K` for M memnodes. Under an
//! injected RTT the collapse converts directly into throughput.
//!
//! Two tables per RTT point:
//!  * closed loop: ops/s, measured round trips/op, and request latency
//!    versus batch size, plus the speedup over batch size 1;
//!  * open loop (fixed arrival rate): p50/p95/p99 latency versus offered
//!    load at a fixed batch size, with round trips/op — the
//!    latency-vs-offered-load report the workload crate now emits.
//!
//! Checks printed at the end (the repo's acceptance targets): ≥3x put
//! throughput at batch 32 vs batch 1 under 200µs injected RTT, and round
//! trips/op decreasing monotonically with batch size.

use minuet_bench::{
    bench_secs, bench_tree_config, fast_mode, minuet_batch_conn, preload_minuet, records,
};
use minuet_core::MinuetCluster;
use minuet_workload::{
    encode_key, fmt_count, fmt_ns, load_latency_row, print_table, run_open_loop, Histogram,
    OpenLoopConfig, SharedState, WorkloadSpec, LOAD_LATENCY_HEADERS,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEMNODES: usize = 2;
const CLIENTS: usize = 4;

struct Point {
    batch: usize,
    tput: f64,
    rts_per_op: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Closed-loop update-only measurement at one batch size: every request
/// writes `batch` random existing keys (updates only, so the tree shape —
/// and thus the round-trip count — stays stable across points).
fn measure(mc: &Arc<MinuetCluster>, nrecords: u64, batch: usize) -> Point {
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let window = bench_secs();
    let rt0 = mc.sinfonia.transport.stats.round_trips.get();
    let hist = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..CLIENTS {
            let mc = mc.clone();
            let stop = stop.clone();
            let ops = ops.clone();
            handles.push(s.spawn(move || {
                let mut p = mc.proxy();
                let mut hist = Histogram::new();
                let mut rng: u64 = 0x9E3779B97F4A7C15 ^ (t as u64 + 1);
                while !stop.load(Ordering::Relaxed) {
                    let mut pairs = Vec::with_capacity(batch);
                    for _ in 0..batch {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        pairs.push((encode_key(rng % nrecords), rng.to_le_bytes().to_vec()));
                    }
                    let t0 = Instant::now();
                    if batch == 1 {
                        let (k, v) = pairs.pop().unwrap();
                        p.put(0, k, v).unwrap();
                    } else {
                        p.multi_put(0, &pairs).unwrap();
                    }
                    hist.record_duration(t0.elapsed());
                    ops.fetch_add(batch as u64, Ordering::Relaxed);
                }
                hist
            }));
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let mut hist = Histogram::new();
        for h in handles {
            hist.merge(&h.join().unwrap());
        }
        hist
    });
    let rt1 = mc.sinfonia.transport.stats.round_trips.get();
    let done = ops.load(Ordering::Relaxed);
    Point {
        batch,
        tput: done as f64 / window.as_secs_f64(),
        rts_per_op: (rt1 - rt0) as f64 / done.max(1) as f64,
        p50_ns: hist.percentile(50.0),
        p99_ns: hist.percentile(99.0),
    }
}

fn main() {
    minuet_bench::header(
        "Batching: batch size × injected RTT",
        "round trips dominate operation cost (§2, §6); batching K ops \
         amortizes traversal+commit round trips toward 2·memnodes/K",
    );

    let nrecords = records();
    let batches: Vec<usize> = if fast_mode() {
        vec![1, 4, 32]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let rtts_us: Vec<u64> = if fast_mode() {
        vec![200]
    } else {
        vec![0, 200, 1000]
    };

    let mc = MinuetCluster::new(MEMNODES, 1, bench_tree_config());
    preload_minuet(&mc, 0, nrecords);

    let mut check_speedup: Option<(f64, bool)> = None;
    let mut check_monotone: Option<bool> = None;

    for &rtt_us in &rtts_us {
        let rtt = Duration::from_micros(rtt_us);
        mc.sinfonia
            .transport
            .set_inject(if rtt_us == 0 { None } else { Some(rtt) });

        let points: Vec<Point> = batches.iter().map(|&b| measure(&mc, nrecords, b)).collect();
        mc.sinfonia.transport.set_inject(None);

        let base = points[0].tput.max(1.0);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.batch.to_string(),
                    fmt_count(p.tput),
                    format!("{:.2}", p.rts_per_op),
                    fmt_ns(p.p50_ns as f64),
                    fmt_ns(p.p99_ns as f64),
                    format!("{:.2}x", p.tput / base),
                ]
            })
            .collect();
        print_table(
            &format!("closed-loop puts, injected rtt {rtt_us}µs ({CLIENTS} clients)"),
            &["batch", "puts/s", "rts/op", "req p50", "req p99", "speedup"],
            &rows,
        );

        let monotone = points
            .windows(2)
            .all(|w| w[1].rts_per_op <= w[0].rts_per_op + 0.05);
        check_monotone = Some(check_monotone.unwrap_or(true) && monotone);
        if rtt_us == 200 {
            let last = points.last().unwrap();
            check_speedup = Some((last.tput / base, last.tput / base >= 3.0));
        }
    }

    // Open loop: latency vs offered load at a fixed batch size, the
    // arrival-rate view of the same amortization.
    let batch = if fast_mode() { 8 } else { 16 };
    let spec = WorkloadSpec::update_only(nrecords).with_batch(batch);
    let shared = SharedState::new(&spec);
    let offered: Vec<f64> = if fast_mode() {
        vec![2_000.0]
    } else {
        vec![1_000.0, 5_000.0, 20_000.0, 50_000.0]
    };
    mc.sinfonia
        .transport
        .set_inject(Some(Duration::from_micros(200)));
    let rows: Vec<Vec<String>> = offered
        .iter()
        .map(|&load| {
            let rt0 = mc.sinfonia.transport.stats.round_trips.get();
            let (bo0, bi0) = (
                mc.sinfonia.transport.stats.bytes_out.get(),
                mc.sinfonia.transport.stats.bytes_in.get(),
            );
            let cfg = OpenLoopConfig::new(CLIENTS, bench_secs(), load);
            let report = run_open_loop(&cfg, &spec, &shared, |_t| minuet_batch_conn(mc.clone()));
            let rt1 = mc.sinfonia.transport.stats.round_trips.get();
            let (bo1, bi1) = (
                mc.sinfonia.transport.stats.bytes_out.get(),
                mc.sinfonia.transport.stats.bytes_in.get(),
            );
            let rts_per_op = (rt1 - rt0) as f64 / report.ops.max(1) as f64;
            let bytes_per_op = ((bo1 - bo0) + (bi1 - bi0)) as f64 / report.ops.max(1) as f64;
            load_latency_row(
                load,
                report.throughput,
                &report.latency,
                rts_per_op,
                bytes_per_op,
                report.backlog,
            )
        })
        .collect();
    mc.sinfonia.transport.set_inject(None);
    print_table(
        &format!("open-loop updates, batch {batch}, injected rtt 200µs ({CLIENTS} workers)"),
        &LOAD_LATENCY_HEADERS,
        &rows,
    );

    println!();
    // In fast mode the tiny record count (~40 leaves) makes the clients
    // collide on most leaves, deflating the speedup; the checks are
    // authoritative at default settings only.
    let verdict = |pass: bool| {
        if fast_mode() {
            "(fast mode, informational)"
        } else if pass {
            "PASS"
        } else {
            "FAIL"
        }
    };
    if let Some((speedup, pass)) = check_speedup {
        println!(
            "check: batch-{}/batch-1 put speedup under 200µs rtt = {:.1}x (target >=3x): {}",
            batches.last().unwrap(),
            speedup,
            verdict(pass)
        );
    }
    if let Some(monotone) = check_monotone {
        println!(
            "check: round trips/op decrease monotonically with batch size: {}",
            verdict(monotone)
        );
    }
}
