//! WAN sweep: epoch-batched commit and asynchronous replication under
//! injected wide-area round-trip times.
//!
//! Per-commit OCC pays at least one validation round trip per transaction;
//! over a WAN (10–100 ms RTTs) that round trip *is* the commit latency.
//! The epoch service amortizes it: all of an epoch's commits validate in
//! one batched `exec_many` pass per memnode, so validation round trips
//! per commit collapse toward `memnodes/K` for K commits per epoch.
//!
//! Two parts per RTT point:
//!  * commit cost: round trips and wall-clock per commit for N pre-staged
//!    transactions, per-commit OCC vs one epoch batch (round trips from
//!    the instrumented transport — the repo's canonical cost metric);
//!  * replication: a durable primary under committing load streams its
//!    WAL to a follower cluster; a session writes on the primary, captures
//!    its token, and times how long the follower takes to serve that
//!    session's read (the read-your-writes staleness bound).
//!
//! Checks printed at the end (the repo's acceptance targets): at every
//! RTT ≥ 10 ms, epoch-batched validation round trips per commit drop ≥3x
//! vs per-commit OCC, and the follower serves read-your-writes reads with
//! bounded staleness while the primary commits under load.

use minuet_bench::bench_tree_config;
use minuet_core::MinuetCluster;
use minuet_dyntx::{commit_many, DynTx, EpochConfig, EpochService, ObjRef, StagedCommit};
use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, MemNodeId, ReplConfig, Replicator, SinfoniaCluster, SyncMode,
};
use minuet_workload::print_table;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEMNODES: usize = 2;

fn fast_mode() -> bool {
    std::env::var("MINUET_BENCH_FAST").is_ok()
}

fn obj(i: u64) -> ObjRef {
    ObjRef::new(MemNodeId((i % MEMNODES as u64) as u16), (i / 2) * 64, 64)
}

/// Stages `n` independent single-object updates with injection off, so the
/// measured phase sees only commit-time (validation + apply) round trips.
fn stage_batch(c: &SinfoniaCluster, n: u64, salt: u64) -> Vec<StagedCommit<'_>> {
    (0..n)
        .map(|i| {
            let mut tx = DynTx::new(c);
            tx.write(obj(i), (salt ^ i).to_le_bytes().to_vec());
            tx.stage_commit()
        })
        .collect()
}

struct CommitPoint {
    rtt_ms: u64,
    percommit_rts: f64,
    epoch_rts: f64,
    percommit_ms: f64,
    epoch_ms: f64,
}

/// Measures commit cost for `n` staged transactions both ways under one
/// injected RTT. Returns round trips per commit and wall-clock per commit.
fn measure_commit(c: &Arc<SinfoniaCluster>, n: u64, rtt: Duration) -> CommitPoint {
    // Per-commit OCC: each staged commit executes on its own, a batch of
    // one.
    let staged = stage_batch(c, n, 0xA5A5);
    c.transport.set_inject(Some(rtt));
    let rt0 = c.transport.stats.round_trips.get();
    let t0 = Instant::now();
    for s in staged {
        commit_many(vec![s]).unwrap().remove(0).unwrap();
    }
    let percommit_ms = t0.elapsed().as_secs_f64() * 1e3 / n as f64;
    let percommit_rts = (c.transport.stats.round_trips.get() - rt0) as f64 / n as f64;
    c.transport.set_inject(None);

    // Epoch-batched: the same workload enrolls in one epoch and validates
    // in a single batched pass.
    let staged = stage_batch(c, n, 0x5A5A);
    let svc = EpochService::new(
        c,
        EpochConfig {
            max_batch: n as usize,
            interval: Duration::from_millis(2),
        },
    );
    c.transport.set_inject(Some(rtt));
    let rt0 = c.transport.stats.round_trips.get();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = staged
            .into_iter()
            .map(|sc| s.spawn(|| svc.commit_staged(sc).unwrap()))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let epoch_ms = t0.elapsed().as_secs_f64() * 1e3 / n as f64;
    let epoch_rts = (c.transport.stats.round_trips.get() - rt0) as f64 / n as f64;
    c.transport.set_inject(None);

    CommitPoint {
        rtt_ms: rtt.as_millis() as u64,
        percommit_rts,
        epoch_rts,
        percommit_ms,
        epoch_ms,
    }
}

struct ReplPoint {
    rtt_ms: u64,
    staleness_ms: f64,
    read_ok: bool,
    primary_puts: u64,
}

/// Primary cluster under committing load streams to a follower; a session
/// writes, captures its token, and times the follower's read-your-writes
/// catch-up under `rtt` injected on both WAN legs.
fn measure_replication(rtt: Duration) -> ReplPoint {
    let cfg = bench_tree_config();
    let primary = MinuetCluster::with_cluster_config(
        ClusterConfig {
            memnodes: MEMNODES,
            durability: DurabilityConfig::ephemeral("wan-primary", SyncMode::Async),
            ..Default::default()
        },
        1,
        cfg.clone(),
    );
    let follower = SinfoniaCluster::new(ClusterConfig {
        memnodes: MEMNODES,
        capacity_per_node: MinuetCluster::required_node_capacity(&cfg, 1, MEMNODES),
        durability: DurabilityConfig::ephemeral("wan-follower", SyncMode::Async),
        ..Default::default()
    });
    let _repl = Replicator::spawn(&primary.sinfonia, &follower, ReplConfig::default());

    // Let the bootstrap images replicate with injection off, then attach
    // a read-only Minuet view over the follower.
    let boot = primary.sinfonia.repl_token();
    assert!(
        follower.wait_replicated(&boot, Duration::from_secs(30)),
        "follower never caught the bootstrap stream"
    );
    let fmc = MinuetCluster::attach(follower.clone(), 1, cfg);

    primary.sinfonia.transport.set_inject(Some(rtt));
    follower.transport.set_inject(Some(rtt));

    // Background committing load on the primary for the whole window.
    let stop = Arc::new(AtomicBool::new(false));
    let puts = Arc::new(AtomicU64::new(0));
    let point = std::thread::scope(|s| {
        let writer = {
            let primary = primary.clone();
            let stop = stop.clone();
            let puts = puts.clone();
            s.spawn(move || {
                let mut p = primary.proxy();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    p.put(0, format!("load-{i}").into_bytes(), vec![7u8; 16])
                        .unwrap();
                    puts.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        };

        // The measured session: write, capture the token, time the
        // follower's catch-up, then read the write back from the follower.
        let mut p = primary.proxy();
        p.put(0, b"session-key".to_vec(), b"session-value".to_vec())
            .unwrap();
        let token = p.session_token();
        let t0 = Instant::now();
        let caught = fmc.wait_replicated(&token, Duration::from_secs(60));
        let staleness_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(caught, "follower never reached the session token");
        let mut fp = fmc.proxy();
        let read_ok = fp.get(0, b"session-key").unwrap() == Some(b"session-value".to_vec());

        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        ReplPoint {
            rtt_ms: rtt.as_millis() as u64,
            staleness_ms,
            read_ok,
            primary_puts: puts.load(Ordering::Relaxed),
        }
    });
    primary.sinfonia.transport.set_inject(None);
    follower.transport.set_inject(None);
    point
}

fn main() {
    minuet_bench::header(
        "WAN sweep: epoch-batched commit + async replication vs injected RTT",
        "validation round trips per commit amortize across an epoch \
         (one exec_many pass per memnode); a WAL-stream follower serves \
         read-your-writes sessions with bounded staleness",
    );

    let n_commits: u64 = if fast_mode() { 8 } else { 16 };
    let rtts_ms: Vec<u64> = if fast_mode() {
        vec![10]
    } else {
        vec![10, 25, 50, 100]
    };

    let c = SinfoniaCluster::new(ClusterConfig {
        memnodes: MEMNODES,
        capacity_per_node: 1 << 20,
        ..Default::default()
    });

    let commit_points: Vec<CommitPoint> = rtts_ms
        .iter()
        .map(|&ms| measure_commit(&c, n_commits, Duration::from_millis(ms)))
        .collect();
    let rows: Vec<Vec<String>> = commit_points
        .iter()
        .map(|p| {
            vec![
                format!("{}ms", p.rtt_ms),
                format!("{:.2}", p.percommit_rts),
                format!("{:.2}", p.epoch_rts),
                format!("{:.1}ms", p.percommit_ms),
                format!("{:.1}ms", p.epoch_ms),
                format!("{:.1}x", p.percommit_rts / p.epoch_rts.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        &format!("commit cost, {n_commits} staged commits ({MEMNODES} memnodes)"),
        &[
            "rtt",
            "rts/commit occ",
            "rts/commit epoch",
            "ms/commit occ",
            "ms/commit epoch",
            "rt drop",
        ],
        &rows,
    );

    let repl_points: Vec<ReplPoint> = rtts_ms
        .iter()
        .map(|&ms| measure_replication(Duration::from_millis(ms)))
        .collect();
    let rows: Vec<Vec<String>> = repl_points
        .iter()
        .map(|p| {
            vec![
                format!("{}ms", p.rtt_ms),
                format!("{:.0}ms", p.staleness_ms),
                if p.read_ok { "yes".into() } else { "NO".into() },
                p.primary_puts.to_string(),
            ]
        })
        .collect();
    print_table(
        "replication: read-your-writes staleness under load",
        &["rtt", "session staleness", "follower read", "primary puts"],
        &rows,
    );

    println!();
    let mut all_pass = true;
    for p in &commit_points {
        let drop = p.percommit_rts / p.epoch_rts.max(1e-9);
        let pass = drop >= 3.0;
        all_pass &= pass;
        println!(
            "check: rtt {}ms validation round-trip drop = {:.1}x (target >=3x): {}",
            p.rtt_ms,
            drop,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    for p in &repl_points {
        // Bounded staleness: the follower must catch a session token in a
        // handful of replication round trips, not proportionally to the
        // primary's total write volume.
        let bound_ms = 20.0 * p.rtt_ms as f64 + 1000.0;
        let pass = p.read_ok && p.staleness_ms <= bound_ms;
        all_pass &= pass;
        println!(
            "check: rtt {}ms read-your-writes staleness {:.0}ms (bound {:.0}ms), read {}: {}",
            p.rtt_ms,
            p.staleness_ms,
            bound_ms,
            if p.read_ok { "served" } else { "MISSING" },
            if pass { "PASS" } else { "FAIL" }
        );
    }
    assert!(all_pass, "wan_sweep acceptance checks failed");
}
