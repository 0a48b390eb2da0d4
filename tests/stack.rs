//! Whole-stack integration: the workload driver running real YCSB-style
//! mixes against both engines through the facade crate, plus GC keeping
//! a snapshot-churning workload bounded.

use minuet::core::{MinuetCluster, TreeConfig};

mod common;
use minuet::workload::{
    encode_key, run_closed_loop, KeyDist, Operation, RunConfig, SharedState, WorkloadSpec,
};
use std::time::Duration;

fn preload(mc: &std::sync::Arc<MinuetCluster>, n: u64) {
    let mut p = mc.proxy();
    for i in 0..n {
        p.put(0, encode_key(i), vec![0u8; 8]).unwrap();
    }
}

fn minuet_worker(mc: std::sync::Arc<MinuetCluster>) -> impl FnMut(&Operation) {
    let mut p = mc.proxy();
    move |op: &Operation| match op {
        Operation::Read { key } => {
            p.get(0, key).unwrap();
        }
        Operation::Update { key, value } | Operation::Insert { key, value } => {
            p.put(0, key.clone(), value.clone()).unwrap();
        }
        Operation::Scan { start, len } => {
            p.scan_with_snapshot(0, start, *len).unwrap();
        }
        _ => unreachable!("single-table spec"),
    }
}

#[test]
fn ycsb_style_mix_on_minuet() {
    let mc = common::cluster(2, 1, TreeConfig::default());
    let n = 2_000;
    preload(&mc, n);
    // A YCSB-A-like mix with a few scans, zipfian skew.
    let spec = WorkloadSpec::mix(n, 0.5, 0.45, 0.0, 0.05)
        .with_dist(KeyDist::ScrambledZipfian)
        .with_scan_len(50);
    let shared = SharedState::new(&spec);
    let report = run_closed_loop(
        &RunConfig::new(4, Duration::from_millis(400)),
        &spec,
        &shared,
        |_t| minuet_worker(mc.clone()),
    );
    assert!(report.ops > 200, "throughput too low: {:?}", report.ops);
    assert_eq!(report.latency.count, report.ops);
    // All op classes appear.
    assert!(report.per_kind.len() >= 2);
}

#[test]
fn insert_heavy_mix_grows_tree() {
    let mc = common::cluster(2, 1, TreeConfig::small_nodes(16));
    let n = 500;
    preload(&mc, n);
    let spec = WorkloadSpec::mix(n, 0.2, 0.0, 0.8, 0.0);
    let shared = SharedState::new(&spec);
    let report = run_closed_loop(
        &RunConfig::new(2, Duration::from_millis(300)),
        &spec,
        &shared,
        |_t| minuet_worker(mc.clone()),
    );
    assert!(report.ops > 100);
    // Tree contains the preload plus all inserted records.
    let mut p = mc.proxy();
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert!(all.len() as u64 >= n, "{} < {n}", all.len());
}

#[test]
fn cdb_runs_the_same_workload() {
    use minuet::cdb::{CdbCluster, CdbConfig};
    let cdb = std::sync::Arc::new(CdbCluster::new(CdbConfig {
        servers: 3,
        tables: 1,
        ..Default::default()
    }));
    for i in 0..1000 {
        cdb.put(0, encode_key(i), vec![0u8; 8]);
    }
    let spec = WorkloadSpec::mix(1000, 0.6, 0.4, 0.0, 0.0);
    let shared = SharedState::new(&spec);
    let report = run_closed_loop(
        &RunConfig::new(4, Duration::from_millis(300)),
        &spec,
        &shared,
        |_t| {
            let cdb = cdb.clone();
            move |op: &Operation| match op {
                Operation::Read { key } => {
                    cdb.get(0, key);
                }
                Operation::Update { key, value } => {
                    cdb.put(0, key.clone(), value.clone());
                }
                _ => {}
            }
        },
    );
    assert!(report.ops > 1000);
}

#[test]
fn snapshot_churn_with_background_gc_stays_bounded() {
    // End-to-end version of the GC boundedness test: scans force
    // snapshots, updates force CoW, GC reclaims — slot usage must stay
    // within a small region.
    let cfg = TreeConfig {
        layout: minuet::LayoutParams {
            node_payload: 1024,
            slots_per_mem: 4096,
            max_snapshots: 1 << 14,
        },
        max_leaf_entries: 16,
        max_internal_entries: 16,
        ..TreeConfig::default()
    };
    let mc = common::cluster(2, 1, cfg);
    let n = 500u64;
    preload(&mc, n);

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gc = {
        let mc = mc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut p = mc.proxy();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(30));
                if let Ok((tip, _)) = p.current_tip(0) {
                    let _ = p.set_watermark(0, tip.saturating_sub(16));
                    let _ = p.gc_sweep(0);
                }
            }
        })
    };

    let mut p = mc.proxy();
    for round in 0..120u64 {
        // Scan with a fresh snapshot, then churn updates.
        let _ = p.scan_with_snapshot(0, &encode_key(0), 100);
        for i in 0..60 {
            p.put(
                0,
                encode_key((round * 7 + i) % n),
                round.to_le_bytes().to_vec(),
            )
            .unwrap();
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    gc.join().unwrap();

    // 120 rounds × (snapshot + ~60 CoW writes) would need tens of
    // thousands of slots without GC; 4096/memnode sufficed.
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len() as u64, n);
}
