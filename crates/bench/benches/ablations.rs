//! **Ablations** — isolating the design choices DESIGN.md calls out:
//!
//! 1. piggy-backed validation ON/OFF (round trips of read-only ops, §2.2),
//! 2. proxy internal-node caching ON/OFF (traversal round trips, §2.3),
//! 3. blocking vs. aborting minitransactions for snapshot creation (§4.1),
//! 4. descendant-set bound β sweep (discretionary copies, §5.2),
//! 5. serializable tip scans without snapshots (abort behaviour, §6.3),
//! 6. durability modes: redo-log sync policy vs. update throughput
//!    (off / none / async / group-commit / sync).

use minuet_bench as hb;
use minuet_core::{MinuetCluster, TreeConfig, VersionMode};
use minuet_sinfonia::{with_op_net, DurabilityConfig, SyncMode};
use minuet_workload::{encode_key, fmt_bytes, fmt_count, print_table};
use std::sync::Arc;
use std::time::Duration;

fn avg_read_rts(mc: &Arc<MinuetCluster>, n: u64, samples: u64) -> f64 {
    let mut p = mc.proxy();
    // Warm the proxy caches.
    for i in 0..50 {
        p.get(0, &encode_key(i % n)).unwrap();
    }
    let mut total = 0u64;
    for i in 0..samples {
        let (_, net) = with_op_net(|| p.get(0, &encode_key((i * 37) % n)).unwrap());
        total += net.round_trips;
    }
    total as f64 / samples as f64
}

fn ablation_piggyback(n: u64) {
    let mut rows = Vec::new();
    for piggyback in [true, false] {
        let cfg = TreeConfig {
            piggyback,
            // Leaf caching would serve every warm read without any fetch
            // minitransaction, leaving nothing to piggyback onto — the
            // ablation isolates the fetch-time validation itself.
            cache_leaves: false,
            ..hb::bench_tree_config()
        };
        let mc = hb::build_minuet(2, 1, cfg);
        hb::preload_minuet(&mc, 0, n);
        let rts = avg_read_rts(&mc, n, 500);
        rows.push(vec![
            if piggyback { "ON" } else { "OFF" }.to_string(),
            format!("{rts:.2}"),
        ]);
    }
    print_table(
        "ablation 1: piggy-backed validation (round trips per up-to-date read)",
        &["piggyback", "RTs/read"],
        &rows,
    );
    println!("expected: ON ~1 RT (validate-at-fetch, free commit); OFF ~2 RT (separate commit validation).");
}

fn ablation_cache(n: u64) {
    let mut rows = Vec::new();
    for cache in [true, false] {
        let cfg = TreeConfig {
            cache_internal_nodes: cache,
            // Isolate the internal-node cache: leaf caching hides the
            // leaf-fetch round trip this ablation counts levels against.
            cache_leaves: false,
            ..hb::bench_tree_config()
        };
        let mc = hb::build_minuet(2, 1, cfg);
        hb::preload_minuet(&mc, 0, n);
        let rts = avg_read_rts(&mc, n, 500);
        rows.push(vec![
            if cache { "ON" } else { "OFF" }.to_string(),
            format!("{rts:.2}"),
        ]);
    }
    print_table(
        "ablation 2: proxy internal-node cache (round trips per read)",
        &["cache", "RTs/read"],
        &rows,
    );
    println!("expected: OFF pays one extra RT per tree level above the leaf.");
}

fn ablation_blocking(n: u64) {
    let mut rows = Vec::new();
    for blocking in [true, false] {
        let cfg = TreeConfig {
            blocking_meta_updates: blocking,
            ..hb::bench_tree_config()
        };
        let mc = hb::build_minuet(4, 1, cfg);
        hb::preload_minuet(&mc, 0, n);
        mc.sinfonia.transport.set_inject(Some(hb::rtt()));
        // Several proxies race to create snapshots while updates run.
        let snaps = std::sync::atomic::AtomicU64::new(0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let t0 = std::time::Instant::now();
        let mc_ref = &mc;
        let stop_ref = &stop;
        let snaps_ref = &snaps;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let mut p = mc_ref.proxy();
                    while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                        p.create_snapshot(0).unwrap();
                        snaps_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            for t in 0..4u64 {
                s.spawn(move || {
                    let mut p = mc_ref.proxy();
                    let mut i = t;
                    while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                        p.put(0, encode_key(i % n), vec![0u8; 8]).unwrap();
                        i += 7;
                    }
                });
            }
            std::thread::sleep(hb::bench_secs().min(Duration::from_secs(2)));
            stop_ref.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let secs = t0.elapsed().as_secs_f64();
        mc.sinfonia.transport.set_inject(None);
        rows.push(vec![
            if blocking { "blocking" } else { "aborting" }.to_string(),
            format!(
                "{:.1}",
                snaps.load(std::sync::atomic::Ordering::Relaxed) as f64 / secs
            ),
        ]);
    }
    print_table(
        "ablation 3: blocking minitransactions for snapshot creation",
        &["mode", "snapshots/s"],
        &rows,
    );
    println!("expected: blocking sustains a higher snapshot rate under update contention (§4.1).");
}

fn ablation_beta() {
    let mut rows = Vec::new();
    for beta in [2usize, 4, 8] {
        let cfg = TreeConfig {
            version_mode: VersionMode::Branching,
            beta,
            max_leaf_entries: 16,
            max_internal_entries: 16,
            layout: minuet_core::LayoutParams {
                node_payload: 1024,
                slots_per_mem: 1 << 14,
                max_snapshots: 4096,
            },
            ..TreeConfig::default()
        };
        let mc = hb::build_minuet(2, 1, cfg);
        let mut p = mc.proxy();
        let n = 400u64;
        for i in 0..n {
            p.put(0, encode_key(i), vec![0u8; 8]).unwrap();
        }
        // Mainline snapshots with a writing side-branch per round: nodes
        // created early accumulate copies in many pairwise-incomparable
        // branches, overflowing descendant sets bounded by β.
        for round in 0..10u64 {
            let snap = p.create_snapshot(0).unwrap();
            let br = p.create_branch(0, snap.frozen_sid).unwrap();
            for i in 0..n {
                if i % 6 == round % 6 {
                    p.put_branch(0, br, encode_key(i), vec![1u8; 8]).unwrap();
                }
            }
            for i in 0..n {
                if i % 5 == round % 5 {
                    p.put(0, encode_key(i), vec![2u8; 8]).unwrap();
                }
            }
        }
        rows.push(vec![
            beta.to_string(),
            p.stats.cow_copies.to_string(),
            p.stats.discretionary_copies.to_string(),
            format!(
                "{:.1}%",
                100.0 * p.stats.discretionary_copies as f64 / p.stats.cow_copies.max(1) as f64
            ),
        ]);
    }
    print_table(
        "ablation 4: descendant-set bound β (space overhead of branching)",
        &["β", "CoW copies", "discretionary", "disc/CoW"],
        &rows,
    );
    println!("expected: larger β -> fewer discretionary copies (paper bounds them at <=1 per ordinary copy).");
}

fn ablation_scan_no_snapshot(n: u64) {
    let machines = 2;
    let mc = hb::build_minuet(machines, 1, hb::bench_tree_config());
    hb::preload_minuet(&mc, 0, n);
    mc.sinfonia.transport.set_inject(Some(hb::rtt()));
    let scan_len = (n / 5) as usize;
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut rows = Vec::new();
    let mc_ref = &mc;
    let stop_ref = &stop;
    std::thread::scope(|s| {
        // Update load.
        for t in 0..3u64 {
            s.spawn(move || {
                let mut p = mc_ref.proxy();
                let mut i = t;
                while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                    p.put(0, encode_key(i % n), vec![0u8; 8]).unwrap();
                    i += 13;
                }
            });
        }
        // One scanner, both ways.
        let mut p = mc.proxy();
        let deadline = std::time::Instant::now() + hb::bench_secs().min(Duration::from_secs(2));
        let mut snap_scans = 0u64;
        while std::time::Instant::now() < deadline {
            p.scan_with_snapshot(0, &encode_key(0), scan_len).unwrap();
            snap_scans += 1;
        }
        let retries_before = p.stats.retries;
        let deadline = std::time::Instant::now() + hb::bench_secs().min(Duration::from_secs(2));
        let mut ser_scans = 0u64;
        let mut ser_failures = 0u64;
        while std::time::Instant::now() < deadline {
            match p.scan_serializable(0, &encode_key(0), scan_len) {
                Ok(_) => ser_scans += 1,
                Err(_) => ser_failures += 1,
            }
        }
        let ser_retries = p.stats.retries - retries_before;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        rows.push(vec![
            "snapshot scan".to_string(),
            snap_scans.to_string(),
            "0".to_string(),
            "-".to_string(),
        ]);
        rows.push(vec![
            "serializable tip scan".to_string(),
            ser_scans.to_string(),
            ser_retries.to_string(),
            ser_failures.to_string(),
        ]);
    });
    mc.sinfonia.transport.set_inject(None);
    print_table(
        "ablation 5: scans without snapshots under a concurrent update load",
        &["method", "scans done", "aborts+retries", "gave up"],
        &rows,
    );
    println!("expected: snapshot scans never abort; unsnapshotted serializable scans abort repeatedly (§6.3).");
}

fn ablation_durability(n: u64) {
    let modes: [(&str, Option<SyncMode>); 5] = [
        ("off", None),
        ("none", Some(SyncMode::None)),
        ("async", Some(SyncMode::Async)),
        (
            "group-commit 200µs",
            Some(SyncMode::GroupCommit {
                window: Duration::from_micros(200),
            }),
        ),
        ("sync", Some(SyncMode::Sync)),
    ];
    let mut rows = Vec::new();
    for (name, mode) in modes {
        let dir;
        let mc = match mode {
            None => {
                dir = None;
                hb::build_minuet(2, 1, hb::bench_tree_config())
            }
            Some(mode) => {
                let dcfg = DurabilityConfig::ephemeral("ablation6", mode);
                dir = dcfg.dir.clone();
                hb::build_minuet_durable(2, 1, hb::bench_tree_config(), dcfg)
            }
        };
        hb::preload_minuet(&mc, 0, n);
        let total = |name| mc.sinfonia.memnode_total(name).unwrap();
        let (fsyncs0, bytes0) = (total("wal.fsyncs"), total("wal.bytes"));
        // Measured phase: closed-loop updates, injection off so the log's
        // cost (not the modeled network) dominates.
        let ops = std::sync::atomic::AtomicU64::new(0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let t0 = std::time::Instant::now();
        let mc_ref = &mc;
        let ops_ref = &ops;
        let stop_ref = &stop;
        std::thread::scope(|s| {
            // Enough closed-loop clients that group commit has a group
            // to batch (the window is paid per *batch*, not per client).
            for t in 0..8u64 {
                s.spawn(move || {
                    let mut p = mc_ref.proxy();
                    let mut i = t;
                    while !stop_ref.load(std::sync::atomic::Ordering::Relaxed) {
                        p.put(0, encode_key(i % n), vec![0u8; 8]).unwrap();
                        ops_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        i += 11;
                    }
                });
            }
            std::thread::sleep(hb::bench_secs().min(Duration::from_secs(2)));
            stop_ref.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let secs = t0.elapsed().as_secs_f64();
        let ops = ops.load(std::sync::atomic::Ordering::Relaxed);
        let fsyncs = total("wal.fsyncs") - fsyncs0;
        rows.push(vec![
            name.to_string(),
            fmt_count(ops as f64 / secs),
            format!("{:.3}", fsyncs as f64 / ops.max(1) as f64),
            fmt_bytes((total("wal.bytes") - bytes0) as f64),
            total("wal.checkpoints").to_string(),
        ]);
        drop(mc);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
    print_table(
        "ablation 6: durability modes (log-before-apply cost of updates)",
        &["mode", "puts/s", "fsyncs/op", "log bytes", "ckpts"],
        &rows,
    );
    println!(
        "expected: concurrent committers share fsyncs through the leader/follower \
         pipeline in both sync and group-commit modes (fsyncs/op well below 1 at \
         8 clients; group-commit batches harder by sleeping its window); async/none \
         pipeline at near-'off' throughput."
    );
}

fn main() {
    hb::header(
        "Ablations: piggyback, cache, blocking minitx, β, scans w/o snapshots, durability",
        "mechanism-level checks for the design choices in DESIGN.md",
    );
    let n = if hb::fast_mode() { 2_000 } else { 20_000 };
    ablation_piggyback(n);
    ablation_cache(n);
    ablation_blocking(n);
    ablation_beta();
    ablation_scan_no_snapshot(n);
    ablation_durability(n);
}
