//! Failure-injection tests: memnode crashes and recovery under live
//! B-tree traffic. Sinfonia's primary-backup replication must preserve
//! every committed operation and the atomicity of in-flight two-phase
//! minitransactions.

mod common;

use minuet::core::TreeConfig;
use minuet::sinfonia::MemNodeId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn key(i: u64) -> Vec<u8> {
    format!("f{i:06}").into_bytes()
}

#[test]
fn committed_data_survives_crash_and_recovery() {
    let mc = common::cluster(3, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..300 {
        p.put(0, key(i), i.to_le_bytes().to_vec()).unwrap();
    }
    // Crash each memnode in turn (quiescent), recover, verify everything.
    for m in 0..3u16 {
        mc.sinfonia.crash(MemNodeId(m));
        mc.sinfonia.recover(MemNodeId(m));
    }
    let mut p2 = mc.proxy();
    for i in 0..300 {
        assert_eq!(
            p2.get(0, &key(i)).unwrap(),
            Some(i.to_le_bytes().to_vec()),
            "key {i} lost after crash/recovery"
        );
    }
}

#[test]
fn writers_ride_through_crash_with_recovery() {
    let mc = common::cluster(3, 1, TreeConfig::small_nodes(8));
    {
        let mut p = mc.proxy();
        for i in 0..100 {
            p.put(0, key(i), vec![0]).unwrap();
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..3u64 {
        let mc = mc.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut acked: Vec<(u64, u64)> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let k = t * 1000 + (i % 80);
                // An acknowledged put must survive the crash.
                p.put(0, key(k), (i + 1).to_le_bytes().to_vec()).unwrap();
                acked.push((k, i + 1));
                i += 1;
            }
            acked
        }));
    }
    // Crash one memnode mid-traffic, recover shortly after. Sinfonia's
    // coordinator retries against the recovered node transparently.
    std::thread::sleep(Duration::from_millis(100));
    mc.sinfonia.crash(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(50));
    mc.sinfonia.recover(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::Relaxed);

    let mut last_acked: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for w in writers {
        for (k, v) in w.join().unwrap() {
            let e = last_acked.entry(k).or_default();
            *e = (*e).max(v);
        }
    }
    // Every acknowledged write is present with a value at least as new.
    let mut p = mc.proxy();
    for (k, v) in last_acked {
        let got = p.get(0, &key(k)).unwrap().expect("acked key lost");
        let got = u64::from_le_bytes(got.try_into().unwrap());
        assert!(got >= v, "key {k}: acked {v}, found {got}");
    }
}

#[test]
fn snapshots_survive_crashes() {
    let mc = common::cluster(2, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..150 {
        p.put(0, key(i), i.to_le_bytes().to_vec()).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    for i in 0..150 {
        p.put(0, key(i), (i + 5000).to_le_bytes().to_vec()).unwrap();
    }

    mc.sinfonia.crash(MemNodeId(0));
    mc.sinfonia.recover(MemNodeId(0));
    mc.sinfonia.crash(MemNodeId(1));
    mc.sinfonia.recover(MemNodeId(1));

    // Both the frozen snapshot and the tip are intact.
    let frozen = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(frozen.len(), 150);
    for (i, (_, v)) in frozen.iter().enumerate() {
        assert_eq!(
            u64::from_le_bytes(v.as_slice().try_into().unwrap()),
            i as u64
        );
    }
    for i in 0..150 {
        assert_eq!(
            p.get(0, &key(i)).unwrap(),
            Some((i + 5000).to_le_bytes().to_vec())
        );
    }
}

#[test]
fn in_doubt_two_phase_transactions_complete_after_recovery() {
    use minuet::sinfonia::{ItemRange, Minitransaction};
    // Substrate-level: prepare a 2PC txn, crash a participant, recover,
    // and let the coordinator finish. (The memnode-level redo behaviour
    // is tested in the sinfonia crate; this exercises the whole stack's
    // plumbing end to end — crash/recover travel as RPCs in wire mode.)
    let c = common::sinfonia_cluster(2, 1 << 20);
    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 1), vec![1]);
    m.write(ItemRange::new(MemNodeId(1), 0, 1), vec![2]);

    // Run the commit on another thread; crash node 1 concurrently. The
    // coordinator retries until recovery, then completes atomically.
    let c2 = c.clone();
    let committer = std::thread::spawn(move || c2.execute(&m).unwrap().committed());
    c.crash(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(30));
    c.recover(MemNodeId(1));
    assert!(committer.join().unwrap());
    assert_eq!(c.node(MemNodeId(0)).raw_read(0, 1).unwrap(), vec![1]);
    assert_eq!(c.node(MemNodeId(1)).raw_read(0, 1).unwrap(), vec![2]);
}

#[test]
fn unavailable_surfaces_after_retry_budget() {
    // The retry budget is coordinator-side state, so it composes with
    // either transport.
    let mut sin_cfg = common::sinfonia_config(2, 1, &TreeConfig::default());
    sin_cfg.unavailable_retry = Duration::from_millis(100);
    let mc = minuet::core::MinuetCluster::with_cluster_config(sin_cfg, 1, TreeConfig::default());
    let mut p = mc.proxy();
    p.put(0, key(1), vec![1]).unwrap();
    // Crash and do NOT recover: ops must eventually fail cleanly.
    mc.sinfonia.crash(MemNodeId(0));
    mc.sinfonia.crash(MemNodeId(1));
    let err = p.get(0, &key(1)).unwrap_err();
    assert!(matches!(err, minuet::Error::Unavailable(_)), "{err:?}");
}

/// An item that ends past its memnode's space is the caller's layout bug,
/// not a condition of the cluster: on either transport it comes back as
/// the typed `OutOfBounds` before anything is sent — no round trip, no
/// panic inside the memnode, no wait for a "dead" node to return — and
/// the memnode it named keeps serving. On a durable node nothing reaches
/// the log, so a restart replays cleanly.
#[test]
fn out_of_range_items_are_typed_errors_that_cost_no_round_trip() {
    use minuet::sinfonia::{
        ClusterConfig, DurabilityConfig, ItemRange, Minitransaction, SinfoniaCluster,
        SinfoniaError, SyncMode,
    };
    const CAPACITY: u64 = 1 << 20;
    let mem = MemNodeId(1);
    // Eight bytes that start in range and end four past it.
    let astride = ItemRange::new(mem, CAPACITY - 4, 8);
    let last = ItemRange::new(mem, CAPACITY - 16, 8);

    let refused = |c: &SinfoniaCluster| {
        let mut read = Minitransaction::new();
        read.read(astride);
        let mut cmp_write = Minitransaction::new();
        cmp_write.compare(ItemRange::new(mem, 0, 8), vec![0; 8]);
        cmp_write.write(astride, vec![7; 8]);
        let mut in_range = Minitransaction::new();
        in_range.write(ItemRange::new(mem, 64, 8), vec![1; 8]);

        let before = c.transport.stats.round_trips.get();
        let results = [
            c.execute(&read).map(|_| ()),
            c.execute(&cmp_write).map(|_| ()),
            c.exec_many(&[in_range, read.clone()]).map(|_| ()),
        ];
        for r in results {
            match r {
                Err(SinfoniaError::OutOfBounds { mem: at, .. }) => assert_eq!(at, mem),
                other => panic!("expected OutOfBounds, got {other:?}"),
            }
        }
        assert_eq!(
            c.transport.stats.round_trips.get(),
            before,
            "round trips spent"
        );
        assert_eq!(c.node(mem).raw_read(64, 8).unwrap(), vec![0; 8]);

        // The memnode is as healthy as before: its last bytes still write.
        let mut w = Minitransaction::new();
        w.write(last, vec![9; 8]);
        assert!(c.execute(&w).unwrap().committed());
        assert_eq!(c.node(mem).raw_read(last.off, 8).unwrap(), vec![9; 8]);
    };

    refused(&common::sinfonia_cluster(2, CAPACITY));

    let cfg = ClusterConfig {
        memnodes: 2,
        capacity_per_node: CAPACITY,
        durability: DurabilityConfig::ephemeral("oob-items", SyncMode::Sync),
        ..Default::default()
    };
    let dir = cfg.durability.dir.clone().unwrap();
    refused(&SinfoniaCluster::new(cfg.clone()));
    let (c, _) = SinfoniaCluster::restart_from_disk(cfg).expect("the log replays");
    assert_eq!(c.node(mem).raw_read(last.off, 8).unwrap(), vec![9; 8]);
    drop(c);
    let _ = std::fs::remove_dir_all(dir);
}
