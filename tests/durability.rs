//! Full-stack durability: a Minuet tree — catalog, nodes, snapshots —
//! must come back byte-identical from a whole-cluster restart off disk.
//!
//! Runs on both transports: in-process the restart is
//! `restart_from_disk`; under `MINUET_TRANSPORT=wire` the harness
//! power-cycles real durable daemons and re-attaches a fresh
//! coordinator (see `common::DurableHarness`).

mod common;

use common::DurableHarness;
use minuet::core::TreeConfig;
use minuet::sinfonia::{MemNodeId, SyncMode};
use std::time::Duration;

fn key(i: u64) -> Vec<u8> {
    format!("d{i:06}").into_bytes()
}

/// Acceptance: a whole-cluster restart preserves every committed
/// key/version — pre-crash and post-recovery snapshot scans are equal,
/// for both the frozen snapshot and the moving tip.
#[test]
fn full_cluster_restart_preserves_every_version() {
    let (mut h, mc) = DurableHarness::create(
        "minuet-restart",
        3,
        1,
        TreeConfig::small_nodes(8),
        SyncMode::None,
    );

    let mut p = mc.proxy();
    for i in 0..200u64 {
        p.put(0, key(i), i.to_le_bytes().to_vec()).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    for i in 0..200u64 {
        p.put(0, key(i), (i + 9000).to_le_bytes().to_vec()).unwrap();
    }
    for i in 200..260u64 {
        p.put(0, key(i), i.to_le_bytes().to_vec()).unwrap();
    }
    let pre_snap = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    let pre_tip = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(pre_snap.len(), 200);
    assert_eq!(pre_tip.len(), 260);

    // Power off the whole cluster.
    drop(p);
    drop(mc);

    let (mc2, res) = h.restart();
    assert_eq!(res.committed + res.aborted, 0, "quiescent shutdown");
    let mut p2 = mc2.proxy();
    let post_snap = p2.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    let post_tip = p2.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(
        pre_snap, post_snap,
        "frozen snapshot changed across restart"
    );
    assert_eq!(pre_tip, post_tip, "tip changed across restart");

    // The reopened tree is fully serviceable: updates, new snapshots,
    // scans of both.
    p2.put(0, key(5), b"post-restart".to_vec()).unwrap();
    let snap2 = p2.create_snapshot(0).unwrap();
    assert!(snap2.frozen_sid > snap.frozen_sid);
    assert_eq!(
        p2.get_at(0, snap2.frozen_sid, &key(5)).unwrap(),
        Some(b"post-restart".to_vec())
    );
    assert_eq!(
        p2.get_at(0, snap.frozen_sid, &key(5)).unwrap(),
        Some(5u64.to_le_bytes().to_vec()),
        "old snapshot must still show the old version"
    );

    drop(p2);
    drop(mc2);
    h.cleanup();
}

/// Restart under live traffic cut off mid-flight: acknowledged puts
/// survive; the tree stays structurally sound (scan sees every
/// acknowledged key).
#[test]
fn restart_after_unclean_shutdown_keeps_acked_puts() {
    let (mut h, mc) = DurableHarness::create(
        "minuet-unclean",
        2,
        1,
        TreeConfig::small_nodes(8),
        SyncMode::Async,
    );
    {
        let mut p = mc.proxy();
        for i in 0..150u64 {
            p.put(0, key(i), (i + 1).to_le_bytes().to_vec()).unwrap();
        }
    }
    // Crash every memnode (volatile state gone), then abandon the cluster
    // object — the classic whole-datacenter power cut.
    mc.sinfonia.crash(MemNodeId(0));
    mc.sinfonia.crash(MemNodeId(1));
    drop(mc);

    let (mc2, _) = h.restart();
    let mut p = mc2.proxy();
    for i in 0..150u64 {
        assert_eq!(
            p.get(0, &key(i)).unwrap(),
            Some((i + 1).to_le_bytes().to_vec()),
            "acked key {i} lost across unclean restart"
        );
    }
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), 150);
    // Every memnode reports its log on disk, at the cluster level.
    let n = mc2.sinfonia.n() as u64;
    assert_eq!(mc2.sinfonia.memnode_total("wal.durable"), Ok(n));
    drop(p);
    drop(mc2);
    h.cleanup();
}

/// Durable memnode crash+disk-recovery under live B-tree traffic (the
/// Sinfonia-level scenario of `tests/failures.rs`, now through the log).
#[test]
fn btree_writers_ride_through_disk_recovery() {
    let (h, mc) = DurableHarness::create(
        "minuet-ride",
        2,
        1,
        TreeConfig::small_nodes(8),
        SyncMode::GroupCommit {
            window: Duration::from_micros(200),
        },
    );
    {
        let mut p = mc.proxy();
        for i in 0..80u64 {
            p.put(0, key(i), vec![0]).unwrap();
        }
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..2u64 {
        let mc = mc.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut i = 0u64;
            let mut acked = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let k = t * 1000 + (i % 60);
                p.put(0, key(k), (i + 1).to_le_bytes().to_vec()).unwrap();
                acked.push((k, i + 1));
                i += 1;
            }
            acked
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    mc.sinfonia.crash(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(30));
    mc.sinfonia.recover(MemNodeId(1)); // from checkpoint + log
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for w in writers {
        for (k, v) in w.join().unwrap() {
            let e = last.entry(k).or_default();
            *e = (*e).max(v);
        }
    }
    let mut p = mc.proxy();
    for (k, v) in last {
        let got = p.get(0, &key(k)).unwrap().expect("acked key lost");
        let got = u64::from_le_bytes(got.try_into().unwrap());
        assert!(got >= v, "key {k}: acked {v}, found {got}");
    }
    drop(p);
    drop(mc);
    h.cleanup();
}

/// Same-size updates commit as byte ranges — a seqno and the changed
/// value, not the leaf — and the log must replay them onto the images
/// they patch: after many rounds of them and a power cut, the recovered
/// tree equals the model.
#[test]
fn same_size_updates_recover_from_the_log() {
    let (mut h, mc) = DurableHarness::create(
        "minuet-ranged",
        2,
        1,
        TreeConfig::small_nodes(8),
        SyncMode::Async,
    );
    let mut model = std::collections::BTreeMap::new();
    {
        let mut p = mc.proxy();
        for i in 0..120u64 {
            p.put(0, key(i), 0u64.to_le_bytes().to_vec()).unwrap();
            model.insert(key(i), 0u64.to_le_bytes().to_vec());
        }
        for round in 1..=6u64 {
            for i in (0..120u64).filter(|i| i % 3 != round % 3) {
                let value = (round * 1000 + i).to_le_bytes().to_vec();
                p.put(0, key(i), value.clone()).unwrap();
                model.insert(key(i), value);
            }
        }
        // The updates did ship ranges: a cached same-size put sends far
        // less than its leaf.
        p.get(0, &key(7)).unwrap();
        let (put, net) =
            minuet::sinfonia::with_op_net(|| p.put(0, key(7), 7u64.to_le_bytes().to_vec()));
        put.unwrap();
        model.insert(key(7), 7u64.to_le_bytes().to_vec());
        assert_eq!(net.round_trips, 1);
        assert!(net.bytes_out < 200, "same-size put sent {}", net.bytes_out);
    }
    mc.sinfonia.crash(MemNodeId(0));
    mc.sinfonia.crash(MemNodeId(1));
    drop(mc);

    let (mc2, _) = h.restart();
    let mut p = mc2.proxy();
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    let model: Vec<_> = model.into_iter().collect();
    assert_eq!(all, model, "recovered tree differs from the model");
    drop(p);
    drop(mc2);
    h.cleanup();
}
