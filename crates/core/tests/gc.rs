//! Garbage-collection tests (§4.4, §5.2).

use minuet_core::{occupancy, Error, Key, MinuetCluster, TreeConfig, Value, VersionMode};
use std::collections::BTreeMap;

fn key(i: u64) -> Vec<u8> {
    format!("k{:08}", i).into_bytes()
}

fn val(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

#[test]
fn sweep_reclaims_superseded_nodes() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    for i in 0..200 {
        p.put(0, key(i), val(i)).unwrap();
    }
    // Burn through several snapshots, rewriting everything each time: each
    // round copies every leaf + path.
    let mut frozen = Vec::new();
    for round in 1..=5u64 {
        let s = p.create_snapshot(0).unwrap();
        frozen.push(s.frozen_sid);
        for i in 0..200 {
            p.put(0, key(i), val(round * 1000 + i)).unwrap();
        }
    }
    // Nothing reclaimable yet (watermark 0).
    let s0 = p.gc_sweep(0).unwrap();
    assert_eq!(s0.freed, 0, "nothing freeable below watermark: {s0:?}");

    // Drop all frozen snapshots.
    let tip_sid = p.current_tip(0).unwrap().0;
    p.set_watermark(0, tip_sid).unwrap();
    let s1 = p.gc_sweep(0).unwrap();
    assert!(s1.freed > 100, "expected substantial reclamation: {s1:?}");

    // Tip data is fully intact afterwards.
    for i in 0..200 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(5000 + i)));
    }
    // Freed slots are reused by new inserts.
    for i in 200..400 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in 200..400 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(i)));
    }
}

#[test]
fn sweep_respects_watermark_boundary() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    for i in 0..100 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap_a = p.create_snapshot(0).unwrap(); // old state
    for i in 0..100 {
        p.put(0, key(i), val(10_000 + i)).unwrap();
    }
    let snap_b = p.create_snapshot(0).unwrap(); // middle state
    for i in 0..100 {
        p.put(0, key(i), val(20_000 + i)).unwrap();
    }

    // Keep snapshots >= snap_b; snap_a becomes unreachable.
    p.set_watermark(0, snap_b.frozen_sid).unwrap();
    let s = p.gc_sweep(0).unwrap();
    assert!(s.freed > 0);

    // snap_b still scans exactly the middle state.
    let got = p.scan_at(0, snap_b.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(got.len(), 100);
    for (i, (_, v)) in got.iter().enumerate() {
        assert_eq!(v, &val(10_000 + i as u64));
    }
    // The tip still scans the latest state.
    for i in 0..100 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(20_000 + i)));
    }
    let _ = snap_a;
}

/// Leaves a proxy cached frozen at a live snapshot keep answering for it
/// after a sweep has freed an older snapshot's nodes and the freed slots
/// have been reused. A scan at the deleted snapshot fails, by a fresh
/// proxy exactly as it does without the frozen cache; by the warm proxy,
/// it fails the same way or returns that snapshot's exact rows — never
/// other rows.
#[test]
fn frozen_leaves_survive_gc_and_slot_reuse() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    let mut model = BTreeMap::new();
    for i in 0..200 {
        p.put(0, key(i), val(i)).unwrap();
        model.insert(key(i), val(i));
    }
    let old = p.create_snapshot(0).unwrap().frozen_sid;
    let old_rows: Vec<(Key, Value)> = model.clone().into_iter().collect();
    for i in (0..200).step_by(2) {
        p.put(0, key(i), val(1000 + i)).unwrap();
        model.insert(key(i), val(1000 + i));
    }
    let live = p.create_snapshot(0).unwrap().frozen_sid;
    let live_rows: Vec<(Key, Value)> = model.into_iter().collect();
    for i in 0..200 {
        p.put(0, key(i), val(2000 + i)).unwrap();
    }

    // A fills frozen leaves at both snapshots.
    let mut a = mc.proxy();
    assert_eq!(a.scan_at(0, old, b"", usize::MAX).unwrap(), old_rows);
    assert_eq!(a.scan_at(0, live, b"", usize::MAX).unwrap(), live_rows);

    // The older snapshot goes, and so do the nodes only it reached.
    p.delete_snapshot(0, old).unwrap();
    p.set_watermark(0, live).unwrap();
    assert!(p.gc_sweep(0).unwrap().freed > 0);
    // Allocate until every freed slot is taken again.
    let free = |mc: &MinuetCluster| -> u32 {
        occupancy(mc, 0)
            .unwrap()
            .iter()
            .map(|m| m.free_listed)
            .sum()
    };
    let mut i = 200;
    while free(&mc) > 0 {
        p.put(0, key(i), val(i)).unwrap();
        i += 1;
        assert!(i < 20_000, "freed slots were never reused");
    }
    for j in i..i + 200 {
        p.put(0, key(j), val(j)).unwrap();
    }

    for round in 0..2 {
        assert_eq!(
            a.scan_at(0, live, b"", usize::MAX).unwrap(),
            live_rows,
            "warm scan, round {round}"
        );
    }
    assert_eq!(
        mc.proxy().scan_at(0, live, b"", usize::MAX).unwrap(),
        live_rows
    );

    let reclaimed = Error::TooManyRetries { attempts: 500 };
    let cold = mc.proxy().scan_at(0, old, b"", usize::MAX);
    assert_eq!(cold.unwrap_err(), reclaimed);
    match a.scan_at(0, old, b"", usize::MAX) {
        Ok(rows) => assert_eq!(rows, old_rows),
        Err(e) => assert_eq!(e, reclaimed),
    }
}

#[test]
fn sweep_with_concurrent_writers_is_safe() {
    let mc = MinuetCluster::new(3, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..300 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for _ in 0..3 {
        p.create_snapshot(0).unwrap();
        for i in 0..300 {
            p.put(0, key(i), val(i + 777)).unwrap();
        }
    }
    let tip = p.current_tip(0).unwrap().0;
    p.set_watermark(0, tip).unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3 {
        let mc = mc.clone();
        let stop = stop.clone();
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                p.put(0, key((t * 100 + i) % 300), val(i)).unwrap();
                i += 1;
            }
        }));
    }
    // Sweep repeatedly under fire.
    let mut total_freed = 0;
    for _ in 0..5 {
        total_freed += p.gc_sweep(0).unwrap().freed;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(total_freed > 0);
    // Tree is still fully consistent.
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), 300);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn deleted_branch_nodes_reclaimed() {
    let cfg = TreeConfig {
        version_mode: VersionMode::Branching,
        beta: 2,
        ..TreeConfig::small_nodes(4)
    };
    let mc = MinuetCluster::new(2, 1, cfg);
    let mut p = mc.proxy();
    for i in 0..100 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    let branch = p.create_branch(0, snap.frozen_sid).unwrap();
    // Heavy writes on the branch allocate many branch-exclusive nodes.
    for i in 0..100 {
        p.put_branch(0, branch, key(i), val(90_000 + i)).unwrap();
    }
    let before = p.gc_sweep(0).unwrap();
    assert_eq!(before.freed, 0, "branch is live: {before:?}");

    // Delete the branch ("what-if" analysis over): its nodes are freed.
    p.delete_snapshot(0, branch).unwrap();
    let after = p.gc_sweep(0).unwrap();
    assert!(after.freed > 20, "expected branch nodes freed: {after:?}");

    // Base snapshot and mainline unaffected.
    for i in 0..100 {
        assert_eq!(p.get_at(0, snap.frozen_sid, &key(i)).unwrap(), Some(val(i)));
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(i)));
    }
}

#[test]
fn cannot_delete_mainline_tip() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    p.put(0, key(0), val(0)).unwrap();
    let tip = p.current_tip(0).unwrap().0;
    assert!(p.delete_snapshot(0, tip).is_err());
}

#[test]
fn repeated_snapshot_churn_with_gc_stays_bounded() {
    // Simulates the bench loop: snapshot + rewrite + GC; slot usage must
    // stay bounded (the allocator reuses freed slots instead of bumping
    // forever).
    let cfg = TreeConfig {
        layout: minuet_core::LayoutParams {
            node_payload: 1024,
            slots_per_mem: 2048,
            max_snapshots: 4096,
        },
        max_leaf_entries: 8,
        max_internal_entries: 8,
        ..TreeConfig::default()
    };
    let mc = MinuetCluster::new(2, 1, cfg);
    let mut p = mc.proxy();
    for i in 0..200 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for round in 0..30u64 {
        let _ = p.create_snapshot(0).unwrap();
        for i in 0..200 {
            p.put(0, key(i), val(round * 100 + i)).unwrap();
        }
        let tip = p.current_tip(0).unwrap().0;
        p.set_watermark(0, tip).unwrap();
        p.gc_sweep(0).unwrap();
    }
    // If GC failed to recycle, 30 rounds × ~60 nodes/rewrite would blow
    // through 2048 slots/memnode. Getting here without OutOfSlots is the
    // assertion; verify content too.
    for i in 0..200 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(2900 + i)));
    }
}
