//! Integration tests for the core B-tree: ordered-map semantics, splits,
//! deep trees, snapshots, scans, and concurrent access.

use minuet_core::{ConcurrencyMode, MinuetCluster, TreeConfig};
use std::collections::BTreeMap;

fn key(i: u64) -> Vec<u8> {
    format!("user{:010}", i).into_bytes()
}

fn val(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

#[test]
fn put_get_remove_roundtrip() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    let mut p = mc.proxy();
    assert_eq!(p.get(0, &key(1)).unwrap(), None);
    assert_eq!(p.put(0, key(1), val(10)).unwrap(), None);
    assert_eq!(p.get(0, &key(1)).unwrap(), Some(val(10)));
    assert_eq!(p.put(0, key(1), val(20)).unwrap(), Some(val(10)));
    assert_eq!(p.remove(0, &key(1)).unwrap(), Some(val(20)));
    assert_eq!(p.get(0, &key(1)).unwrap(), None);
    assert_eq!(p.remove(0, &key(1)).unwrap(), None);
}

#[test]
fn matches_btreemap_with_splits() {
    // Tiny nodes force many splits and a multi-level tree.
    let mc = MinuetCluster::new(3, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    let mut model = BTreeMap::new();
    // Deterministic pseudo-random op sequence.
    let mut x = 12345u64;
    for _ in 0..2000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = x % 300;
        match x % 10 {
            0..=6 => {
                let old = p.put(0, key(k), val(x)).unwrap();
                assert_eq!(old, model.insert(key(k), val(x)));
            }
            7 | 8 => {
                let old = p.remove(0, &key(k)).unwrap();
                assert_eq!(old, model.remove(&key(k)));
            }
            _ => {
                assert_eq!(p.get(0, &key(k)).unwrap(), model.get(&key(k)).cloned());
            }
        }
    }
    // Full scan equals the model (serializable tip scan; no writers).
    let scanned = p.scan_serializable(0, b"", usize::MAX).unwrap();
    let expect: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(scanned, expect);
    assert!(p.stats.splits > 0, "test must exercise splits");
}

#[test]
fn sequential_and_reverse_insertions() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    for i in 0..300 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in (1000..1300).rev() {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in 0..300 {
        assert_eq!(p.get(0, &key(i)).unwrap(), Some(val(i)), "key {i}");
        assert_eq!(p.get(0, &key(1000 + i)).unwrap(), Some(val(1000 + i)));
    }
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), 600);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted order");
}

#[test]
fn full_validation_mode_equivalent() {
    let cfg = TreeConfig {
        mode: ConcurrencyMode::FullValidation,
        ..TreeConfig::small_nodes(4)
    };
    let mc = MinuetCluster::new(3, 1, cfg);
    let mut p = mc.proxy();
    for i in 0..500 {
        p.put(0, key(i * 7 % 500), val(i)).unwrap();
    }
    for i in 0..500 {
        assert!(p.get(0, &key(i * 7 % 500)).unwrap().is_some());
    }
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), 500);
}

#[test]
fn snapshot_isolation_basic() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    for i in 0..100 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    // Mutate the tip heavily after the snapshot.
    for i in 0..100 {
        p.put(0, key(i), val(i + 10_000)).unwrap();
    }
    for i in 100..200 {
        p.put(0, key(i), val(i)).unwrap();
    }
    for i in 0..50 {
        p.remove(0, &key(i * 2)).unwrap();
    }
    // The snapshot still shows exactly the frozen state.
    let frozen = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(frozen.len(), 100);
    for (i, (k, v)) in frozen.iter().enumerate() {
        assert_eq!(k, &key(i as u64));
        assert_eq!(v, &val(i as u64));
    }
    // Point reads on the snapshot too.
    assert_eq!(p.get_at(0, snap.frozen_sid, &key(0)).unwrap(), Some(val(0)));
    // And the tip shows the new state.
    assert_eq!(p.get(0, &key(1)).unwrap(), Some(val(10_001)));
    assert_eq!(p.get(0, &key(0)).unwrap(), None);
}

#[test]
fn chained_snapshots_each_frozen() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
    let mut p = mc.proxy();
    let mut sids = Vec::new();
    for round in 0u64..5 {
        for i in 0..40 {
            p.put(0, key(i), val(round * 1000 + i)).unwrap();
        }
        let s = p.create_snapshot(0).unwrap();
        sids.push((s.frozen_sid, round));
    }
    for (sid, round) in sids {
        let frozen = p.scan_at(0, sid, b"", usize::MAX).unwrap();
        assert_eq!(frozen.len(), 40, "snapshot {sid}");
        for (i, (_, v)) in frozen.iter().enumerate() {
            assert_eq!(v, &val(round * 1000 + i as u64), "snapshot {sid} key {i}");
        }
    }
}

#[test]
fn concurrent_writers_distinct_keys() {
    let mc = MinuetCluster::new(4, 1, TreeConfig::small_nodes(8));
    let threads = 8;
    let per = 200u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let mc = mc.clone();
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            for i in 0..per {
                let k = t as u64 * per + i;
                p.put(0, key(k), val(k)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut p = mc.proxy();
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), (threads as usize) * per as usize);
    for (k, v) in all {
        let i = u64::from_le_bytes(v.try_into().unwrap());
        assert_eq!(k, key(i));
    }
}

#[test]
fn concurrent_writers_same_keys_last_write_wins() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
    let threads = 6;
    let mut handles = Vec::new();
    for t in 0..threads {
        let mc = mc.clone();
        handles.push(std::thread::spawn(move || {
            let mut p = mc.proxy();
            for i in 0..100u64 {
                p.put(0, key(i % 20), val(t as u64 * 1000 + i)).unwrap();
            }
            p.stats
        }));
    }
    let mut total_retries = 0;
    for h in handles {
        total_retries += h.join().unwrap().retries;
    }
    let mut p = mc.proxy();
    let all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(all.len(), 20);
    // Contention should actually have happened for this test to be
    // meaningful (OCC aborts + retries).
    let _ = total_retries;
}

#[test]
fn multi_tree_transactions_atomic() {
    let mc = MinuetCluster::new(3, 2, TreeConfig::default());
    let mut p = mc.proxy();
    p.put(0, b"acct".to_vec(), 100u64.to_le_bytes().to_vec())
        .unwrap();
    p.put(1, b"acct".to_vec(), 0u64.to_le_bytes().to_vec())
        .unwrap();

    // Transfer from tree 0 to tree 1 atomically, under concurrent
    // interference on both trees.
    let noise = std::thread::spawn(move || {
        let mut p = mc.proxy();
        for i in 0..300u64 {
            p.put(0, format!("noise{}", i % 10).into_bytes(), val(i))
                .unwrap();
            p.put(1, format!("noise{}", i % 10).into_bytes(), val(i))
                .unwrap();
        }
    });

    for _ in 0..50 {
        p.txn(|t| {
            let a = u64::from_le_bytes(t.get(0, b"acct")?.unwrap().try_into().unwrap());
            let b = u64::from_le_bytes(t.get(1, b"acct")?.unwrap().try_into().unwrap());
            t.put(0, b"acct".to_vec(), (a - 2).to_le_bytes().to_vec())?;
            t.put(1, b"acct".to_vec(), (b + 2).to_le_bytes().to_vec())?;
            Ok(())
        })
        .unwrap();
    }
    noise.join().unwrap();

    let a = u64::from_le_bytes(p.get(0, b"acct").unwrap().unwrap().try_into().unwrap());
    let b = u64::from_le_bytes(p.get(1, b"acct").unwrap().unwrap().try_into().unwrap());
    assert_eq!(a, 0);
    assert_eq!(b, 100);
}

/// Regression: a `txn` retry must stop trusting the cached tip of the
/// trees *it touched*. It used to invalidate tree 0 whatever the closure
/// did, so after another proxy snapshotted tree 1 a `txn` on tree 1
/// re-assumed the same stale tip on every attempt until the budget ran
/// out.
#[test]
fn txn_retry_refreshes_the_trees_it_touched() {
    let cfg = TreeConfig {
        max_op_retries: 200,
        ..Default::default()
    };
    let mc = MinuetCluster::new(2, 2, cfg);
    let (mut a, mut b) = (mc.proxy(), mc.proxy());

    // One tree, not tree 0.
    a.txn(|t| t.put(1, key(1), val(1))).unwrap();
    b.create_snapshot(1).unwrap();
    let before = a.stats.retries;
    a.txn(|t| t.put(1, key(1), val(2))).unwrap();
    assert!(a.stats.retries - before <= 2, "{:?}", a.stats);
    assert_eq!(a.get(1, &key(1)).unwrap(), Some(val(2)));

    // Both trees in one closure, both tips stale.
    a.txn(|t| {
        t.put(0, key(2), val(1))?;
        t.put(1, key(2), val(1))
    })
    .unwrap();
    b.create_snapshot(0).unwrap();
    b.create_snapshot(1).unwrap();
    let before = a.stats.retries;
    a.txn(|t| {
        t.put(0, key(2), val(2))?;
        t.put(1, key(2), val(2))
    })
    .unwrap();
    assert!(a.stats.retries - before <= 2, "{:?}", a.stats);
    assert_eq!(a.get(0, &key(2)).unwrap(), Some(val(2)));
    assert_eq!(a.get(1, &key(2)).unwrap(), Some(val(2)));
}

#[test]
fn snapshot_scan_ignores_concurrent_updates() {
    let mc = MinuetCluster::new(3, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..500 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let stop2 = stop.clone();
    let progress2 = progress.clone();
    let writer = std::thread::spawn(move || {
        let mut p = mc.proxy();
        let mut i = 0u64;
        while !stop2.load(std::sync::atomic::Ordering::Relaxed) {
            p.put(0, key(i % 500), val(i + 1_000_000)).unwrap();
            i += 1;
            progress2.store(i, std::sync::atomic::Ordering::Relaxed);
        }
        i
    });
    // Don't start scanning until the writer is demonstrably firing, so the
    // scans genuinely overlap updates (and `writes > 0` below can't race
    // thread scheduling).
    while progress.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        if writer.is_finished() {
            // Writer died before its first write; join to surface its panic.
            writer.join().unwrap();
            panic!("writer exited without writing");
        }
        std::thread::yield_now();
    }

    // Scans on the frozen snapshot under fire: always exactly the frozen
    // content.
    for _ in 0..10 {
        let frozen = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
        assert_eq!(frozen.len(), 500);
        for (i, (k, v)) in frozen.iter().enumerate() {
            assert_eq!(k, &key(i as u64));
            assert_eq!(v, &val(i as u64));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let writes = writer.join().unwrap();
    assert!(writes > 0);
}

#[test]
fn a_scan_counts_one_op_whatever_its_steps() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
    let mut p = mc.proxy();
    for i in 0..500 {
        p.put(0, key(i), val(i)).unwrap();
    }
    let snap = p.create_snapshot(0).unwrap();
    let before = p.stats;
    // About a hundred leaves of 4 to 8 keys under many parents: many steps.
    assert_eq!(
        p.scan_at(0, snap.frozen_sid, b"", usize::MAX)
            .unwrap()
            .len(),
        500
    );
    assert_eq!(p.scan_at(0, snap.frozen_sid, &key(17), 3).unwrap().len(), 3);
    assert_eq!(p.stats.ops - before.ops, 2);
    let before = p.stats;
    assert_eq!(p.scan_serializable(0, b"", usize::MAX).unwrap().len(), 500);
    assert_eq!(p.stats.ops - before.ops, 1);
}
