//! Substrate-level atomicity and isolation tests: concurrent
//! minitransactions over multiple memnodes must preserve cross-node
//! invariants under contention, crashes, and blocking locks.

use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, ItemRange, MemNodeId, Minitransaction, Outcome,
    SinfoniaCluster, SyncMode,
};
use std::sync::Arc;
use std::time::Duration;

mod model;

fn cluster(n: usize) -> Arc<SinfoniaCluster> {
    SinfoniaCluster::new(ClusterConfig {
        memnodes: n,
        capacity_per_node: 1 << 20,
        ..Default::default()
    })
}

fn read_u64(c: &SinfoniaCluster, mem: u16, off: u64) -> u64 {
    let raw = c.node(MemNodeId(mem)).raw_read(off, 8).unwrap();
    u64::from_le_bytes(raw.try_into().unwrap())
}

/// Concurrent "transfers" between two accounts on different memnodes:
/// compare-and-swap both balances atomically. The total is invariant at
/// every point, and no increment is lost.
#[test]
fn cross_node_transfers_conserve_total() {
    let c = cluster(2);
    let a = ItemRange::new(MemNodeId(0), 0, 8);
    let b = ItemRange::new(MemNodeId(1), 0, 8);
    // Initialize a = 10_000, b = 0.
    let mut init = Minitransaction::new();
    init.write(a, 10_000u64.to_le_bytes().to_vec());
    init.write(b, 0u64.to_le_bytes().to_vec());
    assert!(c.execute(&init).unwrap().committed());

    let mut handles = Vec::new();
    for _ in 0..6 {
        let c = c.clone();
        handles.push(std::thread::spawn(move || {
            let mut moved = 0u64;
            while moved < 200 {
                // Read both, then CAS both.
                let mut r = Minitransaction::new();
                r.read(a);
                r.read(b);
                let vals = c.execute(&r).unwrap().into_reads().data;
                let va = u64::from_le_bytes(vals[0].clone().try_into().unwrap());
                let vb = u64::from_le_bytes(vals[1].clone().try_into().unwrap());
                if va == 0 {
                    break;
                }
                let mut w = Minitransaction::new();
                w.compare(a, va.to_le_bytes().to_vec());
                w.compare(b, vb.to_le_bytes().to_vec());
                w.write(a, (va - 1).to_le_bytes().to_vec());
                w.write(b, (vb + 1).to_le_bytes().to_vec());
                if c.execute(&w).unwrap().committed() {
                    moved += 1;
                }
            }
            moved
        }));
    }
    let total_moved: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let va = read_u64(&c, 0, 0);
    let vb = read_u64(&c, 1, 0);
    assert_eq!(va + vb, 10_000, "total must be conserved");
    assert_eq!(vb, total_moved, "every committed transfer counted once");
}

/// A concurrent observer of both balances must never see a state where
/// the sum differs from the invariant (snapshot-consistent reads via
/// locked compare+read).
#[test]
fn observers_never_see_torn_transfers() {
    let c = cluster(2);
    let a = ItemRange::new(MemNodeId(0), 0, 8);
    let b = ItemRange::new(MemNodeId(1), 0, 8);
    let mut init = Minitransaction::new();
    init.write(a, 500u64.to_le_bytes().to_vec());
    init.write(b, 500u64.to_le_bytes().to_vec());
    assert!(c.execute(&init).unwrap().committed());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mover = {
        let c = c.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let mut r = Minitransaction::new();
                r.read(a);
                r.read(b);
                let vals = c.execute(&r).unwrap().into_reads().data;
                let va = u64::from_le_bytes(vals[0].clone().try_into().unwrap());
                let vb = u64::from_le_bytes(vals[1].clone().try_into().unwrap());
                if va == 0 {
                    break;
                }
                let delta = va.min(7);
                let mut w = Minitransaction::new();
                w.compare(a, va.to_le_bytes().to_vec());
                w.compare(b, vb.to_le_bytes().to_vec());
                w.write(a, (va - delta).to_le_bytes().to_vec());
                w.write(b, (vb + delta).to_le_bytes().to_vec());
                let _ = c.execute(&w).unwrap();
            }
        })
    };
    for _ in 0..300 {
        let mut r = Minitransaction::new();
        r.read(a);
        r.read(b);
        let vals = c.execute(&r).unwrap().into_reads().data;
        let va = u64::from_le_bytes(vals[0].clone().try_into().unwrap());
        let vb = u64::from_le_bytes(vals[1].clone().try_into().unwrap());
        assert_eq!(va + vb, 1000, "atomic read saw a torn transfer");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    mover.join().unwrap();
}

/// Blocking minitransactions queue behind contention instead of aborting:
/// N writers all using blocking commits on one hot range all succeed
/// without the library-level retry loop spinning.
#[test]
fn blocking_minitx_all_succeed_under_contention() {
    let c = cluster(1);
    let hot = ItemRange::new(MemNodeId(0), 0, 8);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let c = c.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..100 {
                loop {
                    let mut r = Minitransaction::new();
                    r.read(hot);
                    let cur = c.execute(&r).unwrap().into_reads().data[0].clone();
                    let v = u64::from_le_bytes(cur.clone().try_into().unwrap());
                    let mut w = Minitransaction::new();
                    w.compare(hot, cur);
                    w.write(hot, (v + 1).to_le_bytes().to_vec());
                    let w = w.blocking(Duration::from_millis(100));
                    if c.execute(&w).unwrap().committed() {
                        break;
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(read_u64(&c, 0, 0), 400);
}

/// Crash during a storm of cross-node writes: after recovery, for every
/// slot either both memnodes have the write or neither does.
#[test]
fn crash_preserves_all_or_nothing() {
    let c = cluster(2);
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut committed = Vec::new();
                for i in 0..100u64 {
                    let off = (t * 100 + i) * 8;
                    let mut m = Minitransaction::new();
                    m.write(
                        ItemRange::new(MemNodeId(0), off, 8),
                        (i + 1).to_le_bytes().to_vec(),
                    );
                    m.write(
                        ItemRange::new(MemNodeId(1), off, 8),
                        (i + 1).to_le_bytes().to_vec(),
                    );
                    match c.execute(&m) {
                        Ok(Outcome::Committed(_)) => committed.push(off),
                        Ok(Outcome::FailedCompare(_)) => unreachable!(),
                        Err(_) => break, // unavailability surfaced; acceptable
                    }
                }
                committed
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    c.crash(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(20));
    c.recover(MemNodeId(1));

    let mut all_committed = Vec::new();
    for w in writers {
        all_committed.extend(w.join().unwrap());
    }
    // Every acknowledged commit is present on BOTH memnodes.
    for off in all_committed {
        let v0 = c.node(MemNodeId(0)).raw_read(off, 8).unwrap();
        let v1 = c.node(MemNodeId(1)).raw_read(off, 8).unwrap();
        assert_eq!(v0, v1, "committed write diverged across memnodes at {off}");
        assert_ne!(v0, vec![0u8; 8], "committed write lost at {off}");
    }
}

/// Crash injection with durability: kill a memnode mid-2PC storm and
/// recover it **from disk** (volatile state fully lost). No committed
/// minitransaction may be lost and no partial cross-node write may
/// survive: every slot is either present on both memnodes or on neither.
#[test]
fn durable_crash_mid_2pc_no_loss_no_partials() {
    let durability = DurabilityConfig::ephemeral(
        "atom-2pc",
        SyncMode::GroupCommit {
            window: Duration::from_micros(200),
        },
    );
    let dir = durability.dir.clone().unwrap();
    let c = SinfoniaCluster::new(ClusterConfig {
        memnodes: 2,
        capacity_per_node: 1 << 20,
        durability,
        ..Default::default()
    });
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut committed = Vec::new();
                for i in 0..100u64 {
                    let off = (t * 100 + i) * 8;
                    let mut m = Minitransaction::new();
                    m.write(
                        ItemRange::new(MemNodeId(0), off, 8),
                        (i + 1).to_le_bytes().to_vec(),
                    );
                    m.write(
                        ItemRange::new(MemNodeId(1), off, 8),
                        (i + 1).to_le_bytes().to_vec(),
                    );
                    match c.execute(&m) {
                        Ok(Outcome::Committed(_)) => committed.push(off),
                        Ok(Outcome::FailedCompare(_)) => unreachable!(),
                        Err(_) => break, // unavailability surfaced; acceptable
                    }
                }
                committed
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    c.crash(MemNodeId(1));
    std::thread::sleep(Duration::from_millis(20));
    c.recover(MemNodeId(1)); // disk recovery: image + redo log replay

    let mut all_committed = Vec::new();
    for w in writers {
        all_committed.extend(w.join().unwrap());
    }
    // Every acknowledged commit is present on BOTH memnodes.
    for &off in &all_committed {
        let v0 = c.node(MemNodeId(0)).raw_read(off, 8).unwrap();
        let v1 = c.node(MemNodeId(1)).raw_read(off, 8).unwrap();
        assert_eq!(v0, v1, "committed write diverged across memnodes at {off}");
        assert_ne!(v0, vec![0u8; 8], "committed write lost at {off}");
    }
    // And *every* slot is all-or-nothing, acknowledged or not.
    for off in (0..4 * 100 * 8).step_by(8) {
        let v0 = c.node(MemNodeId(0)).raw_read(off, 8).unwrap();
        let v1 = c.node(MemNodeId(1)).raw_read(off, 8).unwrap();
        assert_eq!(v0, v1, "partial cross-node write survived at {off}");
    }
    assert_eq!(c.node(MemNodeId(0)).in_doubt(), Ok(0));
    assert_eq!(c.node(MemNodeId(1)).in_doubt(), Ok(0));
    drop(c);
    let _ = std::fs::remove_dir_all(dir);
}

/// Compare failures report exact indices across shards.
#[test]
fn failed_compare_indices_are_global() {
    let c = cluster(3);
    let mut init = Minitransaction::new();
    init.write(ItemRange::new(MemNodeId(1), 0, 1), vec![9]);
    assert!(c.execute(&init).unwrap().committed());

    let mut m = Minitransaction::new();
    m.compare(ItemRange::new(MemNodeId(0), 0, 1), vec![0]); // ok
    m.compare(ItemRange::new(MemNodeId(1), 0, 1), vec![1]); // fails (is 9)
    m.compare(ItemRange::new(MemNodeId(2), 0, 1), vec![0]); // ok
    m.write(ItemRange::new(MemNodeId(2), 8, 1), vec![1]);
    match c.execute(&m).unwrap() {
        Outcome::FailedCompare(idx) => assert_eq!(idx, vec![1]),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(c.node(MemNodeId(2)).raw_read(8, 1).unwrap(), vec![0]);
}

/// Item indices are handed out by counters in the `Minitransaction`
/// builder as each item goes into its memnode's shard; nothing downstream
/// renumbers them. Random minitransactions over one, two and three
/// memnodes, through `execute` and `exec_many`, against a byte-map model
/// (see `model/mod.rs` for what is held to it).
#[test]
fn indices_survive_sharding() {
    let cases = proptest::test_runner::ProptestConfig::default().cases;
    for n_mems in 1..=3u16 {
        model::indices_survive_sharding(&cluster(n_mems as usize), n_mems, cases);
    }
}
