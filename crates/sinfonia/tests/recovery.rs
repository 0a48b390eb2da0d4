//! Durability tests: whole-cluster restart from disk, checkpoint/log
//! interaction, and in-doubt two-phase resolution after coordinator loss.
//!
//! `four_ways_to_the_same_state` arms the process-global failpoint
//! registry, so every test here holds `faults::test_guard()`: an armed
//! append failure must fire in the schedule that armed it, not in a
//! neighbour's log.

use minuet_faults as faults;
use minuet_sinfonia::memnode::{SingleResult, Vote};
use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, ItemRange, LockPolicy, MemNode, MemNodeId, Minitransaction,
    Resolution, SinfoniaCluster, SyncMode, Unavailable,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod model;

fn dur_cluster(
    tag: &str,
    memnodes: usize,
    sync: SyncMode,
) -> (Arc<SinfoniaCluster>, ClusterConfig, PathBuf) {
    let durability = DurabilityConfig {
        // Manual checkpoints only: these tests control truncation points.
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral(tag, sync)
    };
    let dir = durability.dir.clone().unwrap();
    let cfg = ClusterConfig {
        memnodes,
        capacity_per_node: 1 << 20,
        durability,
        ..Default::default()
    };
    (SinfoniaCluster::new(cfg.clone()), cfg, dir)
}

fn write_both(c: &SinfoniaCluster, off: u64, val: u8) {
    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), off, 1), vec![val]);
    m.write(ItemRange::new(MemNodeId(1), off, 1), vec![val]);
    assert!(c.execute(&m).unwrap().committed());
}

/// Manually runs phase one of a cross-node minitransaction at a subset of
/// its participants, simulating a coordinator that died mid-protocol.
fn prepare_at(c: &SinfoniaCluster, txid: u64, m: &Minitransaction, at: &[u16]) -> Vec<MemNodeId> {
    let participants = m.participants();
    for (mem, shard) in m.shards().iter().filter(|(mem, _)| at.contains(&mem.0)) {
        let vote = c
            .node(*mem)
            .prepare(txid, shard, LockPolicy::AbortOnBusy, &participants)
            .unwrap();
        assert!(matches!(vote, minuet_sinfonia::memnode::Vote::Ok(_)));
    }
    participants
}

#[test]
fn restart_preserves_committed_minitransactions() {
    let _faults = faults::test_guard();
    let (c, cfg, dir) = dur_cluster("restart-basic", 2, SyncMode::Sync);
    // One-phase commits on each node, plus cross-node two-phase commits.
    for i in 0..50u64 {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId((i % 2) as u16), 64 + i * 8, 8),
            (i + 1).to_le_bytes().to_vec(),
        );
        assert!(c.execute(&m).unwrap().committed());
    }
    for i in 0..20u64 {
        write_both(&c, i, (i + 1) as u8);
    }
    let fsyncs = c.memnode_total("wal.fsyncs").unwrap();
    assert!(
        fsyncs >= 70,
        "sync mode must fsync per commit, got {fsyncs}"
    );
    drop(c);

    let (c2, res) = SinfoniaCluster::restart_from_disk(cfg).unwrap();
    assert_eq!(res.committed + res.aborted, 0, "nothing was in doubt");
    for i in 0..50u64 {
        let node = c2.node(MemNodeId((i % 2) as u16));
        assert_eq!(
            node.raw_read(64 + i * 8, 8).unwrap(),
            (i + 1).to_le_bytes().to_vec()
        );
    }
    for i in 0..20u64 {
        assert_eq!(
            c2.node(MemNodeId(0)).raw_read(i, 1).unwrap(),
            vec![(i + 1) as u8]
        );
        assert_eq!(
            c2.node(MemNodeId(1)).raw_read(i, 1).unwrap(),
            vec![(i + 1) as u8]
        );
    }
    // Service resumes with fresh (non-colliding) transaction ids.
    write_both(&c2, 999, 7);
    assert_eq!(c2.node(MemNodeId(1)).raw_read(999, 1).unwrap(), vec![7]);
    drop(c2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Acceptance: in-doubt 2PC recovery under group commit. Both participants
/// voted yes, the coordinator vanished before phase two — restart must
/// commit (participants never unilaterally abort after voting yes).
#[test]
fn in_doubt_all_yes_commits_on_restart_group_commit() {
    let _faults = faults::test_guard();
    let (c, cfg, dir) = dur_cluster(
        "indoubt-yes",
        2,
        SyncMode::GroupCommit {
            window: Duration::from_millis(1),
        },
    );
    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
    m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
    let txid = c.next_txid();
    prepare_at(&c, txid, &m, &[0, 1]);
    assert_eq!(c.node(MemNodeId(0)).in_doubt(), Ok(1));
    drop(c); // coordinator and cluster die before any decision

    let (c2, res) = SinfoniaCluster::restart_from_disk(cfg).unwrap();
    assert_eq!(res.committed, 1);
    assert_eq!(res.aborted, 0);
    assert_eq!(
        c2.node(MemNodeId(0)).raw_read(0, 4).unwrap(),
        vec![1, 2, 3, 4]
    );
    assert_eq!(
        c2.node(MemNodeId(1)).raw_read(0, 4).unwrap(),
        vec![5, 6, 7, 8]
    );
    assert_eq!(c2.node(MemNodeId(0)).in_doubt(), Ok(0));
    assert_eq!(c2.node(MemNodeId(1)).in_doubt(), Ok(0));
    // Locks were released by the resolution: the range is writable again.
    write_both(&c2, 0, 9);
    drop(c2);
    let _ = std::fs::remove_dir_all(dir);
}

/// A participant that never voted makes the outcome abort: no partial
/// writes may survive the restart.
#[test]
fn in_doubt_partial_prepare_aborts_on_restart() {
    let _faults = faults::test_guard();
    let (c, cfg, dir) = dur_cluster(
        "indoubt-no",
        2,
        SyncMode::GroupCommit {
            window: Duration::from_millis(1),
        },
    );
    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
    m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
    let txid = c.next_txid();
    // Only memnode 0 ever receives the prepare.
    prepare_at(&c, txid, &m, &[0]);
    drop(c);

    let (c2, res) = SinfoniaCluster::restart_from_disk(cfg).unwrap();
    assert_eq!(res.committed, 0);
    assert_eq!(res.aborted, 1);
    assert_eq!(c2.node(MemNodeId(0)).raw_read(0, 4).unwrap(), vec![0; 4]);
    assert_eq!(c2.node(MemNodeId(1)).raw_read(0, 4).unwrap(), vec![0; 4]);
    assert_eq!(c2.node(MemNodeId(0)).in_doubt(), Ok(0));
    write_both(&c2, 0, 3); // locks free again
    drop(c2);
    let _ = std::fs::remove_dir_all(dir);
}

/// The decided-commit set must survive checkpoint truncation: one
/// participant committed *and checkpointed away its Commit record* while
/// the other is still in doubt — restart must still commit the straggler.
#[test]
fn decided_commit_survives_checkpoint_for_resolution() {
    let _faults = faults::test_guard();
    let (c, cfg, dir) = dur_cluster("indoubt-ckpt", 2, SyncMode::Sync);
    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 8, 2), vec![11, 12]);
    m.write(ItemRange::new(MemNodeId(1), 8, 2), vec![13, 14]);
    let txid = c.next_txid();
    prepare_at(&c, txid, &m, &[0, 1]);
    // Phase two reached memnode 0 only, which then checkpointed.
    c.node(MemNodeId(0)).commit(txid).unwrap();
    assert!(c.node(MemNodeId(0)).checkpoint().unwrap());
    assert_eq!(c.node(MemNodeId(1)).in_doubt(), Ok(1));
    drop(c);

    let (c2, res) = SinfoniaCluster::restart_from_disk(cfg).unwrap();
    assert_eq!(res.committed, 1);
    assert_eq!(c2.node(MemNodeId(0)).raw_read(8, 2).unwrap(), vec![11, 12]);
    assert_eq!(c2.node(MemNodeId(1)).raw_read(8, 2).unwrap(), vec![13, 14]);
    drop(c2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Background checkpoints bound the log while the cluster serves writes,
/// and the checkpoint+suffix state restarts correctly.
#[test]
fn background_checkpoints_bound_log_and_restart_recovers() {
    let _faults = faults::test_guard();
    let durability = DurabilityConfig {
        checkpoint_log_bytes: 4 << 10, // tiny: force frequent checkpoints
        ..DurabilityConfig::ephemeral("auto-ckpt", SyncMode::None)
    };
    let dir = durability.dir.clone().unwrap();
    let cfg = ClusterConfig {
        memnodes: 1,
        capacity_per_node: 1 << 20,
        durability,
        ..Default::default()
    };
    let c = SinfoniaCluster::new(cfg.clone());
    for round in 0..40u64 {
        for i in 0..64u64 {
            let mut m = Minitransaction::new();
            m.write(
                ItemRange::new(MemNodeId(0), i * 64, 32),
                vec![(round + 1) as u8; 32],
            );
            assert!(c.execute(&m).unwrap().committed());
        }
        // Give the background checkpointer a chance to run.
        std::thread::sleep(Duration::from_millis(2));
    }
    let total = |name| c.memnode_total(name).unwrap();
    assert!(total("wal.checkpoints") > 0, "no background checkpoint ran");
    let (retained, bytes) = (total("wal.retained_bytes"), total("wal.bytes"));
    assert!(
        retained < bytes,
        "log was never truncated: retained {retained} of {bytes} appended"
    );
    drop(c);

    let (c2, _) = SinfoniaCluster::restart_from_disk(cfg).unwrap();
    for i in 0..64u64 {
        assert_eq!(
            c2.node(MemNodeId(0)).raw_read(i * 64, 32).unwrap(),
            vec![40u8; 32]
        );
    }
    drop(c2);
    let _ = std::fs::remove_dir_all(dir);
}

/// `crash_and_recover` (in-place disk recovery) under async syncing: the
/// flusher plus the process-survivable page cache keep every committed
/// write readable after the crash.
#[test]
fn crash_and_recover_from_disk_in_place() {
    let _faults = faults::test_guard();
    let (c, _cfg, dir) = dur_cluster("inplace", 2, SyncMode::Async);
    for i in 0..30u64 {
        write_both(&c, i, (i + 1) as u8);
    }
    c.crash_and_recover(MemNodeId(1));
    for i in 0..30u64 {
        assert_eq!(
            c.node(MemNodeId(1)).raw_read(i, 1).unwrap(),
            vec![(i + 1) as u8]
        );
    }
    // The recovered node keeps serving.
    write_both(&c, 500, 42);
    assert_eq!(c.node(MemNodeId(1)).raw_read(500, 1).unwrap(), vec![42]);
    drop(c);
    let _ = std::fs::remove_dir_all(dir);
}

/// A commit decision is remembered by every kind of node. Both
/// participants voted yes, the decision reached memnode 1 only, and the
/// coordinator is gone: resolution must finish the commit at memnode 0
/// from memnode 1's decided set — on an in-memory cluster exactly as on a
/// durable one (where `tests/wire_faults.rs` shows it over sockets).
#[test]
fn a_commit_decision_is_remembered_on_every_kind_of_node() {
    let _faults = faults::test_guard();
    for durable in [false, true] {
        let (c, _cfg, dir) = if durable {
            dur_cluster("decided-durable", 2, SyncMode::None)
        } else {
            let cfg = ClusterConfig::with_memnodes(2);
            (SinfoniaCluster::new(cfg.clone()), cfg, PathBuf::new())
        };
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
        m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
        let txid = c.next_txid();
        prepare_at(&c, txid, &m, &[0, 1]);
        c.node(MemNodeId(1)).commit(txid).unwrap();

        let expected = Resolution {
            committed: 1,
            aborted: 0,
            unresolved: 0,
        };
        assert_eq!(c.resolve_in_doubt(), expected, "durable: {durable}");
        for (mem, want) in [(0, [1, 2, 3, 4]), (1, [5, 6, 7, 8])] {
            let node = c.node(MemNodeId(mem));
            assert_eq!(node.raw_read(0, 4).unwrap(), want, "durable: {durable}");
            assert_eq!(node.in_doubt(), Ok(0), "durable: {durable}");
        }
        drop(c);
        if durable {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Executes a single-memnode minitransaction at `node`.
fn exec(node: &MemNode, txid: u64, m: &Minitransaction) -> Result<SingleResult, Unavailable> {
    let [(_, shard)] = m.shards() else {
        unreachable!("items at one memnode")
    };
    node.exec_single(txid, shard, LockPolicy::AbortOnBusy)
}

/// A write of `len` copies of `byte` at `off` of memnode 0.
fn put(off: u64, len: usize, byte: u8) -> Minitransaction {
    let mut m = Minitransaction::new();
    m.write(
        ItemRange::new(MemNodeId(0), off, len as u32),
        vec![byte; len],
    );
    m
}

/// An in-memory node recovers the way a durable one does. A torn append
/// degrades it read-only, and `recover` reads its log back — cutting the
/// torn tail — and replays it: every earlier write reads back, the torn one
/// is absent, and a write after the heal extends a clean log that the next
/// crash recovers too.
#[test]
fn an_in_memory_node_recovers_through_its_log() {
    let _faults = faults::test_guard();
    let node = MemNode::new(MemNodeId(0), 1 << 20);
    let committed = |r: Result<_, _>| matches!(r, Ok(SingleResult::Committed(_)));
    for slot in 0..5u8 {
        assert!(committed(exec(
            &node,
            slot as u64,
            &put(slot as u64 * 8, 8, slot + 1)
        )));
    }
    let tear = faults::Arm::new(faults::Action::ShortWrite(5)).times(1);
    faults::arm(faults::Site::WalAppend, tear);
    assert!(
        exec(&node, 5, &put(40, 8, 99)).is_err(),
        "a torn append acked"
    );
    faults::disarm_all();
    assert!(
        node.is_degraded(),
        "a failed append must latch read-only mode"
    );
    assert!(
        exec(&node, 6, &put(48, 8, 7)).is_err(),
        "degraded node wrote"
    );

    let check = |torn: u8| {
        for slot in 0..5u8 {
            let got = node.raw_read(slot as u64 * 8, 8).unwrap();
            assert_eq!(got, vec![slot + 1; 8], "slot {slot} lost to the torn tail");
        }
        assert_eq!(node.raw_read(40, 8).unwrap(), vec![torn; 8], "slot 5");
    };
    node.recover().unwrap();
    assert!(!node.is_degraded(), "recover must clear the latch");
    check(0);
    assert!(committed(exec(&node, 7, &put(40, 8, 55))));
    node.crash();
    node.recover().unwrap();
    check(55);
}

/// An in-memory node's log bounds itself. Past the larger of the default
/// `checkpoint_log_bytes` and its last image it takes a checkpoint of its
/// own, so three bounds' worth of writes leave at most one bound, plus the
/// record that crossed it, retained — and the images and the log still
/// recover every slot's last value and the decided set. A read asks for no
/// checkpoint, even of a log past its bound.
#[test]
fn an_in_memory_log_stays_bounded() {
    const SLOTS: u64 = 64;
    const LEN: usize = 4096;
    // A frame: header, tag, txid, write count, offset, length, payload.
    const RECORD: u64 = 8 + 1 + 8 + 4 + 8 + 4 + LEN as u64;
    let _faults = faults::test_guard();
    let bound = DurabilityConfig::default().checkpoint_log_bytes;
    let node = MemNode::new(MemNodeId(0), 1 << 20);
    // A two-phase commit whose `Commit` record a checkpoint truncates.
    let m = put(0, 4, 9);
    let [(_, shard)] = m.shards() else {
        unreachable!("items at one memnode")
    };
    let vote = node.prepare(1, shard, LockPolicy::AbortOnBusy, &[node.id]);
    assert!(matches!(vote, Ok(Vote::Ok(_))));
    node.commit(1).unwrap();

    let mut last = [0u8; SLOTS as usize];
    let mut txid = 1;
    let mut write = |node: &MemNode| {
        txid += 1;
        let slot = txid % SLOTS;
        let byte = txid as u8 | 1;
        let done = exec(node, txid, &put(LEN as u64 * (slot + 1), LEN, byte));
        assert!(matches!(done, Ok(SingleResult::Committed(_))));
        last[slot as usize] = byte;
        let retained = node.wal_retained_bytes();
        assert!(retained <= bound + RECORD, "{retained} retained");
        retained
    };
    for _ in 0..3 * bound / LEN as u64 + 1 {
        write(&node);
    }
    let taken = node.wal_stats().checkpoints.get();
    assert!(taken >= 2, "{taken} checkpoints over three bounds of log");

    // With the image write failing, the log outgrows its bound...
    faults::arm(
        faults::Site::CkptWrite,
        faults::Arm::new(faults::Action::Err),
    );
    while write(&node) <= bound {}
    faults::disarm_all();
    assert_eq!(node.wal_stats().checkpoints.get(), taken);
    // ...and a read leaves it there, where a write takes the checkpoint.
    let before = node.wal_retained_bytes();
    let mut read = Minitransaction::new();
    read.read(ItemRange::new(node.id, 0, 4));
    assert!(matches!(
        exec(&node, 0, &read),
        Ok(SingleResult::Committed(_))
    ));
    assert_eq!(
        node.wal_stats().checkpoints.get(),
        taken,
        "a read took a checkpoint"
    );
    assert_eq!(node.wal_retained_bytes(), before);
    assert!(write(&node) < bound);
    assert_eq!(node.wal_stats().checkpoints.get(), taken + 1);

    node.crash();
    node.recover().unwrap();
    for (slot, byte) in last.iter().enumerate() {
        let got = node.raw_read(LEN as u64 * (slot as u64 + 1), LEN as u32);
        assert_eq!(got.unwrap(), vec![*byte; LEN], "slot {slot}");
    }
    assert_eq!(node.raw_read(0, 4).unwrap(), vec![9; 4]);
    assert!(
        node.node_meta().decided.contains(&1),
        "the decision was lost"
    );
}

/// Four ways to the same state: a random schedule against one durable
/// primary and a chain of two followers, after which the live nodes, the
/// same nodes reopened from disk, and the schedule's own model all agree;
/// an in-memory node run through the primary's steps agrees too, live and
/// recovered (see `model/mod.rs` for the schedule and what is held to it).
#[test]
fn four_ways_to_the_same_state() {
    let _faults = faults::test_guard();
    model::four_ways_to_the_same_state(proptest::test_runner::ProptestConfig::default().cases);
}
