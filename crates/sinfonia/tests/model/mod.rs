//! Seeded random schedules against a byte-map model. Two properties live
//! here; each test binary that includes the module drives one of them.
//!
//! **Item indices survive being sharded by memnode**
//! ([`indices_survive_sharding`]): shared, through `#[path]`, by this
//! crate's `atomicity.rs` (in-process) and the workspace's
//! `tests/wire_stack.rs` (the same seeded stream over loopback sockets).
//!
//! What is checked, per minitransaction: `ReadResults.data[i]` is what the
//! `i`-th `read()` named; `FailedCompare` is a non-empty, strictly
//! increasing subset of the `compare()` return values that mismatch — all
//! of them when one memnode participates (2PC stops at the first
//! participant that votes no); a failed minitransaction writes nothing and
//! a committed one writes everything, last write to a slot winning.
//!
//! **Four ways to the same state** ([`four_ways_to_the_same_state`],
//! driven from `recovery.rs`): whatever a schedule of writes, two-phase
//! votes and decisions, checkpoints, crashes, failed appends and follower
//! pulls does to a durable memnode, the node as it runs, the node reopened
//! from its image and log, a follower of its log and that follower
//! reopened all hold the same bytes, the same in-doubt and decided sets
//! and (the follower pair) the same watermark — and that state is the one
//! the schedule's own model predicts. An in-memory memnode taken through
//! the primary's steps is held to the same state, live and after a crash
//! and recovery: its log lives in memory, and it recovers the same way.

#![allow(dead_code)] // each test binary drives one of the two properties

use minuet_faults as faults;
use minuet_sinfonia::memnode::{SingleResult, Vote};
use minuet_sinfonia::recovery::NodeMeta;
use minuet_sinfonia::{
    DurabilityConfig, ItemRange, LockPolicy, MemNode, MemNodeId, Minitransaction, Outcome,
    SinfoniaCluster, SyncMode,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::rng_for;
use std::collections::{BTreeMap, BTreeSet};

/// A slot is `LEN` copies of one byte; each memnode has `SLOTS` of them.
const LEN: u32 = 3;
const SLOTS: u64 = 8;
/// At most this many items of each kind per minitransaction.
const PER_KIND: usize = 6;

/// One generated item: `(kind, memnode, slot, byte, odds)`. Kind 0 is a
/// compare (mismatching iff `odds == 0`, one in five), 1 a read, 2 a write
/// of `byte`.
type Item = (u8, u16, u64, u8, u8);

/// The expected contents of every slot ever written (others hold zero).
type Model = BTreeMap<(u16, u64), u8>;

fn range(mem: u16, slot: u64) -> ItemRange {
    ItemRange::new(MemNodeId(mem), slot * LEN as u64, LEN)
}

/// A minitransaction built from `items`, and what the model expects of it.
struct Built {
    m: Minitransaction,
    /// `compare()` return values of the compares that must mismatch.
    mismatching: Vec<usize>,
    /// Expected byte of each read, by `read()` return value.
    reads: Vec<u8>,
    /// `(memnode, slot, byte)` writes, in the order added.
    writes: Vec<(u16, u64, u8)>,
}

fn build(items: &[Item], model: &Model) -> Built {
    let mut b = Built {
        m: Minitransaction::new(),
        mismatching: Vec::new(),
        reads: Vec::new(),
        writes: Vec::new(),
    };
    let mut compares = 0;
    for &(kind, mem, slot, byte, odds) in items {
        let held = model.get(&(mem, slot)).copied().unwrap_or(0);
        match kind {
            0 if compares < PER_KIND => {
                compares += 1;
                let expected = if odds == 0 { !held } else { held };
                let idx = b.m.compare(range(mem, slot), vec![expected; LEN as usize]);
                if odds == 0 {
                    b.mismatching.push(idx);
                }
            }
            1 if b.reads.len() < PER_KIND => {
                assert_eq!(b.m.read(range(mem, slot)), b.reads.len());
                b.reads.push(held);
            }
            2 if b.writes.len() < PER_KIND => {
                b.m.write(range(mem, slot), vec![byte; LEN as usize]);
                b.writes.push((mem, slot, byte));
            }
            _ => {}
        }
    }
    b
}

/// Holds `outcome` to what the model expects of `b`, then moves the model.
fn settle(b: &Built, outcome: Outcome, model: &mut Model) {
    match outcome {
        Outcome::Committed(res) => {
            assert!(
                b.mismatching.is_empty(),
                "committed past {:?}",
                b.mismatching
            );
            let want: Vec<Vec<u8>> = b.reads.iter().map(|v| vec![*v; LEN as usize]).collect();
            assert_eq!(res.data, want, "read results out of place");
            for &(mem, slot, byte) in &b.writes {
                model.insert((mem, slot), byte);
            }
        }
        Outcome::FailedCompare(idx) => {
            assert!(!idx.is_empty(), "failed with no compare to blame");
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "unsorted: {idx:?}");
            assert!(
                idx.iter().all(|i| b.mismatching.contains(i)),
                "blamed {idx:?}, mismatching {:?}",
                b.mismatching
            );
            if b.m.participants().len() == 1 {
                assert_eq!(idx, b.mismatching, "one memnode reports them all");
            }
        }
    }
}

/// Every slot of every memnode holds what the model says — in particular
/// a failed minitransaction wrote nothing.
fn assert_state(c: &SinfoniaCluster, n_mems: u16, model: &Model) {
    for mem in 0..n_mems {
        let mut m = Minitransaction::new();
        for slot in 0..SLOTS {
            m.read(range(mem, slot));
        }
        let got = c.execute(&m).unwrap().into_reads().data;
        for (slot, data) in got.iter().enumerate() {
            let held = model.get(&(mem, slot as u64)).copied().unwrap_or(0);
            assert_eq!(data, &vec![held; LEN as usize], "mem{mem} slot {slot}");
        }
    }
}

/// Runs `cases` seeded cases against `c` (memnodes `0..n_mems`, all slots
/// zero): each is one to four minitransactions through `execute`, then
/// the single-memnode ones again as one `exec_many` batch.
pub fn indices_survive_sharding(c: &SinfoniaCluster, n_mems: u16, cases: u32) {
    let item = (0u8..3, 0..n_mems, 0..SLOTS, any::<u8>(), 0u8..5);
    let case = vec(vec(item, 1..=3 * PER_KIND), 1..=4usize);
    let mut rng = rng_for("indices_survive_sharding");
    let mut model = Model::new();
    for _ in 0..cases {
        let scripts = case.generate(&mut rng);
        for items in &scripts {
            let b = build(items, &model);
            let outcome = c.execute(&b.m).unwrap();
            settle(&b, outcome, &mut model);
            assert_state(c, n_mems, &model);
        }
        // Same-memnode members run in input order and the others touch
        // other memnodes, so the batch settles like a sequence — but each
        // member's expectations are of the state the ones before it left.
        let mut staged = model.clone();
        let mut batch = Vec::new();
        for items in &scripts {
            let b = build(items, &staged);
            if b.m.participants().len() == 1 {
                if b.mismatching.is_empty() {
                    staged.extend(b.writes.iter().map(|&(mem, slot, v)| ((mem, slot), v)));
                }
                batch.push(b);
            }
        }
        let ms: Vec<Minitransaction> = batch.iter().map(|b| b.m.clone()).collect();
        for (b, outcome) in batch.iter().zip(c.exec_many(&ms).unwrap()) {
            settle(b, outcome.unwrap(), &mut model);
        }
        assert_state(c, n_mems, &model);
    }
}

// ---------------------------------------------------------------------
// Four ways to the same state
// ---------------------------------------------------------------------

const CAPACITY: u64 = 1 << 20;
/// Slots of the second property sit a fifth of a page apart, so they
/// spread over three pages and slot 5 straddles a page edge.
const STRIDE: u64 = 13_107;
const WIDE_SLOTS: u64 = 12;
/// Every two-phase vote names the same two participants; memnode 1 never
/// exists, which is what leaves a vote in doubt.
const PARTICIPANTS: [MemNodeId; 2] = [MemNodeId(0), MemNodeId(1)];
/// Segment size limits of a follower pull: one decision frame, one small
/// write frame, a few frames, everything.
const PULL_MAX: [u32; 4] = [17, 40, 90, 1 << 20];

/// One step of a schedule: `(kind, slot, byte, knob)`.
type Step = (u8, u64, u8, u8);

/// What one node shows through its public surface: every slot's bytes,
/// the in-doubt / decided metadata, the replication watermark.
type Observed = (Vec<Vec<u8>>, NodeMeta, u64);

fn observe(n: &MemNode) -> Observed {
    let slots = (0..WIDE_SLOTS)
        .map(|slot| n.raw_read(slot * STRIDE, LEN).unwrap().to_vec())
        .collect();
    (slots, n.node_meta(), n.repl_status().unwrap().watermark)
}

/// Every slot's bytes as the model has them.
fn slots_of(model: &BTreeMap<u64, u8>) -> Vec<Vec<u8>> {
    (0..WIDE_SLOTS)
        .map(|slot| vec![model.get(&slot).copied().unwrap_or(0); LEN as usize])
        .collect()
}

/// A durable memnode 0 in a directory of its own.
struct Durable {
    node: MemNode,
    dcfg: DurabilityConfig,
}

impl Durable {
    fn fresh(tag: &str) -> Durable {
        let dcfg = DurabilityConfig::ephemeral(tag, SyncMode::None);
        let node = MemNode::durable(MemNodeId(0), CAPACITY, &dcfg).unwrap();
        Durable { node, dcfg }
    }

    /// Holds the live node to `expected`, then closes it and holds the
    /// node reopened from its image and log to the same.
    fn assert_live_and_reopened(self, expected: &Observed, who: &str) {
        assert_eq!(&observe(&self.node), expected, "{who}, live");
        drop(self.node);
        let (node, meta, _) = MemNode::open_from_disk(MemNodeId(0), CAPACITY, &self.dcfg).unwrap();
        assert_eq!(meta, expected.1, "{who}, metadata returned by the reopen");
        assert_eq!(&observe(&node), expected, "{who}, reopened from disk");
        drop(node);
        let _ = std::fs::remove_dir_all(self.dcfg.dir.unwrap());
    }
}

/// Ships one segment of `src`'s log to `dst`: from `dst`'s watermark, or
/// — `redeliver` — from an offset it stood at earlier (`seen`), and at
/// most `max` bytes, so the segment may end mid-frame.
fn pull(src: &MemNode, dst: &MemNode, seen: &mut Vec<u64>, redeliver: Option<usize>, max: u32) {
    let mark = dst.repl_status().unwrap().watermark;
    if !seen.contains(&mark) {
        seen.push(mark);
    }
    let from = redeliver.map_or(mark, |i| seen[i % seen.len()]);
    // Empty when `from` predates a checkpoint of `src`: nothing to ship.
    let seg = src.wal_fetch(from, max).unwrap();
    if !seg.bytes.is_empty() {
        dst.repl_apply(seg.from, &seg.bytes).unwrap();
    }
}

fn catch_up(src: &MemNode, dst: &MemNode, seen: &mut Vec<u64>) {
    while dst.repl_status().unwrap().watermark < src.repl_status().unwrap().tail {
        pull(src, dst, seen, None, 1 << 20);
    }
}

fn write_shard(slot: u64, byte: u8) -> Minitransaction {
    let mut m = Minitransaction::new();
    let range = ItemRange::new(MemNodeId(0), slot * STRIDE, LEN);
    m.write(range, vec![byte; LEN as usize]);
    m
}

/// Runs `cases` seeded schedules. Each starts a durable primary and a
/// chain of two followers (the second follows the first one's log), runs
/// up to forty steps, lets the followers catch up, and holds all three
/// nodes — live, then reopened — to the model. Steps: a one-phase write;
/// a two-phase vote, left in doubt until a later step commits or aborts
/// it (or for good); a pull by either follower, whole or split mid-frame,
/// from its watermark or redelivered from an earlier one; a checkpoint of
/// any node, taken where its follower has caught up (the image truncates
/// the log a follower reads); a crash and recovery of any node; and an
/// append that fails (of a write, or of a commit decision), after which
/// the degraded primary must still read as the model does — the log did
/// not take the record, so neither did the state. Every step the primary
/// takes, an in-memory memnode takes too, answering alike; it is held to
/// the model at the end, live and then crashed and recovered.
pub fn four_ways_to_the_same_state(cases: u32) {
    let step = (0u8..9, 0..WIDE_SLOTS, any::<u8>(), any::<u8>());
    let schedule = vec(step, 1..=40usize);
    let mut rng = rng_for("four_ways_to_the_same_state");
    for case in 0..cases {
        let [p, f1, f2] = ["4w-primary", "4w-hop1", "4w-hop2"].map(Durable::fresh);
        let mem = MemNode::new(MemNodeId(0), CAPACITY);
        let (mut seen1, mut seen2) = (Vec::new(), Vec::new());
        let mut model = BTreeMap::<u64, u8>::new();
        let mut in_doubt: Vec<(u64, u64, u8)> = Vec::new();
        let mut decided = BTreeSet::new();
        let mut txid = 0;
        for (kind, slot, byte, knob) in schedule.generate(&mut rng) {
            txid += 1;
            let m = write_shard(slot, byte);
            let [(_, shard)] = m.shards() else {
                unreachable!("one memnode")
            };
            let pick = knob as usize;
            let alike = format!("case {case}: the in-memory node answered differently");
            match kind {
                0 | 1 => {
                    // Busy under a vote in doubt on the same slot.
                    let done = p.node.exec_single(txid, shard, LockPolicy::AbortOnBusy);
                    let on_mem = mem.exec_single(txid, shard, LockPolicy::AbortOnBusy);
                    assert_eq!(on_mem, done, "{alike}");
                    if matches!(done.unwrap(), SingleResult::Committed(_)) {
                        model.insert(slot, byte);
                    }
                }
                2 => {
                    let policy = LockPolicy::AbortOnBusy;
                    let vote = p.node.prepare(txid, shard, policy, &PARTICIPANTS);
                    let on_mem = mem.prepare(txid, shard, policy, &PARTICIPANTS);
                    assert_eq!(on_mem, vote, "{alike}");
                    if matches!(vote.unwrap(), Vote::Ok(_)) {
                        in_doubt.push((txid, slot, byte));
                    }
                }
                3 if !in_doubt.is_empty() => {
                    let (txid, slot, byte) = in_doubt.remove(pick % in_doubt.len());
                    if byte % 3 == 0 {
                        p.node.abort(txid).unwrap();
                        mem.abort(txid).unwrap();
                    } else {
                        p.node.commit(txid).unwrap();
                        mem.commit(txid).unwrap();
                        model.insert(slot, byte);
                        decided.insert(txid);
                    }
                }
                4 | 5 => {
                    let redeliver = (pick & 0b1100 == 0).then_some(byte as usize);
                    let max = PULL_MAX[pick % 4];
                    if kind == 4 {
                        pull(&p.node, &f1.node, &mut seen1, redeliver, max);
                    } else {
                        pull(&f1.node, &f2.node, &mut seen2, redeliver, max);
                    }
                }
                6 => {
                    let node = match pick % 3 {
                        0 => {
                            catch_up(&p.node, &f1.node, &mut seen1);
                            assert!(mem.checkpoint().unwrap());
                            &p.node
                        }
                        1 => {
                            catch_up(&f1.node, &f2.node, &mut seen2);
                            &f1.node
                        }
                        _ => &f2.node,
                    };
                    assert!(node.checkpoint().unwrap());
                }
                7 => {
                    let node = [&p.node, &f1.node, &f2.node][pick % 3];
                    node.crash();
                    node.recover().unwrap();
                    if pick.is_multiple_of(3) {
                        mem.crash();
                        mem.recover().unwrap();
                    }
                }
                8 => {
                    let fail_on = |node: &MemNode| {
                        let arm = faults::Arm::new(faults::Action::NoSpace).times(1);
                        faults::arm(faults::Site::WalAppend, arm);
                        let failed = match in_doubt.get(pick % in_doubt.len().max(1)) {
                            Some(&(txid, ..)) if pick % 2 == 1 => node.commit(txid).is_err(),
                            _ => node
                                .exec_single(txid, shard, LockPolicy::AbortOnBusy)
                                .is_err(),
                        };
                        // Not reached by a write that was busy.
                        faults::disarm_all();
                        failed
                    };
                    let failed = fail_on(&p.node);
                    assert_eq!(fail_on(&mem), failed, "{alike}");
                    if failed {
                        assert!(p.node.is_degraded(), "case {case}");
                        let got = observe(&p.node).0;
                        assert_eq!(got, slots_of(&model), "case {case}: the log refused it");
                        assert_eq!(p.node.in_doubt(), in_doubt.len(), "case {case}");
                        p.node.recover().unwrap();
                        assert!(mem.is_degraded(), "{alike}");
                        assert_eq!(observe(&mem).0, slots_of(&model), "{alike}");
                        assert_eq!(mem.in_doubt(), in_doubt.len(), "{alike}");
                        mem.recover().unwrap();
                    }
                }
                _ => {}
            }
        }
        catch_up(&p.node, &f1.node, &mut seen1);
        catch_up(&f1.node, &f2.node, &mut seen2);

        let slots = slots_of(&model);
        let meta = NodeMeta {
            staged: in_doubt
                .iter()
                .map(|&(txid, ..)| (txid, PARTICIPANTS.to_vec()))
                .collect(),
            decided: decided.into_iter().collect(),
        };
        let expected = (slots.clone(), meta.clone(), 0);
        assert_eq!(observe(&mem), expected, "case {case}, in memory, live");
        mem.crash();
        mem.recover().unwrap();
        assert_eq!(observe(&mem), expected, "case {case}, in memory, recovered");
        let marks = [
            0,
            p.node.repl_status().unwrap().tail,
            f1.node.repl_status().unwrap().tail,
        ];
        for (n, mark) in [p, f1, f2].into_iter().zip(marks) {
            let expected = (slots.clone(), meta.clone(), mark);
            n.assert_live_and_reopened(&expected, &format!("case {case}, watermark {mark}"));
        }
    }
}
