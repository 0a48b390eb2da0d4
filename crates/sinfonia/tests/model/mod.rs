//! Random minitransactions against a byte-map model: the check that item
//! indices survive being sharded by memnode. Shared, through `#[path]`, by
//! this crate's `atomicity.rs` (in-process) and the workspace's
//! `tests/wire_stack.rs` (the same seeded stream over loopback sockets).
//!
//! What is checked, per minitransaction: `ReadResults.data[i]` is what the
//! `i`-th `read()` named; `FailedCompare` is a non-empty, strictly
//! increasing subset of the `compare()` return values that mismatch — all
//! of them when one memnode participates (2PC stops at the first
//! participant that votes no); a failed minitransaction writes nothing and
//! a committed one writes everything, last write to a slot winning.

use minuet_sinfonia::{ItemRange, MemNodeId, Minitransaction, Outcome, SinfoniaCluster};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::rng_for;
use std::collections::BTreeMap;

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
            settle(b, outcome, &mut model);
        }
        assert_state(c, n_mems, &model);
    }
}
