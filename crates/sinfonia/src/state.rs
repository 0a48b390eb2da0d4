//! What a memnode's redo log describes, and the one function that gives a
//! log record its meaning.
//!
//! A [`NodeState`] is everything a memnode must get back after a crash:
//! the address space, the prepared-but-undecided transactions, the
//! decided-commit set, the replication watermark and the largest
//! transaction id seen. Live execution, crash recovery and the
//! replication follower all change it through [`NodeState::redo`] and
//! nothing else, and a checkpoint image is one
//! [`NodeState`] written down — so a follower, a restarted node and an
//! image agree with the primary because the same function produced them.
//!
//! The lock table is not part of the state: it is volatile and follows
//! from `staged` (every staged transaction holds its spans), so whoever
//! installs a state re-takes those locks.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::lock::TxId;
use crate::memnode::PreparedTx;
use crate::recovery::NodeMeta;
use crate::space::{OutOfBounds, PagedSpace};
use crate::wal::{OwnedRecord, Record};
use std::collections::{HashMap, HashSet};

/// The logged state of one memnode.
pub struct NodeState {
    /// The address space.
    pub space: PagedSpace,
    /// Prepared transactions awaiting their decision (in doubt).
    pub staged: HashMap<TxId, PreparedTx>,
    /// Two-phase transactions this node committed. It outlives the
    /// `Commit` records a checkpoint truncates: a participant may apply a
    /// decision and checkpoint it away while another is still in doubt,
    /// and [`crate::recovery::resolve_in_doubt`] finishes that one from
    /// this set. (A production system would prune it via coordinator
    /// acknowledgements; we retain it, bounded by workload scale.)
    pub decided: HashSet<TxId>,
    /// Replication watermark: the largest source-log end offset
    /// incorporated from a primary (zero on a node that never followed).
    /// It rides the image because a checkpoint truncates the `Repl`
    /// records it would otherwise be recovered from.
    pub repl_watermark: u64,
    /// Largest transaction id any record or image entry carried; a
    /// restarted cluster allocates ids strictly above it.
    pub max_txid: TxId,
}

/// The side-effect-free half of [`NodeState::redo`]: every write `rec`
/// carries — a prepare's staged ones included, so a bad prepare is refused
/// as a prepare and not at its later commit — lies inside `capacity`. A
/// live node runs it before the record is logged, so what cannot be
/// applied is never appended.
pub fn check(rec: &Record<'_>, capacity: u64) -> Result<(), OutOfBounds> {
    let (Record::Apply { writes, .. } | Record::Prepare { writes, .. }) = rec else {
        return Ok(());
    };
    writes
        .iter()
        .try_for_each(|(off, data)| PagedSpace::check(capacity, *off, data.len() as u32))
}

fn write_all(space: &mut PagedSpace, writes: &[(u64, Bytes)]) -> Result<(), OutOfBounds> {
    writes
        .iter()
        .try_for_each(|(off, data)| space.write(*off, data))
}

impl NodeState {
    /// The state of a node that has logged nothing.
    pub fn new(capacity: u64) -> Self {
        NodeState {
            space: PagedSpace::new(capacity),
            staged: HashMap::new(),
            decided: HashSet::new(),
            repl_watermark: 0,
            max_txid: 0,
        }
    }

    /// A logical copy: the space copy-on-write (see
    /// [`PagedSpace::snapshot_clone`]), staged payloads shared.
    pub fn snapshot(&self) -> Self {
        NodeState {
            space: self.space.snapshot_clone(),
            staged: self.staged.clone(),
            decided: self.decided.clone(),
            ..*self
        }
    }

    /// What in-doubt resolution asks of a node: the staged transactions
    /// with their participant lists, and the decided-commit set.
    pub fn meta(&self) -> NodeMeta {
        NodeMeta {
            staged: self
                .staged
                .iter()
                .map(|(txid, tx)| (*txid, tx.participants.clone()))
                .collect(),
            decided: self.decided.clone(),
        }
    }

    /// Gives one log record its effect: a one-phase `Apply` writes, a
    /// `Prepare` stages, a `Commit` writes what was staged and remembers
    /// the decision, an `Abort` forgets what was staged. Decisions for an
    /// id that is not staged are no-ops (the decision was already redone).
    ///
    /// A `Repl` wrapper is passed unwrapped, as a follower has it after
    /// parsing a frame and as [`OwnedRecord::lend`] yields it: `src_off`
    /// is the source offset the wrapper carried and `rec` the record it
    /// wraps, and its effect is that record's plus the watermark's
    /// advance. (A wrapper still in its encoded form is decoded and
    /// treated the same; one that does not decode has no effect, as a
    /// torn frame has none.)
    ///
    /// [`check`] runs first, so an error leaves the state as it was.
    pub fn redo(&mut self, src_off: Option<u64>, rec: &Record<'_>) -> Result<(), OutOfBounds> {
        check(rec, self.space.capacity())?;
        let txid = match *rec {
            Record::Apply { txid, writes } => {
                write_all(&mut self.space, writes)?;
                txid
            }
            Record::Prepare {
                txid,
                participants,
                spans,
                writes,
            } => {
                let tx = PreparedTx {
                    spans: spans.to_vec(),
                    // Arc bumps: staging shares the logged payload buffers.
                    writes: writes.to_vec(),
                    participants: participants.iter().map(|p| MemNodeId(*p)).collect(),
                };
                self.staged.insert(txid, tx);
                txid
            }
            Record::Commit { txid } => {
                if let Some(tx) = self.staged.remove(&txid) {
                    write_all(&mut self.space, &tx.writes)?;
                    self.decided.insert(txid);
                }
                txid
            }
            Record::Abort { txid } => {
                self.staged.remove(&txid);
                txid
            }
            Record::Repl { src_off, payload } => {
                return match OwnedRecord::decode(payload) {
                    Some(inner) => self.redo(Some(src_off), &inner.lend().1),
                    None => Ok(()),
                };
            }
        };
        self.max_txid = self.max_txid.max(txid);
        self.repl_watermark = self.repl_watermark.max(src_off.unwrap_or(0));
        Ok(())
    }
}

impl OwnedRecord {
    /// Lends a decoded record to [`NodeState::redo`]: the source offset
    /// of a `Repl` wrapper (if it is one), and the record it wraps — or
    /// is — borrowed.
    pub fn lend(&self) -> (Option<u64>, Record<'_>) {
        let rec = match self {
            OwnedRecord::Repl { src_off, inner } => return (Some(*src_off), inner.lend().1),
            OwnedRecord::Apply { txid, writes } => Record::Apply {
                txid: *txid,
                writes,
            },
            OwnedRecord::Prepare {
                txid,
                participants,
                spans,
                writes,
            } => Record::Prepare {
                txid: *txid,
                participants,
                spans,
                writes,
            },
            OwnedRecord::Commit { txid } => Record::Commit { txid: *txid },
            OwnedRecord::Abort { txid } => Record::Abort { txid: *txid },
        };
        (None, rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn writes(off: u64) -> Vec<(u64, Bytes)> {
        vec![(off, Bytes::from(vec![7u8; 4]))]
    }

    #[test]
    fn a_record_past_capacity_is_refused_whole() {
        let mut s = NodeState::new(1 << 16);
        for off in [(1 << 16) - 3, u64::MAX - 1] {
            let w = [(0, Bytes::from(vec![1u8])), writes(off).remove(0)];
            let apply = Record::Apply {
                txid: 9,
                writes: &w,
            };
            let err = s.redo(Some(77), &apply).unwrap_err();
            assert_eq!((err.off, err.capacity), (off, 1 << 16));
            assert!(err.to_string().contains("out of bounds"), "and says so");
            let prepare = Record::Prepare {
                txid: 9,
                participants: &[0],
                spans: &[(0, 1)],
                writes: &w,
            };
            assert!(s.redo(None, &prepare).is_err(), "refused as a prepare");
        }
        // Not even the in-range write before the bad one, nor the
        // bookkeeping, happened.
        assert_eq!(s.space.read(0, 1).unwrap(), vec![0]);
        assert!(s.staged.is_empty());
        assert_eq!((s.max_txid, s.repl_watermark), (0, 0));
    }

    #[test]
    fn a_commit_is_remembered_and_an_unknown_decision_is_a_no_op() {
        let mut s = NodeState::new(1 << 16);
        let w = writes(64);
        let prepare = Record::Prepare {
            txid: 5,
            participants: &[0, 3],
            spans: &[(64, 68)],
            writes: &w,
        };
        s.redo(None, &prepare).unwrap();
        assert_eq!(s.meta().staged[&5], vec![MemNodeId(0), MemNodeId(3)]);
        assert_eq!(s.space.read(64, 4).unwrap(), vec![0; 4], "staged only");
        s.redo(None, &Record::Commit { txid: 5 }).unwrap();
        assert_eq!(s.space.read(64, 4).unwrap(), vec![7; 4]);
        assert!(s.staged.is_empty() && s.decided.contains(&5));

        s.redo(None, &Record::Commit { txid: 6 }).unwrap();
        s.redo(None, &Record::Abort { txid: 5 }).unwrap();
        assert_eq!(s.decided.len(), 1, "neither decided nor forgot anything");
        assert_eq!(s.max_txid, 6);
    }

    #[test]
    fn a_wrapper_means_what_it_wraps_plus_the_watermark() {
        let w = writes(8);
        let apply = Record::Apply {
            txid: 3,
            writes: &w,
        };
        let wrapped = Record::Repl {
            src_off: 40,
            payload: &apply.encode(),
        }
        .encode();
        let decoded = OwnedRecord::decode(&wrapped).unwrap();
        let (src_off, lent) = decoded.lend();
        assert_eq!(src_off, Some(40));

        let mut unwrapped = NodeState::new(1 << 16);
        unwrapped.redo(src_off, &lent).unwrap();
        let mut encoded = NodeState::new(1 << 16);
        let payload = &wrapped[crate::wal::REPL_WRAP..];
        let rec = Record::Repl {
            src_off: 40,
            payload,
        };
        encoded.redo(None, &rec).unwrap();
        for s in [unwrapped, encoded] {
            assert_eq!(s.space.read(8, 4).unwrap(), vec![7; 4]);
            assert_eq!((s.repl_watermark, s.max_txid), (40, 3));
        }
    }
}
