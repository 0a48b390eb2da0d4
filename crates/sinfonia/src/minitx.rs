//! Minitransactions: Sinfonia's atomic compare/read/write primitive.
//!
//! A minitransaction specifies, ahead of time, a set of memory locations and
//! performs atomically: (1) evaluate all compare items; (2) if every compare
//! matches, return the data named by the read items and apply all write
//! items. If any compare fails, nothing is written and the failed compare
//! indices are reported to the application. Lock contention is handled
//! transparently by the execution library (retry), except in blocking mode
//! where memnodes briefly wait for locks instead.

use crate::addr::{ItemRange, MemNodeId};
use crate::bytes::Bytes;
use crate::wire::WireShard;
use std::time::Duration;

/// How the memnodes treat lock contention for this minitransaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockPolicy {
    /// Abort immediately when a lock is busy; the library retries the whole
    /// minitransaction transparently. This is the default Sinfonia behavior.
    AbortOnBusy,
    /// Wait at the memnode for locks to be released, up to the budget; used
    /// for replicated snapshot-id updates (§4.1) to mitigate contention. If
    /// the budget is exceeded the minitransaction aborts like an ordinary
    /// one.
    Block(Duration),
}

/// A minitransaction under construction.
///
/// Items are stored the way they travel: each one goes straight into the
/// [`WireShard`] of the memnode it names, tagged with its index among all
/// items of its kind, so executing the minitransaction — any number of
/// times — sends those shards as they are.
#[derive(Clone, Debug, Default)]
pub struct Minitransaction {
    /// Each participant's share, sorted by memnode id. Usually one.
    shards: Vec<(MemNodeId, WireShard)>,
    /// Items added so far, per kind: the index the next one gets.
    compares: u32,
    reads: u32,
    writes: u32,
    /// Lock contention policy.
    pub policy: Option<LockPolicy>,
}

impl Minitransaction {
    /// Creates an empty minitransaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// The share of `mem`, created on its first item.
    fn share(&mut self, mem: MemNodeId) -> &mut WireShard {
        let at = match self.shards.binary_search_by_key(&mem, |(m, _)| *m) {
            Ok(at) => at,
            Err(at) => {
                self.shards.insert(at, (mem, WireShard::default()));
                at
            }
        };
        &mut self.shards[at].1
    }

    /// Adds a compare item: the bytes at `range` must equal `expected` for
    /// the minitransaction to commit. Returns its index for failure
    /// reporting.
    pub fn compare(&mut self, range: ItemRange, expected: impl Into<Bytes>) -> usize {
        let expected = expected.into();
        debug_assert_eq!(range.len as usize, expected.len());
        let idx = self.compares;
        self.compares += 1;
        self.share(range.mem)
            .compares
            .push((idx, range.off, expected));
        idx as usize
    }

    /// Adds a read item: the bytes at `range` are returned on commit.
    /// Returns its index into the result vector.
    pub fn read(&mut self, range: ItemRange) -> usize {
        let idx = self.reads;
        self.reads += 1;
        self.share(range.mem)
            .reads
            .push((idx, range.off, range.len));
        idx as usize
    }

    /// Adds a write item: `data` is stored at `range` on commit. Accepts
    /// `Vec<u8>` or an existing [`Bytes`] — a refcounted buffer that
    /// staging at a memnode, logging, and retrying all share rather than
    /// copy.
    pub fn write(&mut self, range: ItemRange, data: impl Into<Bytes>) {
        let data = data.into();
        debug_assert_eq!(range.len as usize, data.len());
        let idx = self.writes;
        self.writes += 1;
        self.share(range.mem).writes.push((idx, range.off, data));
    }

    /// Marks this minitransaction as blocking with the given wait budget.
    pub fn blocking(mut self, budget: Duration) -> Self {
        self.policy = Some(LockPolicy::Block(budget));
        self
    }

    /// True if there is nothing to do.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// True if the minitransaction writes nothing (pure validate/read).
    pub fn is_read_only(&self) -> bool {
        self.writes == 0
    }

    /// Number of read items added, i.e. the length of a committed
    /// [`ReadResults::data`].
    pub fn read_count(&self) -> usize {
        self.reads as usize
    }

    /// Each participating memnode with its share of the items, sorted by
    /// memnode id.
    pub fn shards(&self) -> &[(MemNodeId, WireShard)] {
        &self.shards
    }

    /// The set of memnodes participating in this minitransaction.
    pub fn participants(&self) -> Vec<MemNodeId> {
        self.shards.iter().map(|(mem, _)| *mem).collect()
    }
}

/// Result of a successfully committed minitransaction.
#[derive(Debug, Clone)]
pub struct ReadResults {
    /// One buffer per read item, in the order the reads were added. Each
    /// is a refcounted view of the memnode page it was read from (or of
    /// the staged read captured at prepare time) — cloning is free.
    pub data: Vec<Bytes>,
}

/// Application-visible outcome of executing a minitransaction.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// All compares matched; reads returned; writes applied atomically.
    Committed(ReadResults),
    /// One or more compares failed; indices of the failed compare items.
    /// Nothing was written.
    FailedCompare(Vec<usize>),
}

impl Outcome {
    /// True if the minitransaction committed.
    pub fn committed(&self) -> bool {
        matches!(self, Outcome::Committed(_))
    }

    /// Unwraps read results, panicking on a failed compare (test helper).
    pub fn into_reads(self) -> ReadResults {
        match self {
            Outcome::Committed(r) => r,
            Outcome::FailedCompare(idx) => {
                panic!("minitransaction failed compares {idx:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(mem: u16, off: u64, len: u32) -> ItemRange {
        ItemRange::new(MemNodeId(mem), off, len)
    }

    #[test]
    fn participants_deduped_sorted() {
        let mut m = Minitransaction::new();
        m.read(range(3, 0, 8));
        m.write(range(1, 0, 2), vec![0, 1]);
        m.compare(range(3, 8, 1), vec![0]);
        assert_eq!(m.participants(), vec![MemNodeId(1), MemNodeId(3)]);
    }

    #[test]
    fn shard_preserves_indices() {
        let mut m = Minitransaction::new();
        m.read(range(0, 0, 4));
        m.read(range(1, 0, 4));
        m.read(range(0, 8, 4));
        let indices =
            |at: usize| -> Vec<u32> { m.shards()[at].1.reads.iter().map(|(i, ..)| *i).collect() };
        assert_eq!(m.participants(), vec![MemNodeId(0), MemNodeId(1)]);
        assert_eq!(indices(0), vec![0, 2]);
        assert_eq!(indices(1), vec![1]);
        assert_eq!(m.read_count(), 3);
    }

    #[test]
    fn shard_lock_spans_merged() {
        let mut m = Minitransaction::new();
        m.compare(range(0, 0, 8), vec![0; 8]);
        m.write(range(0, 0, 8), vec![1; 8]);
        m.read(range(0, 4, 8));
        assert_eq!(m.shards()[0].1.lock_spans(), vec![(0, 12)]);
    }
}
