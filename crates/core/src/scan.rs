//! Range scans (§4, §6.3).
//!
//! Scans over read-only snapshots are the paper's headline analytics
//! mechanism: they dirty-read every node (leaves included) guarded by
//! fence-key and version checks, so they never validate and never abort
//! due to concurrent updates.
//!
//! A strictly-serializable scan over the *tip* is also provided
//! (`scan_serializable`): it accumulates every visited leaf in one dynamic
//! transaction's read set, and — exactly as §6.3 warns — may effectively
//! never commit under a concurrent update load. The `ablation_scan`
//! bench quantifies this.

use crate::error::Error;
use crate::key::{Fence, Key, Value};
use crate::node::{NodeBody, SnapshotId};
use crate::proxy::{OpTarget, Proxy};
use crate::traverse::LeafAccess;

/// Collects from a leaf all entries with `key >= from`, appending to
/// `out`. Returns the leaf's high fence.
fn collect(leaf: &crate::node::Node, from: &[u8], out: &mut Vec<(Key, Value)>) -> Fence {
    if let NodeBody::Leaf { entries } = &leaf.body {
        let start = entries.partition_point(|(k, _)| k.as_slice() < from);
        out.extend(entries[start..].iter().cloned());
    }
    leaf.high.clone()
}

impl Proxy {
    /// Scans up to `limit` key/value pairs starting at `start` (inclusive)
    /// from snapshot `sid`. One attempt per leaf; reads are dirty and never
    /// validated (§4.2), so concurrent updates cannot abort the scan.
    pub fn scan_at(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>, Error> {
        let mut out: Vec<(Key, Value)> = Vec::new();
        let mut cur: Key = start.to_vec();
        loop {
            let remaining = limit - out.len();
            if remaining == 0 {
                break;
            }
            let cur_key = cur.clone();
            let budget = self.mc.cfg.max_op_retries.min(500);
            let (mut batch, high) = self.run_op_budget(tree, budget, move |p, tx| {
                let ctx = p.resolve(tx, tree, OpTarget::Snapshot(sid))?;
                let path = p.traverse(tx, tree, &ctx, &cur_key, LeafAccess::Dirty, 0)?;
                let leaf = &path.last().unwrap().node;
                let mut batch = Vec::new();
                let high = collect(leaf, &cur_key, &mut batch);
                Ok((batch, high))
            })?;
            batch.truncate(remaining);
            out.append(&mut batch);
            match high {
                Fence::PosInf => break,
                Fence::Key(k) => cur = k,
                Fence::NegInf => unreachable!("leaf high fence cannot be -inf"),
            }
        }
        Ok(out)
    }

    /// Strictly-serializable scan over the mainline tip *without* a
    /// snapshot: every visited leaf joins the read set and is validated at
    /// commit. Under write contention this aborts (and retries) with
    /// probability growing in the scan length — the behaviour that
    /// motivates snapshot scans (§6.3).
    pub fn scan_serializable(
        &mut self,
        tree: u32,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>, Error> {
        self.run_op(tree, |p, tx| {
            let ctx = p.resolve(tx, tree, OpTarget::MainlineTip)?;
            let mut out: Vec<(Key, Value)> = Vec::new();
            let mut cur: Key = start.to_vec();
            loop {
                let path = p.traverse(tx, tree, &ctx, &cur, LeafAccess::Transactional, 0)?;
                let leaf = &path.last().unwrap().node;
                let high = collect(leaf, &cur, &mut out);
                if out.len() >= limit {
                    out.truncate(limit);
                    return Ok(out);
                }
                match high {
                    Fence::PosInf => return Ok(out),
                    Fence::Key(k) => cur = k,
                    Fence::NegInf => unreachable!(),
                }
            }
        })
    }

    /// Convenience: scan the current tip through a fresh snapshot created
    /// via the snapshot service (strictly serializable; §6.3's default
    /// configuration with `k = 0`).
    pub fn scan_with_snapshot(
        &mut self,
        tree: u32,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>, Error> {
        let mc = self.mc.clone();
        let (sid, _root) = mc.shared(tree).scs.create(self, tree)?;
        self.scan_at(tree, sid, start, limit)
    }
}
