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

use crate::error::{Attempt, CorruptNode, Error};
use crate::key::{Fence, Key, Value};
use crate::node::{Node, NodeBody, SnapshotId};
use crate::proxy::{OpTarget, Proxy};
use crate::traverse::{LeafAccess, NodeCheck, PathEntry};
use minuet_dyntx::DynTx;
use std::sync::Arc;

/// Most right siblings one scan step reads past the leaf it descended to.
/// The count is derived from the leaf just read; this bounds one step's
/// reply, and the over-fetch when that leaf is sparse (say, emptied by
/// removes) while its siblings are full.
const MAX_SIBLINGS: usize = 16;

/// Appends `leaf`'s entries with `key >= from` to `out` until `out` holds
/// `limit`, and returns the leaf's high fence. An unshared leaf (an
/// uncached dirty read) gives up its entries; a shared one (from the node
/// cache) is cloned from.
fn collect(leaf: Arc<Node>, from: &[u8], limit: usize, out: &mut Vec<(Key, Value)>) -> Fence {
    let start = |entries: &[(Key, Value)]| entries.partition_point(|(k, _)| k.as_slice() < from);
    let room = limit.saturating_sub(out.len());
    match Arc::try_unwrap(leaf) {
        Ok(node) => {
            if let NodeBody::Leaf { mut entries } = node.body {
                let at = start(&entries);
                out.extend(entries.drain(at..).take(room));
            }
            node.high
        }
        Err(shared) => {
            if let NodeBody::Leaf { entries } = &shared.body {
                out.extend(entries[start(entries)..].iter().take(room).cloned());
            }
            shared.high.clone()
        }
    }
}

/// The leaf a traversal ended at, and the path above it.
fn split_leaf(mut path: Vec<PathEntry>) -> Result<(PathEntry, Vec<PathEntry>), Error> {
    let leaf = path
        .pop()
        .ok_or_else(|| Error::Internal("traverse returned an empty path".into()))?;
    Ok((leaf, path))
}

/// The key a scan continues from after a leaf with high fence `high`, or
/// `None` at the end of the key space.
fn next_key(high: Fence) -> Result<Option<Key>, Error> {
    match high {
        Fence::PosInf => Ok(None),
        Fence::Key(k) => Ok(Some(k)),
        Fence::NegInf => Err(CorruptNode::NegInfHighFence.into()),
    }
}

impl Proxy {
    /// Scans up to `limit` key/value pairs starting at `start` (inclusive)
    /// from snapshot `sid`. Reads are dirty and never validated (§4.2), so
    /// concurrent updates cannot abort the scan. Each step reads one leaf
    /// and the siblings it needs under its own retry budget; the scan
    /// counts as one operation.
    pub fn scan_at(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        start: &[u8],
        limit: usize,
    ) -> Result<Vec<(Key, Value)>, Error> {
        let mut out: Vec<(Key, Value)> = Vec::new();
        let mut cur: Key = start.to_vec();
        let budget = self.mc.cfg.max_op_retries.min(500);
        while out.len() < limit {
            let done = out.len();
            let high = self.run_attempts(tree, budget, |p, tx| {
                // An aborted attempt's entries go with it.
                out.truncate(done);
                p.scan_step(tx, tree, sid, &cur, limit, &mut out)
            })?;
            match next_key(high)? {
                Some(k) => cur = k,
                None => break,
            }
        }
        self.stats.ops += 1;
        Ok(out)
    }

    /// One step of a snapshot scan: appends the entries from `from` on to
    /// `out` until it holds `limit`, and returns the high fence of the
    /// last leaf read. It descends to the leaf covering `from`, then reads
    /// that leaf's right siblings under the same parent together — one
    /// round trip per memnode, as many as the keys still needed take at
    /// the leaf's own fill, at most [`MAX_SIBLINGS`] — and keeps them in
    /// key order while each passes the descent's checks
    /// ([`Proxy::check_node`]) for the previous leaf's high fence. The
    /// first that fails ends the step, and the next step descends from
    /// the last accepted high fence.
    fn scan_step(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        sid: SnapshotId,
        from: &[u8],
        limit: usize,
        out: &mut Vec<(Key, Value)>,
    ) -> Attempt<Fence> {
        let ctx = self.resolve(tx, tree, OpTarget::Snapshot(sid))?;
        let path = self.traverse(tx, tree, &ctx, from, LeafAccess::Dirty, 0)?;
        let (leaf, path) = split_leaf(path)?;
        let fill = leaf.node.len().max(1);
        // Room for this leaf and every sibling the step may read.
        out.reserve((limit - out.len()).min(fill * (1 + MAX_SIBLINGS)));
        let mut high = collect(leaf.node, from, limit, out);
        // A leaf's siblings are named by the height-1 node above it.
        let Some(parent) = path.last() else {
            return Ok(high);
        };
        let NodeBody::Internal { kids, .. } = &parent.node.body else {
            return Ok(high);
        };
        let Some(at) = kids.iter().position(|&k| k == leaf.link) else {
            return Ok(high);
        };
        let want = (limit - out.len()).div_ceil(fill).min(MAX_SIBLINGS);
        let sibs = &kids[at + 1..kids.len().min(at + 1 + want)];
        if sibs.is_empty() {
            return Ok(high);
        }
        let layout = *self.mc.layout(tree);
        let objs: Vec<_> = sibs.iter().map(|&ptr| layout.node_obj(ptr)).collect();
        for val in tx.dirty_read_many(&objs)? {
            let Fence::Key(prev) = &high else { break };
            if out.len() >= limit {
                break;
            }
            let Ok(node) = Node::decode(&val.data) else {
                break;
            };
            let check = self.check_node(tree, &node, sid, prev, Some(parent.node.height))?;
            if !matches!(check, NodeCheck::Accept) {
                break;
            }
            let prev = prev.clone();
            high = collect(Arc::new(node), &prev, limit, out);
        }
        Ok(high)
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
                let (leaf, _) = split_leaf(path)?;
                let high = collect(leaf.node, &cur, limit, &mut out);
                if out.len() >= limit {
                    return Ok(out);
                }
                match next_key(high)? {
                    Some(k) => cur = k,
                    None => return Ok(out),
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
