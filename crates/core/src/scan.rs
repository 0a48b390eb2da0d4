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

use crate::error::{Attempt, CorruptNode, Error, RetryCause};
use crate::key::{Fence, Key, Value};
use crate::node::{Page, SnapshotId};
use crate::proxy::{OpTarget, Proxy};
use crate::traverse::{FetchStyle, LeafAccess, NodeCheck, PathEntry};
use minuet_dyntx::{DynTx, ReadItem};

/// Most right siblings one scan step reads past the leaf covering its
/// key. The count is estimated before anything is read (see
/// [`Proxy::scan_step`]); this bounds one step's reply, and the
/// over-fetch when the leaves last read were sparse while these are full.
const MAX_SIBLINGS: usize = 16;

/// Appends `leaf`'s entries with `key >= from` to `out` until `out` holds
/// `limit`, and returns the leaf's high fence.
fn collect(leaf: &Page, from: &[u8], limit: usize, out: &mut Vec<(Key, Value)>) -> Fence {
    let room = limit.saturating_sub(out.len());
    let entries = leaf.entries_from(from).take(room);
    out.extend(entries.map(|(k, v)| (k.to_vec(), v.to_vec())));
    leaf.high()
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
    /// concurrent updates cannot abort the scan. Each step reads a run of
    /// leaves under one parent in at most one round trip per memnode,
    /// under its own retry budget; the scan counts as one operation.
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
    /// last leaf read.
    ///
    /// It descends through the cache to the height-1 node above `from`,
    /// whose kids from the one covering `from` onward form the step's
    /// *run*: as many as the keys still needed take — a frozen cached
    /// leaf counts its own entries, a miss the fill of the leaves this
    /// proxy's last step read — at most [`MAX_SIBLINGS`] past the first,
    /// never past the parent's last kid. Members the frozen cache serves
    /// cost nothing; the misses are read together with one
    /// [`DynTx::read_many`], one round trip per memnode with a miss. Members
    /// are accepted in key order while each passes [`Proxy::check_node`]:
    /// the first for `from`, following a redirect as `traverse` does,
    /// each later one for the previous member's high fence, so an
    /// accepted member is the leaf a descent for that key would reach.
    /// The first later member that fails ends the step, and the next step
    /// descends from the last accepted high fence. A root that is itself
    /// a leaf is the whole run, read by the descent like any member.
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
        let path = self.traverse(tx, tree, &ctx, from, LeafAccess::Dirty, 1)?;
        let top = path
            .last()
            .ok_or_else(|| Error::Internal("traverse returned an empty path".into()))?;
        if !top.node.is_internal() {
            return Ok(collect(&top.node, from, limit, out));
        }
        let fill = self.may_freeze(tree, sid);
        let style = FetchStyle::AtSnapshot { sid, fill };
        let parent_height = Some(top.node.height());

        // Choose the run: serve what the frozen cache can, and estimate
        // the rest, until the keys still needed are covered.
        let mut need = limit - out.len();
        let mut expected = 0;
        let mut run = Vec::new();
        for ptr in top.node.kids_from(from).take(1 + MAX_SIBLINGS) {
            let hit = self.ncache.get_at(tree, ptr, sid);
            let gives = match (&hit, run.is_empty()) {
                (Some((_, leaf)), true) => Some(leaf.entries_from(from).len()),
                (Some((_, leaf)), false) => Some(leaf.len()),
                // The first leaf's keys start somewhere inside it.
                (None, true) => self.scan_fill.map(|f| f / 2),
                (None, false) => self.scan_fill,
            };
            run.push((ptr, hit));
            // With no estimate yet, the run ends at this leaf.
            let Some(gives) = gives else { break };
            expected += gives;
            if gives >= need {
                break;
            }
            need -= gives;
        }
        out.reserve(expected.min(limit - out.len()));

        let layout = *self.mc.layout(tree);
        let misses: Vec<_> = run
            .iter()
            .filter(|(_, hit)| hit.is_none())
            .map(|&(ptr, _)| ReadItem::Read(layout.node_obj(ptr)))
            .collect();
        let got = tx.read_many(&misses)?;
        if let Some(e) = got.failed {
            return Err(e.into());
        }
        let mut fetched = got.vals.into_iter();

        let mut key = from.to_vec();
        let mut high = Fence::PosInf;
        let (mut leaves, mut entries) = (0, 0);
        for (ptr, hit) in run {
            let first = leaves == 0;
            let missed = hit.is_none();
            let entry = hit.or_else(|| {
                let val = fetched.next().flatten()?;
                Some((val.seqno, Page::new(val.data).ok()?))
            });
            let e = match entry {
                Some((seqno, node)) => PathEntry::at(ptr, seqno, node),
                None if first => {
                    // A freed slot or torn image: the parent is stale.
                    self.invalidate_path(tree, &path);
                    return Err(RetryCause::TornRead.into());
                }
                None => break,
            };
            let e = if first {
                match self.settle(tx, tree, e, style, sid, &key, parent_height) {
                    Ok(e) => e,
                    Err(abort) => {
                        self.invalidate_path(tree, &path);
                        return Err(abort);
                    }
                }
            } else {
                match self.check_node(tree, &e.node, sid, &key, parent_height)? {
                    NodeCheck::Accept => e,
                    _ => {
                        // A member the cache served is stale: drop it.
                        if !missed {
                            self.ncache.invalidate(tree, ptr);
                        }
                        break;
                    }
                }
            };
            let leaf = if missed && fill && e.ptr == ptr {
                self.ncache.put_frozen(tree, ptr, e.seqno, e.node, sid)
            } else {
                e.node
            };
            leaves += 1;
            entries += leaf.len();
            high = collect(&leaf, &key, limit, out);
            match &high {
                Fence::Key(k) if out.len() < limit => key.clone_from(k),
                _ => break,
            }
        }
        self.scan_fill = Some(entries / leaves.max(1));
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
                let high = collect(&leaf.node, &cur, limit, &mut out);
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
