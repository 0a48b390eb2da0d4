//! Garbage collection of superseded node versions (§4.4) and deleted
//! branches (§5.2).
//!
//! Minuet records a global *lowest snapshot id* (the watermark): snapshots
//! below it can no longer be queried. A background sweep walks every
//! memnode's node region, identifies physical nodes that no live snapshot
//! can reach — a node created at `x` and copied to `y` serves exactly the
//! snapshots that descend from `x` but not from any copy target — and
//! returns their slots to the allocator's free list.
//!
//! The scan itself uses unsynchronized raw reads (cheap, possibly torn);
//! every freeing decision is then *confirmed transactionally*: the slot is
//! re-read inside a dynamic transaction, the condition re-evaluated, and
//! the free-list push commits only if the slot was unchanged. Liveness is
//! decided from a slot's node header alone ([`NodeHeader`]): a free
//! segment or a reservation has another magic, and a freed slot is
//! tombstoned, so a header that reads is a node's.

use crate::alloc::{push_free_segment, AllocState};
use crate::catalog::{CatEntry, GlobalVal, TipVal};
use crate::error::Error;
use crate::node::{NodeHeader, NodePtr, SnapshotId};
use crate::proxy::Proxy;
use crate::tree::VersionMode;
use minuet_dyntx::{ReadItem, TxKey};
use minuet_sinfonia::MemNodeId;
use std::collections::HashMap;

/// Result of one GC sweep.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Slots examined.
    pub scanned: u64,
    /// Slots reclaimed.
    pub freed: u64,
    /// Candidates that failed transactional confirmation (raced with a
    /// writer); they will be reconsidered by the next sweep.
    pub skipped: u64,
}

/// Immutable context for liveness decisions during one sweep.
struct LivenessCtx {
    live: Vec<SnapshotId>,
    /// parent pointers for ancestry tests (snapshot -> parent).
    parents: HashMap<SnapshotId, SnapshotId>,
    /// root slot -> owning snapshot.
    roots: HashMap<NodePtr, SnapshotId>,
    linear: bool,
    lowest: SnapshotId,
}

impl LivenessCtx {
    fn is_ancestor_or_self(&self, a: SnapshotId, b: SnapshotId) -> bool {
        if self.linear {
            return a <= b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur < a {
                return false;
            }
            match self.parents.get(&cur) {
                Some(&p) if p != crate::catalog::NO_PARENT => cur = p,
                _ => return false,
            }
        }
    }

    /// Can any live snapshot still reach this node?
    fn node_live(&self, ptr: NodePtr, node: &NodeHeader) -> bool {
        if let Some(&owner) = self.roots.get(&ptr) {
            // Roots serve exactly their own snapshot (each snapshot gets a
            // fresh root copy at creation). The catalog keeps entries for
            // dead snapshots, so a recycled root slot may still be named by
            // one: the occupant is only *that* snapshot's root if the
            // creation tags match (snapshot ids are never reused, so a
            // recycled occupant always carries a newer tag).
            if node.created == owner {
                return self.live.contains(&owner);
            }
        }
        if self.linear {
            // Precise rule (§4.4): the node serves [created, first-copy);
            // it is dead iff it was copied at or below the watermark.
            return match node.desc.first() {
                Some(d) => d.sid > self.lowest,
                None => true,
            };
        }
        // Branching mode is conservative: superseded nodes still act as
        // redirect routers for their copies (descendant-set chains), so a
        // node is kept while *any* live snapshot descends from its
        // creation snapshot. Deleted branches and watermarked prefixes
        // are reclaimed in full (the paper's §5.2 GC claim).
        self.live
            .iter()
            .any(|&s| self.is_ancestor_or_self(node.created, s))
    }
}

impl Proxy {
    /// Raises the GC watermark: snapshots with id below `lowest` may no
    /// longer be queried and their exclusive nodes become reclaimable.
    pub fn set_watermark(&mut self, tree: u32, lowest: SnapshotId) -> Result<(), Error> {
        let layout = *self.mc.layout(tree);
        self.run_tx(tree, self.mc.cfg.max_op_retries, |p, tx| {
            let mut g = GlobalVal::read(tx, &layout, p.home)?;
            g.lowest = g.lowest.max(lowest);
            tx.write_repl(layout.global(), g.encode());
            Ok(())
        })?;
        Ok(())
    }

    /// Marks a snapshot deleted (branch deletion, §5.2). Its exclusive
    /// nodes — including discretionary copies made for it — become
    /// reclaimable by the next sweep. The mainline tip cannot be deleted.
    pub fn delete_snapshot(&mut self, tree: u32, sid: SnapshotId) -> Result<(), Error> {
        let layout = *self.mc.layout(tree);
        self.run_tx(tree, self.mc.cfg.max_op_retries, |p, tx| {
            if TipVal::read(tx, &layout, p.home)?.sid == sid {
                return Err(Error::SnapshotReadOnly(sid).into());
            }
            let (repl, mut entry) = CatEntry::read(tx, &layout, sid, p.home)?;
            entry.deleted = true;
            tx.write_repl(repl, entry.encode());
            Ok(())
        })?;
        self.cat_cache.remove(&(tree, sid));
        Ok(())
    }

    fn liveness_ctx(&mut self, tree: u32) -> Result<LivenessCtx, Error> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        // Watermark + snapshot count from the global header (raw read).
        let g = GlobalVal::read_raw(&mc.sinfonia, &layout, self.home)?;

        let mut live = Vec::new();
        let mut parents = HashMap::new();
        let mut roots = HashMap::new();
        for sid in 0..g.next_sid {
            if let Some((_, e)) = CatEntry::fetch(&mc.sinfonia, &layout, sid, self.home)? {
                parents.insert(sid, e.parent);
                roots.insert(e.root, sid);
                if !e.deleted && sid >= g.lowest {
                    live.push(sid);
                }
            }
        }
        Ok(LivenessCtx {
            live,
            parents,
            roots,
            linear: mc.cfg.version_mode == VersionMode::Linear,
            lowest: g.lowest,
        })
    }

    /// One full GC sweep over every memnode of `tree`.
    pub fn gc_sweep(&mut self, tree: u32) -> Result<SweepStats, Error> {
        let mc = self.mc.clone();
        let sin = mc.sinfonia.clone();
        let layout = *mc.layout(tree);
        let ctx = self.liveness_ctx(tree)?;
        let mut stats = SweepStats::default();

        for mem in sin.memnode_ids() {
            // Unsynchronized candidate scan.
            let mut candidates: Vec<u32> = Vec::new();
            crate::stats::scan_slots(&sin, &layout, mem, &mut |slot, val| {
                stats.scanned += 1;
                let header = NodeHeader::decode(&val.data);
                if header.is_ok_and(|h| !ctx.node_live(NodePtr { mem, slot }, &h)) {
                    candidates.push(slot);
                }
            })?;

            // Transactional confirm-and-free, in batches.
            let seg_cap = crate::alloc::FreeSegment::capacity(layout.params.node_payload);
            for batch in candidates.chunks(seg_cap.clamp(1, 64)) {
                let (freed, skipped) = self.confirm_and_free(&ctx, tree, mem, batch)?;
                stats.freed += freed;
                stats.skipped += skipped;
            }
        }
        Ok(stats)
    }

    fn confirm_and_free(
        &mut self,
        ctx: &LivenessCtx,
        tree: u32,
        mem: MemNodeId,
        batch: &[u32],
    ) -> Result<(u64, u64), Error> {
        let layout = *self.mc.layout(tree);
        let (confirmed, _) = self.run_tx(tree, self.mc.cfg.max_op_retries, |_, tx| {
            let state = AllocState::read(tx, &layout, mem)?;
            // Re-confirm each candidate under validation: one read of the
            // batch, and a pin of every slot about to be freed, so the
            // commit frees only slots still at the version judged dead.
            let obj = |slot| layout.node_obj(NodePtr { mem, slot });
            let items: Vec<ReadItem> = batch.iter().map(|&s| ReadItem::Read(obj(s))).collect();
            let got = tx.read_many(&items)?;
            if let Some(e) = got.failed {
                return Err(e.into());
            }
            let mut confirmed: Vec<u32> = Vec::new();
            for (&slot, val) in batch.iter().zip(got.vals) {
                let Some(val) = val else { continue };
                let header = NodeHeader::decode(&val.data);
                if header.is_ok_and(|h| !ctx.node_live(NodePtr { mem, slot }, &h)) {
                    tx.assume_version(TxKey::Plain(obj(slot)), val.seqno);
                    confirmed.push(slot);
                }
            }
            if !confirmed.is_empty() {
                let new_state = push_free_segment(tx, &layout, mem, &state, &confirmed);
                tx.write(layout.alloc_state(mem), new_state.encode());
            }
            Ok(confirmed)
        })?;
        for &slot in &confirmed {
            self.ncache.invalidate(tree, NodePtr { mem, slot });
        }
        let freed = confirmed.len() as u64;
        Ok((freed, batch.len() as u64 - freed))
    }
}
