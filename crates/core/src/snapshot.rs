//! Snapshot and branch creation (§4.1 Fig. 6, §5.1).
//!
//! Creating a snapshot freezes the source tip and materializes a fresh
//! writable tip whose root is a copy of the source root (so ordinary
//! operations never copy roots). Creating a branch is the same operation
//! against a read-only source (§5.1: "creating a new snapshot simply
//! creates the first branch from an existing snapshot").
//!
//! The commit updates the replicated TIP/GLOBAL/catalog objects at every
//! memnode atomically — the heavyweight, contention-prone operation the
//! paper mitigates with blocking minitransactions (§4.1) and the snapshot
//! creation service (§4.3).

use crate::catalog::{CatEntry, GlobalVal, TipVal};
use crate::error::{Attempt, Error, RetryCause};
use crate::node::{Node, NodePtr, SnapshotId};
use crate::proxy::Proxy;
use crate::tree::VersionMode;
use minuet_dyntx::DynTx;

/// Result of a snapshot creation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The now-read-only snapshot (Fig. 6's output: scan this).
    pub frozen_sid: SnapshotId,
    /// Root of the frozen snapshot.
    pub frozen_root: NodePtr,
    /// The new writable tip.
    pub new_tip: SnapshotId,
    /// Root of the new tip.
    pub new_root: NodePtr,
}

impl Proxy {
    /// One attempt at creating a snapshot/branch from `from` (`None` =
    /// the mainline tip). `slot` holds the new root's slot across attempts,
    /// so an aborted attempt's allocation is reused instead of leaked.
    fn try_create_from(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        from: Option<SnapshotId>,
        slot: &mut Option<NodePtr>,
    ) -> Attempt<SnapshotInfo> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        let home = self.home;
        if mc.cfg.blocking_meta_updates {
            tx.set_blocking_commit(mc.cfg.blocking_wait);
        }

        // Global header: next snapshot id.
        let global = GlobalVal::read(tx, &layout, home)?;
        let next = global.next_sid;
        let next_repl = layout.catalog_entry(next).ok_or(Error::CatalogFull)?;

        // Tip (always read: we must know whether the mainline advances).
        let tip = TipVal::read(tx, &layout, home)?;

        let src = from.unwrap_or(tip.sid);
        if from.is_some() && mc.cfg.version_mode == VersionMode::Linear && src != tip.sid {
            return Err(Error::BranchingDisabled.into());
        }

        // Source catalog entry.
        let (cat_repl, mut cat_src) = CatEntry::read(tx, &layout, src, home)?;
        if cat_src.deleted {
            return Err(Error::NoSuchSnapshot(src).into());
        }
        if cat_src.nbranches as usize >= mc.cfg.beta {
            if mc.cfg.version_mode == VersionMode::Linear {
                // The "tip" we read already has a branch: stale cache race;
                // retry with a fresh tip.
                return Err(RetryCause::StaleTip.into());
            }
            return Err(Error::BranchingFactorExceeded {
                from: src,
                beta: mc.cfg.beta,
            }
            .into());
        }

        // Copy the source root, tagged with the new snapshot id.
        let rraw = tx.read(layout.node_obj(cat_src.root))?;
        let old_root = Node::decode(&rraw).map_err(|_| RetryCause::TornRead)?;
        let mut new_root = old_root.clone();
        new_root.created = next;
        new_root.desc = Vec::new();
        let new_root_ptr = match *slot {
            Some(ptr) => ptr,
            None => *slot.insert(self.alloc(tree, None)?),
        };
        self.write_node(tx, tree, new_root_ptr, new_root, None);

        // Old root bookkeeping: record the copy for GC. Roots are never
        // reached through child pointers, so this set is not consulted by
        // traversals and is exempt from the β bound.
        let mut old_root_upd = old_root;
        old_root_upd.desc.push(crate::node::DescEntry {
            sid: next,
            ptr: new_root_ptr,
        });
        self.write_node(tx, tree, cat_src.root, old_root_upd, None);

        // Catalog updates.
        let new_entry = CatEntry {
            root: new_root_ptr,
            parent: src,
            branch_id: 0,
            nbranches: 0,
            deleted: false,
        };
        tx.write_repl(next_repl, new_entry.encode());
        let first_branch = cat_src.branch_id == 0;
        if first_branch {
            cat_src.branch_id = next;
        }
        cat_src.nbranches += 1;
        tx.write_repl(cat_repl, cat_src.encode());

        // Global header.
        tx.write_repl(
            layout.global(),
            GlobalVal {
                next_sid: next + 1,
                lowest: global.lowest,
            }
            .encode(),
        );

        // Mainline advance: the first branch off the mainline tip becomes
        // the new tip.
        if src == tip.sid && first_branch {
            tx.write_repl(
                layout.tip(),
                TipVal {
                    sid: next,
                    root: new_root_ptr,
                }
                .encode(),
            );
        }

        Ok(SnapshotInfo {
            frozen_sid: src,
            frozen_root: cat_src.root,
            new_tip: next,
            new_root: new_root_ptr,
        })
    }

    /// Creates a snapshot of the mainline tip (Fig. 6 semantics): the
    /// previous tip becomes read-only (scan it via
    /// [`SnapshotInfo::frozen_sid`]) and a fresh tip takes over.
    ///
    /// Prefer [`crate::scs::SnapshotService::create`] in concurrent
    /// settings: it serializes creations and shares snapshots (§4.3).
    pub fn create_snapshot(&mut self, tree: u32) -> Result<SnapshotInfo, Error> {
        self.create_from(tree, None)
    }

    /// Creates a writable branch from any existing snapshot (§5.1).
    /// Returns the new branch tip.
    pub fn create_branch(&mut self, tree: u32, from: SnapshotId) -> Result<SnapshotId, Error> {
        if self.mc.cfg.version_mode == VersionMode::Linear {
            return Err(Error::BranchingDisabled);
        }
        Ok(self.create_from(tree, Some(from))?.new_tip)
    }

    pub(crate) fn create_from(
        &mut self,
        tree: u32,
        from: Option<SnapshotId>,
    ) -> Result<SnapshotInfo, Error> {
        let mut slot = None;
        let info = self.run_op(tree, |p, tx| p.try_create_from(tx, tree, from, &mut slot))?;
        let shared = self.mc.shared(tree);
        shared
            .vcache
            .insert(info.new_tip, info.frozen_sid, info.new_root);
        self.tip_cache.remove(&tree);
        self.cat_cache.remove(&(tree, info.frozen_sid));
        Ok(info)
    }
}
