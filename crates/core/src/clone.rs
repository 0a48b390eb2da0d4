//! Branching-version machinery (§5.2): bounded descendant sets and
//! discretionary copy-on-write.
//!
//! Invariant maintained on every node created at snapshot `x` and copied to
//! a set `C` of descendants of `x`: the stored descendant set `C' ⊆ C` has
//! at most β entries and every `y ∈ C` has an ancestor in `C'`. Because the
//! version-tree branching factor is also bounded by β (enforced at branch
//! creation), whenever the set would exceed β two of its pairwise
//! incomparable entries lie under the same direct child of `x`, so their
//! lowest common ancestor `z` is a *proper* descendant of `x`: the pair is
//! collapsed into `z` by materializing a **discretionary copy** of the node
//! at `z` whose own descendant set is the collapsed pair.
//!
//! Descendant-set entries carry the copies' addresses, and traversals
//! *redirect* through them (see
//! `VersionCheck::Redirect` in `traverse`): a reader at any
//! descendant of `z` that reaches the original node hops to the copy at
//! `z`, and from there (via the pair entries) to the copy that serves its
//! branch. No read-only tree is ever rewritten, and exactly one extra node
//! is allocated per collapse — matching the paper's at-most-2× space
//! accounting.

use crate::error::{Attempt, Error, RetryCause};
use crate::node::{DescEntry, Node, NodePtr, SnapshotId};
use crate::proxy::Proxy;
use crate::traverse::{cat_immutable_fetcher, PathEntry, Resolved};
use crate::tree::VersionMode;
use minuet_dyntx::DynTx;

impl Proxy {
    /// Returns the original node of `path[level]` with its descendant set
    /// updated to record the copy at `ctx.sid` (located at `copy_ptr`),
    /// staging a discretionary copy when β would be exceeded.
    pub(crate) fn add_copy_to_desc(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        path: &[PathEntry],
        level: usize,
        copy_ptr: NodePtr,
    ) -> Attempt<Node> {
        let orig = &path[level];
        let mut node = orig.node.to_node();

        if self.mc.cfg.version_mode == VersionMode::Linear {
            // Each node is copied at most once along a linear history
            // (§4.2). A node that already names a copy was read dirty and
            // has moved on since (its copy belongs to a newer snapshot,
            // or it is not the node the parent named any more): commit
            // validation would refuse this attempt, so abort it now.
            if !node.desc.is_empty() {
                self.ncache.invalidate(tree, orig.ptr);
                return Err(RetryCause::StaleVersion.into());
            }
            node.desc = vec![DescEntry {
                sid: ctx.sid,
                ptr: copy_ptr,
            }];
            return Ok(node);
        }

        node.desc.push(DescEntry {
            sid: ctx.sid,
            ptr: copy_ptr,
        });
        let beta = self.mc.cfg.beta;
        if node.desc.len() <= beta {
            return Ok(node);
        }

        // Collapse two entries into their LCA and create the discretionary
        // copy there.
        let Some((i, j, z)) = self.find_collapsible_pair(tree, &node.desc, node.created)? else {
            let why = "no collapsible descendant pair, though β bounds the branching (pigeonhole)";
            return Err(Error::Internal(why.into()).into());
        };
        let (a, b) = (node.desc[i], node.desc[j]);

        self.stats.discretionary_copies += 1;
        let mut dcopy = orig.node.to_node();
        dcopy.created = z;
        dcopy.desc = vec![a, b];
        let zptr = self.alloc(tree, Some(orig.ptr.mem))?;
        self.write_node(tx, tree, zptr, dcopy, None);

        node.desc.retain(|d| d.sid != a.sid && d.sid != b.sid);
        node.desc.push(DescEntry { sid: z, ptr: zptr });
        Ok(node)
    }

    /// Finds a pair of descendant-set entries (by index) whose LCA is a
    /// *proper* descendant of `created`, preferring the deepest
    /// (largest-id) LCA.
    fn find_collapsible_pair(
        &self,
        tree: u32,
        desc: &[DescEntry],
        created: SnapshotId,
    ) -> Result<Option<(usize, usize, SnapshotId)>, Error> {
        let shared = self.mc.shared(tree);
        let mut fetch = cat_immutable_fetcher(self.mc.clone(), tree, self.home);
        let mut best: Option<(usize, usize, SnapshotId)> = None;
        for i in 0..desc.len() {
            for j in i + 1..desc.len() {
                let z = shared.vcache.lca(desc[i].sid, desc[j].sid, &mut fetch)?;
                if z != created && best.map(|(_, _, bz)| z > bz).unwrap_or(true) {
                    best = Some((i, j, z));
                }
            }
        }
        Ok(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TxnError;
    use crate::node::Page;
    use crate::tree::{MinuetCluster, TreeConfig};
    use minuet_sinfonia::MemNodeId;

    fn ptr(slot: u32) -> NodePtr {
        NodePtr {
            mem: MemNodeId(0),
            slot,
        }
    }

    #[test]
    fn a_linear_node_that_already_names_a_copy_is_retried() {
        // A dirty read can see a node that a newer snapshot has copied:
        // the attempt that would copy it again is stale, not broken.
        let mc = MinuetCluster::new(1, 1, TreeConfig::default());
        let mut p = mc.proxy();
        let mut leaf = Node::empty_root(0);
        leaf.desc.push(DescEntry {
            sid: 2,
            ptr: ptr(7),
        });
        let page = Page::new(leaf.encode().into()).unwrap();
        let path = [PathEntry::at(ptr(1), 1, page)];
        let ctx = Resolved {
            sid: 1,
            root: ptr(1),
            writable: true,
        };
        let mut tx = DynTx::new(&mc.sinfonia);
        let got = p.add_copy_to_desc(&mut tx, 0, &ctx, &path, 0, ptr(9));
        assert!(
            matches!(got, Err(TxnError::Retry(RetryCause::StaleVersion))),
            "{got:?}"
        );
    }
}
