//! Core B-tree mutation machinery: in-place updates, splits, copy-on-write,
//! and the bubbling of pointer changes toward the root (§3, §4.1, §5).
//!
//! All functions here operate *within one optimistic attempt*: they stage
//! writes into the caller's [`DynTx`] and return `Retry` when a safety
//! check fails; nothing takes effect until the attempt's commit succeeds.

use crate::error::{Attempt, Error, RetryCause};
use crate::key::{Fence, Key, Value};
use crate::node::{changed_range, Node, NodeBody, NodePtr, Page};
use crate::proxy::{OpTarget, Proxy};
use crate::traverse::{LeafAccess, PathEntry, Resolved};
use crate::tree::ConcurrencyMode;
use minuet_dyntx::DynTx;
use minuet_obs::{span, SpanKind};
use minuet_sinfonia::bytes::Bytes;
use minuet_sinfonia::MemNodeId;

/// What a single-key operation does at the leaf responsible for its key:
/// the one description `get` / `put` / `remove`, their `_at` / `_branch`
/// forms, [`crate::proxy::Txn`] and the batch planner all share.
#[derive(Clone)]
pub(crate) enum LeafOp {
    /// Look the key up.
    Get,
    /// Insert or update the key with this value.
    Put(Value),
    /// Remove the key.
    Remove,
}

impl LeafOp {
    /// Applies the operation to `leaf`; returns the key's previous value
    /// (for a get, its current one).
    pub(crate) fn apply(self, leaf: &mut Node, key: &[u8]) -> Option<Value> {
        match self {
            LeafOp::Get => leaf.leaf_get(key).cloned(),
            LeafOp::Put(value) => leaf.leaf_put(key.to_vec(), value),
            LeafOp::Remove => leaf.leaf_remove(key),
        }
    }
}

/// Child-pointer changes bubbling up from a lower level.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChildOps {
    /// Replace pointer `old` with `new` (after a copy-on-write or a split
    /// that relocated the child).
    pub replace: Option<(NodePtr, NodePtr)>,
    /// Insert new separators + children (after a split), in key order.
    pub insert: Vec<(Key, NodePtr)>,
}

/// A node image an attempt staged, kept for the cache: `(tree, slot,
/// page)` ([`Proxy::install_written`]).
pub(crate) type Written = (u32, NodePtr, Page);

impl Proxy {
    /// Stages a node image write. In FullValidation mode, internal-node
    /// writes also update the node's replicated seqno-table entry at every
    /// memnode — the all-memnode engagement that makes splits expensive in
    /// the baseline (§3).
    ///
    /// `base` is the page this attempt observed at `ptr`, if it is
    /// rewriting one in place: when the new image has its length, the
    /// commit ships only the bytes that changed ([`changed_range`],
    /// [`DynTx::write_ranged`]).
    ///
    /// The node's cached entry is dropped, and the new image is kept in
    /// `written` as a page if the cache may hold it — an internal node
    /// when internal nodes are cached, a leaf when writable reads use the
    /// validated leaf cache — so that a commit puts it back. A leaf whose
    /// descendant set names a copy (the original a copy-on-write just
    /// tagged) is not kept: the writer's tip reads the copy from now on,
    /// a snapshot read never takes a leaf from a tip entry, and keeping
    /// it beside every copy would double the leaves the cache holds.
    pub(crate) fn write_node(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ptr: NodePtr,
        node: Node,
        base: Option<&Page>,
    ) {
        let layout = *self.mc.layout(tree);
        let obj = layout.node_obj(ptr);
        let payload = Bytes::from(node.encode());
        debug_assert!(
            payload.len() <= layout.params.node_payload as usize,
            "node exceeds payload capacity: {} > {}",
            payload.len(),
            layout.params.node_payload
        );
        if self.mc.cfg.mode == ConcurrencyMode::FullValidation && node.is_internal() {
            let seqno = self.mc.sinfonia.next_txid();
            tx.write_with_seqno(obj, payload.clone(), seqno);
            for mem in self.mc.sinfonia.memnode_ids() {
                tx.add_raw_write(layout.seqtab_entry(ptr, mem), seqno.to_le_bytes().to_vec());
            }
        } else if let Some(changed) = base.and_then(|b| changed_range(&payload, b.image())) {
            tx.write_ranged(obj, payload.clone(), changed);
        } else {
            tx.write(obj, payload.clone());
        }
        self.ncache.forget_tip(tree, ptr);
        let cacheable = if node.is_internal() {
            self.mc.cfg.cache_internal_nodes
        } else {
            self.writable_leaf_access() == LeafAccess::CachedValidated && node.desc.is_empty()
        };
        if cacheable {
            if let Ok(page) = Page::new(payload) {
                self.written.push((tree, ptr, page));
            }
        }
    }

    /// Refuses a put the tree cannot hold — a key longer than
    /// [`crate::tree::TreeConfig::max_key_len`], or key and value together
    /// longer than [`crate::tree::TreeConfig::max_entry_len`] — before
    /// anything is staged.
    pub(crate) fn check_entry(&self, key: &[u8], value: &[u8]) -> Result<(), Error> {
        let cfg = &self.mc.cfg;
        if key.len() > cfg.max_key_len() || key.len() + value.len() > cfg.max_entry_len() {
            let (key, value) = (key.len(), value.len());
            return Err(Error::EntryTooLarge { key, value });
        }
        Ok(())
    }

    /// Allocates a node slot: on `mem` if given (CoW copies stay with
    /// the original so leaf commits stay single-node), else round-robin.
    pub(crate) fn alloc(&mut self, tree: u32, mem: Option<MemNodeId>) -> Result<NodePtr, Error> {
        let mc = self.mc.clone();
        self.chunks.alloc(&mc.sinfonia, mc.layout(tree), tree, mem)
    }

    fn limits(&self, node: &Node) -> (usize, usize) {
        let payload_cap = self.mc.cfg.split_payload_cap();
        let max_entries = if node.is_internal() {
            self.mc.cfg.max_internal_entries
        } else {
            self.mc.cfg.max_leaf_entries
        };
        (payload_cap, max_entries)
    }

    /// Leaf access for operations on writable targets: the validated leaf
    /// cache serves the image and pins only its version, so commit
    /// validates with a compare (gets) or a fused compare+write (puts)
    /// instead of re-fetching. FullValidation keeps the transactional
    /// fetch — its path validation piggy-backs on the leaf fetch.
    pub(crate) fn writable_leaf_access(&self) -> LeafAccess {
        if self.mc.cfg.cache_leaves && self.mc.cfg.mode != ConcurrencyMode::FullValidation {
            LeafAccess::CachedValidated
        } else {
            LeafAccess::Transactional
        }
    }

    /// One attempt of a single-key operation: resolve `target`, find the
    /// leaf responsible for `key`, and either answer from it (a get) or
    /// apply `op` to a copy and stage all structural consequences (CoW,
    /// splits, pointer updates).
    pub(crate) fn try_op(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        target: OpTarget,
        key: &[u8],
        op: LeafOp,
    ) -> Attempt<Option<Value>> {
        if let LeafOp::Put(value) = &op {
            self.check_entry(key, value)?;
        }
        let ctx = self.resolve(tx, tree, target)?;
        // On a writable target a cached, still-valid leaf skips the fetch
        // round trip: only its version is pinned. A get then commits with
        // one compare; a put fuses — the mutation is derived from the
        // cached image, so the commit minitransaction carries
        // compare(leaf seqno) + write(new image) and lands in one round
        // trip at the leaf's memnode. A stale image fails that compare and
        // the retry fetches fresh (see `Proxy::note_retry`).
        let access = if !ctx.writable {
            LeafAccess::Dirty
        } else {
            self.writable_leaf_access()
        };
        let path = {
            let _t = span(SpanKind::Traverse);
            self.traverse(tx, tree, &ctx, key, access, 0)?
        };
        let leaf_level = path.len() - 1;
        if let LeafOp::Get = op {
            return Ok(path[leaf_level].node.leaf_get(key).map(<[u8]>::to_vec));
        }
        debug_assert!(ctx.writable);
        let _apply = span(SpanKind::Apply);
        let mut new_leaf = path[leaf_level].node.to_node();
        let old = op.apply(&mut new_leaf, key);
        self.materialize(tx, tree, &ctx, &path, leaf_level, new_leaf)?;
        Ok(old)
    }

    /// Stages the updated content of `path[level]` according to the CoW
    /// rules: in place if the node already belongs to the target snapshot,
    /// otherwise copy-on-write (§4.1); splitting either way on overflow.
    pub(crate) fn materialize(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        path: &[PathEntry],
        level: usize,
        node: Node,
    ) -> Attempt<()> {
        let orig = &path[level];
        let (payload_cap, max_entries) = self.limits(&node);
        let in_snapshot = orig.node.created() == ctx.sid;

        if in_snapshot {
            if !node.overflows(payload_cap, max_entries) {
                self.write_node(tx, tree, orig.ptr, node, Some(&orig.node));
                return Ok(());
            }
            if level == 0 {
                return self.root_split(tx, tree, ctx, orig.ptr, node);
            }
            // Split in place: the first piece keeps the slot (so the
            // parent pointer stays valid); the others are fresh nodes.
            let insert = self.split_into(tx, tree, node, orig.ptr, None)?;
            let ops = ChildOps {
                replace: None,
                insert,
            };
            return self.bubble(tx, tree, ctx, path, level - 1, ops);
        }

        // Copy-on-write (§4.1). The root is never CoW'd during operations
        // (it is copied at snapshot creation); reaching here at level 0
        // means the tip observation was stale.
        if level == 0 {
            return Err(RetryCause::StaleTip.into());
        }
        self.stats.cow_copies += 1;
        let mut copy = node;
        copy.created = ctx.sid;
        copy.desc = Vec::new();
        let mem = orig.ptr.mem;
        let cptr = self.alloc(tree, Some(mem))?;
        // Tag the original with the copy (§4.2); with branching versions
        // this may trigger a discretionary copy (§5.2). An overflowing
        // copy splits: its first piece is the copy.
        let updated_orig = self.add_copy_to_desc(tx, tree, ctx, path, level, cptr)?;
        self.write_node(tx, tree, orig.ptr, updated_orig, None);
        let insert = if copy.overflows(payload_cap, max_entries) {
            self.split_into(tx, tree, copy, cptr, Some(mem))?
        } else {
            self.write_node(tx, tree, cptr, copy, None);
            Vec::new()
        };
        let ops = ChildOps {
            replace: Some((orig.link, cptr)),
            insert,
        };
        self.bubble(tx, tree, ctx, path, level - 1, ops)
    }

    /// Splits `node` into pieces that fit ([`Node::split_to_fit`]): the
    /// first is written to `first`, the others to fresh slots (on `mem`,
    /// if given). Returns each later piece's separator and slot, for the
    /// parent.
    fn split_into(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        node: Node,
        first: NodePtr,
        mem: Option<MemNodeId>,
    ) -> Result<Vec<(Key, NodePtr)>, Error> {
        self.stats.splits += 1;
        let (payload_cap, max_entries) = self.limits(&node);
        let (head, rest) = node.split_to_fit(payload_cap, max_entries);
        let ptrs = (rest.iter().map(|_| self.alloc(tree, mem))).collect::<Result<Vec<_>, _>>()?;
        self.write_node(tx, tree, first, head, None);
        let placed = rest.into_iter().zip(ptrs).map(|((sep, piece), ptr)| {
            self.write_node(tx, tree, ptr, piece, None);
            (sep, ptr)
        });
        Ok(placed.collect())
    }

    /// Applies bubbled child-pointer operations to `path[level]` and
    /// materializes the result.
    fn bubble(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        path: &[PathEntry],
        level: usize,
        ops: ChildOps,
    ) -> Attempt<()> {
        let orig = &path[level];
        let mut node = orig.node.to_node();
        if let Some((old, new)) = ops.replace {
            if !node.replace_child(old, new) {
                // Our (possibly cached) parent image no longer references
                // the child: concurrent structural change.
                self.ncache.invalidate(tree, orig.ptr);
                return Err(RetryCause::Validation.into());
            }
        }
        for (sep, ptr) in ops.insert {
            node.insert_child(sep, ptr);
        }
        self.materialize(tx, tree, ctx, path, level, node)
    }

    /// Splits an overflowing root in place: its pieces become fresh
    /// children and the root (same slot, same fences) gains a level — or
    /// more, while the new root itself overflows. The root's slot never
    /// moves, so the TIP root location stays valid.
    fn root_split(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        root_ptr: NodePtr,
        node: Node,
    ) -> Attempt<()> {
        let height = node.height;
        let desc = node.desc.clone();
        let low = node.low.clone();
        let high = node.high.clone();
        debug_assert_eq!(low, Fence::NegInf);
        debug_assert_eq!(high, Fence::PosInf);
        let lptr = self.alloc(tree, None)?;
        let (seps, kids): (Vec<Key>, Vec<NodePtr>) =
            (self.split_into(tx, tree, node, lptr, None)?.into_iter()).unzip();
        let new_root = Node {
            height: height + 1,
            created: ctx.sid,
            desc,
            low,
            high,
            body: NodeBody::Internal {
                seps,
                kids: [lptr].into_iter().chain(kids).collect(),
            },
        };
        let (payload_cap, max_entries) = self.limits(&new_root);
        if new_root.overflows(payload_cap, max_entries) {
            return self.root_split(tx, tree, ctx, root_ptr, new_root);
        }
        self.write_node(tx, tree, root_ptr, new_root, None);
        Ok(())
    }
}
