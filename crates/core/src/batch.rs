//! Batched multi-key operations and bottom-up bulk loading.
//!
//! Minuet's cost model is network round trips: a single `put` pays one
//! round trip to fetch its leaf and one to commit, so under injected
//! latency a client is bounded by one operation in flight. This module
//! amortizes those round trips across K independent operations:
//!
//! 1. **Shared routing.** The sorted keys are routed through the proxy's
//!    cached internal nodes (routing traversals, ~zero round trips once
//!    the cache is warm) and grouped into *per-leaf groups* by
//!    the leaf pointers their parents name. Consecutive sorted keys reuse
//!    the previous route while they stay inside the parent's fence keys.
//! 2. **One read for every leaf.** One [`DynTx::read_many`] on the
//!    routing transaction reads the group leaves — one minitransaction
//!    per memnode, each also pinning the tip's sequence number (the
//!    batched analogue of piggy-backed validation) — so L leaves on M
//!    memnodes cost M round trips instead of L. A leaf the proxy still
//!    caches is pinned at its version instead of re-read.
//! 3. **Pipelined commits.** Each mutating group stages its leaf update
//!    (including any copy-on-write or split consequences) in its own
//!    dynamic transaction, and all group commits execute as one
//!    [`minuet_dyntx::commit_many`] batch — again one round trip per
//!    participant memnode for the common single-memnode leaf commits.
//!
//! **Fallback rules** (the invariant that keeps the batch path exactly as
//! safe as the per-key path): a group's leaf is accepted only if it
//! reads as a page and passes `Proxy::check_node` — the descent's own
//! version-tag, fence and height checks — for the group's first and last
//! keys, and the leaf and tip land in the read set of the fork each
//! mutating group commits from. Any member whose group misses those
//! checks, or whose group commit fails validation against a concurrent
//! writer, is retried through the ordinary single-key operations
//! (`get`/`put`/`remove`), which carry their own optimistic retry
//! loops. A stale tip observation retries the whole batch (a bounded
//! number of times) before degrading to per-key execution. The result
//! is observably equivalent to applying the same operations one at a
//! time in input order — `tests/prop_batch.rs` checks exactly that,
//! including under concurrent writers.
//!
//! Batches are **not transactions**: members commit independently, and
//! concurrent writers may interleave between members (just as they can
//! between loose single ops). Use [`Proxy::txn`] for multi-key atomicity.

use crate::error::{Attempt, Error, RetryCause, TxnError};
use crate::key::{Fence, Key, Value};
use crate::node::{Node, NodeBody, NodePtr, Page};
use crate::ops::{LeafOp, Written};
use crate::proxy::{op_tag, OpTarget, Proxy, RETRY_TAG_BATCH_FALLBACK};
use crate::retry::backoff;
use crate::traverse::{LeafAccess, NodeCheck, PathEntry, Resolved};
use crate::tree::ConcurrencyMode;
use minuet_dyntx::{commit_many, DynTx, ReadItem, StagedCommit, TxKey};
use minuet_obs::{event, SpanKind};
use std::collections::BTreeMap;

/// Whole-batch retries (stale tip / stale route) before the remaining
/// members degrade to the per-key path, which has its own retry budget.
const BATCH_ATTEMPTS: usize = 16;

/// One per-leaf group: the cached internal route that named the leaf and
/// the batch members (indices into the item vector) it serves.
struct LeafGroup {
    route: Vec<PathEntry>,
    members: Vec<usize>,
}

/// What one batch attempt that did not abort through [`TxnError::Retry`]
/// (a stale tip or route; the caller notes the retry) left over: members
/// the fast path cannot serve (stale routes, redirects, overflow spill),
/// which go to the per-key path, and members worth another *batched*
/// attempt against fresh leaf images (their group commit lost a
/// validation race, or a cached leaf went stale).
struct Unserved {
    fallback: Vec<usize>,
    requeue: Vec<usize>,
}

impl Proxy {
    /// Point-looks-up many keys at the mainline tip with one shared
    /// traversal per leaf and one batched fetch round trip per memnode.
    /// Results are in input order. Each lookup is individually strictly
    /// serializable (its leaf read and tip validation happen in one atomic
    /// minitransaction); the batch as a whole is not a transaction.
    ///
    /// ```
    /// # use minuet_core::{MinuetCluster, TreeConfig};
    /// let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    /// let mut p = mc.proxy();
    /// p.multi_put(0, &[(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())])
    ///     .unwrap();
    /// let got = p.multi_get(0, &[b"a".to_vec(), b"missing".to_vec()]).unwrap();
    /// assert_eq!(got, vec![Some(b"1".to_vec()), None]);
    /// ```
    pub fn multi_get(&mut self, tree: u32, keys: &[Key]) -> Result<Vec<Option<Value>>, Error> {
        let gets = keys.iter().map(|k| (k.clone(), LeafOp::Get));
        self.multi_op(tree, gets.collect())
    }

    /// Inserts or updates many key/value pairs at the mainline tip,
    /// sharing traversals per leaf and pipelining the per-leaf commits
    /// into one round trip per memnode. Returns the previous value per
    /// pair, in input order, exactly as if the pairs had been `put` one at
    /// a time in input order (duplicate keys observe the batch's earlier
    /// writes). On conflict a pair falls back to the ordinary retrying
    /// [`Proxy::put`].
    ///
    /// ```
    /// # use minuet_core::{MinuetCluster, TreeConfig};
    /// let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    /// let mut p = mc.proxy();
    /// let pairs: Vec<_> = (0..32u8).map(|i| (vec![i], vec![i])).collect();
    /// assert!(p.multi_put(0, &pairs).unwrap().iter().all(|old| old.is_none()));
    /// let gone = p.multi_remove(0, &[vec![7], vec![200]]).unwrap();
    /// assert_eq!(gone, vec![Some(vec![7]), None]);
    /// ```
    pub fn multi_put(
        &mut self,
        tree: u32,
        pairs: &[(Key, Value)],
    ) -> Result<Vec<Option<Value>>, Error> {
        let put = |(k, v): &(Key, Value)| (k.clone(), LeafOp::Put(v.clone()));
        self.multi_op(tree, pairs.iter().map(put).collect())
    }

    /// Removes many keys at the mainline tip (the batched analogue of
    /// [`Proxy::remove`]); returns the previous values in input order.
    pub fn multi_remove(&mut self, tree: u32, keys: &[Key]) -> Result<Vec<Option<Value>>, Error> {
        let removes = keys.iter().map(|k| (k.clone(), LeafOp::Remove));
        self.multi_op(tree, removes.collect())
    }

    /// Applies each item's [`LeafOp`] to its key (a batch is all gets or
    /// all mutations).
    fn multi_op(
        &mut self,
        tree: u32,
        items: Vec<(Key, LeafOp)>,
    ) -> Result<Vec<Option<Value>>, Error> {
        let reads = items.iter().all(|(_, op)| matches!(op, LeafOp::Get));
        let tag = if reads {
            op_tag::MULTI_GET
        } else {
            op_tag::MULTI_PUT
        };
        let _op = self.mc.sinfonia.obs().op(tag);
        // Nothing is staged before every entry is known to fit.
        for (key, op) in &items {
            if let LeafOp::Put(value) = op {
                self.check_entry(key, value)?;
            }
        }
        let n = items.len();
        let mut results: Vec<Option<Value>> = vec![None; n];
        if n == 0 {
            return Ok(results);
        }

        // The baseline FullValidation mode validates whole traversal paths
        // against its replicated seqno table; the batch planner does not
        // reproduce that protocol, so run the per-key path outright.
        let mut pending: Vec<usize> = if self.mc.cfg.mode == ConcurrencyMode::FullValidation {
            (0..n).collect()
        } else {
            // Sorted by key (stable, so duplicates keep input order) for
            // route reuse across consecutive keys.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| items[a].0.cmp(&items[b].0));
            let mut unserved: Vec<usize> = Vec::new();
            let mut attempts = 0usize;
            loop {
                match self.batch_attempt(tree, reads, &items, &order, &mut results) {
                    Ok(Unserved { fallback, requeue }) => {
                        unserved.extend(fallback);
                        order = requeue;
                        // Conflicted members re-batch against fresh leaf
                        // images; keep them key-sorted for route reuse.
                        order.sort_by(|&a, &b| items[a].0.cmp(&items[b].0).then(a.cmp(&b)));
                    }
                    Err(TxnError::Retry(cause)) => self.note_retry(tree, cause),
                    Err(TxnError::Error(e)) => return Err(e),
                }
                if order.is_empty() {
                    break unserved;
                }
                attempts += 1;
                if attempts >= BATCH_ATTEMPTS {
                    unserved.extend(order);
                    break unserved;
                }
                backoff(attempts);
            }
        };

        // Per-key fallback: the ordinary operations with their own
        // optimistic retry loops. Input order preserved for duplicates.
        pending.sort_unstable();
        self.stats.batch_fallbacks += pending.len() as u64;
        if !pending.is_empty() {
            event(SpanKind::Retry, RETRY_TAG_BATCH_FALLBACK);
        }
        for i in pending {
            let (key, op) = &items[i];
            results[i] = self.op(tree, OpTarget::MainlineTip, key, op.clone())?;
        }
        Ok(results)
    }

    /// One attempt at serving every `pending` member through the batched
    /// path. Fills `results` for the members it serves. Groups are
    /// independent all the way down: a memnode that stays unavailable
    /// fails this call, but only after every group that could be served
    /// has been — committed, and its leaf re-installed.
    fn batch_attempt(
        &mut self,
        tree: u32,
        reads: bool,
        items: &[(Key, LeafOp)],
        pending: &[usize],
        results: &mut [Option<Value>],
    ) -> Attempt<Unserved> {
        let mc = self.mc.clone();
        let sin = mc.sinfonia.clone();
        let layout = *mc.layout(tree);

        // Routing transaction: it observes the tip, the routes and every
        // group's leaf, and is never committed. Each mutating group
        // stages in a fork of it.
        let mut rtx = DynTx::with_piggyback(&sin, mc.cfg.piggyback);
        let ctx = self.resolve(&mut rtx, tree, OpTarget::MainlineTip)?;
        let tip = TxKey::Repl(layout.tip());
        let tip_seq = (rtx.observed_seqno(&tip))
            .ok_or_else(|| Error::Internal("a resolved tip is not in the read set".into()))?;

        // ---- 1. Route the sorted keys into per-leaf groups. ----
        let mut groups: BTreeMap<NodePtr, LeafGroup> = BTreeMap::new();
        // The last route taken; empty before the first.
        let mut route: Vec<PathEntry> = Vec::new();
        for &i in pending {
            let key = &items[i].0;
            // A route stays valid while the key sits inside its last
            // node's fences (that node is the height-1 parent, or the root
            // itself when the whole tree is a single leaf).
            let reusable = route.last().is_some_and(|p| p.node.covers(key));
            if !reusable {
                route = self.traverse(&mut rtx, tree, &ctx, key, LeafAccess::Route, 1)?;
            }
            let Some(parent) = route.last() else {
                return Err(Error::Internal("a descent returned no node".into()).into());
            };
            let (leaf_ptr, chain) = match parent.node.child_for(key) {
                Some(leaf) => (leaf, &route[..]),
                // Single-level tree: the root is the leaf; no internal
                // chain above it.
                None => (parent.ptr, &route[..0]),
            };
            groups
                .entry(leaf_ptr)
                .or_insert_with(|| LeafGroup {
                    route: chain.to_vec(),
                    members: Vec::new(),
                })
                .members
                .push(i);
        }
        self.stats.batch_groups += groups.len() as u64;

        // ---- 2. One read-many on the routing transaction reads every
        // group's leaf and pins the tip on every memnode it sends to. A
        // leaf still in the proxy's cache is not re-shipped: its version
        // is pinned (the validated-leaf-cache fast path), so a fully warm
        // batched get moves tens of bytes per memnode. ----
        let cache_leaves = mc.cfg.cache_leaves;
        let mut plan = vec![ReadItem::Pin(tip, tip_seq)];
        let mut cached = Vec::with_capacity(groups.len());
        for &ptr in groups.keys() {
            let obj = layout.node_obj(ptr);
            let hit = (cache_leaves.then(|| self.ncache.get(tree, ptr)).flatten())
                .filter(|(_, node)| node.height() == 0);
            plan.push(match &hit {
                Some((seqno, _)) => ReadItem::Pin(TxKey::Plain(obj), *seqno),
                None => ReadItem::Read(obj),
            });
            cached.push(hit);
        }
        let got = rtx.read_many(&plan)?;
        // A stale cached leaf leaves the cache even when the tip failed
        // too, or the retry would re-issue the same doomed compare.
        for (&ptr, i) in groups.keys().zip(1..) {
            if got.stale.contains(&i) {
                self.ncache.invalidate(tree, ptr);
            }
        }
        match got.stale.first() {
            Some(0) => return Err(RetryCause::StaleTip.into()),
            Some(_) => {
                self.stats.record_retry(RetryCause::Validation);
                let requeue = pending.to_vec();
                return Ok(Unserved {
                    fallback: Vec::new(),
                    requeue,
                });
            }
            None => {}
        }
        // The first member (a memnode's read, a group's commit) that
        // failed for good; reported once the rest have been served.
        let mut failed = got.failed.map(TxnError::from);

        // ---- 3. Serve each group: answer gets directly; stage mutations
        // and pipeline their commits. ----
        let mut fallback: Vec<usize> = Vec::new();
        let mut staged: Vec<StagedCommit<'_>> = Vec::new();
        // Per staged group: member indices, displaced old values, the leaf
        // slot, and the node images the group staged, to install into the
        // cache once the group commits.
        type StagedGroup = (Vec<usize>, Vec<Option<Value>>, NodePtr, Vec<Written>);
        let mut staged_members: Vec<StagedGroup> = Vec::new();
        let leaves = cached.into_iter().zip(got.vals.into_iter().skip(1));
        for ((leaf_ptr, group), (hit, val)) in groups.into_iter().zip(leaves) {
            // The leaf as the read-many left it: a cached image whose
            // version it confirmed, or the image it read. Nothing where
            // the memnode failed; an undecodable image (a freed or
            // rewritten slot) means the route was stale.
            let leaf = match (hit, val) {
                (_, None) => None,
                (Some(hit), Some(_)) => {
                    self.stats.leaf_cache_hits += 1;
                    Some(hit)
                }
                (None, Some(val)) => Page::new(val.data).ok().map(|node| {
                    let node = if node.height() == 0 && cache_leaves {
                        self.ncache.put(tree, leaf_ptr, val.seqno, node)
                    } else {
                        node
                    };
                    (val.seqno, node)
                }),
            };
            let Some((leaf_seq, node)) = leaf else {
                fallback.extend(group.members);
                continue;
            };
            // A leaf under its parent (the root, when it is the leaf)
            // whose fences cover the group's first and last keys (members
            // are in key order, and a group has at least one).
            let first = &items[group.members[0]].0;
            let last = &items[group.members[group.members.len() - 1]].0;
            let parent_height = Some(group.route.last().map_or(1, |p| p.node.height()));
            let check = self.check_node(tree, &node, ctx.sid, first, parent_height)?;
            if !matches!(check, NodeCheck::Accept) || !node.covers(last) {
                fallback.extend(group.members);
                continue;
            }

            if reads {
                // The leaf read and the tip compare were one atomic
                // minitransaction: each lookup is serializable at the
                // fetch point, no commit needed (the batched analogue
                // of the fully-piggy-backed read-only fast path).
                for &i in &group.members {
                    results[i] = node.leaf_get(&items[i].0).map(<[u8]>::to_vec);
                }
                self.stats.ops += group.members.len() as u64;
                self.stats.batched_ops += group.members.len() as u64;
                continue;
            }
            // The tip, the leaf and the route, as the routing transaction
            // observed them: commit validates the tip and the leaf, and a
            // split or copy-on-write promotes the parents it rewrites.
            let route = group.route.iter().map(|e| e.ptr);
            let objs = route
                .chain([leaf_ptr])
                .map(|p| TxKey::Plain(layout.node_obj(p)));
            let mut gtx = rtx.fork(objs.chain([tip]));

            // Apply the members in input order (duplicates observe
            // earlier members, as sequential execution would). A
            // staged leaf may overflow by at most one application,
            // because `materialize` splits once per level: the
            // moment the leaf overflows, every remaining member of
            // the group diverts to the per-key path — wholesale,
            // so same-key members never reorder across the batch /
            // fallback boundary.
            let payload_cap = mc.cfg.split_payload_cap();
            let max_entries = mc.cfg.max_leaf_entries;
            let mut members = group.members.clone();
            members.sort_unstable();
            let mut new_leaf = node.to_node();
            let mut applied: Vec<usize> = Vec::new();
            let mut olds: Vec<Option<Value>> = Vec::new();
            for (pos, &i) in members.iter().enumerate() {
                if new_leaf.overflows(payload_cap, max_entries) {
                    fallback.extend_from_slice(&members[pos..]);
                    break;
                }
                let (key, op) = &items[i];
                olds.push(op.clone().apply(&mut new_leaf, key));
                applied.push(i);
            }
            if applied.is_empty() {
                continue;
            }
            let members = applied;

            let mut path = group.route;
            path.push(PathEntry::at(leaf_ptr, leaf_seq, node));
            let level = path.len() - 1;
            self.written.clear();
            match self.materialize(&mut gtx, tree, &ctx, &path, level, new_leaf) {
                Ok(()) => {
                    let written = std::mem::take(&mut self.written);
                    staged.push(gtx.stage_commit());
                    staged_members.push((members, olds, leaf_ptr, written));
                }
                Err(TxnError::Retry(_)) => fallback.extend(members),
                Err(e) => return Err(e),
            }
        }

        // ---- 4. Pipelined group commits: one batched round trip per
        // participant memnode, each group's outcome its own. Validation
        // failures retry per key. ----
        let commit_results = commit_many(staged)?;
        let mut requeue: Vec<usize> = Vec::new();
        for ((members, olds, leaf_ptr, written), outcome) in
            staged_members.into_iter().zip(commit_results)
        {
            match outcome.map_err(TxnError::from) {
                Ok(info) => {
                    self.install_written(&info, written);
                    self.stats.ops += members.len() as u64;
                    self.stats.batched_ops += members.len() as u64;
                    for (i, old) in members.into_iter().zip(olds) {
                        results[i] = old;
                    }
                }
                Err(TxnError::Retry(cause)) => {
                    // A concurrent writer won this leaf (or, in a
                    // membership transition window, no replica was ready).
                    // The tip is not implicated — its staleness surfaces as
                    // a fetch-time FailedCompare — so drop the possibly
                    // stale cached leaf and re-batch these members against
                    // a fresh image.
                    self.ncache.invalidate(tree, leaf_ptr);
                    self.stats.record_retry(cause);
                    requeue.extend(members);
                }
                Err(e) => drop(failed.get_or_insert(e)),
            }
        }
        failed.map_or(Ok(Unserved { fallback, requeue }), Err)
    }

    /// Bulk-loads an **empty** tree bottom-up: the sorted pairs are packed
    /// into full leaves, internal levels are built over them, and the
    /// whole structure commits in one dynamic transaction that validates
    /// the root is still the fresh empty leaf — so a concurrent writer
    /// either serializes entirely before the load (making it fail with
    /// [`Error::TreeNotEmpty`] on retry) or entirely after it. Far cheaper
    /// than K inserts: no per-key traversals and no splits, just one
    /// commit minitransaction carrying every node image.
    ///
    /// Input pairs may arrive unsorted; duplicate keys keep the last
    /// value. Returns the number of records loaded.
    ///
    /// ```
    /// # use minuet_core::{MinuetCluster, TreeConfig};
    /// let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    /// let mut p = mc.proxy();
    /// let pairs: Vec<_> = (0..1000u32)
    ///     .map(|i| (format!("k{i:04}").into_bytes(), i.to_le_bytes().to_vec()))
    ///     .collect();
    /// assert_eq!(p.bulk_load(0, pairs).unwrap(), 1000);
    /// assert_eq!(p.get(0, b"k0042").unwrap(), Some(42u32.to_le_bytes().to_vec()));
    /// ```
    pub fn bulk_load(&mut self, tree: u32, pairs: Vec<(Key, Value)>) -> Result<usize, Error> {
        let _op = self.mc.sinfonia.obs().op(op_tag::BULK_LOAD);
        let mut pairs = pairs;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        // Last value wins for duplicate keys, as sequential puts would.
        pairs.reverse();
        pairs.dedup_by(|a, b| a.0 == b.0);
        pairs.reverse();
        if pairs.is_empty() {
            return Ok(0);
        }
        for (key, value) in &pairs {
            self.check_entry(key, value)?;
        }
        let count = pairs.len();

        let layout = *self.mc.layout(tree);
        // Keep allocated slots across validation retries so an aborted
        // attempt's slots are reused instead of leaked.
        let mut pool: Vec<NodePtr> = Vec::new();
        self.run_op(tree, |p, tx| {
            let ctx = p.resolve(tx, tree, OpTarget::MainlineTip)?;
            // The root must still be the fresh empty leaf of the current
            // tip version; it joins the read set, so commit validation
            // re-checks this against concurrent writers.
            let root = Page::new(tx.read(layout.node_obj(ctx.root))?).map_err(Error::Corrupt)?;
            if !(root.height() == 0 && root.is_empty() && root.created() == ctx.sid) {
                return Err(Error::TreeNotEmpty { tree }.into());
            }
            p.stage_bulk_tree(tx, tree, &ctx, ctx.root, &pairs, &mut pool)
        })?;
        Ok(count)
    }

    /// Takes a node slot: the first `cursor` entries of `pool` are in use
    /// by the current attempt, later entries are left over from aborted
    /// attempts and reused before allocating fresh ones (so validation
    /// retries never leak slots).
    fn bulk_slot(
        &mut self,
        tree: u32,
        pool: &mut Vec<NodePtr>,
        cursor: &mut usize,
    ) -> Result<NodePtr, Error> {
        if *cursor == pool.len() {
            pool.push(self.alloc(tree, None)?);
        }
        let ptr = pool[*cursor];
        *cursor += 1;
        Ok(ptr)
    }

    /// Stages the bottom-up tree for `pairs` into `tx`: leaves packed to
    /// capacity, internal levels above them, the top level written into
    /// the existing root slot (the TIP's root pointer never moves).
    fn stage_bulk_tree(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        root_ptr: NodePtr,
        pairs: &[(Key, Value)],
        pool: &mut Vec<NodePtr>,
    ) -> Attempt<()> {
        let payload_cap = self.mc.cfg.split_payload_cap();
        let max_leaf = self.mc.cfg.max_leaf_entries;
        let max_internal = self.mc.cfg.max_internal_entries;
        let sid = ctx.sid;
        let mut cursor = 0usize;

        // Pack leaves greedily up to the overflow thresholds, by running
        // encoded size (an entry adds its two length prefixes, key and
        // value; `Node::encoded_size` is the cross-check). Packing runs
        // with infinity fences but the real fences are finite keys, so
        // leave room for the worst-case fence growth (two finite fences of
        // the longest key in the batch).
        let max_klen = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let pack_cap = payload_cap.saturating_sub(2 * (2 + max_klen)).max(64);
        let empty_size = Node::empty_root(sid).encoded_size();
        // A level of the tree, as one wide internal node would hold it:
        // child `i` covers `[seps[i - 1], seps[i])`.
        let (mut seps, mut leaves): (Vec<Key>, Vec<Node>) = (Vec::new(), Vec::new());
        let mut cur = Node::empty_root(sid);
        let mut size = empty_size;
        for (k, v) in pairs {
            let entry = 4 + k.len() + v.len();
            if !cur.is_empty() && (cur.len() >= max_leaf || size + entry > pack_cap) {
                leaves.push(std::mem::replace(&mut cur, Node::empty_root(sid)));
                seps.push(k.clone());
                size = empty_size;
            }
            cur.leaf_put(k.clone(), v.clone());
            size += entry;
            debug_assert_eq!(size, cur.encoded_size());
        }
        if leaves.is_empty() {
            // Everything fits in the root leaf.
            self.write_node(tx, tree, root_ptr, cur, None);
            return Ok(());
        }
        leaves.push(cur);
        let low = |seps: &[Key], i: usize| match i.checked_sub(1) {
            Some(j) => Fence::Key(seps[j].clone()),
            None => Fence::NegInf,
        };
        let high =
            |seps: &[Key], i: usize| seps.get(i).map_or(Fence::PosInf, |k| Fence::Key(k.clone()));

        // Write the leaves into fresh slots and build internal levels over
        // them until one node remains; that node becomes the root image.
        let mut kids = Vec::with_capacity(leaves.len());
        for (i, mut leaf) in leaves.into_iter().enumerate() {
            (leaf.low, leaf.high) = (low(&seps, i), high(&seps, i));
            let ptr = self.bulk_slot(tree, pool, &mut cursor)?;
            self.write_node(tx, tree, ptr, leaf, None);
            kids.push(ptr);
        }
        let mut height: u8 = 1;
        loop {
            let (mut up, mut nodes) = (Vec::new(), Vec::new());
            let mut start = 0usize;
            while start < kids.len() {
                // Grow the chunk while the encoded node fits: a child adds
                // its separator and its pointer, and its high fence takes
                // the place of the previous child's.
                let mut end = start + 1;
                let mut node = Node {
                    height,
                    created: sid,
                    desc: Vec::new(),
                    low: low(&seps, start),
                    high: high(&seps, start),
                    body: NodeBody::Internal {
                        seps: Vec::new(),
                        kids: vec![kids[start]],
                    },
                };
                let mut size = node.encoded_size();
                // The encoded size of child `i`'s high fence.
                let high_size = |i: usize| seps.get(i).map_or(1, |k| 3 + k.len());
                while end < kids.len() {
                    let sep = &seps[end - 1];
                    let grown = size + 2 + sep.len() + 6 + high_size(end) - high_size(end - 1);
                    if node.len() >= max_internal || grown > payload_cap {
                        break;
                    }
                    node.insert_child(sep.clone(), kids[end]);
                    size = grown;
                    end += 1;
                }
                node.high = high(&seps, end - 1);
                debug_assert_eq!(size, node.encoded_size());
                up.extend(seps.get(end - 1).cloned());
                nodes.push(node);
                start = end;
            }
            let nodes = match <[Node; 1]>::try_from(nodes) {
                // The single top node is the new root, written in place.
                Ok([root]) => {
                    self.write_node(tx, tree, root_ptr, root, None);
                    return Ok(());
                }
                Err(nodes) if nodes.len() < kids.len() => nodes,
                Err(_) => {
                    let why = "bulk_load cannot shrink a level: fewer than two children fit a node";
                    return Err(Error::Internal(why.into()).into());
                }
            };
            kids.clear();
            for node in nodes {
                let ptr = self.bulk_slot(tree, pool, &mut cursor)?;
                self.write_node(tx, tree, ptr, node, None);
                kids.push(ptr);
            }
            seps = up;
            height += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::tree::{MinuetCluster, TreeConfig};
    use minuet_sinfonia::with_op_net;

    fn key(i: u32) -> Vec<u8> {
        format!("k{i:05}").into_bytes()
    }

    #[test]
    fn multi_put_then_multi_get_roundtrip() {
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
        let mut p = mc.proxy();
        let pairs: Vec<_> = (0..100).map(|i| (key(i), vec![i as u8])).collect();
        let olds = p.multi_put(0, &pairs).unwrap();
        assert!(olds.iter().all(|o| o.is_none()));

        let keys: Vec<_> = (0..120).map(key).collect();
        let got = p.multi_get(0, &keys).unwrap();
        for (i, v) in got.iter().enumerate() {
            if i < 100 {
                assert_eq!(v.as_deref(), Some(&[i as u8][..]), "key {i}");
            } else {
                assert!(v.is_none(), "key {i}");
            }
        }
        // Second put over the same keys returns the previous values.
        let olds = p.multi_put(0, &pairs).unwrap();
        for (i, o) in olds.iter().enumerate() {
            assert_eq!(o.as_deref(), Some(&[i as u8][..]));
        }
    }

    #[test]
    fn multi_remove_returns_old_values() {
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
        let mut p = mc.proxy();
        let pairs: Vec<_> = (0..40).map(|i| (key(i), vec![i as u8])).collect();
        p.multi_put(0, &pairs).unwrap();
        let keys: Vec<_> = (0..50).map(key).collect();
        let olds = p.multi_remove(0, &keys).unwrap();
        for (i, o) in olds.iter().enumerate() {
            if i < 40 {
                assert_eq!(o.as_deref(), Some(&[i as u8][..]));
            } else {
                assert!(o.is_none());
            }
        }
        assert!(p.scan_serializable(0, b"", usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_in_batch_behave_sequentially() {
        let mc = MinuetCluster::new(1, 1, TreeConfig::small_nodes(8));
        let mut p = mc.proxy();
        let pairs = vec![(key(1), vec![1]), (key(1), vec![2]), (key(1), vec![3])];
        let olds = p.multi_put(0, &pairs).unwrap();
        assert_eq!(olds, vec![None, Some(vec![1]), Some(vec![2])]);
        assert_eq!(p.get(0, &key(1)).unwrap(), Some(vec![3]));
    }

    #[test]
    fn batched_updates_amortize_round_trips() {
        let mc = MinuetCluster::new(2, 1, TreeConfig::default());
        let mut p = mc.proxy();
        let pairs: Vec<_> = (0..64).map(|i| (key(i), vec![0u8; 8])).collect();
        p.multi_put(0, &pairs).unwrap();
        // Warm the internal-node cache and tip cache.
        let keys: Vec<_> = (0..64).map(key).collect();
        p.multi_get(0, &keys).unwrap();

        // Updates of existing keys: no splits, so the fast path serves
        // everything. 2 memnodes -> at most 2 fetch + 2 commit trips.
        let (_, net) = with_op_net(|| {
            let update: Vec<_> = (0..64).map(|i| (key(i), vec![1u8; 8])).collect();
            p.multi_put(0, &update).unwrap();
        });
        assert!(
            net.round_trips <= 6,
            "expected ~4 round trips for 64 batched puts, got {}",
            net.round_trips
        );
        // A follow-up single put fuses into exactly one commit round trip:
        // the batch re-installed its committed leaf images, so the leaf is
        // served from cache and the commit carries compare+write.
        let (_, single) = with_op_net(|| {
            p.put(0, key(0), vec![2u8; 8]).unwrap();
        });
        assert_eq!(
            single.round_trips, 1,
            "cached-leaf put must fuse into one commit round trip, got {}",
            single.round_trips
        );

        let (_, getnet) = with_op_net(|| {
            p.multi_get(0, &keys).unwrap();
        });
        assert!(
            getnet.round_trips <= 2,
            "expected <=2 round trips for 64 batched gets, got {}",
            getnet.round_trips
        );
    }

    /// The batch's network cost, step by step: round trips, messages,
    /// bytes out and bytes in, exactly. A change to how the batch reads or
    /// commits its leaves that moves any of these shows here first.
    #[test]
    fn batch_network_ledger() {
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
        let pairs: Vec<_> = (0..256).map(|i| (key(i), vec![0u8; 8])).collect();
        mc.proxy().bulk_load(0, pairs).unwrap();
        let mut p = mc.proxy();
        let keys: Vec<_> = (0..256).step_by(3).map(key).collect();
        assert_eq!(keys.len(), 86);
        let ledger = |net: minuet_sinfonia::OpNet| {
            (net.round_trips, net.messages, net.bytes_out, net.bytes_in)
        };
        let step = |p: &mut crate::proxy::Proxy, what: &str, want, f: &dyn Fn(&mut _)| {
            let ((), net) = with_op_net(|| f(p));
            assert_eq!(ledger(net), want, "{what}: (rt, msg, out, in)");
        };
        let get = |p: &mut crate::proxy::Proxy| drop(p.multi_get(0, &keys).unwrap());
        step(&mut p, "cold multi_get", (8, 8, 896, 38_820), &get);
        step(&mut p, "warm multi_get", (2, 2, 876, 30), &get);
        let update: Vec<_> = keys.iter().map(|k| (k.clone(), vec![1u8; 8])).collect();
        // Each leaf ships its changed values alone; the second round
        // rewrites the bytes already there, so it ships only seqnos.
        for out in [7_562, 3_878] {
            let put = |p: &mut crate::proxy::Proxy| drop(p.multi_put(0, &update).unwrap());
            step(&mut p, "multi_put update", (4, 34, out, 250), &put);
        }
        let inserts: Vec<_> = (1000..1040).map(|i| (key(i), vec![2u8; 8])).collect();
        let insert = |p: &mut crate::proxy::Proxy| drop(p.multi_put(0, &inserts).unwrap());
        step(
            &mut p,
            "multi_put inserts",
            (55, 75, 14_332, 1_169),
            &insert,
        );
        let mut other = mc.proxy();
        for i in [0, 90, 180] {
            other.put(0, key(i), vec![3u8; 8]).unwrap();
        }
        step(
            &mut p,
            "multi_get after stale leaves",
            (4, 4, 1_776, 3_204),
            &get,
        );
        step(&mut p, "multi_get again", (2, 2, 900, 30), &get);
        let remove = |p: &mut crate::proxy::Proxy| drop(p.multi_remove(0, &keys[..20]).unwrap());
        step(&mut p, "multi_remove", (4, 10, 2_134, 106), &remove);
    }

    /// A cached-leaf put of a value of the same size ships the leaf's
    /// version compare, its new seqno and the value's changed bytes — not
    /// the leaf. A get of the same cached leaf ships the compare alone, so
    /// the difference is the two write items.
    #[test]
    fn a_same_size_put_ships_seqno_and_value() {
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
        let pairs: Vec<_> = (0..256).map(|i| (key(i), vec![0u8; 8])).collect();
        mc.proxy().bulk_load(0, pairs).unwrap();
        let mut p = mc.proxy();
        p.get(0, &key(7)).unwrap();
        let ledger = |net: minuet_sinfonia::OpNet| (net.round_trips, net.bytes_out);
        let (_, get) = with_op_net(|| p.get(0, &key(7)).unwrap());
        let (_, put) = with_op_net(|| p.put(0, key(7), vec![9u8; 8]).unwrap());
        assert_eq!(ledger(get), (1, 78), "cached get: (rt, out)");
        assert_eq!(ledger(put), (1, 126), "cached same-size put: (rt, out)");
        // Two write items, each an index, an offset and a length (16
        // bytes) before its data: the 8-byte seqno and the 8-byte value.
        assert_eq!(put.bytes_out - get.bytes_out, 2 * 16 + 8 + 8);
    }

    #[test]
    fn a_dead_memnode_fails_the_batch_but_not_the_groups_that_committed() {
        use minuet_sinfonia::{ClusterConfig, MemNodeId};
        let sin = ClusterConfig {
            unavailable_retry: std::time::Duration::from_millis(20),
            ..ClusterConfig::with_memnodes(2)
        };
        let mc = MinuetCluster::with_cluster_config(sin, 1, TreeConfig::small_nodes(8));
        let mut p = mc.proxy();
        let pairs = |v: u8| (0..64).map(|i| (key(i), vec![v])).collect::<Vec<_>>();
        p.multi_put(0, &pairs(0)).unwrap();
        // Warm the route: the batch below needs no fetch of an internal node.
        p.multi_get(0, &(0..64).map(key).collect::<Vec<_>>())
            .unwrap();

        mc.sinfonia.crash(MemNodeId(1));
        let err = p.multi_put(0, &pairs(1)).unwrap_err();
        assert_eq!(err, crate::error::Error::Unavailable(MemNodeId(1)));
        mc.sinfonia.recover(MemNodeId(1));

        // The leaves on memnode 0 committed before the error surfaced, and
        // were re-installed: a put to any of their keys is one fused round
        // trip. The others kept their old values.
        let (mut committed, mut lost) = (0, 0);
        for i in 0..64 {
            let (old, net) = with_op_net(|| p.put(0, key(i), vec![2]).unwrap());
            if old == Some(vec![1]) {
                assert_eq!(
                    net.round_trips, 1,
                    "key {i}: committed leaf not re-installed"
                );
                committed += 1;
            } else {
                assert_eq!(old, Some(vec![0]), "key {i}");
                lost += 1;
            }
        }
        assert!(
            committed > 0 && lost > 0,
            "{committed} committed, {lost} lost"
        );
    }

    #[test]
    fn sustained_puts_stay_fused_after_first_commit() {
        // A put-only workload must not degrade to fetch+commit: each
        // successful commit re-installs the written leaf image, so every
        // put after the first costs exactly one (compare+write) round
        // trip. Regression test for the validated-leaf cache being
        // invalidated by `write_node` and never repopulated.
        let mc = MinuetCluster::new(2, 1, TreeConfig::default());
        let mut p = mc.proxy();
        p.put(0, key(7), vec![0]).unwrap(); // cold: route + fetch + commit
        for round in 1..=8u8 {
            let (_, net) = with_op_net(|| {
                p.put(0, key(7), vec![round]).unwrap();
            });
            assert_eq!(
                net.round_trips, 1,
                "warm put #{round} took {} round trips, want 1 (fused)",
                net.round_trips
            );
        }
        assert_eq!(p.get(0, &key(7)).unwrap(), Some(vec![8]));
    }

    #[test]
    fn copy_on_write_puts_leave_what_they_wrote_cached() {
        // A copy-on-write put writes the leaf's copy, the tagged original
        // and the parent; its commit installs the copy and the parent. So
        // a put to another leaf under the rewritten parent, and a second
        // put of the key, each cost one fused round trip with nothing
        // fetched — and so does a put after a batch group copied on write.
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(8));
        let mut p = mc.proxy();
        // 24 keys, 8 to a leaf: three leaves under one root.
        let pairs: Vec<_> = (0..24).map(|i| (key(i), vec![0])).collect();
        p.bulk_load(0, pairs).unwrap();
        p.create_snapshot(0).unwrap();
        let one_round_trip = |p: &mut crate::proxy::Proxy, i: u32, what: &str| {
            let misses = p.ncache.misses.get();
            let (_, net) = with_op_net(|| p.put(0, key(i), vec![2]).unwrap());
            assert_eq!(
                net.round_trips, 1,
                "{what}: {} round trips",
                net.round_trips
            );
            assert_eq!(p.ncache.misses.get(), misses, "{what}: a node was fetched");
        };
        // Copy the second leaf, then the first: the root is rewritten
        // twice. Each copy takes the place of its original in the cache:
        // a tagged original is not put back.
        let resident = p.ncache.len();
        p.put(0, key(8), vec![1]).unwrap();
        p.put(0, key(0), vec![1]).unwrap();
        assert_eq!(p.ncache.len(), resident, "a tagged original was cached");
        one_round_trip(&mut p, 8, "a put to another leaf under the rewritten root");
        one_round_trip(&mut p, 0, "a put of the key just copied");
        // One batch group copies the third leaf.
        let olds = p
            .multi_put(0, &[(key(16), vec![1]), (key(17), vec![1])])
            .unwrap();
        assert_eq!(olds, vec![Some(vec![0]), Some(vec![0])]);
        assert_eq!(p.stats.batched_ops, 2, "the batch fell back");
        one_round_trip(&mut p, 16, "a put to the leaf a batch group copied");
        for (i, want) in [(0, 2), (1, 0), (8, 2), (16, 2), (17, 1), (23, 0)] {
            assert_eq!(p.get(0, &key(i)).unwrap(), Some(vec![want]), "key {i}");
        }
        // The registry, and so `minuet-stats`, counts what was put back.
        let installs = mc
            .sinfonia
            .obs()
            .registry
            .snapshot()
            .counter("cache.installs");
        assert!(installs.unwrap_or(0) > 0, "cache.installs {installs:?}");
    }

    #[test]
    fn batch_with_splits_stays_correct() {
        // Tiny nodes force splits mid-batch; conflicting groups fall back.
        let mc = MinuetCluster::new(2, 1, TreeConfig::small_nodes(4));
        let mut p = mc.proxy();
        for round in 0..4u8 {
            let pairs: Vec<_> = (0..200)
                .map(|i| (key(i * 7 % 256), vec![round, i as u8]))
                .collect();
            p.multi_put(0, &pairs).unwrap();
        }
        let scan = p.scan_serializable(0, b"", usize::MAX).unwrap();
        let distinct: std::collections::HashSet<_> =
            (0..200u32).map(|i| key(i * 7 % 256)).collect();
        assert_eq!(scan.len(), distinct.len());
    }

    #[test]
    fn bulk_load_builds_searchable_tree() {
        let mc = MinuetCluster::new(3, 1, TreeConfig::small_nodes(6));
        let mut p = mc.proxy();
        let pairs: Vec<_> = (0..500).rev().map(|i| (key(i), vec![i as u8])).collect();
        assert_eq!(p.bulk_load(0, pairs).unwrap(), 500);
        for i in (0..500).step_by(37) {
            assert_eq!(p.get(0, &key(i)).unwrap(), Some(vec![i as u8]), "key {i}");
        }
        let scan = p.scan_serializable(0, b"", usize::MAX).unwrap();
        assert_eq!(scan.len(), 500);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        // Loaded tree keeps working under further writes and splits.
        for i in 500..600 {
            p.put(0, key(i), vec![9]).unwrap();
        }
        assert_eq!(p.scan_serializable(0, b"", usize::MAX).unwrap().len(), 600);
    }

    #[test]
    fn bulk_load_dedups_and_handles_small_inputs() {
        let mc = MinuetCluster::new(1, 1, TreeConfig::default());
        let mut p = mc.proxy();
        assert_eq!(p.bulk_load(0, Vec::new()).unwrap(), 0);
        let pairs = vec![(key(1), vec![1]), (key(1), vec![2]), (key(0), vec![0])];
        assert_eq!(p.bulk_load(0, pairs).unwrap(), 2);
        assert_eq!(p.get(0, &key(1)).unwrap(), Some(vec![2]));
        assert_eq!(p.get(0, &key(0)).unwrap(), Some(vec![0]));
    }

    #[test]
    fn bulk_load_refuses_non_empty_tree() {
        let mc = MinuetCluster::new(1, 1, TreeConfig::default());
        let mut p = mc.proxy();
        p.put(0, key(0), vec![1]).unwrap();
        match p.bulk_load(0, vec![(key(1), vec![1])]) {
            Err(crate::error::Error::TreeNotEmpty { tree: 0 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The original data is untouched.
        assert_eq!(p.get(0, &key(0)).unwrap(), Some(vec![1]));
    }

    #[test]
    fn full_validation_mode_falls_back_to_per_key_path() {
        let cfg = TreeConfig {
            mode: crate::tree::ConcurrencyMode::FullValidation,
            ..TreeConfig::small_nodes(8)
        };
        let mc = MinuetCluster::new(2, 1, cfg);
        let mut p = mc.proxy();
        let pairs: Vec<_> = (0..50).map(|i| (key(i), vec![i as u8])).collect();
        p.multi_put(0, &pairs).unwrap();
        let keys: Vec<_> = (0..50).map(key).collect();
        let got = p.multi_get(0, &keys).unwrap();
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, v)| v.as_deref() == Some(&[i as u8][..])));
        assert_eq!(p.stats.batched_ops, 0);
        assert!(p.stats.batch_fallbacks >= 100);
    }

    /// The per-key ops a batch falls back to are part of the batch's
    /// operation: only the batches advance the sampler, and only batches
    /// are traced — whether or not the enclosing batch was sampled.
    #[test]
    fn nested_ops_are_never_root_traces() {
        use crate::proxy::op_tag::{MULTI_GET, MULTI_PUT};
        use minuet_obs::ObsConfig;
        use minuet_sinfonia::ClusterConfig;
        let cfg = TreeConfig {
            mode: crate::tree::ConcurrencyMode::FullValidation,
            ..TreeConfig::small_nodes(8)
        };
        let sin = ClusterConfig::with_memnodes(2).with_obs(ObsConfig::sampled(2));
        let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);
        let mut p = mc.proxy();
        let keys: Vec<_> = (0..3).map(key).collect();
        let top_level = 8;
        for round in 0..top_level / 2 {
            let pairs: Vec<_> = keys.iter().map(|k| (k.clone(), vec![round])).collect();
            p.multi_put(0, &pairs).unwrap();
            p.multi_get(0, &keys).unwrap();
        }
        assert!(p.stats.batch_fallbacks >= 24, "mode did not force fallback");
        let traces = mc.sinfonia.obs().recent(64);
        let tags: Vec<u8> = traces.iter().map(|t| t.op_tag).collect();
        assert_eq!(tags.len(), usize::from(top_level.div_ceil(2)), "{tags:?}");
        assert!(
            tags.iter().all(|t| [MULTI_PUT, MULTI_GET].contains(t)),
            "a per-key fallback was sampled as a root: {tags:?}"
        );
    }
}
