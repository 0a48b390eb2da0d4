//! Proxies: the per-thread handles through which clients execute B-tree
//! operations (Figure 1).
//!
//! A proxy owns the non-coherent caches (internal nodes, tip, catalog
//! entries) and a local allocator chunk cache, and hands every operation
//! to the crate's one optimistic retry loop ([`crate::retry`]) together
//! with what a retry must invalidate. Operations are strictly serializable:
//! up-to-date reads and writes validate the tip snapshot id (§4.1), and
//! reads on read-only snapshots are immutable by construction.

use crate::alloc::ChunkCache;
use crate::cache::NodeCache;
use crate::catalog::{CatEntry, TipVal};
use crate::error::{Attempt, Error, RetryCause, TxnError};
use crate::key::{Key, Value};
use crate::node::SnapshotId;
use crate::ops::{LeafOp, Written};
use crate::retry::run_tx;
use crate::stats::ProxyStats;
use crate::traverse::Resolved;
use crate::tree::{MinuetCluster, VersionMode};
use minuet_dyntx::{CommitInfo, DynTx, SeqNo, TxKey};
use minuet_obs::{event, span, SpanKind};
use minuet_sinfonia::MemNodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Tags identifying the proxy operation at the root of a trace
/// ([`minuet_obs::Trace::op_tag`]).
pub mod op_tag {
    /// Point lookup (`get` / `get_branch`).
    pub const GET: u8 = 1;
    /// Insert or update (`put` / `put_branch`).
    pub const PUT: u8 = 2;
    /// Removal (`remove` / `remove_branch`).
    pub const REMOVE: u8 = 3;
    /// Snapshot lookup (`get_at`).
    pub const GET_AT: u8 = 4;
    /// Multi-key transaction (`txn`).
    pub const TXN: u8 = 5;
    /// Batched lookup (`multi_get`).
    pub const MULTI_GET: u8 = 6;
    /// Batched mutation (`multi_put` / `multi_remove`).
    pub const MULTI_PUT: u8 = 7;
    /// Sorted preload (`bulk_load`).
    pub const BULK_LOAD: u8 = 8;
}

/// Renders an op tag for dashboards; the inverse of the constants above.
pub fn op_tag_name(tag: u8) -> &'static str {
    match tag {
        op_tag::GET => "get",
        op_tag::PUT => "put",
        op_tag::REMOVE => "remove",
        op_tag::GET_AT => "get_at",
        op_tag::TXN => "txn",
        op_tag::MULTI_GET => "multi_get",
        op_tag::MULTI_PUT => "multi_put",
        op_tag::BULK_LOAD => "bulk_load",
        _ => "op",
    }
}

/// Retry-event tag marking a batch member diverted to the per-key path
/// (no [`RetryCause`] maps to it; see [`retry_tag`]).
pub(crate) const RETRY_TAG_BATCH_FALLBACK: u8 = 7;

/// Span event tag for a retry, derived from its cause so traces show why
/// an attempt was thrown away.
pub(crate) fn retry_tag(cause: RetryCause) -> u8 {
    match cause {
        RetryCause::Validation => 1,
        RetryCause::FenceViolation => 2,
        RetryCause::HeightMismatch => 3,
        RetryCause::StaleVersion => 4,
        RetryCause::StaleTip => 5,
        RetryCause::TornRead => 6,
        RetryCause::NoReadyReplica => 8,
    }
}

/// Identifies the snapshot an operation targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpTarget {
    /// The mainline tip (validated through the replicated TIP object).
    MainlineTip,
    /// A specific writable tip (validated through its catalog entry).
    TipSid(SnapshotId),
    /// A read-only snapshot (no validation; §4.2).
    Snapshot(SnapshotId),
}

/// A per-thread client handle. Create with
/// [`MinuetCluster::proxy`](crate::tree::MinuetCluster::proxy); cheap to
/// create, not shareable across threads (spawn one per worker).
///
/// Besides the single-key operations shown here, a proxy offers range
/// scans (`scan_at`, `scan_serializable`), snapshot and branch creation,
/// multi-key transactions ([`Proxy::txn`]), and the batched multi-op API
/// (`multi_get` / `multi_put` / `multi_remove` / `bulk_load` in
/// [`crate::batch`]).
///
/// ```
/// use minuet_core::{MinuetCluster, TreeConfig};
///
/// let mc = MinuetCluster::new(2, 1, TreeConfig::default());
/// let mut p = mc.proxy();
/// assert_eq!(p.put(0, b"a".to_vec(), b"1".to_vec()).unwrap(), None);
/// assert_eq!(p.get(0, b"a").unwrap(), Some(b"1".to_vec()));
/// assert_eq!(p.remove(0, b"a").unwrap(), Some(b"1".to_vec()));
/// // Per-operation statistics accumulate on the handle.
/// assert_eq!(p.stats.ops, 3);
/// ```
pub struct Proxy {
    pub(crate) mc: Arc<MinuetCluster>,
    pub(crate) home: MemNodeId,
    pub(crate) ncache: NodeCache,
    pub(crate) tip_cache: HashMap<u32, (SeqNo, TipVal)>,
    pub(crate) cat_cache: HashMap<(u32, SnapshotId), (SeqNo, CatEntry)>,
    pub(crate) chunks: ChunkCache,
    /// The cached leaf the current attempt pinned by version only (the
    /// validated-leaf-cache fast path): a validation failure means this
    /// entry is the prime suspect, so `note_retry` invalidates it.
    pub(crate) last_leaf_assumed: Option<(u32, crate::node::NodePtr)>,
    /// Every node image the current attempt staged that the cache may
    /// hold ([`Proxy::write_node`]), in write order. A commit puts them
    /// back at the seqnos it installed ([`Proxy::install_written`]) —
    /// `write_node` dropped the pre-write entries — so the next op finds
    /// the leaf copy, its parent and a new root cached instead of paying
    /// fetches to repopulate them. Cleared at the start of every attempt
    /// (`run_attempts`, `txn`, each batch group).
    pub(crate) written: Vec<Written>,
    /// Entries per leaf in the leaves the last snapshot scan step read:
    /// how many keys the next step expects from a leaf it has not cached.
    /// Unknown at first, so a first step reads one leaf.
    pub(crate) scan_fill: Option<usize>,
    /// Operation statistics.
    pub stats: ProxyStats,
}

impl Proxy {
    pub(crate) fn new(mc: Arc<MinuetCluster>, home: MemNodeId) -> Proxy {
        let chunk = mc.cfg.alloc_chunk;
        let cache_cap = mc.cfg.node_cache_capacity;
        let retries = mc.cfg.max_op_retries;
        let mut ncache = NodeCache::with_capacity(cache_cap);
        ncache.attach(mc.sinfonia.obs());
        Proxy {
            mc,
            home,
            ncache,
            tip_cache: HashMap::new(),
            cat_cache: HashMap::new(),
            chunks: ChunkCache::new(chunk, retries),
            last_leaf_assumed: None,
            written: Vec::new(),
            scan_fill: None,
            stats: ProxyStats::default(),
        }
    }

    /// Nodes this proxy's cache holds now. Its hits, misses and evictions
    /// are the cluster-wide `cache.*` series (`NodeCache::attach`).
    pub fn cached_nodes(&self) -> usize {
        self.ncache.len()
    }

    /// The proxy's preferred memnode for replicated reads.
    pub fn home(&self) -> MemNodeId {
        self.home
    }

    /// The cluster this proxy belongs to.
    pub fn cluster(&self) -> &Arc<MinuetCluster> {
        &self.mc
    }

    /// Captures a read-your-writes session token: the per-memnode WAL
    /// tails of this (primary) cluster right now. Every write this proxy
    /// has seen committed is at or below the token, so a replication
    /// follower that has passed it
    /// ([`MinuetCluster::wait_replicated`](crate::tree::MinuetCluster::wait_replicated))
    /// serves all of this session's writes.
    pub fn session_token(&self) -> minuet_sinfonia::repl::ReplToken {
        self.mc.sinfonia.repl_token()
    }

    /// Accounting + invalidation for one aborted attempt on `tree`.
    pub(crate) fn note_retry(&mut self, tree: u32, cause: RetryCause) {
        self.record_retry(cause);
        self.forget_meta(tree);
    }

    /// The tree-independent half of [`Proxy::note_retry`].
    fn record_retry(&mut self, cause: RetryCause) {
        self.stats.record_retry(cause);
        event(SpanKind::Retry, retry_tag(cause));
        // Node-cache entries are invalidated at the fault sites — except a
        // version-pinned cached leaf, whose staleness surfaces only as a
        // commit validation failure: drop it here so the retry fetches
        // fresh instead of re-validating the same stale image.
        if let Some((t, ptr)) = self.last_leaf_assumed.take() {
            self.ncache.invalidate(t, ptr);
        }
    }

    /// Drops the cached tip and catalog entries of `tree`: they may be
    /// stale, so the next attempt reads them afresh.
    fn forget_meta(&mut self, tree: u32) {
        self.tip_cache.remove(&tree);
        self.cat_cache.retain(|(t, _), _| *t != tree);
    }

    /// Puts every node image a committed attempt wrote back into the
    /// cache, at the seqno the commit installed for it: exactly what a
    /// dirty read right after the commit would return. An image whose
    /// object the commit did not install (a piggybacked one-shot that
    /// skipped staging) stays out. A node written twice is put twice, the
    /// later image last, as the commit wrote it.
    pub(crate) fn install_written(
        &mut self,
        info: &CommitInfo,
        written: impl IntoIterator<Item = Written>,
    ) {
        // `installed` is in object order (the commit walks its write set
        // in order), so each lookup is a binary search.
        debug_assert!(info.installed.is_sorted_by_key(|(k, _)| *k));
        for (tree, ptr, node) in written {
            let key = TxKey::Plain(self.mc.layout(tree).node_obj(ptr));
            if let Ok(at) = info.installed.binary_search_by_key(&key, |(k, _)| *k) {
                self.ncache.put(tree, ptr, info.installed[at].1, node);
                self.ncache.installs.inc();
            }
        }
    }

    /// [`Proxy::install_written`] for the attempt that just committed,
    /// draining `written` in place so its capacity serves the next op.
    fn install_attempt(&mut self, info: &CommitInfo) {
        let mut written = std::mem::take(&mut self.written);
        self.install_written(info, written.drain(..));
        self.written = written;
    }

    /// Runs `f` as one dynamic transaction on `tree` through the crate's
    /// optimistic loop ([`run_tx`]), invalidating the proxy's view of the
    /// tree's metadata after every aborted attempt.
    pub(crate) fn run_tx<T>(
        &mut self,
        tree: u32,
        budget: usize,
        f: impl FnMut(&mut Proxy, &mut DynTx<'_>) -> Attempt<T>,
    ) -> Result<(T, CommitInfo), Error> {
        let mc = self.mc.clone();
        let retry = |p: &mut Proxy, cause| p.note_retry(tree, cause);
        run_tx(&mc.sinfonia, mc.cfg.piggyback, budget, self, retry, f)
    }

    /// Runs one operation to completion with optimistic retries.
    pub(crate) fn run_op<T>(
        &mut self,
        tree: u32,
        f: impl FnMut(&mut Proxy, &mut DynTx<'_>) -> Attempt<T>,
    ) -> Result<T, Error> {
        let v = self.run_attempts(tree, self.mc.cfg.max_op_retries, f)?;
        self.stats.ops += 1;
        Ok(v)
    }

    /// [`Proxy::run_op`]'s attempts with an explicit retry budget, not
    /// counted in `stats.ops`. A snapshot scan runs one per step, with a
    /// small budget so that scanning a snapshot the GC has reclaimed fails
    /// promptly instead of retrying at length, and counts itself once.
    pub(crate) fn run_attempts<T>(
        &mut self,
        tree: u32,
        budget: usize,
        mut f: impl FnMut(&mut Proxy, &mut DynTx<'_>) -> Attempt<T>,
    ) -> Result<T, Error> {
        let (v, info) = self.run_tx(tree, budget, |p, tx| {
            p.last_leaf_assumed = None;
            p.written.clear();
            f(p, tx)
        })?;
        self.last_leaf_assumed = None;
        self.install_attempt(&info);
        Ok(v)
    }

    /// Whether a leaf read at read-only snapshot `sid` may be cached
    /// frozen ([`crate::cache::NodeCache::put_frozen`]): in linear mode,
    /// with leaf caching on, and only when this proxy already knows that
    /// `sid` is frozen — its cached tip is newer, or the version cache
    /// names a snapshot branched from `sid`. It never spends a round trip
    /// to find out; without proof the read is simply not cached.
    pub(crate) fn may_freeze(&self, tree: u32, sid: SnapshotId) -> bool {
        let cfg = &self.mc.cfg;
        cfg.cache_leaves
            && cfg.version_mode == VersionMode::Linear
            && (self
                .tip_cache
                .get(&tree)
                .is_some_and(|(_, tip)| tip.sid > sid)
                || self.mc.shared(tree).vcache.has_child(sid))
    }

    /// Resolves an operation target to a snapshot id + root, pinning the
    /// tip / catalog entry into the read set for writable targets (§4.1,
    /// §5.1).
    pub(crate) fn resolve(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        target: OpTarget,
    ) -> Attempt<Resolved> {
        let _route = span(SpanKind::Route);
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        match target {
            OpTarget::MainlineTip => {
                if let Some((seq, tip)) = self.tip_cache.get(&tree) {
                    tx.assume(TxKey::Repl(layout.tip()), *seq, tip.encode());
                    return Ok(Resolved {
                        sid: tip.sid,
                        root: tip.root,
                        writable: true,
                    });
                }
                let tip = TipVal::read(tx, &layout, self.home)?;
                if let Some(seq) = tx.observed_seqno(&TxKey::Repl(layout.tip())) {
                    self.tip_cache.insert(tree, (seq, tip));
                }
                Ok(Resolved {
                    sid: tip.sid,
                    root: tip.root,
                    writable: true,
                })
            }
            OpTarget::TipSid(sid) => {
                let repl = layout
                    .catalog_entry(sid)
                    .ok_or(Error::NoSuchSnapshot(sid))?;
                if let Some((seq, entry)) = self.cat_cache.get(&(tree, sid)) {
                    if entry.is_writable() {
                        tx.assume(TxKey::Repl(repl), *seq, entry.encode());
                        return Ok(Resolved {
                            sid,
                            root: entry.root,
                            writable: true,
                        });
                    }
                    // Cached entry says read-only: confirm with a fresh
                    // read below before surfacing the error.
                    self.cat_cache.remove(&(tree, sid));
                }
                let (_, entry) = CatEntry::read(tx, &layout, sid, self.home)?;
                if let Some(seq) = tx.observed_seqno(&TxKey::Repl(repl)) {
                    self.cat_cache.insert((tree, sid), (seq, entry));
                }
                if !entry.is_writable() {
                    return Err(Error::SnapshotReadOnly(sid).into());
                }
                Ok(Resolved {
                    sid,
                    root: entry.root,
                    writable: true,
                })
            }
            OpTarget::Snapshot(sid) => {
                let shared = mc.shared(tree);
                if let Some(root) = shared.vcache.root(sid) {
                    return Ok(Resolved {
                        sid,
                        root,
                        writable: false,
                    });
                }
                let (_, entry) = CatEntry::fetch(&mc.sinfonia, &layout, sid, self.home)?
                    .ok_or(Error::NoSuchSnapshot(sid))?;
                shared.vcache.insert(sid, entry.parent, entry.root);
                Ok(Resolved {
                    sid,
                    root: entry.root,
                    writable: false,
                })
            }
        }
    }

    // ------------------------------------------------------------------
    // Single-key operations
    // ------------------------------------------------------------------

    /// One single-key operation, run to completion: what every `get` /
    /// `put` / `remove` below is, differing only in target and [`LeafOp`].
    pub(crate) fn op(
        &mut self,
        tree: u32,
        target: OpTarget,
        key: &[u8],
        op: LeafOp,
    ) -> Result<Option<Value>, Error> {
        let _op = self.mc.sinfonia.obs().op(match (&op, target) {
            (LeafOp::Get, OpTarget::Snapshot(_)) => op_tag::GET_AT,
            (LeafOp::Get, _) => op_tag::GET,
            (LeafOp::Put(_), _) => op_tag::PUT,
            (LeafOp::Remove, _) => op_tag::REMOVE,
        });
        self.run_op(tree, |p, tx| p.try_op(tx, tree, target, key, op.clone()))
    }

    /// Strictly-serializable point lookup at the mainline tip.
    pub fn get(&mut self, tree: u32, key: &[u8]) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::MainlineTip, key, LeafOp::Get)
    }

    /// Inserts or updates a key at the mainline tip; returns the previous
    /// value.
    pub fn put(&mut self, tree: u32, key: Key, value: Value) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::MainlineTip, &key, LeafOp::Put(value))
    }

    /// Removes a key at the mainline tip; returns the previous value.
    pub fn remove(&mut self, tree: u32, key: &[u8]) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::MainlineTip, key, LeafOp::Remove)
    }

    /// Point lookup on any snapshot. For read-only snapshots this never
    /// validates and never aborts due to concurrent updates (§4.2); if
    /// `sid` is a writable tip the lookup is validated against its branch
    /// id instead.
    pub fn get_at(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        key: &[u8],
    ) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::Snapshot(sid), key, LeafOp::Get)
    }

    /// Strictly-serializable lookup at a specific writable tip (§5.1).
    pub fn get_branch(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        key: &[u8],
    ) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::TipSid(sid), key, LeafOp::Get)
    }

    /// Inserts or updates a key at a specific writable tip (§5.1).
    pub fn put_branch(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        key: Key,
        value: Value,
    ) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::TipSid(sid), &key, LeafOp::Put(value))
    }

    /// Removes a key at a specific writable tip.
    pub fn remove_branch(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        key: &[u8],
    ) -> Result<Option<Value>, Error> {
        self.op(tree, OpTarget::TipSid(sid), key, LeafOp::Remove)
    }

    /// Reads the current mainline tip (one round trip; not cached).
    pub fn current_tip(&mut self, tree: u32) -> Result<(SnapshotId, crate::node::NodePtr), Error> {
        let layout = *self.mc.layout(tree);
        let (tip, _) = self.run_tx(tree, self.mc.cfg.max_op_retries, |p, tx| {
            TipVal::read(tx, &layout, p.home)
        })?;
        Ok((tip.sid, tip.root))
    }

    // ------------------------------------------------------------------
    // Multi-key / multi-index transactions
    // ------------------------------------------------------------------

    /// Runs a closure of multiple operations (possibly across trees) as
    /// one strictly-serializable dynamic transaction, retrying
    /// transparently on conflicts (§6.2's multi-index transactions).
    ///
    /// ```
    /// # use minuet_core::{MinuetCluster, TreeConfig};
    /// let mc = MinuetCluster::new(2, 2, TreeConfig::default());
    /// let mut p = mc.proxy();
    /// p.txn(|t| {
    ///     let v = t.get(0, b"balance")?.unwrap_or_default();
    ///     t.put(1, b"audit".to_vec(), v)?;
    ///     Ok(())
    /// })
    /// .unwrap();
    /// ```
    pub fn txn<R>(
        &mut self,
        mut f: impl FnMut(&mut Txn<'_, '_, '_>) -> Result<R, TxnError>,
    ) -> Result<R, Error> {
        let _op = self.mc.sinfonia.obs().op(op_tag::TXN);
        let mc = self.mc.clone();
        // The trees this attempt's handle resolved: exactly the ones whose
        // cached tip a retry must stop trusting.
        let mut st = (&mut *self, Vec::new());
        let (v, info) = run_tx(
            &mc.sinfonia,
            mc.cfg.piggyback,
            mc.cfg.max_op_retries,
            &mut st,
            |(p, trees), cause| {
                p.record_retry(cause);
                trees.drain(..).for_each(|t| p.forget_meta(t));
            },
            |(proxy, trees), tx| {
                proxy.written.clear();
                f(&mut Txn { proxy, tx, trees })
            },
        )?;
        self.install_attempt(&info);
        self.stats.ops += 1;
        Ok(v)
    }
}

/// Handle passed to [`Proxy::txn`] closures: the same single-key
/// operations, all staged into one dynamic transaction.
pub struct Txn<'p, 't, 'c> {
    proxy: &'p mut Proxy,
    tx: &'t mut DynTx<'c>,
    trees: &'p mut Vec<u32>,
}

impl Txn<'_, '_, '_> {
    /// One single-key operation staged into the transaction.
    fn op(
        &mut self,
        tree: u32,
        target: OpTarget,
        key: &[u8],
        op: LeafOp,
    ) -> Result<Option<Value>, TxnError> {
        if !self.trees.contains(&tree) {
            self.trees.push(tree);
        }
        self.proxy.try_op(self.tx, tree, target, key, op)
    }

    /// Transactional lookup at the mainline tip of `tree`.
    pub fn get(&mut self, tree: u32, key: &[u8]) -> Result<Option<Value>, TxnError> {
        self.op(tree, OpTarget::MainlineTip, key, LeafOp::Get)
    }

    /// Transactional insert/update at the mainline tip of `tree`.
    pub fn put(&mut self, tree: u32, key: Key, value: Value) -> Result<Option<Value>, TxnError> {
        self.op(tree, OpTarget::MainlineTip, &key, LeafOp::Put(value))
    }

    /// Transactional removal at the mainline tip of `tree`.
    pub fn remove(&mut self, tree: u32, key: &[u8]) -> Result<Option<Value>, TxnError> {
        self.op(tree, OpTarget::MainlineTip, key, LeafOp::Remove)
    }

    /// Lookup on a read-only snapshot within the transaction.
    pub fn get_at(
        &mut self,
        tree: u32,
        sid: SnapshotId,
        key: &[u8],
    ) -> Result<Option<Value>, TxnError> {
        self.op(tree, OpTarget::Snapshot(sid), key, LeafOp::Get)
    }
}
