//! Transactional B-tree traversal (Figure 5) with the safety checks that
//! make dirty reads sound: fence keys (§3), the fatal height-consistency
//! check (§3), and version-tag checks for snapshots and branching versions
//! (§4.2, §5.2).

use crate::catalog::CatEntry;
use crate::error::{Attempt, Error, RetryCause};
use crate::node::{NodePtr, Page, SnapshotId};
use crate::proxy::Proxy;
use crate::tree::{ConcurrencyMode, MinuetCluster, VersionMode};
use minuet_dyntx::{DynTx, SeqNo, TxKey};
use minuet_sinfonia::MemNodeId;
use std::sync::Arc;

/// What an `OpTarget` resolves to for one operation attempt (`Proxy::resolve`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Resolved {
    /// Snapshot the operation acts on.
    pub sid: SnapshotId,
    /// Root node of that snapshot.
    pub root: NodePtr,
    /// True if the target is a validated writable tip.
    pub writable: bool,
}

/// How the final (stop-height) node of a traversal is fetched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LeafAccess {
    /// Added to the read set (validated at commit / piggy-backed).
    Transactional,
    /// Like `Transactional`, but a still-cached leaf is served from the
    /// proxy's node cache with only its observed seqno pinned into the
    /// read set: commit then validates it with a compare-only
    /// minitransaction (tens of bytes) instead of re-fetching the image.
    /// A stale cached leaf fails that validation, is invalidated, and the
    /// retry fetches fresh. Used by gets on writable targets.
    CachedValidated,
    /// Dirty read: reads on read-only snapshots never validate (§4.2).
    /// A node that may be a leaf — the stop node, or a root that is still
    /// a leaf — comes from a frozen cache entry or the wire, never from a
    /// tip entry (`FetchStyle::AtSnapshot`), and a root shallower than the
    /// stop level ends the descent at the root.
    Dirty,
    /// Routing probe for the batch path: the stop node is dirty-read
    /// through the proxy's node cache (so repeated routes are free), and a
    /// root shallower than the requested stop height terminates the
    /// traversal at the root instead of aborting — the caller handles
    /// single-level trees itself.
    Route,
}

/// One node on a traversed path.
#[derive(Clone)]
pub(crate) struct PathEntry {
    /// Where the node actually lives (after following copy redirects).
    pub ptr: NodePtr,
    /// The pointer by which the *parent* refers to this level (before
    /// redirects); parent child-pointer updates must replace this value.
    pub link: NodePtr,
    /// Version observed.
    pub seqno: SeqNo,
    /// The image, read in place.
    pub node: Page,
}

impl PathEntry {
    /// The node at `ptr`, reached without a redirect.
    pub(crate) fn at(ptr: NodePtr, seqno: SeqNo, node: Page) -> PathEntry {
        let link = ptr;
        PathEntry {
            ptr,
            link,
            seqno,
            node,
        }
    }
}

/// Most copy redirects one descent follows at one level before it gives
/// up on the attempt.
const MAX_REDIRECT_HOPS: u32 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchStyle {
    DirtyCached,
    /// A dirty read at read-only snapshot `sid` of a node that may be a
    /// leaf: a leaf comes only from a frozen cache entry that serves
    /// `sid` ([`crate::cache::NodeCache::get_at`]), never from a tip
    /// entry, and with `fill` a leaf fetched from the wire is cached
    /// frozen at `sid` (see [`Proxy::may_freeze`]).
    AtSnapshot {
        sid: SnapshotId,
        fill: bool,
    },
    Transactional,
    /// Transactional with the validated-leaf-cache fast path: a cached
    /// leaf short-circuits the fetch, pinning its seqno for commit-time
    /// validation.
    ValidatedLeaf,
}

/// Resolves parent/root of a snapshot for the version cache.
pub(crate) fn cat_immutable_fetcher(
    mc: Arc<MinuetCluster>,
    tree: u32,
    prefer: MemNodeId,
) -> impl FnMut(SnapshotId) -> Result<(SnapshotId, NodePtr), Error> {
    move |sid| match CatEntry::fetch(&mc.sinfonia, mc.layout(tree), sid, prefer)? {
        Some((_, e)) => Ok((e.parent, e.root)),
        None => Err(Error::NoSuchSnapshot(sid)),
    }
}

/// Outcome of [`Proxy::check_node`].
pub(crate) enum NodeCheck {
    /// The node is the one the descent wants at this level.
    Accept,
    /// A check failed, for this reason.
    Retry(RetryCause),
    /// The node was copied at an ancestor of the target snapshot: the
    /// descent continues at the copy (branching mode, §5.2).
    Redirect(NodePtr),
}

impl Proxy {
    /// The checks a descent applies to every node it reaches: the version
    /// tags at `sid` (§4.2 for linear snapshots, §5.2 for branching
    /// versions), fence keys that cover `key` (Fig. 5 lines 5 and 22), and
    /// a height one below `parent_height` (line 15's fatal inconsistency;
    /// `None` at the root). A right sibling that passes them for the
    /// previous leaf's high fence is the leaf a descent for that key would
    /// reach, which is what lets a scan accept it without descending
    /// (`scan.rs`), and a batch accept a group's leaf (`batch.rs`).
    pub(crate) fn check_node(
        &self,
        tree: u32,
        node: &Page,
        sid: SnapshotId,
        key: &[u8],
        parent_height: Option<u8>,
    ) -> Result<NodeCheck, Error> {
        let stale = NodeCheck::Retry(RetryCause::StaleVersion);
        let mc = &self.mc;
        match mc.cfg.version_mode {
            // Ancestry along a path is plain ordering. Linear traversals
            // abort on a covering copy (§4.2): the retry re-reads the
            // parent, whose pointer was updated in the same commit that
            // made the copy.
            VersionMode::Linear => {
                if node.created() > sid || node.desc().iter().any(|d| d.sid <= sid) {
                    return Ok(stale);
                }
            }
            VersionMode::Branching => {
                let shared = mc.shared(tree);
                let mut fetch = cat_immutable_fetcher(mc.clone(), tree, self.home);
                let mut covers = |s| shared.vcache.is_ancestor_or_self(s, sid, &mut fetch);
                if !covers(node.created())? {
                    return Ok(stale);
                }
                // Descendant-set entries are pairwise incomparable, so at
                // most one can cover `sid`.
                for d in node.desc() {
                    if covers(d.sid)? {
                        return Ok(NodeCheck::Redirect(d.ptr));
                    }
                }
            }
        }
        if !node.covers(key) {
            return Ok(NodeCheck::Retry(RetryCause::FenceViolation));
        }
        if parent_height.is_some_and(|h| h.checked_sub(1) != Some(node.height())) {
            return Ok(NodeCheck::Retry(RetryCause::HeightMismatch));
        }
        Ok(NodeCheck::Accept)
    }

    fn fetch_node(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ptr: NodePtr,
        style: FetchStyle,
    ) -> Attempt<PathEntry> {
        let layout = *self.mc.layout(tree);
        let obj = layout.node_obj(ptr);
        let cache_ok = self.mc.cfg.cache_internal_nodes;
        let cache_leaves = self.mc.cfg.cache_leaves;
        match style {
            FetchStyle::DirtyCached if cache_ok => {
                if let Some((seqno, node)) = self.ncache.get(tree, ptr) {
                    tx.note_dirty(obj, seqno);
                    return Ok(PathEntry::at(ptr, seqno, node));
                }
            }
            FetchStyle::AtSnapshot { sid, .. } => {
                if let Some((seqno, node)) = self.ncache.get_at(tree, ptr, sid) {
                    tx.note_dirty(obj, seqno);
                    return Ok(PathEntry::at(ptr, seqno, node));
                }
            }
            FetchStyle::ValidatedLeaf if cache_leaves => {
                if let Some((seqno, node)) = self.ncache.get(tree, ptr) {
                    if node.height() == 0 {
                        // Serve the image from the cache; pin only its
                        // version — commit revalidates with a compare-only
                        // minitransaction, and a stale entry surfaces as a
                        // validation retry that invalidates it (see
                        // `Proxy::note_retry`).
                        tx.assume_version(TxKey::Plain(obj), seqno);
                        self.last_leaf_assumed = Some((tree, ptr));
                        self.stats.leaf_cache_hits += 1;
                        return Ok(PathEntry::at(ptr, seqno, node));
                    }
                }
                self.stats.leaf_cache_misses += 1;
            }
            _ => {}
        }
        let (seqno, data, tracked) = match style {
            FetchStyle::Transactional | FetchStyle::ValidatedLeaf => {
                let data = tx.read(obj)?;
                let seqno = tx.observed_seqno(&TxKey::Plain(obj)).unwrap_or(0);
                (seqno, data, true)
            }
            _ => {
                let val = tx.dirty_read(obj)?;
                (val.seqno, val.data, false)
            }
        };
        let Ok(page) = Page::new(data) else {
            // Freed slot or torn image: the pointer that led here is
            // stale.
            self.ncache.invalidate(tree, ptr);
            return Err(RetryCause::TornRead.into());
        };
        // Internal nodes read dirty enter the cache to route later
        // descents; leaves observed at a validated version enter it so
        // the next get revalidates instead of re-fetching.
        let leaf = page.height() == 0;
        let cache = if leaf {
            tracked && cache_leaves
        } else {
            !tracked && cache_ok
        };
        let page = match style {
            FetchStyle::AtSnapshot { sid, fill: true } if leaf => {
                self.ncache.put_frozen(tree, ptr, seqno, page, sid)
            }
            _ if cache => self.ncache.put(tree, ptr, seqno, page),
            _ => page,
        };
        Ok(PathEntry::at(ptr, seqno, page))
    }

    /// Accepts `e` as the node a descent for `key` at `sid` reaches below
    /// a node of `parent_height` ([`Proxy::check_node`]), following copy
    /// redirects (§5.2) — a bounded chain of forwarding hops through
    /// descendant-set entries, each fetched per `style`. A node that fails
    /// a check leaves the cache and aborts the attempt.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn settle(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        mut e: PathEntry,
        style: FetchStyle,
        sid: SnapshotId,
        key: &[u8],
        parent_height: Option<u8>,
    ) -> Attempt<PathEntry> {
        let link = e.link;
        let mut hops = 0;
        loop {
            match self.check_node(tree, &e.node, sid, key, parent_height)? {
                NodeCheck::Accept => {
                    e.link = link;
                    return Ok(e);
                }
                NodeCheck::Retry(cause) => {
                    self.ncache.invalidate(tree, e.ptr);
                    return Err(cause.into());
                }
                NodeCheck::Redirect(next) => {
                    hops += 1;
                    if hops > MAX_REDIRECT_HOPS {
                        return Err(RetryCause::StaleVersion.into());
                    }
                    e = self.fetch_node(tx, tree, next, style)?;
                }
            }
        }
    }

    pub(crate) fn invalidate_path(&mut self, tree: u32, path: &[PathEntry]) {
        for e in path {
            self.ncache.invalidate(tree, e.ptr);
        }
    }

    /// Traverses from `ctx.root` toward `key`, stopping at the node of
    /// height `stop_height` (0 = leaf). Internal levels use dirty reads
    /// (or, in FullValidation mode, unvalidated reads whose seqnos are
    /// compared against the replicated table at the leaf's memnode); the
    /// stop node is fetched per `leaf_access`.
    ///
    /// On any safety-check failure the visited path is dropped from the
    /// node cache and `Retry` is returned, per Figure 5's `T.Abort()`.
    pub(crate) fn traverse(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        ctx: &Resolved,
        key: &[u8],
        leaf_access: LeafAccess,
        stop_height: u8,
    ) -> Attempt<Vec<PathEntry>> {
        let mode = self.mc.cfg.mode;
        let layout = *self.mc.layout(tree);
        let snapshot = FetchStyle::AtSnapshot {
            sid: ctx.sid,
            fill: leaf_access == LeafAccess::Dirty && self.may_freeze(tree, ctx.sid),
        };
        let mut path: Vec<PathEntry> = Vec::with_capacity(8);
        let mut cur = ctx.root;
        loop {
            let expect_stop = path
                .last()
                .map(|p| p.node.height() == stop_height + 1)
                .unwrap_or(false);

            // Baseline mode validates the whole path at the leaf's memnode:
            // add the seqno-table compares before fetching the leaf so the
            // fetch minitransaction piggy-backs them (§2.3).
            if expect_stop
                && mode == ConcurrencyMode::FullValidation
                && leaf_access == LeafAccess::Transactional
            {
                for e in &path {
                    // Nodes this transaction already rewrote carry pinned
                    // fresh seqnos; their table entries are raw-written in
                    // the same commit, so comparing the old value would
                    // self-conflict.
                    if tx.is_staged(&TxKey::Plain(layout.node_obj(e.ptr))) {
                        continue;
                    }
                    tx.add_raw_compare(
                        layout.seqtab_entry(e.ptr, cur.mem),
                        e.seqno.to_le_bytes().to_vec(),
                    );
                }
            }

            // A snapshot read takes a node that may be a leaf (the stop
            // node, or a root that is still a leaf) only from a frozen
            // entry or the wire.
            let may_be_leaf = path.is_empty() || (expect_stop && stop_height == 0);
            let style = match leaf_access {
                LeafAccess::Dirty if may_be_leaf => snapshot,
                _ if !expect_stop => FetchStyle::DirtyCached,
                LeafAccess::Transactional => FetchStyle::Transactional,
                LeafAccess::CachedValidated => FetchStyle::ValidatedLeaf,
                LeafAccess::Dirty | LeafAccess::Route => FetchStyle::DirtyCached,
            };

            let parent_height = path.last().map(|p| p.node.height());
            let entry = match self
                .fetch_node(tx, tree, cur, style)
                .and_then(|e| self.settle(tx, tree, e, style, ctx.sid, key, parent_height))
            {
                Ok(e) => e,
                Err(abort) => {
                    self.invalidate_path(tree, &path);
                    return Err(abort);
                }
            };

            if path.is_empty() && entry.node.height() < stop_height {
                if matches!(leaf_access, LeafAccess::Route | LeafAccess::Dirty) {
                    // A tree shallower than the stop level (the root is
                    // still a leaf): stop at the root.
                    path.push(entry);
                    return Ok(path);
                }
                // Root shallower than the requested stop level: stale root
                // observation.
                return Err(RetryCause::StaleTip.into());
            }

            let at_stop = entry.node.height() == stop_height;
            if at_stop
                && path.is_empty()
                && matches!(
                    leaf_access,
                    LeafAccess::Transactional | LeafAccess::CachedValidated
                )
                && matches!(
                    mode,
                    ConcurrencyMode::DirtyTraversals | ConcurrencyMode::FullValidation
                )
            {
                // Single-level tree: the root is the leaf and was fetched
                // through the dirty/cached path. Promote it into the read
                // set at the observed version. Gets need only the version
                // pin (their commit is compare-only); mutations keep the
                // full image so write promotion sees the value.
                let obj = layout.node_obj(entry.ptr);
                if tx.observed_seqno(&TxKey::Plain(obj)).is_none() {
                    if leaf_access == LeafAccess::CachedValidated {
                        tx.assume_version(TxKey::Plain(obj), entry.seqno);
                        self.last_leaf_assumed = Some((tree, entry.ptr));
                    } else {
                        tx.assume(TxKey::Plain(obj), entry.seqno, entry.node.image().clone());
                    }
                }
            }

            // Above the stop height, a node is internal: the height
            // checks have seen to it.
            let next = (!at_stop).then(|| entry.node.child_for(key));
            path.push(entry);
            match next {
                None => return Ok(path),
                Some(None) => {
                    self.invalidate_path(tree, &path);
                    return Err(RetryCause::HeightMismatch.into());
                }
                Some(Some(ptr)) => cur = ptr,
            }
        }
    }
}
