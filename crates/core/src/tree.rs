//! Cluster-level handle: configuration, bootstrap, and shared tree state.

use crate::catalog::{CatEntry, GlobalVal, TipVal, VersionCache, NO_PARENT};
use crate::error::Error;
use crate::layout::{Layout, LayoutParams};
use crate::node::{Node, NodePtr};
use crate::proxy::Proxy;
use crate::scs::SnapshotService;
use crate::stats::{raw_obj, MigrationCounters};
use minuet_dyntx::encode_obj;
use minuet_sinfonia::{Bytes, ClusterConfig, MemNodeId, SinfoniaCluster};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Concurrency-control mode of the B-tree (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcurrencyMode {
    /// Minuet's scheme: traverse internal nodes with dirty reads guarded by
    /// fence keys and version tags; only the leaf is validated.
    DirtyTraversals,
    /// The baseline of Aguilera et al.: every traversed node is validated,
    /// with internal-node seqnos replicated at every memnode so validation
    /// can happen at the leaf's memnode. Internal-node updates engage all
    /// memnodes.
    FullValidation,
}

/// Versioning mode of the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VersionMode {
    /// Linear snapshots only (§4): the version tree is a path.
    Linear,
    /// Branching versions / writable clones (§5).
    Branching,
}

/// Configuration of every tree hosted by a [`MinuetCluster`].
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Concurrency-control mode.
    pub mode: ConcurrencyMode,
    /// Versioning mode.
    pub version_mode: VersionMode,
    /// Address-space layout parameters.
    pub layout: LayoutParams,
    /// Cap on leaf entries (besides the byte-size cap); small values force
    /// deep trees in tests.
    pub max_leaf_entries: usize,
    /// Cap on internal-node children.
    pub max_internal_entries: usize,
    /// Version-tree branching factor bound β (§5.2).
    pub beta: usize,
    /// Cache internal nodes at proxies (§2.3; ablation switch).
    pub cache_internal_nodes: bool,
    /// Cache **leaf** nodes at proxies too: a get over a cached leaf
    /// issues a compare-only tip+seqno validation minitransaction (tens
    /// of bytes) instead of re-fetching the leaf image, falling back to a
    /// full fetch on mismatch. Ignored in
    /// [`ConcurrencyMode::FullValidation`] (the baseline has no leaf
    /// cache).
    pub cache_leaves: bool,
    /// Capacity of a proxy's node cache in decoded nodes (internal +
    /// leaf); entries beyond it are evicted with a CLOCK sweep.
    pub node_cache_capacity: usize,
    /// Piggy-back read-set validation onto fetches (§2.2; ablation switch).
    pub piggyback: bool,
    /// Use blocking minitransactions for snapshot-creation commits (§4.1).
    pub blocking_meta_updates: bool,
    /// Lock-wait budget of blocking minitransactions.
    pub blocking_wait: Duration,
    /// Give up an operation after this many optimistic retries.
    pub max_op_retries: usize,
    /// Slots grabbed per allocator chunk refill.
    pub alloc_chunk: u32,
    /// Memnode capacity the address-space layout is sized for (elastic
    /// scale-out headroom): [`MinuetCluster::add_memnode`] can grow the
    /// cluster up to this many memnodes without relocating any region.
    /// `0` means "the initial memnode count" (a fixed-size cluster).
    pub max_memnodes: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            mode: ConcurrencyMode::DirtyTraversals,
            version_mode: VersionMode::Linear,
            layout: LayoutParams::default(),
            max_leaf_entries: usize::MAX,
            max_internal_entries: usize::MAX,
            beta: 2,
            cache_internal_nodes: true,
            cache_leaves: true,
            node_cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            piggyback: true,
            blocking_meta_updates: true,
            blocking_wait: Duration::from_millis(50),
            max_op_retries: 100_000,
            alloc_chunk: 64,
            max_memnodes: 0,
        }
    }
}

impl TreeConfig {
    /// Byte budget a node's *content* may grow to before it must split:
    /// the slot payload capacity minus headroom for the up-to-β
    /// descendant-set entries (14 encoded bytes each) that copy-on-write
    /// tagging and snapshot root bookkeeping push onto a node **after**
    /// its content froze. Splitting at the full slot capacity instead
    /// would let a node sit flush against its slot, and the later desc
    /// push would overflow it — a probabilistic crash that only fires
    /// when a snapshot or CoW lands on a node within 14·β bytes of full.
    pub fn split_payload_cap(&self) -> usize {
        const DESC_ENTRY_BYTES: usize = 14;
        (self.layout.node_payload as usize).saturating_sub(DESC_ENTRY_BYTES * self.beta)
    }

    /// The longest key a tree takes: a node that overflows by one entry
    /// of at most this many key and value bytes splits once into halves
    /// that fit (each holds at most `(cap - 15) / 2 + 4 + n` bytes of
    /// entries under a header of at most `13 + 2 * (3 + n)`, where `cap` is
    /// the split payload cap). Separators are keys: it bounds them too.
    pub fn max_key_len(&self) -> usize {
        self.split_payload_cap().saturating_sub(31) / 6
    }

    /// The most key and value bytes one entry may hold: it fits a leaf
    /// alone between fences of the longest key. Larger entries than the
    /// longest key may need a second cut ([`crate::node::Node::split_to_fit`]).
    pub fn max_entry_len(&self) -> usize {
        self.split_payload_cap()
            .saturating_sub(23 + 2 * self.max_key_len())
    }

    /// A configuration with tiny nodes, handy for tests that need deep
    /// trees from few keys.
    pub fn small_nodes(max_entries: usize) -> Self {
        TreeConfig {
            max_leaf_entries: max_entries,
            max_internal_entries: max_entries,
            layout: LayoutParams {
                node_payload: 1024,
                slots_per_mem: 4096,
                max_snapshots: 1024,
            },
            ..Default::default()
        }
    }
}

/// Shared (cross-proxy) state of one tree.
pub(crate) struct TreeShared {
    /// Resolved layout.
    pub layout: Layout,
    /// Cached immutable catalog fields for ancestry queries.
    pub vcache: VersionCache,
    /// Snapshot creation service (Fig. 7).
    pub scs: SnapshotService,
}

/// A Minuet cluster hosting one or more distributed multiversion B-trees
/// over a simulated Sinfonia cluster.
///
/// All client operations go through per-thread [`Proxy`] handles:
///
/// ```
/// use minuet_core::{MinuetCluster, TreeConfig};
///
/// // 2 memnodes hosting 1 tree, bootstrapped and ready.
/// let mc = MinuetCluster::new(2, 1, TreeConfig::default());
/// let mut p = mc.proxy();
/// p.put(0, b"k".to_vec(), b"v".to_vec()).unwrap();
/// assert_eq!(p.get(0, b"k").unwrap(), Some(b"v".to_vec()));
///
/// // A frozen snapshot scans consistently while writes continue (§4).
/// let snap = p.create_snapshot(0).unwrap();
/// p.remove(0, b"k").unwrap();
/// assert_eq!(p.scan_at(0, snap.frozen_sid, b"", 10).unwrap().len(), 1);
/// ```
pub struct MinuetCluster {
    /// The underlying Sinfonia cluster.
    pub sinfonia: Arc<SinfoniaCluster>,
    /// Tree configuration (shared by all trees).
    pub cfg: TreeConfig,
    pub(crate) trees: Vec<TreeShared>,
    /// Memnode count the layout was sized for (elastic growth ceiling).
    max_mems: usize,
    /// Serializes [`MinuetCluster::add_memnode`] calls (capacity check +
    /// membership growth + seeding as one step).
    join_lock: parking_lot::Mutex<()>,
    /// Migration / elasticity counters: the `migrate.*` series of the
    /// cluster's plane.
    pub(crate) migration: MigrationCounters,
    proxy_rr: AtomicUsize,
}

impl MinuetCluster {
    /// Builds a cluster of `n_mems` memnodes hosting `n_trees` trees, and
    /// bootstraps each tree with an empty root at snapshot 0.
    pub fn new(n_mems: usize, n_trees: u32, cfg: TreeConfig) -> Arc<MinuetCluster> {
        Self::with_cluster_config(ClusterConfig::with_memnodes(n_mems), n_trees, cfg)
    }

    /// Like [`MinuetCluster::new`] but with explicit Sinfonia settings
    /// (model RTT, injected latency, durability, ...). `capacity_per_node`
    /// is recomputed from the layout.
    pub fn with_cluster_config(
        mut sin_cfg: ClusterConfig,
        n_trees: u32,
        cfg: TreeConfig,
    ) -> Arc<MinuetCluster> {
        Self::check_cfg(&cfg, n_trees);
        let n_mems = sin_cfg.memnodes;
        let max_mems = Self::layout_mems(&cfg, n_mems);
        sin_cfg.capacity_per_node = Self::capacity_for(&cfg, n_trees, max_mems);
        let sinfonia = SinfoniaCluster::new(sin_cfg);
        Self::assemble(sinfonia, cfg, n_trees, max_mems, |sin, shared, t| {
            bootstrap_tree(sin, shared, t, n_mems)
        })
    }

    /// The cluster over `sinfonia`: each tree's shared state, `open`ed
    /// (bootstrapped or reopened), and the counters in the cluster's plane.
    fn assemble(
        sinfonia: Arc<SinfoniaCluster>,
        cfg: TreeConfig,
        n_trees: u32,
        max_mems: usize,
        open: impl Fn(&SinfoniaCluster, &TreeShared, u32),
    ) -> Arc<MinuetCluster> {
        let trees = (0..n_trees)
            .map(|t| {
                let shared = TreeShared {
                    layout: Layout::new(t, cfg.layout, max_mems),
                    vcache: VersionCache::new(),
                    scs: SnapshotService::new(sinfonia.obs()),
                };
                open(&sinfonia, &shared, t);
                shared
            })
            .collect();
        Arc::new(MinuetCluster {
            migration: MigrationCounters::new(sinfonia.obs()),
            sinfonia,
            cfg,
            trees,
            max_mems,
            join_lock: parking_lot::Mutex::new(()),
            proxy_rr: AtomicUsize::new(0),
        })
    }

    /// Reopens a whole Minuet cluster — every tree, its catalog, and all
    /// snapshots — from the durability directory configured in `sin_cfg`.
    /// The Sinfonia layer replays checkpoint images + redo logs and
    /// resolves in-doubt two-phase minitransactions; no tree is
    /// re-bootstrapped, so every committed key/version is exactly as it
    /// was. `n_trees` and `cfg.layout` must match the original cluster
    /// (they determine the address-space layout being reopened).
    pub fn restart_from_disk(
        mut sin_cfg: ClusterConfig,
        n_trees: u32,
        cfg: TreeConfig,
    ) -> std::io::Result<(Arc<MinuetCluster>, minuet_sinfonia::Resolution)> {
        Self::check_cfg(&cfg, n_trees);
        let n_mems = sin_cfg.memnodes;
        let max_mems = Self::layout_mems(&cfg, n_mems);
        sin_cfg.capacity_per_node = Self::capacity_for(&cfg, n_trees, max_mems);
        let (sinfonia, resolution) = SinfoniaCluster::restart_from_disk(sin_cfg)?;
        // Recovery reopens every memnode found on disk (elastic growth
        // persists); the layout must have been sized for all of them.
        assert!(
            sinfonia.n() <= max_mems,
            "recovered {} memnodes but the layout is sized for {max_mems}; \
             restart with the original TreeConfig::max_memnodes",
            sinfonia.n()
        );
        let mc = Self::assemble(sinfonia, cfg, n_trees, max_mems, |sin, shared, _| {
            reopen_tree(sin, shared)
        });
        Ok((mc, resolution))
    }

    /// Opens a Minuet view over an **existing** Sinfonia cluster without
    /// bootstrapping or replaying anything — the images must already be
    /// there. This is how a client attaches to a replication *follower*:
    /// the follower's memnodes receive the primary's WAL stream (including
    /// the original bootstrap writes), so once replication has caught up
    /// past the primary's creation point, `attach` reads the catalog back
    /// exactly like [`MinuetCluster::restart_from_disk`] does after a
    /// restart. `n_trees` and `cfg.layout` must match the primary, and
    /// the cluster must have been sized with
    /// [`MinuetCluster::required_node_capacity`].
    ///
    /// Callers gate freshness with session tokens: capture
    /// [`Proxy::session_token`] on the primary, then
    /// [`MinuetCluster::wait_replicated`] here before reading.
    pub fn attach(
        sinfonia: Arc<SinfoniaCluster>,
        n_trees: u32,
        cfg: TreeConfig,
    ) -> Arc<MinuetCluster> {
        Self::check_cfg(&cfg, n_trees);
        let max_mems = Self::layout_mems(&cfg, sinfonia.n());
        assert!(
            sinfonia.n() <= max_mems,
            "attached cluster has {} memnodes but the layout is sized for {max_mems}",
            sinfonia.n()
        );
        Self::assemble(sinfonia, cfg, n_trees, max_mems, |sin, shared, _| {
            reopen_tree(sin, shared)
        })
    }

    /// Blocks until this (follower) cluster's replication watermarks have
    /// all reached `token` (a [`Proxy::session_token`] captured on the
    /// primary), or the timeout expires; returns whether it caught up.
    /// This is the read-your-writes gate: after it returns `true`, every
    /// write the session saw committed on the primary is durably applied
    /// here.
    pub fn wait_replicated(&self, token: &[u64], timeout: Duration) -> bool {
        self.sinfonia.wait_replicated(token, timeout)
    }

    fn check_cfg(cfg: &TreeConfig, n_trees: u32) {
        assert!(n_trees > 0);
        assert!(cfg.beta >= 2, "β must be at least 2");
    }

    /// Memnode count the layout is sized for: the configured elastic
    /// ceiling, never less than the initial membership.
    fn layout_mems(cfg: &TreeConfig, n_mems: usize) -> usize {
        cfg.max_memnodes.max(n_mems)
    }

    fn capacity_for(cfg: &TreeConfig, n_trees: u32, n_mems: usize) -> u64 {
        Layout::required_capacity(n_trees, cfg.layout, n_mems).max(1 << 20)
    }

    /// Address-space capacity [`MinuetCluster::with_cluster_config`] will
    /// require of each memnode for this tree configuration. Wire-mode
    /// setups use this to size their `memnoded` daemons: the cluster
    /// validates server capacity against it at handshake time.
    pub fn required_node_capacity(cfg: &TreeConfig, n_trees: u32, n_mems: usize) -> u64 {
        Self::capacity_for(cfg, n_trees, Self::layout_mems(cfg, n_mems))
    }

    /// Number of memnodes.
    pub fn n_memnodes(&self) -> usize {
        self.sinfonia.n()
    }

    /// Number of trees hosted.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Creates a proxy. Proxies are cheap, single-threaded handles; create
    /// one per worker thread. Each proxy is assigned a home memnode
    /// (round-robin over seeded memnodes) whose replicas it prefers for
    /// replicated reads.
    pub fn proxy(self: &Arc<Self>) -> Proxy {
        let n = self.n_memnodes();
        let start = self.proxy_rr.fetch_add(1, Ordering::Relaxed);
        // Skip memnodes still joining: their replicated replicas may not
        // be seeded yet, so they cannot serve replicated reads.
        for i in 0..n {
            let home = MemNodeId(((start + i) % n) as u16);
            if !self.sinfonia.node(home).is_joining() {
                return Proxy::new(self.clone(), home);
            }
        }
        // Every memnode reports joining (a drain or fault window): fall
        // back to node 0 as a home *preference* — a proxy home is only a
        // routing hint, and ops through it surface retryable errors until
        // a replica is ready.
        let home = self.sinfonia.try_first_ready().unwrap_or(MemNodeId(0));
        Proxy::new(self.clone(), home)
    }

    /// Memnode count the layout was sized for: the elastic growth ceiling
    /// of [`MinuetCluster::add_memnode`].
    pub fn max_memnodes(&self) -> usize {
        self.max_mems
    }

    /// Brings a new memnode into the **running** cluster (elastic
    /// scale-out, the paper's headline incremental-growth claim). The
    /// node (with its own WAL/checkpoint files when durability is
    /// configured) joins the Sinfonia membership, every tree's replicated
    /// objects — TIP, GLOBAL, and all allocated catalog entries — are
    /// seeded onto it, and only then does it become eligible as a
    /// replicated-read replica, proxy home, and allocation target.
    ///
    /// Concurrent operations keep running throughout: replicated writes
    /// engage the new replica from the moment it joins (see
    /// `SinfoniaCluster::membership_guard`), and each seeding
    /// minitransaction compare-swaps against the source replica's
    /// sequence number so a racing update can never be overwritten with a
    /// stale image.
    ///
    /// The new memnode starts empty; call [`MinuetCluster::rebalance`] to
    /// shift load onto it, or let new allocations fill it round-robin.
    ///
    /// On failure (e.g. a memnode became unavailable mid-seed) the new
    /// node stays in the harmless `joining` state — it serves no
    /// replicated reads and receives no allocations — and the **next**
    /// `add_memnode` call adopts and re-seeds it instead of growing the
    /// membership again, so a failed join is simply retried.
    pub fn add_memnode(self: &Arc<Self>) -> Result<MemNodeId, Error> {
        if self.cfg.mode == ConcurrencyMode::FullValidation {
            return Err(Error::ElasticityUnsupported(
                "FullValidation replicates the internal-node seqno table at every memnode \
                 (the §3 baseline); only DirtyTraversals clusters scale out",
            ));
        }
        // Serialize concurrent joins: the capacity check and the
        // membership growth must be atomic with respect to each other.
        let _join = self.join_lock.lock();
        let id = match self.sinfonia.joining_node() {
            // Adopt a half-joined node left by an earlier failed attempt
            // (seeding is idempotent compare-and-copy).
            Some(id) => id,
            None => {
                if self.n_memnodes() >= self.max_mems {
                    return Err(Error::ClusterAtCapacity { max: self.max_mems });
                }
                self.sinfonia
                    .add_memnode()
                    .map_err(|e| Error::Storage(e.to_string()))?
            }
        };
        // Seeding must copy from a node whose replicas are themselves
        // seeded; copying from another joining node would propagate
        // garbage, so surface the (transient) condition instead.
        let src = self.sinfonia.try_first_ready().ok_or(Error::Storage(
            "no seeded memnode available as a seeding source".to_string(),
        ))?;
        for t in 0..self.trees.len() as u32 {
            seed_tree_replicas(&self.sinfonia, self.layout(t), src, id)?;
        }
        self.sinfonia.finish_join(id)?;
        Ok(id)
    }

    pub(crate) fn shared(&self, tree: u32) -> &TreeShared {
        &self.trees[tree as usize]
    }

    /// The layout of tree `tree` (bench/test introspection).
    pub fn layout(&self, tree: u32) -> &Layout {
        &self.trees[tree as usize].layout
    }
}

/// Writes the initial images of a tree directly into the (quiescent)
/// memnodes: empty root leaf at snapshot 0, allocator states, TIP, GLOBAL,
/// and catalog entry 0.
fn bootstrap_tree(sin: &SinfoniaCluster, shared: &TreeShared, tree: u32, n_mems: usize) {
    let layout = &shared.layout;
    let root_mem = MemNodeId((tree as usize % n_mems) as u16);
    let root_ptr = NodePtr {
        mem: root_mem,
        slot: 0,
    };

    // Root node (a blind slot-0 write on its home memnode).
    let root = Node::empty_root(0);
    let root_obj = layout.node_obj(root_ptr);
    sin.node(root_mem)
        .raw_write(
            root_obj.off,
            encode_obj(sin.next_txid(), &root.encode()).into(),
        )
        .expect("bootstrap root");

    // Allocator state: slot 0 consumed on the root's memnode.
    for mem in sin.memnode_ids() {
        let st = crate::alloc::AllocState {
            bump: if mem == root_mem { 1 } else { 0 },
            free_head: crate::alloc::NIL_SLOT,
            free_count: 0,
        };
        let obj = layout.alloc_state(mem);
        sin.node(mem)
            .raw_write(obj.off, encode_obj(sin.next_txid(), &st.encode()).into())
            .expect("bootstrap alloc state");
    }

    // Replicated TIP, GLOBAL and catalog[0]: identical image (same seqno)
    // on every memnode.
    let tip = TipVal {
        sid: 0,
        root: root_ptr,
    };
    let global = GlobalVal {
        next_sid: 1,
        lowest: 0,
    };
    let cat0 = CatEntry {
        root: root_ptr,
        parent: NO_PARENT,
        branch_id: 0,
        nbranches: 0,
        deleted: false,
    };
    for (obj, payload) in [
        (layout.tip(), tip.encode()),
        (layout.global(), global.encode()),
        (layout.catalog_entry(0).unwrap(), cat0.encode()),
    ] {
        let image = Bytes::from(encode_obj(sin.next_txid(), &payload));
        for mem in sin.memnode_ids() {
            sin.node(mem)
                .raw_write(obj.at(mem).off, image.clone())
                .expect("bootstrap replicated object");
        }
    }

    shared.vcache.insert(0, NO_PARENT, root_ptr);
}

/// Number of replicated objects copied per seeding minitransaction.
const SEED_BATCH: usize = 64;

/// Copies one tree's replicated objects (TIP, GLOBAL, catalog entries)
/// from the seeded replica at `src` onto the joining memnode `dst`,
/// batched into compare-and-copy minitransactions: each batch compares
/// every source object's sequence number against the raw image it read,
/// so a concurrent replicated update (which engages `dst` already, since
/// membership grew first) either serializes before the copy — the compare
/// fails and the batch retries with the fresh image — or after it, and
/// overwrites `dst` with the newer value itself. Either way `dst`
/// converges to the current image.
fn seed_tree_replicas(
    sin: &SinfoniaCluster,
    layout: &Layout,
    src: MemNodeId,
    dst: MemNodeId,
) -> Result<(), Error> {
    use minuet_sinfonia::{ItemRange, Minitransaction, Outcome};

    let mut repls = vec![layout.tip(), layout.global()];
    // Entries at or above the observed next_sid are created by commits
    // that already include the new replica, so copying 0..next_sid
    // suffices. (Unwritten entries below it copy harmlessly as zeroes.)
    for sid in 0..GlobalVal::read_raw(sin, layout, src)?.next_sid {
        if let Some(r) = layout.catalog_entry(sid) {
            repls.push(r);
        }
    }

    // Generous per-batch budget: each retry re-reads the batch, so this
    // only trips under pathological replicated-object churn — surfaced
    // as an error (the join stays retryable) instead of spinning forever.
    const SEED_RETRIES: usize = 10_000;
    for batch in repls.chunks(SEED_BATCH) {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > SEED_RETRIES {
                return Err(Error::TooManyRetries {
                    attempts: SEED_RETRIES,
                });
            }
            let mut m = Minitransaction::new();
            for r in batch {
                let s = r.at(src);
                let raw = sin.node(src).raw_read(s.off, s.cap)?;
                m.compare(ItemRange::new(src, s.off, 8), raw[0..8].to_vec());
                m.write(ItemRange::new(dst, s.off, raw.len() as u32), raw);
            }
            match sin.execute(&m)? {
                Outcome::Committed(_) => break,
                Outcome::FailedCompare(_) => continue, // racing update; re-read
            }
        }
    }
    Ok(())
}

/// Re-seeds a tree's process-local caches from recovered memnode images
/// (the on-disk counterpart of [`bootstrap_tree`]): nothing is written,
/// only the initial snapshot's catalog entry is read back so ancestry
/// walks can anchor at the root of the version tree. Everything else is
/// fetched lazily through the normal catalog paths.
fn reopen_tree(sin: &SinfoniaCluster, shared: &TreeShared) {
    let repl = shared
        .layout
        .catalog_entry(0)
        .expect("catalog region holds snapshot 0");
    // A raw read: an unresolved in-doubt transaction may still hold the
    // entry's lock, and reopening must not wait on it.
    let val = raw_obj(sin, repl.at(MemNodeId(0))).expect("recovered memnode readable");
    let entry = CatEntry::decode(&val.data).expect("recovered catalog entry 0 decodes");
    shared.vcache.insert(0, NO_PARENT, entry.root);
}

#[cfg(test)]
mod tests {
    use super::*;
    use minuet_dyntx::{decode_obj, DynTx};

    #[test]
    fn bootstrap_images_readable() {
        let mc = MinuetCluster::new(3, 2, TreeConfig::default());
        for t in 0..2 {
            let layout = mc.layout(t);
            let mut tx = DynTx::new(&mc.sinfonia);
            // TIP readable from every replica and identical.
            let mut tips = Vec::new();
            for mem in mc.sinfonia.memnode_ids() {
                let raw = mc
                    .sinfonia
                    .node(mem)
                    .raw_read(layout.tip().at(mem).off, 64)
                    .unwrap();
                tips.push(decode_obj(&raw));
            }
            assert!(tips.windows(2).all(|w| w[0] == w[1]));
            let tip = TipVal::decode(&tips[0].data).unwrap();
            assert_eq!(tip.sid, 0);
            // Root decodes as an empty leaf.
            let root_raw = tx.read(layout.node_obj(tip.root)).unwrap();
            let root = Node::decode(&root_raw).unwrap();
            assert_eq!(root.height, 0);
            assert!(root.is_empty());
            assert_eq!(root.created, 0);
        }
    }

    #[test]
    fn desc_tag_on_a_full_node_never_overflows_its_slot() {
        // Regression: nodes used to split only when their content
        // exceeded the full slot payload, so a node could sit flush
        // against its slot and the 14-byte descendant-set tag pushed by
        // snapshot-root bookkeeping (or CoW tagging) overflowed the
        // object — a probabilistic panic under snapshot-heavy load.
        // Splits now reserve β desc entries of headroom
        // (`TreeConfig::split_payload_cap`).
        let cfg = TreeConfig::small_nodes(64); // node_payload = 1024
        let mc = MinuetCluster::new(1, 1, cfg);
        let mut p = mc.proxy();
        // Two values sized so the root leaf's encoded content lands
        // within one desc entry of the 1024-byte slot (15 B node
        // overhead + two 4+1+497 B entries = 1019 B). Pre-fix this did
        // not split, and the first snapshot's desc push then wrote
        // 1033 bytes into a 1024-byte slot.
        p.put(0, b"a".to_vec(), vec![0u8; 497]).unwrap();
        p.put(0, b"b".to_vec(), vec![0u8; 497]).unwrap();
        for round in 0..3u8 {
            p.create_snapshot(0).unwrap();
            p.put(0, b"a".to_vec(), vec![round; 497]).unwrap();
        }
        assert_eq!(p.get(0, b"a").unwrap(), Some(vec![2u8; 497]));
    }

    #[test]
    fn roots_spread_across_memnodes() {
        let mc = MinuetCluster::new(2, 2, TreeConfig::default());
        let mut tx = DynTx::new(&mc.sinfonia);
        let t0 = TipVal::decode(&tx.read_repl(mc.layout(0).tip(), MemNodeId(0)).unwrap()).unwrap();
        let t1 = TipVal::decode(&tx.read_repl(mc.layout(1).tip(), MemNodeId(0)).unwrap()).unwrap();
        assert_ne!(t0.root.mem, t1.root.mem);
    }
}
