//! Cluster construction and the application-facing execution handle.

use crate::addr::MemNodeId;
use crate::client::{RemoteNode, WireConfig};
use crate::error::SinfoniaError;
use crate::memnode::{MemNode, Unavailable};
use crate::minitx::{Minitransaction, Outcome};
use crate::recovery::{self, Resolution};
use crate::transport::Transport;
use crate::wal::DurabilityConfig;
use crate::wire::Endpoint;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the coordinator reaches its memnodes.
#[derive(Debug, Clone, Default)]
pub enum TransportMode {
    /// Memnodes are in-process objects; an RPC is the wire exchange minus
    /// the socket ([`RemoteNode::in_process`]). This is the simulation
    /// mode every test and benchmark runs by default.
    #[default]
    InProcess,
    /// Memnodes are reached over real sockets via the binary wire protocol
    /// ([`crate::wire`]). Each configured memnode id maps to the endpoint
    /// at the same index; the servers ([`crate::server::MemNodeServer`] or
    /// standalone `memnoded` processes) must already be listening.
    Wire {
        /// One endpoint per memnode, indexed by id.
        endpoints: Vec<Endpoint>,
        /// Client-side pooling / timeout / backoff knobs.
        wire: WireConfig,
    },
}

impl TransportMode {
    /// True for the in-process simulation mode.
    pub fn is_in_process(&self) -> bool {
        matches!(self, TransportMode::InProcess)
    }
}

/// Configuration of a Sinfonia cluster (in-process or wire-backed; see
/// [`TransportMode`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of memnodes.
    pub memnodes: usize,
    /// Address-space capacity per memnode, in bytes. In wire mode this is
    /// validated against (not imposed on) the servers' capacity.
    pub capacity_per_node: u64,
    /// If set, each coordinator round trip really sleeps this long, on
    /// top of whatever the exchange itself costs — in both transport
    /// modes (a latency fault, see [`Transport::set_inject`]).
    pub inject_rtt: Option<Duration>,
    /// How long `execute` keeps retrying a crashed participant before
    /// surfacing [`SinfoniaError::Unavailable`].
    pub unavailable_retry: Duration,
    /// Durability settings (off by default). In wire mode durability is a
    /// server-side concern: configure it on the daemons, not here.
    pub durability: DurabilityConfig,
    /// How the coordinator reaches its memnodes.
    pub transport: TransportMode,
    /// Client-side observability: trace sampling rate, slow-op threshold,
    /// buffer sizes. Off by default (the metric registry always works).
    pub obs: minuet_obs::ObsConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            memnodes: 4,
            capacity_per_node: 256 << 20,
            inject_rtt: None,
            unavailable_retry: Duration::from_secs(2),
            durability: DurabilityConfig::default(),
            transport: TransportMode::InProcess,
            obs: minuet_obs::ObsConfig::default(),
        }
    }
}

impl ClusterConfig {
    /// Convenience constructor for an `n`-memnode cluster with defaults.
    pub fn with_memnodes(n: usize) -> Self {
        ClusterConfig {
            memnodes: n,
            ..Default::default()
        }
    }

    /// Sets the durability configuration.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Switches the cluster to wire transport against the given endpoints
    /// (one per memnode, indexed by id).
    pub fn with_wire_transport(mut self, endpoints: Vec<Endpoint>, wire: WireConfig) -> Self {
        self.memnodes = endpoints.len();
        self.transport = TransportMode::Wire { endpoints, wire };
        self
    }

    /// Sets the observability configuration (trace sampling etc.).
    pub fn with_obs(mut self, obs: minuet_obs::ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// Aggregated durability counters across all memnodes, in the spirit of
/// [`crate::transport::NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurSnapshot {
    /// Redo records appended.
    pub appends: u64,
    /// Log bytes appended (frames included).
    pub bytes: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Log bytes currently retained.
    pub retained_bytes: u64,
}

/// How often the background checkpointer polls log sizes.
const CHECKPOINT_POLL: Duration = Duration::from_millis(5);

/// A simulated Sinfonia cluster: a set of memnodes plus the instrumented
/// transport and a global minitransaction-id generator.
///
/// Membership is **elastic**: [`SinfoniaCluster::add_memnode`] appends a
/// new memnode to a *running* cluster. Memnode ids stay dense and are
/// never reused, so the membership vector only ever grows.
pub struct SinfoniaCluster {
    nodes: Arc<parking_lot::RwLock<Vec<Arc<RemoteNode>>>>,
    /// The instrumented transport (round-trip accounting). Shared with the
    /// wire clients in wire mode, which feed real frame sizes into it.
    pub transport: Arc<Transport>,
    /// Configuration the cluster was built with.
    pub cfg: ClusterConfig,
    txid: AtomicU64,
    /// Serializes membership growth against in-flight write-all-replicas
    /// commits: a coordinator that snapshots the membership to build a
    /// replicated write holds the read side until the minitransaction has
    /// executed, and [`SinfoniaCluster::add_memnode`] takes the write side
    /// while growing the vector — so no replicated update can miss a
    /// just-added replica.
    membership_gate: parking_lot::RwLock<()>,
    ckpt_stop: Arc<AtomicBool>,
    ckpt_thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl SinfoniaCluster {
    /// Builds a cluster per `cfg`. With durability enabled this starts
    /// from **fresh** on-disk state (any previous log/checkpoint files in
    /// the directory are removed); use [`SinfoniaCluster::restart_from_disk`]
    /// to resume existing state.
    pub fn new(cfg: ClusterConfig) -> Arc<Self> {
        Self::check_cfg(&cfg);
        let transport = Self::transport(&cfg);
        let remotes: Vec<RemoteNode> = match &cfg.transport {
            TransportMode::InProcess => (0..cfg.memnodes)
                .map(|i| {
                    let id = MemNodeId(i as u16);
                    let node = if cfg.durability.enabled() {
                        MemNode::durable(id, cfg.capacity_per_node, &cfg.durability)
                            .expect("creating durable memnode failed")
                    } else {
                        MemNode::new(id, cfg.capacity_per_node)
                    };
                    RemoteNode::in_process(Arc::new(node), transport.clone())
                })
                .collect(),
            TransportMode::Wire { endpoints, wire } => {
                assert_eq!(
                    endpoints.len(),
                    cfg.memnodes,
                    "wire transport needs one endpoint per memnode"
                );
                assert!(
                    !cfg.durability.enabled(),
                    "durability is server-side in wire mode: configure it on the daemons"
                );
                (endpoints.iter().enumerate())
                    .map(|(i, ep)| {
                        let id = MemNodeId(i as u16);
                        RemoteNode::new(id, ep.clone(), wire.clone(), transport.clone())
                    })
                    .collect()
            }
        };
        let nodes = remotes.into_iter().map(|r| Self::handle(r, &cfg)).collect();
        Self::assemble(nodes, transport, cfg, 1)
    }

    /// The cluster's transport: its counters, injected latency and
    /// client-side observability plane.
    fn transport(cfg: &ClusterConfig) -> Arc<Transport> {
        Arc::new(Transport::new(cfg.inject_rtt).with_obs(minuet_obs::ObsPlane::new(&cfg.obs)))
    }

    /// `remote` (in process or not) handshaken at once — retrying for up
    /// to the `unavailable_retry` budget, as servers may still be binding —
    /// so its capacity (checked against the configured one) and flags are
    /// cached before the first op.
    fn handle(remote: RemoteNode, cfg: &ClusterConfig) -> Arc<RemoteNode> {
        let id = remote.id();
        let deadline = Instant::now() + cfg.unavailable_retry;
        let capacity = loop {
            match remote.hello() {
                Ok(cap) => break cap,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    panic!("memnode {id} handshake failed: {e}")
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        panic!("{e} after {:?}", cfg.unavailable_retry);
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        assert!(
            capacity >= cfg.capacity_per_node,
            "memnode {id} capacity {capacity} is below the configured {}",
            cfg.capacity_per_node
        );
        Arc::new(remote)
    }

    /// Rebuilds a cluster from the durability directory: every memnode
    /// replays its checkpoint image + redo log, in-doubt two-phase
    /// minitransactions are resolved cluster-wide (commit iff every
    /// participant voted yes), and the transaction-id generator resumes
    /// above every id seen on disk. Returns the cluster and the
    /// resolution outcome counts, or `InvalidInput` when `cfg` configures
    /// no durability directory.
    ///
    /// The previous cluster object (if any) must have been dropped or
    /// fully crashed: the directory is reopened exclusively.
    pub fn restart_from_disk(cfg: ClusterConfig) -> io::Result<(Arc<Self>, Resolution)> {
        Self::check_cfg(&cfg);
        assert!(
            cfg.transport.is_in_process(),
            "restart_from_disk reopens local files; wire-mode recovery happens daemon-side"
        );
        let Some(dir) = cfg.durability.dir.clone() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "restart_from_disk needs durability configured",
            ));
        };
        // Elastic growth is recorded on disk by the added nodes' redo
        // logs: reopen every memnode found there, not just the configured
        // count, or data migrated onto added nodes would be lost.
        let n = cfg.memnodes.max(recovery::discover_memnodes(&dir)?);
        let transport = Self::transport(&cfg);
        let mut nodes = Vec::with_capacity(n);
        let mut metas = Vec::with_capacity(n);
        let mut max_txid = 0;
        for i in 0..n {
            let id = MemNodeId(i as u16);
            let (node, meta, node_max) =
                MemNode::open_from_disk(id, cfg.capacity_per_node, &cfg.durability)?;
            // A join marker means the crash hit mid-seed: reopen the node
            // as joining so it serves no replicated reads until a retried
            // add_memnode re-seeds it.
            if recovery::join_marker_path(&dir, id).exists() {
                node.set_joining(true);
            }
            let remote = RemoteNode::in_process(Arc::new(node), transport.clone());
            nodes.push(Self::handle(remote, &cfg));
            metas.push(Ok(meta));
            max_txid = max_txid.max(node_max);
        }
        let cluster = Self::assemble(nodes, transport, cfg, max_txid + 1);
        let resolution = recovery::resolve_in_doubt(&cluster, &metas);
        Ok((cluster, resolution))
    }

    fn check_cfg(cfg: &ClusterConfig) {
        assert!(cfg.memnodes > 0, "cluster needs at least one memnode");
        assert!(
            cfg.memnodes <= u16::MAX as usize,
            "too many memnodes for MemNodeId"
        );
    }

    fn assemble(
        nodes: Vec<Arc<RemoteNode>>,
        transport: Arc<Transport>,
        cfg: ClusterConfig,
        first_txid: u64,
    ) -> Arc<Self> {
        let nodes = Arc::new(parking_lot::RwLock::new(nodes));
        let ckpt_stop = Arc::new(AtomicBool::new(false));
        let ckpt_thread = if cfg.durability.enabled() && cfg.durability.checkpoint_log_bytes > 0 {
            let threshold = cfg.durability.checkpoint_log_bytes;
            // The thread shares the membership vector (not the cluster),
            // so memnodes added later are checkpointed too and dropping
            // the cluster still joins the thread. It is the memnodes' own
            // maintenance, not a client's exchange: it calls them directly
            // (durability is in-process only) and books no bytes.
            let nodes = nodes.clone();
            let stop = ckpt_stop.clone();
            Some(std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(CHECKPOINT_POLL);
                    let snapshot: Vec<Arc<RemoteNode>> = nodes.read().clone();
                    for node in snapshot.iter().filter_map(|n| n.as_local()) {
                        if !node.is_crashed() && node.wal_retained_bytes() > threshold {
                            if let Err(e) = node.checkpoint() {
                                eprintln!(
                                    "background checkpoint of memnode {} failed: {e}",
                                    node.id
                                );
                            }
                        }
                    }
                }
            }))
        } else {
            None
        };
        Arc::new(SinfoniaCluster {
            nodes,
            transport,
            cfg,
            txid: AtomicU64::new(first_txid),
            membership_gate: parking_lot::RwLock::new(()),
            ckpt_stop,
            ckpt_thread: parking_lot::Mutex::new(ckpt_thread),
        })
    }

    /// Number of memnodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.nodes.read().len()
    }

    /// All memnode ids (membership snapshot at the time of the call).
    pub fn memnode_ids(&self) -> impl Iterator<Item = MemNodeId> {
        (0..self.n() as u16).map(MemNodeId)
    }

    /// Access a memnode by id (its [`RemoteNode`], in process or over a
    /// socket).
    #[inline]
    pub fn node(&self, id: MemNodeId) -> Arc<RemoteNode> {
        self.nodes.read()[id.index()].clone()
    }

    /// Snapshot of the current membership.
    pub fn nodes_snapshot(&self) -> Vec<Arc<RemoteNode>> {
        self.nodes.read().clone()
    }

    /// Brings a new memnode into the **running** cluster (elastic
    /// scale-out). The node gets the next dense id, its own WAL and
    /// checkpoint files when durability is configured, and joins in the
    /// `joining` state: it immediately participates in replicated writes
    /// (so no update is lost) but must not serve replicated reads or
    /// validation until its replicas are seeded — the caller copies the
    /// replicated regions over and then calls
    /// [`SinfoniaCluster::finish_join`].
    pub fn add_memnode(&self) -> io::Result<MemNodeId> {
        if !self.cfg.transport.is_in_process() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "elastic scale-out over the wire requires launching a daemon first; \
                 not supported from the client yet",
            ));
        }
        // Exclude in-flight replicated commits while membership changes
        // (see `membership_gate`); lock order is gate, then nodes.
        let _gate = self.membership_gate.write();
        let mut nodes = self.nodes.write();
        assert!(
            nodes.len() < u16::MAX as usize,
            "too many memnodes for MemNodeId"
        );
        let id = MemNodeId(nodes.len() as u16);
        let node = if let Some(dir) = self.cfg.durability.dir.as_ref() {
            // Persist the joining state *before* the node's durable files
            // exist: a crash mid-seed must restart the node as joining
            // (never as a readable replica). The marker is removed by
            // `finish_join`; one without a WAL is ignored by discovery.
            std::fs::create_dir_all(dir)?;
            std::fs::File::create(recovery::join_marker_path(dir, id))?.sync_all()?;
            MemNode::durable(id, self.cfg.capacity_per_node, &self.cfg.durability)?
        } else {
            MemNode::new(id, self.cfg.capacity_per_node)
        };
        node.set_joining(true);
        let remote = RemoteNode::in_process(Arc::new(node), self.transport.clone());
        nodes.push(Self::handle(remote, &self.cfg));
        Ok(id)
    }

    /// Clears a new memnode's `joining` state once its replicated-object
    /// replicas have been seeded (and removes the on-disk join marker
    /// when durable).
    pub fn finish_join(&self, id: MemNodeId) -> Result<(), Unavailable> {
        if let Some(dir) = self.cfg.durability.dir.as_ref() {
            let _ = std::fs::remove_file(recovery::join_marker_path(dir, id));
        }
        let node = self.node(id);
        node.set_joining(false)?;
        node.invalidate_cached_flags();
        Ok(())
    }

    /// The memnode currently in the `joining` state, if any — a join
    /// whose seeding failed mid-way. A retried join should adopt and
    /// re-seed it (seeding is idempotent) instead of growing again.
    pub fn joining_node(&self) -> Option<MemNodeId> {
        self.nodes
            .read()
            .iter()
            .find(|n| n.is_joining())
            .map(|n| n.id())
    }

    /// The lowest-id memnode whose replicated replicas are fully seeded.
    /// Used to bind replicated-object reads/validation. `None` means every
    /// memnode currently reports joining (or, over the wire, is unreachable
    /// with no better information) — a transient condition callers must
    /// surface as a retryable error, never paper over by binding to an
    /// unseeded node.
    pub fn try_first_ready(&self) -> Option<MemNodeId> {
        self.nodes
            .read()
            .iter()
            .find(|n| !n.is_joining())
            .map(|n| n.id())
    }

    /// Marks / clears the retiring state of a memnode (allocation
    /// placement steers away from retiring nodes; see the drain path).
    pub fn set_retiring(&self, id: MemNodeId, retiring: bool) -> Result<(), Unavailable> {
        let node = self.node(id);
        // Membership transitions drop any client-side flag cache so the
        // next gate check re-learns the state instead of trusting a
        // pre-transition epoch — also when the transition's own outcome
        // is unknown.
        let set = node.set_retiring(retiring);
        node.invalidate_cached_flags();
        set
    }

    /// Takes the membership read guard. Hold this from the moment a
    /// write-all-replicas minitransaction snapshots the membership until
    /// it has executed, so a concurrent [`SinfoniaCluster::add_memnode`]
    /// cannot slip a replica in between (the new replica would miss the
    /// update and stay stale forever).
    pub fn membership_guard(&self) -> parking_lot::RwLockReadGuard<'_, ()> {
        self.membership_gate.read()
    }

    /// The cluster's client-side observability plane (rides on the
    /// transport so the wire clients share it).
    #[inline]
    pub fn obs(&self) -> &Arc<minuet_obs::ObsPlane> {
        &self.transport.obs
    }

    /// Allocates a fresh minitransaction id.
    #[inline]
    pub fn next_txid(&self) -> u64 {
        self.txid.fetch_add(1, Ordering::Relaxed)
    }

    /// Executes a minitransaction (see [`crate::exec::execute`]).
    pub fn execute(&self, m: &Minitransaction) -> Result<Outcome, SinfoniaError> {
        crate::exec::execute(self, m)
    }

    /// Executes a batch of independent minitransactions, sharing one round
    /// trip per participant memnode for the single-memnode members (see
    /// [`crate::exec::execute_many`]). No atomicity across members: the
    /// outer `Err` means nothing was sent, and after that every member
    /// carries its own result.
    pub fn exec_many(
        &self,
        ms: &[Minitransaction],
    ) -> Result<Vec<Result<Outcome, SinfoniaError>>, SinfoniaError> {
        crate::exec::execute_many(self, ms)
    }

    /// Holds `m` to its memnodes' capacities without sending anything:
    /// the [`SinfoniaError::OutOfBounds`] that [`SinfoniaCluster::execute`]
    /// would answer, for callers that must keep such a member out of a
    /// batch (one out-of-bounds member refuses a whole `exec_many`).
    pub fn check_bounds(&self, m: &Minitransaction) -> Result<(), SinfoniaError> {
        crate::exec::check_bounds(self, m)
    }

    /// Injects a crash at the given memnode.
    pub fn crash(&self, id: MemNodeId) {
        self.node(id).crash();
    }

    /// Recovers the given memnode by replaying its image and log.
    pub fn recover(&self, id: MemNodeId) {
        self.node(id).recover();
    }

    /// Crashes a memnode and immediately recovers it from its durable
    /// state — the standard crash-injection step for durability tests.
    pub fn crash_and_recover(&self, id: MemNodeId) {
        self.node(id).crash();
        self.node(id).recover();
    }

    /// Resolves all in-doubt two-phase transactions across live memnodes
    /// (used after recovering nodes whose coordinators died
    /// mid-protocol).
    ///
    /// The cluster must be quiescent: a minitransaction whose prepare
    /// phase is still in flight looks identical to an orphaned one and
    /// would be aborted out from under its (live) coordinator, breaking
    /// atomicity. `restart_from_disk` satisfies this by construction.
    ///
    /// A memnode that cannot be reached answers no metadata, and every
    /// transaction it participates in stays in doubt (counted in
    /// [`Resolution::unresolved`]) until a later pass can ask it.
    pub fn resolve_in_doubt(&self) -> Resolution {
        let metas: Vec<_> = self.nodes.read().iter().map(|n| n.node_meta()).collect();
        recovery::resolve_in_doubt(self, &metas)
    }

    /// Aggregated log counters. With durability off the logs live in
    /// memory: they append and checkpoint, but never fsync.
    pub fn durability_stats(&self) -> DurSnapshot {
        let mut s = DurSnapshot::default();
        // Best-effort: a node that cannot be reached contributes nothing.
        for ns in self
            .nodes_snapshot()
            .iter()
            .filter_map(|n| n.node_stats().ok())
        {
            s.appends += ns.wal_appends;
            s.bytes += ns.wal_bytes;
            s.fsyncs += ns.wal_fsyncs;
            s.checkpoints += ns.checkpoints;
            s.retained_bytes += ns.wal_retained_bytes;
        }
        s
    }
}

impl Drop for SinfoniaCluster {
    fn drop(&mut self) {
        self.ckpt_stop.store(true, Ordering::Release);
        if let Some(h) = self.ckpt_thread.lock().take() {
            let _ = h.join();
        }
        // A handler panic is answered as a failure its caller may well
        // tolerate; so that the bug still fails a debug build's test, a
        // cluster that served one no failpoint injected says so here.
        if cfg!(debug_assertions) && !std::thread::panicking() {
            let count = |n: &MemNode| n.stats.handler_panics.load(Ordering::Relaxed);
            let nodes = self.nodes.read();
            let panics: u64 = nodes.iter().filter_map(|n| n.as_local()).map(count).sum();
            let injected = minuet_faults::panics_fired();
            debug_assert!(panics <= injected, "{panics} memnode handlers panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::ItemRange;

    fn cluster(n: usize) -> Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            memnodes: n,
            capacity_per_node: 1 << 20,
            ..Default::default()
        })
    }

    #[test]
    fn single_node_minitx_roundtrip() {
        let c = cluster(1);
        let mut w = Minitransaction::new();
        w.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
        assert!(c.execute(&w).unwrap().committed());

        let mut r = Minitransaction::new();
        r.read(ItemRange::new(MemNodeId(0), 0, 4));
        let out = c.execute(&r).unwrap().into_reads();
        assert_eq!(out.data[0], vec![1, 2, 3, 4]);
        // One-phase: exactly one round trip each.
        assert_eq!(c.transport.stats.snapshot().0, 2);
    }

    #[test]
    fn multi_node_atomicity() {
        let c = cluster(3);
        let mut m = Minitransaction::new();
        for i in 0..3u16 {
            m.write(ItemRange::new(MemNodeId(i), 10, 1), vec![7]);
        }
        assert!(c.execute(&m).unwrap().committed());
        for i in 0..3u16 {
            assert_eq!(c.node(MemNodeId(i)).raw_read(10, 1).unwrap(), vec![7]);
        }
        // Two-phase: prepare + commit round trips.
        assert_eq!(c.transport.stats.snapshot().0, 2);
    }

    #[test]
    fn multi_node_compare_failure_aborts_everywhere() {
        let c = cluster(2);
        let mut m = Minitransaction::new();
        m.compare(ItemRange::new(MemNodeId(1), 0, 1), vec![9]); // mismatches (space is 0)
        m.write(ItemRange::new(MemNodeId(0), 0, 1), vec![1]);
        m.write(ItemRange::new(MemNodeId(1), 4, 1), vec![1]);
        match c.execute(&m).unwrap() {
            Outcome::FailedCompare(idx) => assert_eq!(idx, vec![0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.node(MemNodeId(0)).raw_read(0, 1).unwrap(), vec![0]);
        assert_eq!(c.node(MemNodeId(1)).raw_read(4, 1).unwrap(), vec![0]);
        // No lingering locks.
        assert_eq!(c.node(MemNodeId(0)).in_doubt(), Ok(0));
        assert_eq!(c.node(MemNodeId(1)).in_doubt(), Ok(0));
    }

    #[test]
    fn contention_retries_transparently() {
        let c = cluster(1);
        let c2 = c.clone();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = c2.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    // increment a shared counter via compare-and-swap loop
                    loop {
                        let mut r = Minitransaction::new();
                        r.read(ItemRange::new(MemNodeId(0), 0, 8));
                        let cur = c.execute(&r).unwrap().into_reads().data[0].clone();
                        let v = u64::from_le_bytes(cur.clone().try_into().unwrap());
                        let mut w = Minitransaction::new();
                        w.compare(ItemRange::new(MemNodeId(0), 0, 8), cur);
                        w.write(
                            ItemRange::new(MemNodeId(0), 0, 8),
                            (v + 1).to_le_bytes().to_vec(),
                        );
                        if c.execute(&w).unwrap().committed() {
                            break;
                        }
                    }
                }
                let _ = t;
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let raw = c.node(MemNodeId(0)).raw_read(0, 8).unwrap();
        assert_eq!(u64::from_le_bytes(raw.try_into().unwrap()), 8 * 200);
    }

    #[test]
    fn crash_then_recover_preserves_data_and_resumes_service() {
        let c = cluster(2);
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(MemNodeId(0), 0, 2), vec![3, 4]);
        m.write(ItemRange::new(MemNodeId(1), 0, 2), vec![5, 6]);
        assert!(c.execute(&m).unwrap().committed());

        c.crash(MemNodeId(1));
        // A writer retries until recovery succeeds.
        let c2 = c.clone();
        let writer = std::thread::spawn(move || {
            let mut m = Minitransaction::new();
            m.write(ItemRange::new(MemNodeId(1), 8, 1), vec![9]);
            c2.execute(&m).unwrap().committed()
        });
        std::thread::sleep(Duration::from_millis(30));
        c.recover(MemNodeId(1));
        assert!(writer.join().unwrap());
        assert_eq!(c.node(MemNodeId(1)).raw_read(0, 2).unwrap(), vec![5, 6]);
        assert_eq!(c.node(MemNodeId(1)).raw_read(8, 1).unwrap(), vec![9]);
    }

    #[test]
    fn blocking_minitx_waits_out_contention() {
        let c = cluster(1);
        // Hold a lock by preparing a 2-phase-style txn manually.
        let mut held = Minitransaction::new();
        held.write(ItemRange::new(MemNodeId(0), 0, 8), vec![1; 8]);
        let txid = c.next_txid();
        c.node(MemNodeId(0))
            .prepare(
                txid,
                &held.shards()[0].1,
                crate::minitx::LockPolicy::AbortOnBusy,
                &[MemNodeId(0)],
            )
            .unwrap();

        let c2 = c.clone();
        let blocked = std::thread::spawn(move || {
            let m = {
                let mut m = Minitransaction::new();
                m.write(ItemRange::new(MemNodeId(0), 0, 8), vec![2; 8]);
                m.blocking(Duration::from_secs(2))
            };
            c2.execute(&m).unwrap().committed()
        });
        std::thread::sleep(Duration::from_millis(20));
        c.node(MemNodeId(0)).commit(txid).unwrap();
        assert!(blocked.join().unwrap());
        assert_eq!(c.node(MemNodeId(0)).raw_read(0, 8).unwrap(), vec![2; 8]);
    }
}
