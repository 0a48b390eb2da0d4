//! Shared test support: transport-selectable cluster construction.
//!
//! By default clusters are the in-process simulation. Set
//! `MINUET_TRANSPORT=wire` and the same tests run against memnode servers
//! behind real Unix-domain sockets — construction is still driven purely
//! by `ClusterConfig`, which is the whole point: the suites above must not
//! care which transport they got.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use minuet::core::{MinuetCluster, TreeConfig};
use minuet::sinfonia::wire::Endpoint;
use minuet::sinfonia::{
    ClusterConfig, DurabilityConfig, MemNode, MemNodeId, MemNodeServer, Resolution, ServerOptions,
    SinfoniaCluster, SyncMode, WireConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Live in-process servers backing wire-mode clusters. Tests never shut
/// these down explicitly; they die with the test process.
static SERVERS: OnceLock<Mutex<Vec<MemNodeServer>>> = OnceLock::new();
static SEQ: AtomicU64 = AtomicU64::new(0);

/// True when `MINUET_TRANSPORT=wire` selects socket transport.
pub fn wire_mode() -> bool {
    std::env::var("MINUET_TRANSPORT").is_ok_and(|v| v == "wire")
}

/// A unique Unix-socket path under the temp dir.
pub fn socket_path(tag: &str) -> PathBuf {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("minuet-{}-{}-{tag}.sock", std::process::id(), seq))
}

/// Spawns `n` loopback memnode servers of the given capacity and returns
/// their endpoints. The servers stay alive for the rest of the process.
pub fn spawn_servers(n: usize, capacity: u64) -> Vec<Endpoint> {
    spawn_servers_with_nodes(n, capacity).0
}

/// Like [`spawn_servers`], also handing back the served `MemNode`s so
/// parity tests can compare wire-fetched stats against server state.
pub fn spawn_servers_with_nodes(n: usize, capacity: u64) -> (Vec<Endpoint>, Vec<Arc<MemNode>>) {
    let registry = SERVERS.get_or_init(|| Mutex::new(Vec::new()));
    let mut endpoints = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let ep = Endpoint::Unix(socket_path(&format!("mem{i}")));
        let node = Arc::new(MemNode::new(MemNodeId(i as u16), capacity));
        let server = MemNodeServer::spawn(node.clone(), &ep, ServerOptions::default())
            .expect("spawn memnode server");
        registry.lock().unwrap().push(server);
        endpoints.push(ep);
        nodes.push(node);
    }
    (endpoints, nodes)
}

/// A `ClusterConfig` for the selected transport: plain in-process by
/// default, wire-backed by loopback servers under `MINUET_TRANSPORT=wire`.
pub fn sinfonia_config(n_mems: usize, n_trees: u32, cfg: &TreeConfig) -> ClusterConfig {
    if !wire_mode() {
        return ClusterConfig::with_memnodes(n_mems);
    }
    let capacity = MinuetCluster::required_node_capacity(cfg, n_trees, n_mems);
    let endpoints = spawn_servers(n_mems, capacity);
    ClusterConfig::with_memnodes(n_mems).with_wire_transport(endpoints, WireConfig::default())
}

/// Builds a `MinuetCluster` on the transport selected by
/// `MINUET_TRANSPORT` (see module docs).
pub fn cluster(n_mems: usize, n_trees: u32, cfg: TreeConfig) -> Arc<MinuetCluster> {
    let sin = sinfonia_config(n_mems, n_trees, &cfg);
    MinuetCluster::with_cluster_config(sin, n_trees, cfg)
}

/// Builds a `MinuetCluster` over loopback sockets unconditionally
/// (conformance tests compare this against the in-process build).
pub fn wire_cluster(n_mems: usize, n_trees: u32, cfg: TreeConfig) -> Arc<MinuetCluster> {
    let capacity = MinuetCluster::required_node_capacity(&cfg, n_trees, n_mems);
    let endpoints = spawn_servers(n_mems, capacity);
    let sin =
        ClusterConfig::with_memnodes(n_mems).with_wire_transport(endpoints, WireConfig::default());
    MinuetCluster::with_cluster_config(sin, n_trees, cfg)
}

/// Builds a bare `SinfoniaCluster` (no B-tree) on the selected transport.
pub fn sinfonia_cluster(n_mems: usize, capacity: u64) -> Arc<SinfoniaCluster> {
    sinfonia_cluster_on(n_mems, capacity, wire_mode())
}

/// Builds a bare `SinfoniaCluster` in-process, or over loopback sockets
/// when `wire` (tests that compare the two build one of each).
pub fn sinfonia_cluster_on(n_mems: usize, capacity: u64, wire: bool) -> Arc<SinfoniaCluster> {
    let mut cfg = ClusterConfig::with_memnodes(n_mems);
    if wire {
        let endpoints = spawn_servers(n_mems, capacity);
        cfg = cfg.with_wire_transport(endpoints, WireConfig::default());
    }
    cfg.capacity_per_node = capacity;
    SinfoniaCluster::new(cfg)
}

/// A durable Minuet cluster that can power-cycle on either transport.
///
/// In-process, durability lives in `ClusterConfig` and a restart is
/// `MinuetCluster::restart_from_disk`. Under `MINUET_TRANSPORT=wire`,
/// durability is daemon-side: the harness spawns its own durable memnode
/// servers, and a restart kills them, reopens their state from disk into
/// fresh daemons, resolves in-doubt two-phase transactions through the
/// wire, and attaches a new coordinator — the full daemon power-cycle.
pub struct DurableHarness {
    /// Base durability directory (per-memnode files inside).
    pub dir: PathBuf,
    n_mems: usize,
    n_trees: u32,
    tree_cfg: TreeConfig,
    sync: SyncMode,
    /// Wire mode: this harness's live daemons (killable, unlike the
    /// process-global registry).
    servers: Vec<MemNodeServer>,
}

impl DurableHarness {
    /// Creates a fresh durable cluster in a unique temp directory.
    pub fn create(
        tag: &str,
        n_mems: usize,
        n_trees: u32,
        tree_cfg: TreeConfig,
        sync: SyncMode,
    ) -> (DurableHarness, Arc<MinuetCluster>) {
        let durability = DurabilityConfig::ephemeral(tag, sync);
        let dir = durability.dir.clone().expect("ephemeral config has a dir");
        let mut h = DurableHarness {
            dir,
            n_mems,
            n_trees,
            tree_cfg: tree_cfg.clone(),
            sync,
            servers: Vec::new(),
        };
        let mc = if wire_mode() {
            std::fs::create_dir_all(&h.dir).expect("create durability dir");
            let endpoints = h.spawn_durable_servers(false);
            let sin = ClusterConfig::with_memnodes(n_mems)
                .with_wire_transport(endpoints, WireConfig::default());
            MinuetCluster::with_cluster_config(sin, n_trees, tree_cfg)
        } else {
            let sin = ClusterConfig {
                memnodes: n_mems,
                durability,
                ..Default::default()
            };
            MinuetCluster::with_cluster_config(sin, n_trees, tree_cfg)
        };
        (h, mc)
    }

    fn capacity(&self) -> u64 {
        MinuetCluster::required_node_capacity(&self.tree_cfg, self.n_trees, self.n_mems)
    }

    fn dcfg(&self) -> DurabilityConfig {
        DurabilityConfig::at(self.dir.clone(), self.sync)
    }

    fn spawn_durable_servers(&mut self, reopen: bool) -> Vec<Endpoint> {
        let mut endpoints = Vec::with_capacity(self.n_mems);
        for i in 0..self.n_mems {
            let id = MemNodeId(i as u16);
            let node = if reopen {
                let (node, _, _) = MemNode::open_from_disk(id, self.capacity(), &self.dcfg())
                    .expect("reopen durable memnode");
                node
            } else {
                MemNode::durable(id, self.capacity(), &self.dcfg()).expect("durable memnode")
            };
            let ep = Endpoint::Unix(socket_path(&format!("dur{i}")));
            let server = MemNodeServer::spawn(Arc::new(node), &ep, ServerOptions::default())
                .expect("spawn durable memnode server");
            endpoints.push(ep);
            self.servers.push(server);
        }
        endpoints
    }

    /// Kills this harness's daemons and releases their state (wire mode;
    /// no-op in-process). Call after dropping the cluster handle — the
    /// whole-datacenter power cut.
    pub fn power_off(&mut self) {
        for s in &self.servers {
            s.kill();
        }
        self.servers.clear();
    }

    /// Restarts the whole cluster from disk and returns the reopened
    /// handle plus the in-doubt resolution outcome.
    pub fn restart(&mut self) -> (Arc<MinuetCluster>, Resolution) {
        if wire_mode() {
            self.power_off();
            let endpoints = self.spawn_durable_servers(true);
            let mut sin_cfg = ClusterConfig::with_memnodes(self.n_mems)
                .with_wire_transport(endpoints, WireConfig::default());
            sin_cfg.capacity_per_node = self.capacity();
            let sin = SinfoniaCluster::new(sin_cfg);
            let resolution = sin.resolve_in_doubt();
            (
                MinuetCluster::attach(sin, self.n_trees, self.tree_cfg.clone()),
                resolution,
            )
        } else {
            let sin_cfg = ClusterConfig {
                memnodes: self.n_mems,
                durability: self.dcfg(),
                ..Default::default()
            };
            MinuetCluster::restart_from_disk(sin_cfg, self.n_trees, self.tree_cfg.clone())
                .expect("restart from disk")
        }
    }

    /// Tears the harness down and removes its on-disk state.
    pub fn cleanup(mut self) {
        self.power_off();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
