//! Replication fault suite: the WAL stream must self-heal across either
//! side dying, and read-your-writes session gating must hold under WAN
//! latency.
//!
//! - Kill the follower daemons mid-stream: a respawned follower resumes
//!   from its *durable* watermark — no gaps (every committed slot
//!   arrives), no duplicate applies (state matches the primary exactly).
//! - Kill the primary: after it restarts from disk and the stream
//!   resumes, the follower's state is equal to the recovered primary's.
//! - Read-your-writes: a session token captured on the primary gates a
//!   follower read correctly under 50ms injected RTT while the primary
//!   commits under load.

mod common;

use common::DurableHarness;
use minuet::core::{MinuetCluster, TreeConfig};
use minuet::sinfonia::wire::Endpoint;
use minuet::sinfonia::{
    ClusterConfig, DurabilityConfig, ItemRange, MemNode, MemNodeId, MemNodeServer, Minitransaction,
    ReplConfig, Replicator, ServerOptions, SinfoniaCluster, SyncMode, WireConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: u64 = 1 << 20;

fn durable_primary(tag: &str, n: usize) -> (PathBuf, Arc<SinfoniaCluster>) {
    let durability = DurabilityConfig::ephemeral(tag, SyncMode::Async);
    let dir = durability.dir.clone().unwrap();
    let c = SinfoniaCluster::new(ClusterConfig {
        memnodes: n,
        capacity_per_node: CAPACITY,
        durability,
        ..Default::default()
    });
    (dir, c)
}

fn slot(i: u64) -> ItemRange {
    ItemRange::new(MemNodeId((i % 2) as u16), (i / 2) * 8, 8)
}

fn put_slot(c: &SinfoniaCluster, i: u64) {
    let mut m = Minitransaction::new();
    m.write(slot(i), i.to_le_bytes().to_vec());
    assert!(c.execute(&m).unwrap().committed());
}

/// Durable follower memnodes behind real sockets — killable and
/// reopenable from disk, which is the point of the suite. (These are the
/// follower's *daemons*; the primary's transport varies by test.)
struct FollowerDaemons {
    dir: PathBuf,
    servers: Vec<MemNodeServer>,
    n: usize,
}

impl FollowerDaemons {
    fn spawn(tag: &str, n: usize) -> (FollowerDaemons, Arc<SinfoniaCluster>) {
        let dcfg = DurabilityConfig::ephemeral(tag, SyncMode::Async);
        let dir = dcfg.dir.clone().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let mut d = FollowerDaemons {
            dir,
            servers: Vec::new(),
            n,
        };
        let cluster = d.respawn(false);
        (d, cluster)
    }

    /// (Re)spawns the daemons — fresh nodes on first boot, reopened from
    /// the durable log afterwards — and a coordinator wired to them.
    fn respawn(&mut self, reopen: bool) -> Arc<SinfoniaCluster> {
        let dcfg = DurabilityConfig::at(self.dir.clone(), SyncMode::Async);
        let mut endpoints = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let id = MemNodeId(i as u16);
            let node = if reopen {
                let (node, _, _) = MemNode::open_from_disk(id, CAPACITY, &dcfg).unwrap();
                node
            } else {
                MemNode::durable(id, CAPACITY, &dcfg).unwrap()
            };
            let ep = Endpoint::Unix(common::socket_path(&format!("repl{i}")));
            self.servers
                .push(MemNodeServer::spawn(Arc::new(node), &ep, ServerOptions::default()).unwrap());
            endpoints.push(ep);
        }
        let mut cfg = ClusterConfig::with_memnodes(self.n)
            .with_wire_transport(endpoints, WireConfig::default());
        cfg.capacity_per_node = CAPACITY;
        SinfoniaCluster::new(cfg)
    }

    /// Abrupt daemon death: stop serving and sever live connections.
    fn kill(&mut self) {
        for s in &self.servers {
            s.kill();
        }
        self.servers.clear();
    }

    fn cleanup(mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Kill the follower daemons mid-stream. The respawned follower must
/// come back *at its durable watermark* (not zero), resume without gaps
/// — every slot committed before and after the crash is present — and
/// without duplicate applies (byte-equal to the primary).
#[test]
fn follower_restart_resumes_from_durable_watermark() {
    let (pdir, primary) = durable_primary("repl-flt-src", 2);
    let (mut daemons, follower) = FollowerDaemons::spawn("repl-flt-dst", 2);

    let repl = Replicator::spawn(&primary, &follower, ReplConfig::default());
    for i in 0..50u64 {
        put_slot(&primary, i);
    }
    // Let the stream make real progress so the kill lands mid-stream.
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.repl_statuses().iter().any(|s| s.watermark == 0) {
        assert!(Instant::now() < deadline, "stream never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemons.kill();
    drop(repl);
    drop(follower);

    // The primary keeps committing while the follower is down.
    for i in 50..100u64 {
        put_slot(&primary, i);
    }

    let follower = daemons.respawn(true);
    let recovered = follower.repl_statuses();
    for (i, s) in recovered.iter().enumerate() {
        assert!(
            s.watermark > 0,
            "node {i}: durable watermark lost across restart"
        );
    }

    let _repl = Replicator::spawn(&primary, &follower, ReplConfig::default());
    let token = primary.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(10)),
        "stream did not resume: {:?}",
        follower.repl_statuses()
    );
    // No gaps: the follower's watermark reaches the primary's tail
    // exactly, and every committed slot holds its value. No duplicate
    // applies: a re-applied frame would clobber nothing here, so the
    // stronger check is the skip accounting — everything at or below the
    // recovered watermark was skipped, never re-applied.
    let statuses = follower.repl_statuses();
    let tails = primary.repl_statuses();
    for (i, (s, t)) in statuses.iter().zip(&tails).enumerate() {
        assert_eq!(s.watermark, t.tail, "node {i}: stream left a gap");
    }
    for i in 0..100u64 {
        let r = slot(i);
        let got = follower.node(r.mem).raw_read(r.off, r.len).unwrap();
        assert_eq!(got, i.to_le_bytes().to_vec(), "slot {i} missing or stale");
    }

    drop(follower);
    daemons.cleanup();
    let _ = std::fs::remove_dir_all(pdir);
}

/// Kill the primary under load. After it restarts from disk, the stream
/// resumes from the follower's watermark and the follower converges to a
/// state equal to the recovered primary — every acknowledged put visible
/// on both sides, scans byte-identical.
#[test]
fn follower_converges_to_primary_restart_state() {
    let tree_cfg = TreeConfig::small_nodes(8);
    let (mut h, mc) = DurableHarness::create("repl-pk", 2, 1, tree_cfg.clone(), SyncMode::Async);
    let capacity = MinuetCluster::required_node_capacity(&tree_cfg, 1, 2);
    let follower = SinfoniaCluster::new(ClusterConfig {
        memnodes: 2,
        capacity_per_node: capacity,
        ..Default::default()
    });
    let repl = Replicator::spawn(&mc.sinfonia, &follower, ReplConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let mc = mc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut acked = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = format!("pk{i:05}").into_bytes();
                // The primary dies under us at some point: acked puts up
                // to that moment are the contract.
                if p.put(0, key.clone(), i.to_le_bytes().to_vec()).is_err() {
                    break;
                }
                acked.push(key);
                i += 1;
            }
            acked
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // Kill the primary mid-load: volatile state gone, daemons down.
    mc.sinfonia.crash(MemNodeId(0));
    mc.sinfonia.crash(MemNodeId(1));
    stop.store(true, Ordering::Relaxed);
    let acked = writer.join().unwrap();
    assert!(
        !acked.is_empty(),
        "no load reached the primary before the kill"
    );
    drop(repl);
    drop(mc);
    h.power_off();

    // Primary restarts from its log; the stream resumes against it.
    let (mc2, _res) = h.restart();
    let _repl = Replicator::spawn(&mc2.sinfonia, &follower, ReplConfig::default());
    let token = mc2.sinfonia.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(10)),
        "stream did not resume after primary restart: {:?}",
        follower.repl_statuses()
    );

    // The follower's recovered state equals the restarted primary's.
    let fmc = MinuetCluster::attach(follower.clone(), 1, tree_cfg);
    let mut pp = mc2.proxy();
    let mut fp = fmc.proxy();
    let p_all = pp.scan_serializable(0, b"", usize::MAX).unwrap();
    let f_all = fp.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(p_all, f_all, "follower diverged from restarted primary");
    for key in &acked {
        assert!(
            fp.get(0, key).unwrap().is_some(),
            "acked key {} missing on follower",
            String::from_utf8_lossy(key)
        );
    }
    for id in [MemNodeId(0), MemNodeId(1)] {
        assert_eq!(
            follower.node(id).in_doubt(),
            Ok(0),
            "undecided 2PC on follower"
        );
    }

    drop(fp);
    drop(pp);
    drop(fmc);
    drop(mc2);
    h.cleanup();
}

/// A follower pulls a WAL of same-size updates — byte-range writes of a
/// seqno and a value — and applies them onto the images they patch: it
/// reads back equal to the model and to the primary.
#[test]
fn a_follower_of_same_size_updates_equals_the_model() {
    let tree_cfg = TreeConfig::small_nodes(8);
    let (h, mc) = DurableHarness::create("repl-ranged", 2, 1, tree_cfg.clone(), SyncMode::Async);
    let capacity = MinuetCluster::required_node_capacity(&tree_cfg, 1, 2);
    let follower = SinfoniaCluster::new(ClusterConfig {
        memnodes: 2,
        capacity_per_node: capacity,
        ..Default::default()
    });
    let _repl = Replicator::spawn(&mc.sinfonia, &follower, ReplConfig::default());

    let key = |i: u64| format!("rr{i:04}").into_bytes();
    let mut model = std::collections::BTreeMap::new();
    let mut p = mc.proxy();
    for i in 0..100u64 {
        p.put(0, key(i), 0u64.to_le_bytes().to_vec()).unwrap();
        model.insert(key(i), 0u64.to_le_bytes().to_vec());
    }
    for round in 1..=6u64 {
        for i in (0..100u64).filter(|i| i % 4 != round % 4) {
            let value = (round << 32 | i).to_le_bytes().to_vec();
            p.put(0, key(i), value.clone()).unwrap();
            model.insert(key(i), value);
        }
    }
    let token = p.session_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(30)),
        "follower never caught up: {:?}",
        follower.repl_statuses()
    );

    let model: Vec<_> = model.into_iter().collect();
    let fmc = MinuetCluster::attach(follower.clone(), 1, tree_cfg);
    let mut fp = fmc.proxy();
    let f_all = fp.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(f_all, model, "follower differs from the model");
    let p_all = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(p_all, model, "primary differs from the model");

    drop(fp);
    drop(fmc);
    drop(p);
    drop(mc);
    h.cleanup();
}

/// Read-your-writes regression under 50ms injected RTT: a session that
/// wrote on the primary, captured its token, and waited it out on the
/// follower must see its write — while a background writer keeps the
/// primary committing.
#[test]
fn read_your_writes_holds_under_injected_rtt() {
    let tree_cfg = TreeConfig::small_nodes(8);
    let durability = DurabilityConfig::ephemeral("repl-ryw", SyncMode::Async);
    let dir = durability.dir.clone().unwrap();
    let sin_cfg = ClusterConfig {
        memnodes: 2,
        durability,
        ..Default::default()
    };
    let mc = MinuetCluster::with_cluster_config(sin_cfg, 1, tree_cfg.clone());
    let capacity = MinuetCluster::required_node_capacity(&tree_cfg, 1, 2);
    let follower = SinfoniaCluster::new(ClusterConfig {
        memnodes: 2,
        capacity_per_node: capacity,
        ..Default::default()
    });
    let _repl = Replicator::spawn(&mc.sinfonia, &follower, ReplConfig::default());

    // Bootstrap must be on the follower before a tree can attach to it.
    let boot = mc.sinfonia.repl_token();
    assert!(follower.wait_replicated(&boot, Duration::from_secs(30)));
    let fmc = MinuetCluster::attach(follower.clone(), 1, tree_cfg);

    // WAN from here on.
    let rtt = Duration::from_millis(50);
    mc.sinfonia.transport.set_inject(Some(rtt));
    follower.transport.set_inject(Some(rtt));

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let mc = mc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                p.put(0, format!("load{i:04}").into_bytes(), vec![7])
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    let mut p = mc.proxy();
    p.put(0, b"session".to_vec(), b"mine".to_vec()).unwrap();
    let token = p.session_token();
    let start = Instant::now();
    assert!(
        fmc.wait_replicated(&token, Duration::from_secs(30)),
        "session token never replicated: {:?}",
        follower.repl_statuses()
    );
    let staleness = start.elapsed();
    let mut fp = fmc.proxy();
    assert_eq!(
        fp.get(0, b"session").unwrap(),
        Some(b"mine".to_vec()),
        "read-your-writes violated on the follower"
    );
    // Replication is asynchronous of the commit path: staleness must not
    // scale with the number of in-flight 50ms commits.
    assert!(
        staleness < Duration::from_secs(5),
        "session waited {staleness:?} at 50ms RTT"
    );

    stop.store(true, Ordering::Relaxed);
    let puts = writer.join().unwrap();
    assert!(puts > 0, "background load never ran");

    mc.sinfonia.transport.set_inject(None);
    follower.transport.set_inject(None);
    drop(fp);
    drop(p);
    drop(fmc);
    drop(mc);
    let _ = std::fs::remove_dir_all(dir);
}

/// A follower refuses what it cannot apply *before* it logs it. The
/// primary has sixteen times the follower's capacity; a write (and a
/// two-phase vote) past the follower's end, shipped as it would be by the
/// pull loop, is answered with a refusal that leaves no trace — nothing
/// appended, watermark and counters unmoved, node not degraded — so the
/// follower still reopens from its own log, and the in-range records
/// behind the refused ones still apply.
#[test]
fn follower_refuses_what_it_cannot_apply_before_logging_it() {
    const SMALL: u64 = 64 << 10;
    let id = MemNodeId(0);
    let pcfg = DurabilityConfig::ephemeral("repl-oob-src", SyncMode::None);
    let fcfg = DurabilityConfig::ephemeral("repl-oob-dst", SyncMode::None);
    let primary = MemNode::durable(id, CAPACITY, &pcfg).unwrap();
    let follower = MemNode::durable(id, SMALL, &fcfg).unwrap();

    // One frame per segment: a write and a vote past the follower's
    // capacity, then a write inside it.
    let mut segments = Vec::new();
    let mut ship = |primary: &MemNode| {
        let from = segments.last().map_or(0, |(end, _)| *end);
        let seg = primary.wal_fetch(from, 1 << 20).unwrap();
        segments.push((seg.tail, seg));
    };
    let shard_at = |off: u64| {
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(id, off, 4), vec![9, 8, 7, 6]);
        m
    };
    let policy = minuet::sinfonia::LockPolicy::AbortOnBusy;
    let far = shard_at(512 << 10);
    primary.exec_single(1, &far.shards()[0].1, policy).unwrap();
    ship(&primary);
    primary
        .prepare(2, &far.shards()[0].1, policy, &[id])
        .unwrap();
    ship(&primary);
    let near = shard_at(128);
    primary.exec_single(3, &near.shards()[0].1, policy).unwrap();
    ship(&primary);

    let untouched = follower.repl_status().unwrap();
    for (_, seg) in &segments[..2] {
        assert!(
            follower.repl_apply(seg.from, &seg.bytes).is_err(),
            "a record past capacity must be refused"
        );
        assert_eq!(follower.repl_status().unwrap(), untouched);
        assert_eq!(follower.in_doubt(), 0, "refused at the prepare");
        assert!(!follower.is_degraded(), "a refusal is not a log failure");
    }
    drop(follower);

    let (follower, _, _) = MemNode::open_from_disk(id, SMALL, &fcfg).unwrap();
    let (_, seg) = &segments[2];
    let status = follower.repl_apply(seg.from, &seg.bytes).unwrap();
    assert_eq!((status.watermark, status.applies), (seg.tail, 1));
    assert_eq!(follower.raw_read(128, 4).unwrap(), vec![9, 8, 7, 6]);
    for cfg in [pcfg, fcfg] {
        let _ = std::fs::remove_dir_all(cfg.dir.unwrap());
    }
}
