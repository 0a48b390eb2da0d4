//! Wire-transport fault injection: daemons killed mid-2PC, daemon
//! restart + reconnect within the coordinator's retry budget, and the
//! client's timeout/backoff discipline (bounded request latency, capped
//! reconnect delay, no file-descriptor leak while a server is dead).
//!
//! The point of these tests is that the wire transport folds network
//! failures into the *existing* failure model: an unreachable daemon is
//! indistinguishable from a crashed in-process memnode, so recovery
//! semantics (in-doubt resolution, `unavailable_retry`) carry over
//! unchanged.

use minuet::core::{op_tag, ConcurrencyMode, MinuetCluster, TreeConfig};
use minuet::obs::{tracing_active, ObsConfig, ObsPlane, SpanKind};
use minuet::sinfonia::memnode::Vote;
use minuet::sinfonia::{
    ClusterConfig, DurabilityConfig, Endpoint, ItemRange, LockPolicy, MemNode, MemNodeId,
    MemNodeServer, Minitransaction, RemoteNode, ServerOptions, SinfoniaCluster, SyncMode,
    Transport, WireConfig,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod common;

/// A wire-backed Sinfonia cluster against already-listening servers.
fn wire_sinfonia(endpoints: Vec<Endpoint>, capacity: u64) -> Arc<SinfoniaCluster> {
    let cfg = ClusterConfig {
        capacity_per_node: capacity,
        ..ClusterConfig::with_memnodes(endpoints.len())
    }
    .with_wire_transport(endpoints, WireConfig::default());
    SinfoniaCluster::new(cfg)
}

/// Spawns `n` *durable* memnode daemons sharing one durability directory.
fn spawn_durable(
    n: u16,
    capacity: u64,
    dcfg: &DurabilityConfig,
    tag: &str,
) -> (Vec<MemNodeServer>, Vec<Endpoint>) {
    let mut servers = Vec::new();
    let mut endpoints = Vec::new();
    for i in 0..n {
        let node =
            Arc::new(MemNode::durable(MemNodeId(i), capacity, dcfg).expect("durable memnode"));
        let ep = Endpoint::Unix(common::socket_path(&format!("{tag}-{i}")));
        servers.push(MemNodeServer::spawn(node, &ep, ServerOptions::default()).expect("spawn"));
        endpoints.push(ep);
    }
    (servers, endpoints)
}

/// Reopens the daemons' on-disk state (as a restarted `memnoded` would)
/// and serves it on fresh sockets. Returns servers, endpoints, and the
/// total number of in-doubt transactions found in the logs.
fn restart_durable(
    n: u16,
    capacity: u64,
    dcfg: &DurabilityConfig,
    tag: &str,
) -> (Vec<MemNodeServer>, Vec<Endpoint>, usize) {
    let mut servers = Vec::new();
    let mut endpoints = Vec::new();
    let mut staged = 0;
    for i in 0..n {
        let (node, meta, _) =
            MemNode::open_from_disk(MemNodeId(i), capacity, dcfg).expect("reopen memnode");
        staged += meta.staged.len();
        let ep = Endpoint::Unix(common::socket_path(&format!("{tag}-r{i}")));
        servers.push(
            MemNodeServer::spawn(Arc::new(node), &ep, ServerOptions::default()).expect("spawn"),
        );
        endpoints.push(ep);
    }
    (servers, endpoints, staged)
}

/// Runs phase one of a cross-node minitransaction at a subset of its
/// participants — over the wire — then returns without deciding,
/// simulating a coordinator that dies mid-protocol.
fn prepare_at(c: &SinfoniaCluster, txid: u64, m: &Minitransaction, at: &[u16]) {
    let participants = m.participants();
    for (mem, shard) in m.shards().iter().filter(|(mem, _)| at.contains(&mem.0)) {
        let vote = c
            .node(*mem)
            .prepare(txid, shard, LockPolicy::AbortOnBusy, &participants)
            .unwrap();
        assert!(matches!(vote, Vote::Ok(_)), "prepare must vote yes");
    }
}

/// Both participants voted yes over the wire, then both daemons were
/// killed before phase two. Restarted daemons + a fresh coordinator must
/// resolve the in-doubt transaction to COMMIT (participants never
/// unilaterally abort after voting yes), with resolution driven entirely
/// through wire RPCs (`Meta`, `Commit`).
#[test]
fn daemon_killed_mid_2pc_all_yes_commits_after_restart() {
    let capacity = 1u64 << 20;
    let dcfg = DurabilityConfig {
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral("wire-2pc-yes", SyncMode::Sync)
    };
    let dir = dcfg.dir.clone().unwrap();
    let (servers, endpoints) = spawn_durable(2, capacity, &dcfg, "2pc-yes");
    let c = wire_sinfonia(endpoints, capacity);

    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
    m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
    let txid = c.next_txid();
    prepare_at(&c, txid, &m, &[0, 1]);
    assert_eq!(
        c.node(MemNodeId(0)).in_doubt(),
        Ok(1),
        "stats RPC sees the staged tx"
    );

    // The daemons die mid-2PC: sever every connection, drop the processes.
    for s in &servers {
        s.kill();
    }
    drop(c);
    drop(servers);

    let (servers2, endpoints2, staged) = restart_durable(2, capacity, &dcfg, "2pc-yes");
    assert_eq!(staged, 2, "both daemons reopened in doubt");
    let c2 = wire_sinfonia(endpoints2, capacity);
    let res = c2.resolve_in_doubt();
    assert_eq!(res.committed, 1);
    assert_eq!(res.aborted, 0);
    assert_eq!(
        c2.node(MemNodeId(0)).raw_read(0, 4).unwrap(),
        vec![1, 2, 3, 4]
    );
    assert_eq!(
        c2.node(MemNodeId(1)).raw_read(0, 4).unwrap(),
        vec![5, 6, 7, 8]
    );
    assert_eq!(c2.node(MemNodeId(0)).in_doubt(), Ok(0));
    assert_eq!(c2.node(MemNodeId(1)).in_doubt(), Ok(0));

    // Locks were released by the resolution: the range is writable again.
    let mut m2 = Minitransaction::new();
    m2.write(ItemRange::new(MemNodeId(0), 0, 1), vec![9]);
    m2.write(ItemRange::new(MemNodeId(1), 0, 1), vec![9]);
    assert!(c2.execute(&m2).unwrap().committed());

    drop(c2);
    drop(servers2);
    let _ = std::fs::remove_dir_all(dir);
}

/// Only one participant received the prepare before the daemons died:
/// the restarted cluster must ABORT, leaving no partial writes.
#[test]
fn daemon_killed_mid_2pc_partial_prepare_aborts_after_restart() {
    let capacity = 1u64 << 20;
    let dcfg = DurabilityConfig {
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral("wire-2pc-no", SyncMode::Sync)
    };
    let dir = dcfg.dir.clone().unwrap();
    let (servers, endpoints) = spawn_durable(2, capacity, &dcfg, "2pc-no");
    let c = wire_sinfonia(endpoints, capacity);

    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
    m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
    let txid = c.next_txid();
    prepare_at(&c, txid, &m, &[0]); // memnode 1 never hears of it

    for s in &servers {
        s.kill();
    }
    drop(c);
    drop(servers);

    let (servers2, endpoints2, staged) = restart_durable(2, capacity, &dcfg, "2pc-no");
    assert_eq!(staged, 1, "only the prepared daemon is in doubt");
    let c2 = wire_sinfonia(endpoints2, capacity);
    let res = c2.resolve_in_doubt();
    assert_eq!(res.committed, 0);
    assert_eq!(res.aborted, 1);
    assert_eq!(c2.node(MemNodeId(0)).raw_read(0, 4).unwrap(), vec![0; 4]);
    assert_eq!(c2.node(MemNodeId(1)).raw_read(0, 4).unwrap(), vec![0; 4]);
    assert_eq!(c2.node(MemNodeId(0)).in_doubt(), Ok(0));

    drop(c2);
    drop(servers2);
    let _ = std::fs::remove_dir_all(dir);
}

/// One participant committed and then died; the other still stages the
/// transaction. A resolution pass that cannot ask the dead daemon must
/// leave the transaction in doubt — an unreachable participant has not
/// voted no — and must not panic telling it the outcome. Once the daemon
/// is back, the next pass learns of its commit and finishes the job.
#[test]
fn unreachable_participant_leaves_the_transaction_in_doubt() {
    let capacity = 1u64 << 20;
    let dcfg = DurabilityConfig {
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral("wire-2pc-partial", SyncMode::Sync)
    };
    let dir = dcfg.dir.clone().unwrap();
    let (mut servers, endpoints) = spawn_durable(2, capacity, &dcfg, "2pc-partial");
    let c = wire_sinfonia(endpoints.clone(), capacity);

    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![1, 2, 3, 4]);
    m.write(ItemRange::new(MemNodeId(1), 0, 4), vec![5, 6, 7, 8]);
    let txid = c.next_txid();
    prepare_at(&c, txid, &m, &[0, 1]);
    c.node(MemNodeId(1)).commit(txid).unwrap();

    // Daemon 1 dies with the decision on its disk; the coordinator lives.
    let dead = servers.pop().unwrap();
    dead.kill();
    drop(dead);

    let res = c.resolve_in_doubt();
    assert_eq!((res.committed, res.aborted, res.unresolved), (0, 0, 1));
    assert_eq!(
        c.node(MemNodeId(0)).in_doubt(),
        Ok(1),
        "the reachable participant must keep what it staged"
    );
    assert!(c.node(MemNodeId(1)).node_meta().is_err());

    // The daemon returns on its old endpoint with its log replayed.
    let (node, _, _) =
        MemNode::open_from_disk(MemNodeId(1), capacity, &dcfg).expect("reopen memnode");
    servers.push(
        MemNodeServer::spawn(Arc::new(node), &endpoints[1], ServerOptions::default())
            .expect("respawn"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.node(MemNodeId(1)).is_crashed() {
        assert!(Instant::now() < deadline, "daemon 1 never came back");
        std::thread::sleep(Duration::from_millis(5));
    }

    let res = c.resolve_in_doubt();
    assert_eq!((res.committed, res.aborted, res.unresolved), (1, 0, 0));
    assert_eq!(
        c.node(MemNodeId(0)).raw_read(0, 4).unwrap(),
        vec![1, 2, 3, 4]
    );
    assert_eq!(
        c.node(MemNodeId(1)).raw_read(0, 4).unwrap(),
        vec![5, 6, 7, 8]
    );
    assert_eq!(c.node(MemNodeId(0)).in_doubt(), Ok(0));
    assert_eq!(c.node(MemNodeId(1)).in_doubt(), Ok(0));

    drop(c);
    drop(servers);
    let _ = std::fs::remove_dir_all(dir);
}

/// A daemon that dies and comes back on the same endpoint within the
/// coordinator's `unavailable_retry` budget is transparent to callers:
/// the in-flight minitransaction retries through the reconnect and
/// commits. This is the wire analogue of `crash`/`recover` in-process.
#[test]
fn execute_survives_daemon_restart_within_retry_budget() {
    let capacity = 1u64 << 20;
    let node = Arc::new(MemNode::new(MemNodeId(0), capacity));
    let ep = Endpoint::Unix(common::socket_path("reconnect"));
    let server = MemNodeServer::spawn(node.clone(), &ep, ServerOptions::default()).unwrap();
    let c = wire_sinfonia(vec![ep.clone()], capacity);

    let mut m = Minitransaction::new();
    m.write(ItemRange::new(MemNodeId(0), 0, 1), vec![7]);
    assert!(c.execute(&m).unwrap().committed());

    // The daemon dies abruptly (connections severed mid-stream) and a
    // replacement binds the same socket 300ms later.
    server.kill();
    drop(server);
    let (node2, ep2) = (node.clone(), ep.clone());
    let restarter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        MemNodeServer::spawn(node2, &ep2, ServerOptions::default()).unwrap()
    });

    let start = Instant::now();
    let mut m2 = Minitransaction::new();
    m2.write(ItemRange::new(MemNodeId(0), 1, 1), vec![9]);
    let outcome = c.execute(&m2).unwrap();
    let elapsed = start.elapsed();
    assert!(outcome.committed(), "execute must ride out the restart");
    assert!(
        elapsed >= Duration::from_millis(100),
        "commit during the dead window is impossible ({elapsed:?})"
    );

    let server2 = restarter.join().unwrap();
    assert_eq!(c.node(MemNodeId(0)).raw_read(0, 2).unwrap(), vec![7, 9]);
    drop(c);
    drop(server2);
}

/// A traced wire `MinuetCluster` sampling every operation.
fn traced_tree(n_mems: usize, cfg: TreeConfig) -> Arc<MinuetCluster> {
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, n_mems);
    let endpoints = common::spawn_servers(n_mems, capacity);
    let sin = ClusterConfig::with_memnodes(n_mems)
        .with_wire_transport(endpoints, WireConfig::default())
        .with_obs(ObsConfig::sampled(1));
    MinuetCluster::with_cluster_config(sin, 1, cfg)
}

/// An operation that loses its commit-time validation (another proxy
/// moved the tip and rewrote the key under it) retries and commits — and
/// its trace carries the whole story: a `retry` event, a `backoff` span,
/// and round trips from both the failed and the successful attempt.
#[test]
fn traces_survive_validation_retry_loops() {
    let mc = traced_tree(2, TreeConfig::small_nodes(8));
    let mut p1 = mc.proxy();
    let mut p2 = mc.proxy();
    let k = b"contended".to_vec();
    p1.put(0, k.clone(), vec![1]).unwrap(); // p1 caches the tip
                                            // p2 freezes a snapshot, advancing the mainline tip's snapshot id and
                                            // rewriting the replicated TIP object p1 has cached.
    p2.create_snapshot(0).unwrap();
    p2.put(0, k.clone(), vec![2]).unwrap();
    let before = p1.stats.retries;
    p1.put(0, k.clone(), vec![3]).unwrap(); // stale tip cache: must retry
    assert!(
        p1.stats.retries > before,
        "scenario failed to force a retry"
    );

    let traces = mc.sinfonia.obs().recent(32);
    let retried = traces
        .iter()
        .find(|t| {
            t.op_tag == op_tag::PUT && t.spans.iter().any(|s| s.kind == SpanKind::Retry as u8)
        })
        .expect("retried put left no trace with a retry event");
    assert!(
        retried
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Backoff as u8),
        "retry did not record its backoff span"
    );
    assert!(
        retried
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rtt as u8)
            .count()
            >= 2,
        "trace lost the failed attempt's round trips"
    );
    assert!(!tracing_active(), "trace left armed after the op returned");
}

/// `FullValidation` mode diverts every batch member to the per-key path;
/// the batch trace must record that fallback instead of losing it.
#[test]
fn traces_record_batch_fallback_to_per_key() {
    let mut cfg = TreeConfig::small_nodes(8);
    cfg.mode = ConcurrencyMode::FullValidation;
    let mc = traced_tree(1, cfg);
    let mut p = mc.proxy();
    let pairs: Vec<_> = (0..4u8).map(|i| (vec![i], vec![i])).collect();
    p.multi_put(0, &pairs).unwrap();
    assert!(p.stats.batch_fallbacks >= 4, "mode did not force fallback");

    let traces = mc.sinfonia.obs().recent(32);
    let batch = traces
        .iter()
        .find(|t| t.op_tag == op_tag::MULTI_PUT)
        .expect("sampled multi_put left no trace");
    assert!(
        batch.spans.iter().any(|s| s.kind == SpanKind::Retry as u8),
        "fallback-to-per-key left no event in the batch trace"
    );
    assert!(!tracing_active(), "trace left armed after the batch");
}

/// Fail-fast rejections inside the breaker window still produce complete
/// traces, deactivate the thread-local trace on every path, and never
/// grow the ring buffer past its bound — 100 failing ops against a dead
/// endpoint must not leak trace slots.
#[test]
fn breaker_fail_fast_does_not_leak_trace_slots() {
    let path = common::socket_path("trace-blackhole");
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let held: Arc<Mutex<Vec<std::os::unix::net::UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = held.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming().flatten() {
            sink.lock().unwrap().push(conn);
        }
    });

    let plane = ObsPlane::new(&ObsConfig {
        sample_every: 1,
        slow_op_ns: 0,
        trace_buffer: 4,
    });
    let wire = WireConfig {
        request_timeout: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(100),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(500),
        ..WireConfig::default()
    };
    let transport = Arc::new(Transport::new(None).with_obs(plane.clone()));
    let node = RemoteNode::new(MemNodeId(0), Endpoint::Unix(path), wire, transport);

    // First failure is a real timeout; the rest fail fast in the backoff
    // window. Every iteration arms a trace and must disarm it.
    for i in 0..100 {
        let guard = plane.op(0xEE);
        assert!(tracing_active(), "sampling every op must arm each trace");
        assert!(node.raw_read(0, 8).is_err(), "black hole must not succeed");
        drop(guard);
        assert!(!tracing_active(), "trace left armed after failure {i}");
    }
    let recent = plane.recent(1000);
    assert!(
        recent.len() <= 4,
        "ring buffer exceeded its bound: {} traces",
        recent.len()
    );
    assert_eq!(
        plane.trace_count(),
        4,
        "buffer should hold exactly its capacity after 100 recorded ops"
    );
    // The survivors are the newest ops, each carrying its rtt/backoff
    // evidence rather than an empty husk.
    assert!(
        recent.iter().all(|t| t.op_tag == 0xEE && t.total_ns > 0),
        "buffered traces lost their op identity"
    );
}

fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Requests against a black-hole server (accepts, never replies) are
/// bounded by `request_timeout`; subsequent requests fail fast inside the
/// capped backoff window — no dial per retry, so the dead-server loop
/// costs no file descriptors and the reconnect delay never exceeds
/// `backoff_cap`.
#[test]
fn request_timeout_backoff_cap_and_no_fd_leak() {
    let path = common::socket_path("blackhole");
    let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
    let held: Arc<Mutex<Vec<std::os::unix::net::UnixStream>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = held.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming().flatten() {
            sink.lock().unwrap().push(conn); // hold it open, never reply
        }
    });

    let wire = WireConfig {
        request_timeout: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(200),
        max_idle_conns: 2,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(50),
    };
    let transport = Arc::new(Transport::new(None));
    let node = RemoteNode::new(MemNodeId(0), Endpoint::Unix(path), wire.clone(), transport);

    // One request: the per-request timeout bounds it.
    let start = Instant::now();
    assert!(node.raw_read(0, 8).is_err(), "black hole must not succeed");
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(90),
        "request failed before the timeout could fire ({elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "request_timeout did not bound the request ({elapsed:?})"
    );

    // Keep failing until the reconnect delay hits the cap: each real
    // attempt (made once its backoff window passes) costs one timeout and
    // doubles the delay, which must stop at `backoff_cap`.
    let mut real_failures = 1;
    while node.backoff_delay() < wire.backoff_cap {
        std::thread::sleep(node.backoff_delay() + Duration::from_millis(2));
        assert!(node.raw_read(0, 8).is_err());
        real_failures += 1;
        assert!(real_failures <= 16, "backoff never reached its cap");
    }
    assert_eq!(node.backoff_delay(), wire.backoff_cap);
    let failures_at_cap = node.consecutive_failures();

    // A hundred requests inside the backoff window: every one fails fast
    // without dialing — no new file descriptors, no timeout-length
    // stalls, and no re-arming of the window (the failure count stays
    // where the real failures left it).
    let fds_before = count_fds();
    let start = Instant::now();
    for _ in 0..100 {
        assert!(node.raw_read(0, 8).is_err());
    }
    let loop_elapsed = start.elapsed();
    let fds_after = count_fds();
    assert!(
        loop_elapsed < wire.backoff_cap,
        "failed requests are not failing fast ({loop_elapsed:?} for 100)"
    );
    assert_eq!(
        fds_after, fds_before,
        "fd leak while the server is dead: {fds_before} -> {fds_after}"
    );
    assert_eq!(
        node.consecutive_failures(),
        failures_at_cap,
        "fail-fast rejections must not count as new failures"
    );
    assert_eq!(
        node.backoff_delay(),
        wire.backoff_cap,
        "backoff must cap, not grow unboundedly"
    );
}

/// Regression: membership flags survive the daemon's death. A daemon
/// that set its joining fence and then died must still read as joining
/// from the client's piggybacked-flags cache — a network failure must
/// not flip a half-seeded node to "ready" and let commits bind
/// replicated compares to it. `is_crashed`, which asks "can I reach it
/// right now?", must flip to true instead of trusting the stale cache.
/// A node never reached at all conservatively holds both fences.
#[test]
fn killed_daemon_falls_back_to_cached_membership_flags() {
    let capacity = 1u64 << 20;
    let node = Arc::new(MemNode::new(MemNodeId(0), capacity));
    let ep = Endpoint::Unix(common::socket_path("flag-cache"));
    let server = MemNodeServer::spawn(node, &ep, ServerOptions::default()).unwrap();
    let wire = WireConfig {
        request_timeout: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(200),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..WireConfig::default()
    };
    let transport = Arc::new(Transport::new(None));
    let remote = RemoteNode::new(MemNodeId(0), ep, wire.clone(), transport.clone());

    remote.set_joining(true).expect("server is up");
    // The SetJoining reply's flag trailer already refreshed the cache:
    // these answer from memory against the live server.
    assert!(remote.is_joining());
    assert!(!remote.is_retiring());
    assert!(!remote.is_crashed());

    server.kill();
    drop(server);

    // One failed RPC marks the cache stale (epoch bump)...
    assert!(remote.raw_read(0, 8).is_err());
    // ...after which reachability reads as crashed, while the membership
    // fences keep answering from the last known flags.
    assert!(remote.is_crashed(), "unreachable must read as crashed");
    assert!(remote.is_joining(), "join fence lost to a network failure");
    assert!(
        !remote.is_retiring(),
        "stale fallback invented a retire fence"
    );

    // Never-reached node: nothing vouches for its state, so both fences
    // hold and it reads as crashed.
    let ghost = RemoteNode::new(
        MemNodeId(1),
        Endpoint::Unix(common::socket_path("flag-ghost")),
        wire,
        transport,
    );
    assert!(ghost.is_crashed());
    assert!(ghost.is_joining());
    assert!(ghost.is_retiring());
}

/// The socket twin of `replication.rs`'s refusal test: a primary with
/// sixteen times the follower daemon's capacity ships a well-formed
/// `ReplApply` frame the follower cannot apply. The daemon answers an
/// error — it neither panics the handler nor logs the record — and keeps
/// serving: reads, its status, and the in-range segment behind the
/// refused one.
#[test]
fn follower_daemon_refuses_an_out_of_range_repl_frame_and_keeps_serving() {
    let (big, small) = (1u64 << 20, 64u64 << 10);
    let id = MemNodeId(0);
    let pcfg = DurabilityConfig::ephemeral("wire-repl-oob-src", SyncMode::None);
    let fcfg = DurabilityConfig::ephemeral("wire-repl-oob-dst", SyncMode::None);
    let primary = MemNode::durable(id, big, &pcfg).unwrap();
    let (servers, endpoints) = spawn_durable(1, small, &fcfg, "repl-oob");
    let c = wire_sinfonia(endpoints, small);
    let follower = c.node(id);

    let write_at = |txid: u64, off: u64| {
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(id, off, 4), vec![9, 8, 7, 6]);
        let done = primary.exec_single(txid, &m.shards()[0].1, LockPolicy::AbortOnBusy);
        assert!(done.is_ok());
        primary.repl_status().unwrap().tail
    };
    let cut = write_at(1, 512 << 10);
    write_at(2, 128);
    let far = primary.wal_fetch(0, cut as u32).unwrap();
    let near = primary.wal_fetch(cut, 1 << 20).unwrap();

    let untouched = follower.repl_status().unwrap();
    assert!(
        follower.repl_apply(far.from, far.bytes).is_err(),
        "a record past capacity must be refused"
    );
    assert_eq!(follower.repl_status().unwrap(), untouched);
    assert_eq!(follower.raw_read(128, 4).unwrap(), vec![0; 4]);
    let status = follower.repl_apply(near.from, near.bytes).unwrap();
    assert_eq!((status.watermark, status.applies), (near.tail, 1));
    assert_eq!(follower.raw_read(128, 4).unwrap(), vec![9, 8, 7, 6]);

    drop(c);
    drop(servers);
    for cfg in [pcfg, fcfg] {
        let _ = std::fs::remove_dir_all(cfg.dir.unwrap());
    }
}
