//! Targeted failpoint regressions: WAL hardening (degrade-to-read-only,
//! torn tails, ENOSPC mid-checkpoint), end-to-end deadline behavior
//! (fail-fast, retry-loop cutoff, replication-wait caps, decisions
//! delivered past an expired deadline), the tagged
//! Nth-call dispatch fault, circuit-breaker observability, and the
//! `Faults` admin RPC.
//!
//! Every test here arms the process-global fault registry (or must not
//! be perturbed by one that does), so they all serialize on
//! [`faults::test_guard`].

mod common;

use minuet::faults::{self, Action, Arm, Site};
use minuet::obs::{ObsConfig, ObsPlane};
use minuet::sinfonia::wire::{tag, Endpoint};
use minuet::sinfonia::{
    Bytes, ClusterConfig, DurabilityConfig, ItemRange, MemNode, MemNodeId, MemNodeServer,
    Minitransaction, OpDeadline, RemoteNode, ReplConfig, Replicator, ServerOptions,
    SinfoniaCluster, SinfoniaError, SyncMode, Transport, Unavailable, WireConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: u64 = 1 << 20;

fn durable_cluster(
    tag: &str,
    n: usize,
    sync: SyncMode,
) -> (std::path::PathBuf, Arc<SinfoniaCluster>) {
    let durability = DurabilityConfig::ephemeral(tag, sync);
    let dir = durability.dir.clone().unwrap();
    let c = SinfoniaCluster::new(ClusterConfig {
        memnodes: n,
        capacity_per_node: CAPACITY,
        durability,
        ..Default::default()
    });
    (dir, c)
}

fn put_slot(c: &SinfoniaCluster, slot: u64, val: u64) -> Result<bool, SinfoniaError> {
    let mut m = Minitransaction::new();
    m.write(
        ItemRange::new(MemNodeId(0), slot * 8, 8),
        val.to_le_bytes().to_vec(),
    );
    c.execute(&m).map(|o| o.committed())
}

fn read_slot(c: &SinfoniaCluster, slot: u64) -> u64 {
    let b = c.node(MemNodeId(0)).raw_read(slot * 8, 8).unwrap();
    u64::from_le_bytes(b.try_into().unwrap())
}

// ---------------------------------------------------------------------
// WAL hardening
// ---------------------------------------------------------------------

/// ENOSPC on a WAL append surfaces as a clean typed failure, latches the
/// memnode read-only (reads keep working, writes refuse), and `recover`
/// heals it without losing any acked write.
#[test]
fn enospc_on_wal_append_degrades_to_read_only() {
    let _g = faults::test_guard();
    let (dir, c) = durable_cluster("fi-enospc", 1, SyncMode::Sync);
    assert!(put_slot(&c, 0, 7).unwrap());

    faults::arm(Site::WalAppend, Arm::new(Action::NoSpace));
    // The write fails with a typed error instead of panicking; the
    // deadline bounds the unavailable-retry loop so the test stays fast.
    let scope = OpDeadline::after(Duration::from_millis(300)).enter();
    let err = put_slot(&c, 1, 8).unwrap_err();
    drop(scope);
    assert!(
        matches!(
            err,
            SinfoniaError::Unavailable(_) | SinfoniaError::DeadlineExceeded
        ),
        "unexpected error {err}"
    );

    let node_ref = c.node(MemNodeId(0));
    let node = node_ref.as_local().expect("in-process node");
    assert!(node.is_degraded(), "WAL failure must latch read-only mode");
    // Reads still served while degraded.
    assert_eq!(read_slot(&c, 0), 7);
    // Writes refused while degraded, even after the fault clears.
    faults::disarm_all();
    let scope = OpDeadline::after(Duration::from_millis(200)).enter();
    assert!(
        put_slot(&c, 1, 8).is_err(),
        "degraded node accepted a write"
    );
    drop(scope);

    c.recover(MemNodeId(0));
    assert!(!node.is_degraded(), "recover must clear the latch");
    assert!(put_slot(&c, 1, 8).unwrap());
    assert_eq!(
        read_slot(&c, 0),
        7,
        "acked write lost across degrade/recover"
    );
    assert_eq!(read_slot(&c, 1), 8);
    let _ = std::fs::remove_dir_all(dir);
}

/// A short write tears the WAL tail. The log must stay valid up to the
/// last whole frame: after recovery the un-acked torn commit is gone,
/// every acked commit is intact, and the node accepts writes again.
#[test]
fn short_write_leaves_log_valid_to_last_whole_frame() {
    let _g = faults::test_guard();
    let (dir, c) = durable_cluster("fi-torn", 1, SyncMode::Sync);
    for s in 0..5 {
        assert!(put_slot(&c, s, 100 + s).unwrap());
    }

    faults::arm(Site::WalAppend, Arm::new(Action::ShortWrite(3)).times(1));
    let scope = OpDeadline::after(Duration::from_millis(300)).enter();
    assert!(put_slot(&c, 5, 999).is_err(), "torn append must not ack");
    drop(scope);
    faults::disarm_all();

    // Power-cycle from the durable log: the torn tail was cut, so the
    // replay ends at the last whole frame.
    c.crash_and_recover(MemNodeId(0));
    for s in 0..5 {
        assert_eq!(
            read_slot(&c, s),
            100 + s,
            "acked slot {s} lost to the torn tail"
        );
    }
    assert_eq!(read_slot(&c, 5), 0, "torn un-acked commit reappeared");
    assert!(
        put_slot(&c, 5, 555).unwrap(),
        "node did not heal after recovery"
    );
    assert_eq!(read_slot(&c, 5), 555);
    let _ = std::fs::remove_dir_all(dir);
}

/// A primary whose WAL tail tore mid-stream ships only whole frames to a
/// replication follower: the follower converges to exactly the acked
/// commits, and the stream resumes cleanly once the primary heals.
#[test]
fn torn_tail_during_replication_pull_ships_whole_frames() {
    let _g = faults::test_guard();
    let (pdir, primary) = durable_cluster("fi-repl-src", 1, SyncMode::Sync);
    let (fdir, follower) = durable_cluster("fi-repl-dst", 1, SyncMode::Sync);
    let _repl = Replicator::spawn(&primary, &follower, ReplConfig::default());

    for s in 0..8 {
        assert!(put_slot(&primary, s, 200 + s).unwrap());
    }
    // The failpoint registry is process-global and the follower logs too:
    // let it drain, or an append of its own can take the tear meant for
    // the primary's.
    let drained = primary.repl_token();
    assert!(follower.wait_replicated(&drained, Duration::from_secs(10)));
    // Tear the tail on the next append; the failed commit never acks.
    faults::arm(Site::WalAppend, Arm::new(Action::ShortWrite(5)).times(1));
    let scope = OpDeadline::after(Duration::from_millis(300)).enter();
    assert!(put_slot(&primary, 8, 999).is_err());
    drop(scope);
    faults::disarm_all();
    primary.recover(MemNodeId(0));

    // More acked traffic after the heal; the follower must pull through
    // the (truncated) tear without gaps or garbage.
    for s in 8..12 {
        assert!(put_slot(&primary, s, 200 + s).unwrap());
    }
    let token = primary.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(10)),
        "follower stuck at {:?}",
        follower.repl_statuses()
    );
    for s in 0..12 {
        assert_eq!(
            read_slot(&follower, s),
            200 + s,
            "follower slot {s} diverged"
        );
    }
    let _ = std::fs::remove_dir_all(pdir);
    let _ = std::fs::remove_dir_all(fdir);
}

/// ENOSPC while writing the checkpoint image (and a failing tmp→image
/// rename) fail the checkpoint cleanly: a typed error, no degraded node,
/// the WAL still intact — a later checkpoint succeeds and a power-cycle
/// recovers everything.
#[test]
fn enospc_mid_checkpoint_fails_clean_and_wal_recovers() {
    let _g = faults::test_guard();
    let (dir, c) = durable_cluster("fi-ckpt", 1, SyncMode::Sync);
    for s in 0..6 {
        assert!(put_slot(&c, s, 300 + s).unwrap());
    }

    let node = c.node(MemNodeId(0));
    faults::arm(Site::CkptWrite, Arm::new(Action::NoSpace).times(1));
    assert!(
        node.checkpoint().is_err(),
        "checkpoint must fail under ENOSPC"
    );
    faults::arm(Site::CkptRename, Arm::new(Action::Err).times(1));
    assert!(
        node.checkpoint().is_err(),
        "checkpoint must fail on rename error"
    );
    faults::disarm_all();

    // The failed checkpoints did not poison the node: writes still land,
    // and the retained WAL still covers everything.
    let local = node.as_local().unwrap();
    assert!(
        !local.is_degraded(),
        "a checkpoint failure must not degrade"
    );
    assert!(put_slot(&c, 6, 306).unwrap());
    assert!(
        node.checkpoint().unwrap(),
        "clean checkpoint after the fault"
    );

    c.crash_and_recover(MemNodeId(0));
    for s in 0..7 {
        assert_eq!(read_slot(&c, s), 300 + s, "slot {s} lost across ckpt fault");
    }
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------

fn obs_counter(c: &SinfoniaCluster, name: &str) -> u64 {
    c.obs()
        .registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// An already-expired deadline fails fast with the typed error before
/// any RPC reaches the server, and bumps the `deadline.exceeded`
/// counter.
#[test]
fn expired_deadline_fails_fast_before_any_rpc() {
    let _g = faults::test_guard();
    let node = Arc::new(MemNode::new(MemNodeId(0), CAPACITY));
    let ep = Endpoint::Unix(common::socket_path("fi-deadline"));
    let _server = MemNodeServer::spawn(node.clone(), &ep, ServerOptions::default()).unwrap();
    let c = SinfoniaCluster::new(
        ClusterConfig {
            capacity_per_node: CAPACITY,
            ..ClusterConfig::with_memnodes(1)
        }
        .with_wire_transport(vec![ep], WireConfig::default()),
    );
    assert!(put_slot(&c, 0, 1).unwrap()); // warm the connection pool

    let commits_before = node.stats.single_commits.get();
    let exceeded_before = obs_counter(&c, "deadline.exceeded");
    let scope = OpDeadline::at(Instant::now() - Duration::from_millis(1)).enter();
    let start = Instant::now();
    let err = put_slot(&c, 1, 2).unwrap_err();
    let elapsed = start.elapsed();
    drop(scope);

    assert!(matches!(err, SinfoniaError::DeadlineExceeded), "got {err}");
    assert!(
        elapsed < Duration::from_millis(50),
        "expired deadline did not fail fast ({elapsed:?})"
    );
    assert_eq!(
        node.stats.single_commits.get(),
        commits_before,
        "an RPC reached the server despite the expired deadline"
    );
    assert!(
        obs_counter(&c, "deadline.exceeded") > exceeded_before,
        "deadline.exceeded counter did not move"
    );
}

/// A deadline inside the unavailable-retry loop cuts the retries off at
/// the budget with the typed error, instead of burning the full retry
/// allowance against a dark node.
#[test]
fn deadline_bounds_unavailable_retry() {
    let _g = faults::test_guard();
    let c = SinfoniaCluster::new(ClusterConfig {
        capacity_per_node: CAPACITY,
        ..ClusterConfig::with_memnodes(1)
    });
    c.crash(MemNodeId(0)); // dark, and staying dark

    let budget = Duration::from_millis(250);
    let scope = OpDeadline::after(budget).enter();
    let start = Instant::now();
    let err = put_slot(&c, 0, 1).unwrap_err();
    let elapsed = start.elapsed();
    drop(scope);

    assert!(matches!(err, SinfoniaError::DeadlineExceeded), "got {err}");
    assert!(
        elapsed < Duration::from_secs(2),
        "retry loop ignored the deadline ({elapsed:?})"
    );
}

/// `wait_replicated` honors the ambient deadline: a caller with a 100ms
/// budget never waits out the full replication timeout.
#[test]
fn deadline_caps_wait_replicated() {
    let _g = faults::test_guard();
    let (dir, c) = durable_cluster("fi-wait-repl", 1, SyncMode::Async);
    let scope = OpDeadline::after(Duration::from_millis(100)).enter();
    let start = Instant::now();
    let reached = c.wait_replicated(&[u64::MAX], Duration::from_secs(30));
    let elapsed = start.elapsed();
    drop(scope);

    assert!(!reached, "an unreachable token cannot be reached");
    assert!(
        elapsed < Duration::from_secs(1),
        "wait_replicated ignored the deadline cap ({elapsed:?})"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A deadline that runs out inside the two-phase protocol does not strand
/// the participants that voted yes: the coordinator still delivers their
/// abort (the deadline ran out before the last prepare) or commit (it ran
/// out before phase two), so no node holds a staged transaction and its
/// locks — a running cluster makes no in-doubt pass that would free them.
/// The delay at `wire.client.recv` spends the budget after a prepare has
/// been answered, in process as over a socket.
#[test]
fn decisions_are_delivered_past_an_expired_deadline() {
    let _g = faults::test_guard();
    for wire in [false, true] {
        let c = common::sinfonia_cluster_on(2, CAPACITY, wire);
        let mut m = Minitransaction::new();
        for mem in [MemNodeId(0), MemNodeId(1)] {
            m.write(ItemRange::new(mem, 0, 8), 7u64.to_le_bytes().to_vec());
        }
        // Skip 0: the first prepare's reply waits out the deadline, so the
        // second prepare is never sent and the first must be aborted.
        // Skip 1: both prepares are answered, then phase two must commit.
        for (skip, committed) in [(0, false), (1, true)] {
            let late = Arm::new(Action::Delay(Duration::from_millis(200)))
                .after(skip)
                .times(1);
            faults::arm(Site::WireClientRecv, late);
            let scope = OpDeadline::after(Duration::from_millis(100)).enter();
            let got = c.execute(&m);
            drop(scope);
            match &got {
                Ok(o) => assert!(committed && o.committed(), "wire={wire} skip={skip}: {o:?}"),
                Err(e) => assert!(
                    !committed && matches!(e, SinfoniaError::DeadlineExceeded),
                    "wire={wire} skip={skip}: {e}"
                ),
            }
            for mem in [MemNodeId(0), MemNodeId(1)] {
                assert_eq!(
                    c.node(mem).in_doubt(),
                    Ok(0),
                    "wire={wire} skip={skip}: memnode {mem} still holds a staged transaction"
                );
            }
            let want = if committed { 7 } else { 0 };
            assert_eq!(read_slot(&c, 0), want, "wire={wire} skip={skip}");
        }
        assert!(
            put_slot(&c, 0, 9).unwrap(),
            "wire={wire}: the range is free"
        );
    }
}

// ---------------------------------------------------------------------
// Dispatch faults, breaker observability, admin RPC
// ---------------------------------------------------------------------

fn wire_remote(
    tag: &str,
    wire: WireConfig,
) -> (Arc<MemNode>, MemNodeServer, RemoteNode, Arc<ObsPlane>) {
    let node = Arc::new(MemNode::new(MemNodeId(0), CAPACITY));
    let ep = Endpoint::Unix(common::socket_path(tag));
    let server = MemNodeServer::spawn(node.clone(), &ep, ServerOptions::default()).unwrap();
    let plane = ObsPlane::new(&ObsConfig::default());
    let transport = Arc::new(Transport::new(None).with_obs(plane.clone()));
    let remote = RemoteNode::new(MemNodeId(0), ep, wire, transport);
    (node, server, remote, plane)
}

/// `rpc.dispatch=err:tag=T:skip=N` fails exactly the (N+1)th call of the
/// tagged RPC kind, leaving every other kind untouched.
#[test]
fn rpc_dispatch_fails_the_nth_tagged_call() {
    let _g = faults::test_guard();
    let (_node, _server, remote, _plane) = wire_remote("fi-nth", WireConfig::default());

    assert!(remote
        .raw_write(0, Bytes::from(&7u64.to_le_bytes()))
        .is_ok());
    faults::arm(
        Site::RpcDispatch,
        Arm::new(Action::Err)
            .on_tag(tag::RAW_READ)
            .after(2)
            .times(1),
    );
    // Calls 1 and 2 pass through, call 3 fails, call 4 heals (self-disarmed).
    assert!(
        remote.raw_read(0, 8).is_ok(),
        "skip window must pass through"
    );
    assert!(
        remote.raw_read(0, 8).is_ok(),
        "skip window must pass through"
    );
    assert!(remote.raw_read(0, 8).is_err(), "the 3rd call must fail");
    assert!(remote.raw_read(0, 8).is_ok(), "count=1 must self-disarm");
    // A different RPC kind never matched the tag.
    assert!(remote
        .raw_write(8, Bytes::from(&8u64.to_le_bytes()))
        .is_ok());
}

/// A handler that panics is answered, not fatal, and counted: the call
/// that hit it fails with `Unavailable`, the next one succeeds, and the
/// node's `memnode.handler_panics` reads 1 — in process as over a socket,
/// since both run the server's one per-frame step.
#[test]
fn a_handler_panic_is_answered_and_counted() {
    let _g = faults::test_guard();
    for wire in [false, true] {
        let c = common::sinfonia_cluster_on(1, CAPACITY, wire);
        let node = c.node(MemNodeId(0));
        let panic_once = Arm::new(Action::Panic).on_tag(tag::RAW_READ).times(1);
        faults::arm(Site::RpcDispatch, panic_once);
        assert!(
            matches!(node.raw_read(0, 8), Err(Unavailable(MemNodeId(0)))),
            "wire={wire}: the call that panicked"
        );
        assert!(node.raw_read(0, 8).is_ok(), "wire={wire}: the next call");
        let panics = node
            .obs_snapshot()
            .unwrap()
            .counter("memnode.handler_panics");
        assert_eq!(panics, Some(1), "wire={wire}");
    }
}

fn plane_counter(plane: &ObsPlane, name: &str) -> u64 {
    plane
        .registry
        .snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// The circuit breaker's life cycle — open on first failure, fail-fast
/// rejections inside the window, a half-open probe after it, close on
/// the first success — is visible as counters in the transport's obs
/// registry.
#[test]
fn breaker_transitions_surface_in_obs_registry() {
    let _g = faults::test_guard();
    let wire = WireConfig {
        request_timeout: Duration::from_millis(100),
        connect_timeout: Duration::from_millis(100),
        backoff_base: Duration::from_millis(30),
        backoff_cap: Duration::from_millis(60),
        ..WireConfig::default()
    };
    let (node, server, remote, plane) = wire_remote("fi-breaker", wire);
    assert!(remote.raw_read(0, 8).is_ok());
    let ep = server.endpoint().clone();

    // The server dies: the first real failure opens the breaker.
    server.kill();
    drop(server);
    assert!(remote.raw_read(0, 8).is_err());
    assert_eq!(plane_counter(&plane, "wire.breaker.open"), 1);

    // Requests inside the backoff window are rejected without dialing.
    for _ in 0..3 {
        assert!(remote.raw_read(0, 8).is_err());
    }
    assert!(
        plane_counter(&plane, "wire.breaker.fail_fast") >= 3,
        "fail-fast rejections not counted"
    );

    // Past the window: a half-open probe dials (and fails again — the
    // already-open episode must not be double-counted).
    std::thread::sleep(remote.backoff_delay() + Duration::from_millis(10));
    assert!(remote.raw_read(0, 8).is_err());
    assert!(plane_counter(&plane, "wire.breaker.half_open") >= 1);
    assert_eq!(
        plane_counter(&plane, "wire.breaker.open"),
        1,
        "one outage must count as one open episode"
    );

    // The server returns; the next probe succeeds and closes the breaker.
    let server2 = MemNodeServer::spawn(node, &ep, ServerOptions::default()).unwrap();
    std::thread::sleep(remote.backoff_delay() + Duration::from_millis(10));
    assert!(remote.raw_read(0, 8).is_ok());
    assert_eq!(plane_counter(&plane, "wire.breaker.close"), 1);
    drop(server2);
}

/// The `Faults` admin RPC arms and clears the *remote* registry through
/// the wire, with the same all-or-nothing spec semantics as the local
/// API.
#[test]
fn faults_admin_rpc_arms_remote_registry() {
    let _g = faults::test_guard();
    let (_node, _server, remote, _plane) = wire_remote("fi-admin", WireConfig::default());

    let spec = format!("rpc.dispatch=err:tag={}:count=1", tag::RAW_READ);
    assert_eq!(remote.apply_faults(&spec).unwrap(), 1);
    assert!(remote.raw_read(0, 8).is_err(), "armed fault must fire once");
    assert!(remote.raw_read(0, 8).is_ok(), "count=1 must self-disarm");

    assert_eq!(remote.apply_faults("wal.fsync=delay:arg=1").unwrap(), 1);
    assert_eq!(
        faults::armed_count(),
        1,
        "server shares this process's registry"
    );
    assert_eq!(remote.apply_faults("clear").unwrap(), 0);
    assert_eq!(faults::armed_count(), 0);

    // A malformed spec is rejected atomically: an error reply, nothing
    // armed.
    assert!(remote.apply_faults("bogus.site=err").is_err());
    assert_eq!(faults::armed_count(), 0);
}

// ---------------------------------------------------------------------
// One retry contract: maintenance is as bounded as a put
// ---------------------------------------------------------------------

/// With every memnode fenced as joining no commit can bind its replicated
/// compares, so every attempt of every transaction aborts. Each public
/// entry point must then spend its retry budget — or its deadline — and
/// return the typed error, with round trips in proportion to the budget;
/// `set_watermark` and friends used to spin without either bound. The
/// scenario runs on a helper thread so a hang fails the test by timeout
/// instead of wedging the suite.
#[test]
fn maintenance_ops_share_the_retry_budget_and_deadline() {
    use minuet::core::{Error, TreeConfig};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Mutex;

    const BUDGET: usize = 200;
    let _g = faults::test_guard();
    let step = Arc::new(Mutex::new("setup"));
    let (done_tx, done_rx) = mpsc::channel();
    let at = step.clone();
    let worker = std::thread::spawn(move || {
        // Small nodes: the tree has split across both memnodes, so each
        // one's allocator chunk is warm (a chunk refill is a transaction
        // of its own, outside the failing call's attempts).
        let cfg = TreeConfig {
            max_op_retries: BUDGET,
            ..TreeConfig::small_nodes(8)
        };
        let mc = common::cluster(2, 1, cfg);
        let sin = mc.sinfonia.clone();
        let mut p = mc.proxy();
        let key = |i: u32| format!("k{i:04}").into_bytes();
        for i in 0..64 {
            p.put(0, key(i), vec![0]).unwrap();
        }
        let snap = p.create_snapshot(0).unwrap().frozen_sid;
        p.put(0, key(0), vec![1]).unwrap();
        let fence = |on: bool| {
            for id in sin.memnode_ids().collect::<Vec<_>>() {
                sin.node(id).set_joining(on).unwrap();
            }
        };

        type Call = fn(&mut minuet::core::Proxy, u64) -> Result<(), Error>;
        let calls: [(&'static str, Call); 4] = [
            ("set_watermark", |p, snap| p.set_watermark(0, snap + 1)),
            ("delete_snapshot", |p, snap| p.delete_snapshot(0, snap)),
            ("create_snapshot", |p, _| p.create_snapshot(0).map(drop)),
            ("put", |p, _| p.put(0, b"k0001".to_vec(), vec![2]).map(drop)),
        ];

        fence(true);
        for (name, call) in calls {
            *at.lock().unwrap() = name;
            let before = obs_counter(&sin, "net.round_trips");
            let err = call(&mut p, snap).unwrap_err();
            let spent = obs_counter(&sin, "net.round_trips") - before;
            assert_eq!(err, Error::TooManyRetries { attempts: BUDGET }, "{name}");
            assert!(
                spent <= 4 * BUDGET as u64,
                "{name} spent {spent} round trips on a budget of {BUDGET} attempts"
            );

            let scope = OpDeadline::after(Duration::from_millis(50)).enter();
            let start = Instant::now();
            let err = call(&mut p, snap).unwrap_err();
            drop(scope);
            assert!(
                matches!(err, Error::TooManyRetries { .. } | Error::DeadlineExceeded),
                "{name}: {err}"
            );
            assert!(start.elapsed() < Duration::from_secs(2), "{name}");
        }
        // The sweep's confirm transactions touch plain objects only, so
        // they may commit behind the fence; either way it returns.
        *at.lock().unwrap() = "gc_sweep";
        if let Err(e) = p.gc_sweep(0) {
            assert!(matches!(e, Error::TooManyRetries { .. }), "gc_sweep: {e}");
        }

        fence(false);
        for (name, call) in calls {
            *at.lock().unwrap() = name;
            call(&mut p, snap).unwrap_or_else(|e| panic!("{name} after the fence lifted: {e}"));
        }
        *at.lock().unwrap() = "gc_sweep";
        p.gc_sweep(0).unwrap();
        assert_eq!(p.get(0, b"k0001").unwrap(), Some(vec![2]));
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Err(RecvTimeoutError::Timeout) => {
            panic!("`{}` hung: no retry budget", step.lock().unwrap())
        }
        // Done, or the worker panicked (sender dropped): surface either.
        _ => worker.join().unwrap(),
    }
}
