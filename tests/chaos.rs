//! Seeded chaos harness: a deterministic nemesis drives the fault plane
//! while concurrent workers hammer the tree, then the run quiesces,
//! heals, and model-checks the survivors.
//!
//! Every run is parameterized by one u64 seed. The seed is printed at
//! the start of each run and again on failure, and `MINUET_CHAOS_SEED`
//! replays any run exactly (same nemesis schedule, same workload
//! choices). CI pins three seeds on both transports plus one
//! randomized smoke whose seed comes from the clock.
//!
//! The model is per-key sequential: each worker owns a disjoint key
//! range, and each op on a key carries a monotonically increasing
//! sequence number. After the storm:
//!
//! - the final state of every key must equal `state_at(j)` for some
//!   `j >= floor`, where `floor` is the last *acknowledged* (or
//!   observed-committed) op — acked writes never vanish, unacked ops
//!   may land either way, nothing else is admissible;
//! - a post-chaos write to every key must succeed (the system healed);
//! - a frozen snapshot must scan identically twice, sorted and
//!   duplicate-free;
//! - a full power-cycle from disk must preserve every acked write.
//!
//! Ops optionally run under an [`OpDeadline`]; such ops must resolve
//! (success or typed error) within deadline + slack — a hang under a
//! fault storm is a failed run, not a stuck CI job.

mod common;

use minuet::core::{Error, MinuetCluster, TreeConfig};
use minuet::faults::{self, Action, Arm, Site};
use minuet::sinfonia::{MemNodeId, OpDeadline, SyncMode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max scheduling slack an op under a deadline may add before we call it
/// a hang. Generous: injected delays, fsyncs, and crash recovery all sit
/// inside attempts that only check the deadline at retry boundaries.
const DEADLINE_SLACK: Duration = Duration::from_secs(3);

// ---------------------------------------------------------------------
// Deterministic PRNG (SplitMix64): the whole run derives from one seed.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The seed to run under: `MINUET_CHAOS_SEED` wins, else the fallback.
fn chaos_seed(fallback: u64) -> u64 {
    match std::env::var("MINUET_CHAOS_SEED") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("MINUET_CHAOS_SEED={s}: not a u64")),
        Err(_) => fallback,
    }
}

/// Prints the replay line when the run panics, whatever the panic was.
struct SeedBanner(u64);

impl Drop for SeedBanner {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "chaos run FAILED — replay with MINUET_CHAOS_SEED={} \
                 (and the same MINUET_TRANSPORT)",
                self.0
            );
        }
    }
}

// ---------------------------------------------------------------------
// Per-key model
// ---------------------------------------------------------------------

/// The sequential op log of one key. Op `i` (1-based) wrote value `i`
/// (`true`) or removed the key (`false`). `floor` is the latest op known
/// to have committed: the last acked op, or a later one observed by a
/// successful read.
#[derive(Default, Clone)]
struct KeyLog {
    ops: Vec<bool>,
    floor: usize,
}

impl KeyLog {
    /// State after op `j` (0 = initial, absent).
    fn state_at(&self, j: usize) -> Option<u64> {
        if j == 0 || !self.ops[j - 1] {
            None
        } else {
            Some(j as u64)
        }
    }

    /// Checks an observed value against every admissible state, and
    /// returns the op index it proves committed (to raise the floor).
    fn check(&self, observed: &Option<u64>) -> Result<usize, String> {
        for j in self.floor..=self.ops.len() {
            if self.state_at(j) == *observed {
                return Ok(j);
            }
        }
        Err(format!(
            "observed {observed:?}, but ops {}..={} admit none of it (floor={}, issued={})",
            self.floor,
            self.ops.len(),
            self.floor,
            self.ops.len(),
        ))
    }
}

fn key_bytes(worker: usize, k: u64) -> Vec<u8> {
    format!("w{worker}k{k:04}").into_bytes()
}

fn decode_val(v: &[u8]) -> u64 {
    u64::from_le_bytes(v.try_into().expect("chaos values are 8-byte seqs"))
}

/// True for errors a fault storm may legally produce; anything else is a
/// bug the chaos run just found.
fn storm_error_ok(e: &Error) -> bool {
    matches!(
        e,
        Error::Unavailable(_) | Error::DeadlineExceeded | Error::TooManyRetries { .. }
    )
}

// ---------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------

struct WorkerReport {
    logs: Vec<KeyLog>,
    acked: u64,
    maybes: u64,
    deadline_hits: u64,
}

#[allow(clippy::needless_range_loop)]
fn worker(
    mc: Arc<MinuetCluster>,
    id: usize,
    keys: u64,
    seed: u64,
    stop: Arc<AtomicBool>,
) -> WorkerReport {
    let mut p = mc.proxy();
    let mut rng = Rng::new(seed ^ (0xA11C_E000 + id as u64));
    // Every key was preloaded with seq 1 before the storm began.
    let mut logs = vec![
        KeyLog {
            ops: vec![true],
            floor: 1,
        };
        keys as usize
    ];
    let mut report = WorkerReport {
        logs: Vec::new(),
        acked: 0,
        maybes: 0,
        deadline_hits: 0,
    };
    while !stop.load(Ordering::Relaxed) {
        let ki = rng.below(keys) as usize;
        let key = key_bytes(id, ki as u64);
        let budget = rng
            .chance(30)
            .then(|| Duration::from_millis(40 + rng.below(200)));
        let roll = rng.below(100);
        let start = Instant::now();
        let scope = budget.map(|b| OpDeadline::after(b).enter());
        if roll < 70 {
            // Put (or remove, 1 in 5): issue the op into the log first —
            // a failed attempt may still have committed.
            let is_put = roll < 56;
            logs[ki].ops.push(is_put);
            let seq = logs[ki].ops.len();
            let res = if is_put {
                p.put(0, key.clone(), (seq as u64).to_le_bytes().to_vec())
            } else {
                p.remove(0, &key)
            };
            match res {
                Ok(_) => {
                    logs[ki].floor = seq;
                    report.acked += 1;
                }
                Err(e) if storm_error_ok(&e) => {
                    report.maybes += 1;
                    if matches!(e, Error::DeadlineExceeded) {
                        report.deadline_hits += 1;
                    }
                }
                Err(e) => panic!("worker {id} key {ki}: unexpected op error {e}"),
            }
        } else {
            match p.get(0, &key) {
                Ok(v) => {
                    let observed = v.as_deref().map(decode_val);
                    match logs[ki].check(&observed) {
                        Ok(j) => logs[ki].floor = logs[ki].floor.max(j),
                        Err(msg) => panic!("worker {id} key {ki}: mid-run read: {msg}"),
                    }
                }
                Err(e) if storm_error_ok(&e) => {
                    if matches!(e, Error::DeadlineExceeded) {
                        report.deadline_hits += 1;
                    }
                }
                Err(e) => panic!("worker {id} key {ki}: unexpected read error {e}"),
            }
        }
        drop(scope);
        if let Some(b) = budget {
            let elapsed = start.elapsed();
            assert!(
                elapsed <= b + DEADLINE_SLACK,
                "worker {id} key {ki}: op with {b:?} deadline took {elapsed:?} — hang under faults"
            );
        }
    }
    report.logs = logs;
    report
}

// ---------------------------------------------------------------------
// Nemesis
// ---------------------------------------------------------------------

/// The menu of (site, action) bursts the nemesis draws from. It is the
/// same on both transports: an in-process exchange runs the client's
/// frame send and receive and the server's per-frame step too, so every
/// `wire.*` and `rpc.dispatch` site fires there as over a socket. It arms
/// no `Panic`: a handler panic is counted, and must stay at zero.
fn fault_menu() -> Vec<(Site, Action)> {
    vec![
        (Site::WalAppend, Action::Err),
        (Site::WalAppend, Action::NoSpace),
        (Site::WalAppend, Action::ShortWrite(5)),
        (Site::WalFsync, Action::Err),
        (Site::WalFsync, Action::Delay(Duration::from_millis(4))),
        (Site::WalTruncate, Action::Err),
        (Site::CkptWrite, Action::NoSpace),
        (Site::CkptRename, Action::Err),
        (Site::ReplFetch, Action::Err),
        (Site::ReplApply, Action::Err),
        (Site::WireClientSend, Action::Drop),
        (Site::WireClientSend, Action::SeverAfter(7)),
        (Site::WireClientSend, Action::Corrupt),
        (Site::WireClientRecv, Action::Err),
        (Site::WireServerSend, Action::Corrupt),
        (Site::WireServerSend, Action::SeverAfter(9)),
        (Site::WireServerRecv, Action::Drop),
        (Site::RpcDispatch, Action::Err),
        (Site::RpcDispatch, Action::Delay(Duration::from_millis(3))),
        (Site::RpcDispatch, Action::Duplicate),
    ]
}

/// Arms random bounded fault bursts and crash/recovers random memnodes
/// until `stop`; disarms everything and heals every node on the way out.
fn nemesis(mc: Arc<MinuetCluster>, n_mems: u16, seed: u64, stop: Arc<AtomicBool>) {
    let mut rng = Rng::new(seed ^ 0x4E4D_E515);
    let menu = fault_menu();
    while !stop.load(Ordering::Relaxed) {
        match rng.below(10) {
            // Fault burst: a bounded schedule that self-disarms, then an
            // explicit disarm in case nothing tripped it.
            0..=5 => {
                let picks = 1 + rng.below(2);
                for _ in 0..picks {
                    let (site, action) = menu[rng.below(menu.len() as u64) as usize];
                    let arm = Arm::new(action)
                        .times(1 + rng.below(3) as u32)
                        .after(rng.below(3) as u32);
                    faults::arm(site, arm);
                }
                std::thread::sleep(Duration::from_millis(10 + rng.below(30)));
                faults::disarm_all();
            }
            // Crash a node, leave it dark briefly, recover it.
            6 | 7 => {
                let id = MemNodeId(rng.below(n_mems as u64) as u16);
                mc.sinfonia.crash(id);
                std::thread::sleep(Duration::from_millis(5 + rng.below(25)));
                mc.sinfonia.recover(id);
            }
            // Whole-node power blip: crash+recover back to back.
            8 => {
                let id = MemNodeId(rng.below(n_mems as u64) as u16);
                mc.sinfonia.crash_and_recover(id);
            }
            // Calm window: let the workers make progress.
            _ => std::thread::sleep(Duration::from_millis(10 + rng.below(20))),
        }
    }
    faults::disarm_all();
    // Heal: recover every node so degraded WALs and crash latches clear.
    for i in 0..n_mems {
        mc.sinfonia.crash_and_recover(MemNodeId(i));
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct ChaosOpts {
    workers: usize,
    keys_per_worker: u64,
    run_ms: u64,
    restart_check: bool,
}

impl Default for ChaosOpts {
    fn default() -> ChaosOpts {
        ChaosOpts {
            workers: 3,
            keys_per_worker: 10,
            run_ms: 700,
            restart_check: true,
        }
    }
}

fn chaos_run(seed: u64, opts: ChaosOpts) {
    let _g = faults::test_guard();
    let _banner = SeedBanner(seed);
    println!("chaos seed {seed} (replay: MINUET_CHAOS_SEED={seed})");

    let n_mems = 3usize;
    let (mut h, mc) = common::DurableHarness::create(
        &format!("chaos-{seed:x}"),
        n_mems,
        1,
        TreeConfig::small_nodes(8),
        SyncMode::Sync,
    );

    // Preload every key (seq 1) before the storm so the tree has shape.
    {
        let mut p = mc.proxy();
        for w in 0..opts.workers {
            for k in 0..opts.keys_per_worker {
                p.put(0, key_bytes(w, k), 1u64.to_le_bytes().to_vec())
                    .expect("preload put");
            }
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for w in 0..opts.workers {
        let (mc, stop) = (mc.clone(), stop.clone());
        let keys = opts.keys_per_worker;
        handles.push(
            std::thread::Builder::new()
                .name(format!("chaos-worker-{w}"))
                .spawn(move || worker(mc, w, keys, seed, stop))
                .unwrap(),
        );
    }
    let nemesis_handle = {
        let (mc, stop) = (mc.clone(), stop.clone());
        std::thread::Builder::new()
            .name("chaos-nemesis".into())
            .spawn(move || nemesis(mc, n_mems as u16, seed, stop))
            .unwrap()
    };

    std::thread::sleep(Duration::from_millis(opts.run_ms));
    stop.store(true, Ordering::Relaxed);
    nemesis_handle.join().expect("nemesis panicked");
    faults::disarm_all();

    let mut acked = 0u64;
    let mut maybes = 0u64;
    let mut deadline_hits = 0u64;
    let mut logs: HashMap<(usize, u64), KeyLog> = HashMap::new();
    for (w, h) in handles.into_iter().enumerate() {
        let report = h.join().expect("worker panicked");
        acked += report.acked;
        maybes += report.maybes;
        deadline_hits += report.deadline_hits;
        for (k, log) in report.logs.into_iter().enumerate() {
            logs.insert((w, k as u64), log);
        }
    }
    println!("chaos seed {seed}: acked={acked} maybes={maybes} deadline_hits={deadline_hits}");
    assert!(acked > 0, "storm was so violent nothing ever committed");

    // ---- model check on the healed, live cluster -------------------
    let mut p = mc.proxy();
    for ((w, k), log) in &mut logs {
        let key = key_bytes(*w, *k);
        let got = p
            .get(0, &key)
            .unwrap_or_else(|e| panic!("post-chaos read w{w}k{k}: {e}"))
            .as_deref()
            .map(decode_val);
        match log.check(&got) {
            Ok(j) => log.floor = log.floor.max(j),
            Err(msg) => panic!("post-chaos key w{w}k{k}: {msg}"),
        }
    }

    // ---- the system healed: a write to every key must succeed ------
    for ((w, k), log) in &mut logs {
        log.ops.push(true);
        let seq = log.ops.len();
        p.put(0, key_bytes(*w, *k), (seq as u64).to_le_bytes().to_vec())
            .unwrap_or_else(|e| panic!("post-chaos write w{w}k{k}: {e}"));
        log.floor = seq;
    }

    // ---- snapshot consistency --------------------------------------
    let snap = p.create_snapshot(0).expect("post-chaos snapshot");
    let s1 = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    let s2 = p.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(s1, s2, "frozen snapshot scanned differently twice");
    assert!(
        s1.windows(2).all(|w| w[0].0 < w[1].0),
        "snapshot scan not sorted/unique"
    );
    assert_eq!(
        s1.len(),
        logs.len(),
        "snapshot after the final writes must hold every key"
    );
    for (key, val) in &s1 {
        let ks = String::from_utf8_lossy(key);
        let (w, k) = ks[1..]
            .split_once('k')
            .map(|(w, k)| (w.parse().unwrap(), k.parse().unwrap()))
            .expect("chaos key shape");
        let log = &logs[&(w, k)];
        assert_eq!(
            decode_val(val),
            log.ops.len() as u64,
            "snapshot value for w{w}k{k} is not the final acked write"
        );
    }

    // ---- no request handler panicked --------------------------------
    // A handler panic reaches a worker only as an indeterminate
    // `Unavailable`, which the model admits: the server's count is the
    // one place it shows.
    for i in 0..n_mems {
        let snap = mc.sinfonia.node(MemNodeId(i as u16)).obs_snapshot();
        let panics = snap.map(|s| s.counter("memnode.handler_panics"));
        assert_eq!(
            panics,
            Ok(Some(0)),
            "memnode {i}: a request handler panicked"
        );
    }

    // ---- power-cycle: every acked write survives a restart ---------
    drop(p);
    drop(mc);
    if opts.restart_check {
        let (mc2, _res) = h.restart();
        let mut p2 = mc2.proxy();
        for ((w, k), log) in &logs {
            let got = p2
                .get(0, &key_bytes(*w, *k))
                .unwrap_or_else(|e| panic!("post-restart read w{w}k{k}: {e}"))
                .as_deref()
                .map(decode_val);
            if let Err(msg) = log.check(&got) {
                panic!("post-restart key w{w}k{k}: {msg}");
            }
        }
        drop(p2);
        drop(mc2);
    }
    h.cleanup();
}

// ---------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------

#[test]
fn chaos_fixed_seed_1() {
    chaos_run(chaos_seed(0xC0A5_0001), ChaosOpts::default());
}

#[test]
fn chaos_fixed_seed_2() {
    chaos_run(chaos_seed(0xC0A5_0002), ChaosOpts::default());
}

#[test]
fn chaos_fixed_seed_3() {
    chaos_run(chaos_seed(0xC0A5_0003), ChaosOpts::default());
}

/// A fresh seed every run (the clock, unless `MINUET_CHAOS_SEED` pins
/// it). Shorter than the fixed-seed runs; its job is to keep exploring
/// schedules CI has never seen, printing the seed for replay.
#[test]
fn chaos_randomized_smoke() {
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0xDEAD_BEEF);
    chaos_run(
        chaos_seed(clock),
        ChaosOpts {
            run_ms: 400,
            restart_check: false,
            ..ChaosOpts::default()
        },
    );
}

/// Replication under chaos: a durable primary streams its WAL to a
/// follower cluster while the nemesis injects repl-site faults and
/// repeatedly flips the follower's pull threads (stop + respawn — the
/// durable watermark is the cursor, so a flipped follower must resume
/// with no gaps and no double-applies). After the storm the follower
/// must converge to byte-equality with the primary.
#[test]
fn chaos_follower_flips_converge() {
    use minuet::sinfonia::{
        ClusterConfig, DurabilityConfig, ItemRange, Minitransaction, ReplConfig, Replicator,
        SinfoniaCluster,
    };

    let _g = faults::test_guard();
    let seed = chaos_seed(0xF011_0AE5);
    let _banner = SeedBanner(seed);
    println!("chaos seed {seed} (replay: MINUET_CHAOS_SEED={seed})");

    const CAPACITY: u64 = 1 << 20;
    const SLOTS: u64 = 200;
    let durable = |tag: &str| {
        let d = DurabilityConfig::ephemeral(tag, SyncMode::Async);
        let dir = d.dir.clone().unwrap();
        let c = SinfoniaCluster::new(ClusterConfig {
            memnodes: 2,
            capacity_per_node: CAPACITY,
            durability: d,
            ..Default::default()
        });
        (dir, c)
    };
    let (pdir, primary) = durable(&format!("chaos-repl-src-{seed:x}"));
    let (fdir, follower) = durable(&format!("chaos-repl-dst-{seed:x}"));
    let mut repl = Some(Replicator::spawn(
        &primary,
        &follower,
        ReplConfig::default(),
    ));

    let mut rng = Rng::new(seed);
    for i in 0..SLOTS {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId((i % 2) as u16), (i / 2) * 8, 8),
            i.to_le_bytes().to_vec(),
        );
        assert!(primary.execute(&m).unwrap().committed());

        // Nemesis, inline with the writer: repl-site fault bursts and
        // follower flips at random points in the stream.
        if rng.chance(12) {
            let site = if rng.chance(50) {
                Site::ReplFetch
            } else {
                Site::ReplApply
            };
            let action = if rng.chance(60) {
                Action::Err
            } else {
                Action::Delay(Duration::from_millis(1 + rng.below(3)))
            };
            faults::arm(site, Arm::new(action).times(1 + rng.below(4) as u32));
        }
        if rng.chance(6) {
            // Flip: kill the pull threads, respawn them cold. The new
            // puller reads the follower's durable watermark and resumes.
            if let Some(mut r) = repl.take() {
                r.stop();
            }
            repl = Some(Replicator::spawn(
                &primary,
                &follower,
                ReplConfig::default(),
            ));
        }
        if rng.chance(30) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    faults::disarm_all();

    let token = primary.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(20)),
        "follower never converged to {token:?}; at {:?}",
        follower.repl_statuses()
    );
    for i in 0..SLOTS {
        let node = MemNodeId((i % 2) as u16);
        assert_eq!(
            follower.node(node).raw_read((i / 2) * 8, 8).unwrap(),
            i.to_le_bytes().to_vec(),
            "slot {i} diverged on the follower"
        );
    }
    if let Some(mut r) = repl.take() {
        r.stop();
    }
    let _ = std::fs::remove_dir_all(pdir);
    let _ = std::fs::remove_dir_all(fdir);
}
