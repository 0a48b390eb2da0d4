//! One measured run: pin → prime → set-ups → warm-up → window(s) →
//! verification → (probes) → teardown, and the metrics computed from it.

use crate::cluster::{self, Bins, Cluster, RunDirs, ServerCounters};
use crate::host::{self, CpuMeter};
use crate::json::Json;
use crate::ledger::{self, ratio, SpanLedger};
use crate::stats::{self, Better};
use crate::workloads::{class, Client, Kind, Spec};
use minuet::core::ProxyStats;
use minuet::obs::ObsPlane;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

pub const WARMUP: Duration = Duration::from_secs(2);
pub const SLICE: Duration = Duration::from_millis(500);
pub const SETUP_REPEATS: usize = 3;
/// Bytes primed per second of warm-up and window: a put touches one or
/// two fresh pages (≈4.2 kB of log, a copied or split node), and the
/// fastest put stream observed writes ≈25 MB/s.
const PRIME_BYTES_PER_S: u64 = 40 << 20;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub log_dir: Option<PathBuf>,
    pub records: u64,
}

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (`--trace 0`) or the per-layer ones
    /// (`--trace 1`): what the result line carries.
    pub metrics: Vec<Metric>,
    pub env: Json,
    /// Everything else worth reading, one line each.
    pub notes: Vec<String>,
}

/// What is done once per process, before any thread or child exists
/// besides the build: binaries, environment facts, pinning.
pub struct Host {
    pub bins: Bins,
    pub nproc: usize,
    pub cpu: usize,
    kernel: String,
    rustc: String,
    git_commit: String,
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn prepare() -> Result<Host, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".into());
    }
    let root = cluster::repo_root()?;
    // Relative run-directory paths keep the Unix socket paths short
    // whatever the checkout's own path is.
    std::env::set_current_dir(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    host::install_signal_handlers();
    let bins = cluster::build_bins(&root)?;
    let rustc = command_line(Command::new("rustc").arg("--version"));
    let git = command_line(Command::new("git").args(["rev-parse", "--short", "HEAD"]));
    // The run directory: memory-backed when the kernel lets us.
    let run_base = std::path::Path::new(cluster::RUN_BASE);
    std::fs::create_dir_all(run_base).map_err(|e| format!("{}: {e}", run_base.display()))?;
    if let Err(e) = host::private_tmpfs(run_base) {
        eprintln!(
            "scorecard: no private tmpfs over {} ({e}); the WAL goes to the checkout's own \
             filesystem and timings of writing workloads follow its fsync",
            run_base.display()
        );
    }
    let cpus = host::allowed_cpus()?;
    // The highest-numbered CPU: virtio interrupts are served by CPU 0.
    let cpu = *cpus.last().ok_or("no CPU in the affinity mask")?;
    host::pin_to(cpu)?;
    Ok(Host {
        bins,
        nproc: cpus.len(),
        cpu,
        kernel: host::kernel_release(),
        rustc: rustc.unwrap_or_else(|| "unknown".into()),
        git_commit: git.unwrap_or_else(|| "unknown".into()),
    })
}

// ---------------------------------------------------------------------
// The window
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum SliceBy {
    /// Fixed time by the client's clock.
    Time(Duration),
    /// One snapshot period of the `htap_scan` stream.
    Period,
}

struct Slice {
    /// Index one past this slice's last sample.
    end: usize,
    wall_ns: u64,
    client_cpu_ns: u64,
    memnode_cpu_ns: u64,
}

struct Window {
    /// Latency and class of every successful call, in issue order.
    lat_ns: Vec<u32>,
    cls: Vec<u8>,
    slices: Vec<Slice>,
    /// Σ RSS of the daemons when the sample point was reached.
    rss_bytes: Option<u64>,
}

struct Meters {
    client: CpuMeter,
    daemons: CpuMeter,
    daemon_pids: Vec<u32>,
}

/// When to sample the daemons' RSS: after this many successful ops, or
/// (`htap_scan`) at the end of this many periods.
#[derive(Clone, Copy)]
enum RssAt {
    Ops(u64),
    Periods(u64),
}

fn daemons_rss(pids: &[u32]) -> Result<u64, String> {
    pids.iter().map(|p| host::rss_bytes(*p)).sum()
}

/// Drives the client until `min_wall` has passed and the current slice
/// is complete. The client thread does everything itself — stamps the
/// clock, reads `schedstat` at slice boundaries — so no second thread
/// competes for the one CPU.
fn run_window(
    client: &mut Client,
    meters: &mut Meters,
    by: SliceBy,
    min_wall: Duration,
    rss_at: Option<RssAt>,
    mut traced: Option<(&ObsPlane, &mut SpanLedger)>,
    capacity: usize,
) -> Result<Window, String> {
    // Written once so the pages are mapped before the clock starts.
    let mut lat_ns = vec![1u32; capacity];
    let mut cls = vec![1u8; capacity];
    lat_ns.clear();
    cls.clear();
    let mut slices = Vec::with_capacity(128);
    let mut rss_bytes = None;

    let start = Instant::now();
    let mut slice_start = start;
    let mut cpu = (meters.client.run_ns(), meters.daemons.run_ns());
    loop {
        let step = client.step()?;
        if step.ok {
            lat_ns.push(step.ns.min(u32::MAX as u64) as u32);
            cls.push(step.class);
        }
        if let Some((plane, ledger)) = traced.as_mut() {
            if step.class == class::GET || step.class == class::PUT {
                ledger.absorb(plane.recent(1).pop());
            }
        }
        if let Some(RssAt::Ops(n)) = rss_at {
            if rss_bytes.is_none() && lat_ns.len() as u64 >= n {
                rss_bytes = Some(daemons_rss(&meters.daemon_pids)?);
            }
        }
        let now = step.end;
        let slice_over = match by {
            SliceBy::Time(len) => now - slice_start >= len,
            SliceBy::Period => step.period_end,
        };
        if !slice_over {
            continue;
        }
        let cpu_now = (meters.client.run_ns(), meters.daemons.run_ns());
        slices.push(Slice {
            end: lat_ns.len(),
            wall_ns: (now - slice_start).as_nanos() as u64,
            client_cpu_ns: cpu_now.0 - cpu.0,
            memnode_cpu_ns: cpu_now.1 - cpu.1,
        });
        if let Some(RssAt::Periods(n)) = rss_at {
            if rss_bytes.is_none() && slices.len() as u64 >= n {
                rss_bytes = Some(daemons_rss(&meters.daemon_pids)?);
            }
        }
        host::check_interrupt()?;
        if now - start >= min_wall {
            break;
        }
        // The boundary work above belongs to no slice.
        cpu = (meters.client.run_ns(), meters.daemons.run_ns());
        slice_start = Instant::now();
    }
    Ok(Window {
        lat_ns,
        cls,
        slices,
        rss_bytes,
    })
}

impl Window {
    fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    fn wall_ns(&self) -> u64 {
        self.slices.iter().map(|s| s.wall_ns).sum()
    }

    /// Ascending latencies of one class (or of all with `None`).
    fn sorted(&self, c: Option<u8>) -> Vec<u32> {
        let mut v: Vec<u32> = match c {
            None => self.lat_ns.clone(),
            Some(c) => self
                .lat_ns
                .iter()
                .zip(&self.cls)
                .filter(|(_, x)| **x == c)
                .map(|(ns, _)| *ns)
                .collect(),
        };
        v.sort_unstable();
        v
    }

    /// Fewest samples beyond the 95th percentile in any slice.
    fn min_beyond_p95(&self) -> usize {
        let ends = self.slices.iter().map(|s| s.end);
        let begins = std::iter::once(0).chain(ends.clone());
        ends.zip(begins)
            .map(|(e, b)| (e - b) / 20)
            .min()
            .unwrap_or(0)
    }

    /// Per-slice values of every time-based metric.
    fn series(&self) -> Series {
        let mut s = Series::default();
        let mut begin = 0usize;
        let mut scratch: Vec<u32> = Vec::new();
        for sl in &self.slices {
            let ops = (sl.end - begin) as f64;
            if ops > 0.0 {
                scratch.clear();
                scratch.extend_from_slice(&self.lat_ns[begin..sl.end]);
                scratch.sort_unstable();
                let busy_ns: u64 = scratch.iter().map(|n| *n as u64).sum();
                let pct = |p| stats::percentile(&scratch, p).unwrap_or(0) as f64 / 1e3;
                s.ops_s.push(ops / (sl.wall_ns as f64 / 1e9));
                s.p50_us.push(pct(50.0));
                s.p95_us.push(pct(95.0));
                s.client_cpu_us.push(sl.client_cpu_ns as f64 / 1e3 / ops);
                s.memnode_cpu_us.push(sl.memnode_cpu_ns as f64 / 1e3 / ops);
                s.call_rate.push(ops / (busy_ns as f64 / 1e9));
            }
            begin = sl.end;
        }
        s
    }
}

#[derive(Default)]
struct Series {
    ops_s: Vec<f64>,
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    client_cpu_us: Vec<f64>,
    memnode_cpu_us: Vec<f64>,
    /// Ops per second of time spent inside `Proxy` calls.
    call_rate: Vec<f64>,
}

fn best(values: &[f64], better: Better) -> f64 {
    stats::better_rank(values, better).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Counters at window boundaries
// ---------------------------------------------------------------------

struct Counters {
    round_trips: u64,
    bytes_out: u64,
    bytes_in: u64,
    cache_misses: u64,
    cache_evictions: u64,
    breaker_opens: u64,
    proxy: ProxyStats,
    snapshots: u64,
    inserts: u64,
    allocs: (u64, u64),
    steal: (u64, u64),
    daemons_rss: u64,
    server: ServerCounters,
}

impl Counters {
    /// `with_server` also polls the daemons through `minuet-stats`
    /// (a child process; only the traced run pays for it).
    fn take(
        host: &Host,
        cluster: &Cluster,
        client: &Client,
        with_server: bool,
    ) -> Result<Counters, String> {
        let snap = cluster.mc.sinfonia.obs().registry.snapshot();
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        Ok(Counters {
            round_trips: c("net.round_trips"),
            bytes_out: c("net.bytes_out"),
            bytes_in: c("net.bytes_in"),
            cache_misses: c("cache.misses"),
            cache_evictions: c("cache.evictions"),
            breaker_opens: c("wire.breaker.open"),
            proxy: client.proxy.stats,
            snapshots: cluster.mc.scs(0).snapshots_created(),
            inserts: client.inserts,
            allocs: crate::alloc::totals(),
            steal: host::cpu_jiffies(host.cpu)?,
            daemons_rss: daemons_rss(&cluster.daemons.pids())?,
            server: if with_server {
                cluster::poll_stats(&host.bins, &cluster.endpoints)?
            } else {
                ServerCounters::new()
            },
        })
    }
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct SetUp {
    cluster: Cluster,
    total_s: f64,
    bulk_s: f64,
}

fn set_up(
    host: &Host,
    dirs: &RunDirs,
    k: usize,
    spec: &Spec,
    pairs: &[(minuet::Key, minuet::Value)],
) -> Result<SetUp, String> {
    let load = pairs.to_vec();
    let t0 = Instant::now();
    let cluster = cluster::spawn_cluster(&host.bins, dirs, k, &spec.cfg)?;
    let t1 = Instant::now();
    let mut loader = cluster.mc.proxy();
    loader
        .bulk_load(0, load)
        .map_err(|e| format!("bulk_load failed: {e}"))?;
    let done = Instant::now();
    Ok(SetUp {
        cluster,
        total_s: (done - t0).as_secs_f64(),
        bulk_s: (done - t1).as_secs_f64(),
    })
}

fn end_to_end(
    setup_s: f64,
    w: &Window,
    s: &Series,
    before: &Counters,
    after: &Counters,
) -> Vec<Metric> {
    let ops = w.ops();
    vec![
        ("setup_s", setup_s, "s"),
        ("ops_s", best(&s.ops_s, Better::Higher), "1/s"),
        ("op_p50_us", best(&s.p50_us, Better::Lower), "us"),
        ("op_p95_us", best(&s.p95_us, Better::Lower), "us"),
        (
            "client_cpu_us_per_op",
            best(&s.client_cpu_us, Better::Lower),
            "us/op",
        ),
        (
            "memnode_cpu_us_per_op",
            best(&s.memnode_cpu_us, Better::Lower),
            "us/op",
        ),
        (
            "rts_per_op",
            ratio(after.round_trips - before.round_trips, ops),
            "1/op",
        ),
        (
            "wire_bytes_per_op",
            ratio(
                (after.bytes_out + after.bytes_in) - (before.bytes_out + before.bytes_in),
                ops,
            ),
            "B/op",
        ),
        (
            "memnode_rss_mb",
            w.rss_bytes.unwrap_or(after.daemons_rss) as f64 / (1 << 20) as f64,
            "MiB",
        ),
    ]
}

pub fn run(host: &Host, args: &RunArgs) -> Result<RunOutput, String> {
    let spec = Spec::new(&args.workload, args.records)?;
    let window_len = Duration::from_secs(args.seconds);
    let mut notes = Vec::new();

    let dirs = RunDirs::create(spec.name, args.log_dir.as_deref())?;
    let log_dir_fs = host::fs_type(dirs.wal_base());

    // Prime: hand the guest the pages the run will first-touch.
    let want = PRIME_BYTES_PER_S * (WARMUP.as_secs() + args.seconds);
    let prime_bytes = want.min(host::mem_available_bytes()? / 4);
    let fresh_page_us = host::prime(prime_bytes as usize);
    host::check_interrupt()?;

    // Set up three times; the last cluster is the one measured.
    let pairs = spec.load_pairs(args.seed);
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            drop(previous);
            dirs.remove_setup(k - 1);
        }
        let s = set_up(host, &dirs, k, &spec, &pairs)?;
        setups.push((s.total_s, s.bulk_s));
        kept = Some(s.cluster);
        host::check_interrupt()?;
    }
    let cluster = kept.expect("SETUP_REPEATS is at least one");
    let setup_s = stats::median(&mut setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let bulk_s = stats::median(&mut setups.iter().map(|s| s.1).collect::<Vec<_>>());

    let mut client = Client::new(&spec, &cluster.mc, &pairs, args.seed);
    drop(pairs);
    let daemon_pids = cluster.daemons.pids();
    let mut meters = Meters {
        client: CpuMeter::open(&[std::process::id()])?,
        daemons: CpuMeter::open(&daemon_pids)?,
        daemon_pids,
    };
    let tasks_before = (meters.client.tasks(), meters.daemons.tasks());
    let by = match spec.kind {
        Kind::HtapScan => SliceBy::Period,
        _ => SliceBy::Time(SLICE),
    };

    // Warm-up: fills the caches and sizes the sample buffers.
    let warm = run_window(&mut client, &mut meters, by, WARMUP, None, None, 1 << 16)?;
    let rate = warm.ops() as f64 / (warm.wall_ns() as f64 / 1e9);
    let capacity = |len: Duration| (rate * len.as_secs_f64() * 1.5) as usize + (1 << 16);
    drop(warm);

    // With --trace 1 the window is halved: an untraced half that every
    // counter and timing below comes from, then a traced half that only
    // feeds the span ledger.
    let measured_len = if args.trace {
        window_len / 2
    } else {
        window_len
    };
    let rss_at = match spec.kind {
        Kind::HtapScan => RssAt::Periods((measured_len.as_secs() / 10).max(1)),
        _ => RssAt::Ops(spec.rss_ops_per_window_s * measured_len.as_secs().max(1)),
    };
    client.count_allocs = args.trace;
    let before = Counters::take(host, &cluster, &client, args.trace)?;
    let w = run_window(
        &mut client,
        &mut meters,
        by,
        measured_len,
        Some(rss_at),
        None,
        capacity(measured_len),
    )?;
    let after = Counters::take(host, &cluster, &client, args.trace)?;
    client.count_allocs = false;
    let series = w.series();
    if w.rss_bytes.is_none() {
        notes
            .push("note: the RSS sample point was not reached; sampled at the window's end".into());
    }

    let e2e = end_to_end(setup_s, &w, &series, &before, &after);
    let mut per_layer: Vec<Metric> = Vec::new();
    if args.trace {
        let mut spans = SpanLedger::default();
        let plane = cluster.mc.sinfonia.obs().clone();
        plane.set_sampling(1);
        let traced = run_window(
            &mut client,
            &mut meters,
            by,
            window_len - measured_len,
            None,
            Some((&plane, &mut spans)),
            capacity(window_len - measured_len),
        );
        plane.set_sampling(0);
        let traced = traced?;
        spans.check_tiling()?;
        notes.push(format!(
            "traced half: {} ops, {} traces absorbed, {} spans dropped",
            traced.ops(),
            spans.traced_ops(),
            spans.dropped_spans()
        ));
        let traced_series = traced.series();
        window_metrics(
            &spec,
            &w,
            &series,
            &before,
            &after,
            &mut per_layer,
            &mut notes,
        );
        per_layer.push(("host.fresh_page_us", fresh_page_us, "us"));
        per_layer.push(("core.bulk_load_keys_s", spec.records as f64 / bulk_s, "1/s"));
        per_layer.push((
            "obs.trace_overhead_ratio",
            best(&series.call_rate, Better::Higher)
                / best(&traced_series.call_rate, Better::Higher).max(f64::MIN_POSITIVE),
            "ratio",
        ));
        spans.metrics(&mut per_layer);
    }

    // The thread sets must not have changed under the meters.
    let tasks_after = (
        CpuMeter::open(&[std::process::id()])?.tasks(),
        CpuMeter::open(&meters.daemon_pids)?.tasks(),
    );
    if tasks_after != tasks_before {
        notes.push(format!(
            "note: thread sets changed during the run (client, daemons): {tasks_before:?} -> {tasks_after:?}"
        ));
    }

    // Verification outside the window, then the probes (they write).
    let read_back = client.verify_readback()?;
    notes.push(format!(
        "verified: every put and scan and 1 in {} gets against the model in-window; \
         {read_back} keys read back through a fresh proxy",
        spec.get_check_every
    ));
    if args.trace {
        ledger::run_probes(&spec, &cluster, &mut client, args.seed, &mut per_layer)?;
    }

    let env = Json::obj(vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("records", Json::Num(spec.records as f64)),
        ("nproc", Json::Num(host.nproc as f64)),
        ("cpu", Json::Num(host.cpu as f64)),
        ("kernel", Json::str(&host.kernel)),
        ("rustc", Json::str(&host.rustc)),
        ("git_commit", Json::str(&host.git_commit)),
        ("log_dir_fs", Json::str(log_dir_fs)),
        ("window_s", Json::Num(w.wall_ns() as f64 / 1e9)),
        ("warmup_s", Json::Num(WARMUP.as_secs_f64())),
        (
            "slice_s",
            Json::Num(w.wall_ns() as f64 / 1e9 / w.slices.len() as f64),
        ),
        ("slices", Json::Num(w.slices.len() as f64)),
        ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
        ("prime_mb", Json::Num((prime_bytes >> 20) as f64)),
        ("fresh_page_us", Json::Num(fresh_page_us)),
    ]);
    notes.push(format!(
        "set-ups: {}",
        setups
            .iter()
            .map(|(t, b)| format!("{t:.3} s ({b:.3} s bulk_load)"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "ops/s by slice: {}",
        series
            .ops_s
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if w.min_beyond_p95() < 50 {
        notes.push(format!(
            "note: a slice has only {} samples beyond its 95th percentile (50 wanted)",
            w.min_beyond_p95()
        ));
    }

    let metrics = if args.trace {
        for (name, value, unit) in &e2e {
            notes.push(format!("untraced half: {name:<24} {value:>14.4} {unit}"));
        }
        per_layer
    } else {
        e2e
    };
    Ok(RunOutput {
        attempted: client.attempted,
        failed: client.failed,
        metrics,
        env,
        notes,
    })
    // `client`, then `cluster` (connections, daemons), then `dirs` drop
    // here, in that order, as on every early return above.
}

/// The `[t]` and `[c]` per-layer metrics of the untraced half, and the
/// lines that show each workload exercises what it was chosen for.
fn window_metrics(
    spec: &Spec,
    w: &Window,
    s: &Series,
    before: &Counters,
    after: &Counters,
    out: &mut Vec<Metric>,
    notes: &mut Vec<String>,
) {
    let ops = w.ops();
    let wall_ns = w.wall_ns();
    let all = w.sorted(None);
    let busy_ns: u64 = all.iter().map(|n| *n as u64).sum();
    let pct_us = |v: &[u32], p: f64| stats::percentile(v, p).unwrap_or(0) as f64 / 1e3;
    let reported = best(&s.ops_s, Better::Higher);
    let slow = s.ops_s.iter().filter(|v| **v < 0.8 * reported).count();

    out.extend([
        (
            "workload.generator_busy_ratio",
            1.0 - busy_ns as f64 / wall_ns as f64,
            "ratio",
        ),
        (
            "window.ops_s_median_slice",
            stats::median(&mut s.ops_s.clone()),
            "1/s",
        ),
        (
            "window.slow_slice_ratio",
            slow as f64 / s.ops_s.len().max(1) as f64,
            "ratio",
        ),
        ("window.op_p99_us", pct_us(&all, 99.0), "us"),
        ("window.op_p999_us", pct_us(&all, 99.9), "us"),
        (
            "host.steal_ratio",
            ratio(
                after.steal.0 - before.steal.0,
                after.steal.1 - before.steal.1,
            ),
            "ratio",
        ),
    ]);

    let gets = w.sorted(Some(class::GET));
    let puts = w.sorted(Some(class::PUT));
    let scans = w.sorted(Some(class::SCAN));
    let snaps = w.sorted(Some(class::SNAPSHOT));
    let scan_ns: u64 = scans.iter().map(|n| *n as u64).sum();
    out.extend([
        ("core.get_p50_us", pct_us(&gets, 50.0), "us"),
        ("core.get_p95_us", pct_us(&gets, 95.0), "us"),
        ("core.put_p50_us", pct_us(&puts, 50.0), "us"),
        ("core.put_p95_us", pct_us(&puts, 95.0), "us"),
        ("core.scan_p50_us", pct_us(&scans, 50.0), "us"),
        ("core.scan_p95_us", pct_us(&scans, 95.0), "us"),
        (
            "core.scan_keys_s",
            if scan_ns == 0 {
                0.0
            } else {
                // Every scan away from the key-space end returns its limit.
                scans.len() as f64 * crate::workloads::HTAP_SCAN_LEN as f64 / (scan_ns as f64 / 1e9)
            },
            "1/s",
        ),
        ("core.snapshot_create_us", pct_us(&snaps, 50.0), "us"),
    ]);

    let n_puts = puts.len() as u64;
    let (p0, p1) = (&before.proxy, &after.proxy);
    let leaf_hits = p1.leaf_cache_hits - p0.leaf_cache_hits;
    let leaf_misses = p1.leaf_cache_misses - p0.leaf_cache_misses;
    let retries = p1.retries - p0.retries;
    out.extend([
        (
            "core.leaf_cache_hit_ratio",
            ratio(leaf_hits, leaf_hits + leaf_misses),
            "ratio",
        ),
        (
            "core.node_cache_evictions_per_op",
            ratio(after.cache_evictions - before.cache_evictions, ops),
            "1/op",
        ),
        ("core.retries_per_op", ratio(retries, ops), "1/op"),
        (
            "core.splits_per_insert",
            ratio(p1.splits - p0.splits, after.inserts - before.inserts),
            "1/insert",
        ),
        (
            "core.cow_copies_per_put",
            ratio(p1.cow_copies - p0.cow_copies, n_puts),
            "1/put",
        ),
        (
            "core.snapshots_created",
            (after.snapshots - before.snapshots) as f64,
            "count",
        ),
        (
            "dyntx.fetches_per_op",
            ratio(after.cache_misses - before.cache_misses, ops),
            "1/op",
        ),
        (
            "dyntx.validation_abort_ratio",
            ratio(p1.retries_validation - p0.retries_validation, ops + retries),
            "ratio",
        ),
        (
            "sinfonia.bytes_out_per_op",
            ratio(after.bytes_out - before.bytes_out, ops),
            "B/op",
        ),
        (
            "sinfonia.bytes_in_per_op",
            ratio(after.bytes_in - before.bytes_in, ops),
            "B/op",
        ),
        (
            "sinfonia.breaker_opens",
            (after.breaker_opens - before.breaker_opens) as f64,
            "count",
        ),
    ]);

    // Server side: deltas of the daemons' own counters, as printed by
    // minuet-stats. A name the dashboard no longer prints reads as 0.
    let srv = |name: &str| {
        let get = |c: &ServerCounters| c.get(name).copied().unwrap_or(0);
        get(&after.server).saturating_sub(get(&before.server))
    };
    let read_fast = srv("memnode.read_fastpath");
    let write_fast = srv("memnode.write_fastpath");
    out.extend([
        (
            "memnoded.read_fastpath_ratio",
            ratio(read_fast, read_fast + srv("memnode.read_fastpath_misses")),
            "ratio",
        ),
        (
            "memnoded.write_fastpath_ratio",
            ratio(
                write_fast,
                write_fast + srv("memnode.write_fastpath_misses"),
            ),
            "ratio",
        ),
        (
            "memnoded.busy_per_op",
            ratio(srv("memnode.busy"), ops),
            "1/op",
        ),
        (
            "memnoded.prepares_per_op",
            ratio(srv("memnode.prepares"), ops),
            "1/op",
        ),
        (
            "memnoded.aborts_per_op",
            ratio(srv("memnode.aborts"), ops),
            "1/op",
        ),
        (
            "memnoded.fsyncs_per_write",
            ratio(srv("wal.fsyncs"), n_puts),
            "1/put",
        ),
        (
            "memnoded.wal_bytes_per_write",
            ratio(srv("wal.bytes"), n_puts),
            "B/put",
        ),
        (
            "memnoded.wal_retained_mb",
            after.server.get("wal_line.retained").copied().unwrap_or(0) as f64 / (1 << 20) as f64,
            "MiB",
        ),
        (
            "memnoded.rss_kb_per_write",
            ratio(after.daemons_rss.saturating_sub(before.daemons_rss), n_puts) / 1024.0,
            "KiB/put",
        ),
        (
            "client.allocs_per_op",
            ratio(after.allocs.0 - before.allocs.0, ops),
            "1/op",
        ),
        (
            "client.alloc_bytes_per_op",
            ratio(after.allocs.1 - before.allocs.1, ops),
            "B/op",
        ),
        (
            "client.rss_mb",
            host::rss_bytes(std::process::id()).unwrap_or(0) as f64 / (1 << 20) as f64,
            "MiB",
        ),
    ]);

    // Each percentile should sit inside one mode, not on a boundary.
    let p50 = stats::percentile(&all, 50.0).unwrap_or(0);
    let p95 = stats::percentile(&all, 95.0).unwrap_or(0);
    let share = |pred: &dyn Fn(u32) -> bool, c: u8| {
        let (mut n, mut of) = (0u64, 0u64);
        for (ns, x) in w.lat_ns.iter().zip(&w.cls) {
            if pred(*ns) {
                of += 1;
                n += (*x == c) as u64;
            }
        }
        ratio(n, of)
    };
    match spec.kind {
        Kind::GetHot => {}
        Kind::RwCold => notes.push(format!(
            "modes: {:.1} % of the calls faster than the merged p50 are gets",
            100.0 * share(&|ns| ns < p50, class::GET)
        )),
        Kind::HtapScan => notes.push(format!(
            "modes: {:.1} % of the calls faster than the merged p50 are puts, \
             {:.1} % of those slower than the merged p95 are scans",
            100.0 * share(&|ns| ns < p50, class::PUT),
            100.0 * share(&|ns| ns > p95, class::SCAN)
        )),
    }
}
