//! Benchmark drivers: closed loop (the YCSB client model) and open loop
//! (fixed arrival rate).
//!
//! **Closed loop** ([`run_closed_loop`]): `threads` workers each own a
//! connection to the system under test and issue operations back-to-back.
//! Latency is the measured wall time of each operation. Aggregate
//! throughput is ops / measured window, optionally bucketed into fixed
//! windows for time-series plots (Fig. 14).
//!
//! **Open loop** ([`run_open_loop`]): requests arrive on a fixed schedule
//! regardless of completion, the standard methodology for measuring
//! latency *versus offered load*. Each arrival is a batch of
//! [`WorkloadSpec::batch_size`] operations; latency is measured from the
//! request's **scheduled arrival time** to completion, so queueing delay
//! from a saturated system shows up in the percentiles (closed-loop
//! drivers hide it by throttling arrivals — the coordinated-omission
//! trap). When the system cannot keep up, the backlog at the deadline is
//! reported alongside the achieved throughput.

use crate::hist::{Histogram, LatencySummary};
use crate::spec::{OpGenerator, OpKind, Operation, SharedState, WorkloadSpec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Closed-loop worker threads.
    pub threads: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Unrecorded warmup before measurement.
    pub warmup: Duration,
    /// If set, also report ops per window of this size.
    pub window: Option<Duration>,
}

impl RunConfig {
    /// A config with the given threads and duration, no warmup.
    pub fn new(threads: usize, duration: Duration) -> Self {
        RunConfig {
            threads,
            duration,
            warmup: Duration::ZERO,
            window: None,
        }
    }

    /// Adds a warmup phase.
    pub fn with_warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Enables time-series windows.
    pub fn with_window(mut self, window: Duration) -> Self {
        self.window = Some(window);
        self
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Measured wall time.
    pub elapsed: Duration,
    /// Operations completed in the measured window.
    pub ops: u64,
    /// Operations per second.
    pub throughput: f64,
    /// Latency over all operations.
    pub latency: LatencySummary,
    /// Per-class latency.
    pub per_kind: Vec<(OpKind, LatencySummary)>,
    /// Ops per time window (empty unless windows enabled).
    pub windows: Vec<u64>,
}

struct WorkerResult {
    all: Histogram,
    per_kind: [(OpKind, Histogram); 4],
    ops: u64,
}

/// Runs the workload closed-loop. `make_worker(thread_idx)` builds each
/// worker's connection: a closure executing one [`Operation`].
pub fn run_closed_loop<C, F>(
    cfg: &RunConfig,
    spec: &WorkloadSpec,
    shared: &Arc<SharedState>,
    make_worker: F,
) -> RunReport
where
    F: Fn(usize) -> C + Sync,
    C: FnMut(&Operation),
{
    let nwindows = cfg
        .window
        .map(|w| (cfg.duration.as_nanos() / w.as_nanos().max(1)) as usize + 2)
        .unwrap_or(0);
    let window_counts: Vec<AtomicU64> = (0..nwindows).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);

    let start = Instant::now();
    let measure_from = start + cfg.warmup;
    let deadline = measure_from + cfg.duration;

    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let make_worker = &make_worker;
            let stop = &stop;
            let window_counts = &window_counts;
            let window = cfg.window;
            handles.push(s.spawn(move || {
                let mut conn = make_worker(t);
                let mut gen = OpGenerator::new(spec, shared, t as u64 + 1);
                let mut all = Histogram::new();
                let mut per_kind = [
                    (OpKind::Read, Histogram::new()),
                    (OpKind::Update, Histogram::new()),
                    (OpKind::Insert, Histogram::new()),
                    (OpKind::Scan, Histogram::new()),
                ];
                let mut ops = 0u64;
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let op = gen.next_op();
                    let t0 = Instant::now();
                    conn(&op);
                    let lat = t0.elapsed();
                    let done = Instant::now();
                    if done >= measure_from && done < deadline {
                        all.record_duration(lat);
                        let slot = per_kind
                            .iter_mut()
                            .find(|(k, _)| *k == op.kind())
                            .expect("kind slot");
                        slot.1.record_duration(lat);
                        ops += 1;
                        if let Some(w) = window {
                            let idx = (done.duration_since(measure_from).as_nanos()
                                / w.as_nanos().max(1))
                                as usize;
                            if idx < window_counts.len() {
                                window_counts[idx].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                WorkerResult { all, per_kind, ops }
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = cfg.duration;
    let mut all = Histogram::new();
    let mut merged = [
        (OpKind::Read, Histogram::new()),
        (OpKind::Update, Histogram::new()),
        (OpKind::Insert, Histogram::new()),
        (OpKind::Scan, Histogram::new()),
    ];
    let mut ops = 0u64;
    for r in &results {
        all.merge(&r.all);
        ops += r.ops;
        for (k, h) in &r.per_kind {
            merged
                .iter_mut()
                .find(|(mk, _)| mk == k)
                .unwrap()
                .1
                .merge(h);
        }
    }
    let windows: Vec<u64> = window_counts
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .take(
            cfg.window
                .map(|w| (cfg.duration.as_nanos() / w.as_nanos().max(1)) as usize)
                .unwrap_or(0),
        )
        .collect();
    RunReport {
        elapsed,
        ops,
        throughput: ops as f64 / elapsed.as_secs_f64(),
        latency: all.summary(),
        per_kind: merged
            .into_iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| (k, h.summary()))
            .collect(),
        windows,
    }
}

/// Open-loop driver configuration.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Worker threads sharing the arrival schedule.
    pub threads: usize,
    /// Measured duration.
    pub duration: Duration,
    /// Unrecorded warmup before measurement (arrivals run throughout).
    pub warmup: Duration,
    /// Total offered load across all workers, in operations per second
    /// (batches arrive at `offered / batch_size` per second).
    pub offered_ops_per_s: f64,
}

impl OpenLoopConfig {
    /// A config with the given threads, duration, and offered load.
    pub fn new(threads: usize, duration: Duration, offered_ops_per_s: f64) -> Self {
        assert!(offered_ops_per_s > 0.0);
        OpenLoopConfig {
            threads,
            duration,
            warmup: Duration::ZERO,
            offered_ops_per_s,
        }
    }

    /// Adds a warmup phase.
    pub fn with_warmup(mut self, warmup: Duration) -> Self {
        self.warmup = warmup;
        self
    }
}

/// Aggregated results of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Measured wall time.
    pub elapsed: Duration,
    /// Offered load (ops/s) the schedule generated.
    pub offered: f64,
    /// Operations *issued* for in-window arrivals (each is recorded even
    /// when its completion crossed the deadline, so the slowest request
    /// of a saturated run cannot vanish from the percentiles).
    pub ops: u64,
    /// Achieved throughput (issued ops per second of measured window).
    pub throughput: f64,
    /// Latency from scheduled arrival to completion (queueing included).
    pub latency: LatencySummary,
    /// Operations whose scheduled arrival fell inside the measured window
    /// but were never issued before the deadline (saturation indicator);
    /// `ops + backlog` covers every in-window arrival exactly once.
    pub backlog: u64,
}

/// Runs the workload open-loop: each worker issues batches of
/// `spec.batch_size` operations on a fixed arrival schedule, recording
/// latency from scheduled arrival to completion. `make_worker(thread_idx)`
/// builds each worker's connection: a closure executing one batch.
pub fn run_open_loop<C, F>(
    cfg: &OpenLoopConfig,
    spec: &WorkloadSpec,
    shared: &Arc<SharedState>,
    make_worker: F,
) -> OpenLoopReport
where
    F: Fn(usize) -> C + Sync,
    C: FnMut(&[Operation]),
{
    let batch = spec.batch_size.max(1);
    // Per-worker inter-arrival gap: workers share the offered load evenly
    // and are staggered so aggregate arrivals stay uniform.
    let batches_per_s = cfg.offered_ops_per_s / batch as f64 / cfg.threads.max(1) as f64;
    let interval = Duration::from_secs_f64(1.0 / batches_per_s.max(1e-9));

    let start = Instant::now();
    let measure_from = start + cfg.warmup;
    let deadline = measure_from + cfg.duration;

    struct OpenResult {
        hist: Histogram,
        ops: u64,
        backlog: u64,
    }

    let results: Vec<OpenResult> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let make_worker = &make_worker;
            handles.push(s.spawn(move || {
                let mut conn = make_worker(t);
                let mut gen = OpGenerator::new(spec, shared, t as u64 + 1);
                let mut hist = Histogram::new();
                let mut ops = 0u64;
                let mut backlog = 0u64;
                // Stagger workers across one interval.
                let mut scheduled = start + interval.mul_f64(t as f64 / cfg.threads.max(1) as f64);
                loop {
                    if scheduled >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if now < scheduled {
                        std::thread::sleep(scheduled - now);
                    } else if now >= deadline {
                        // Behind schedule past the deadline: everything
                        // still scheduled inside the window is backlog.
                        let mut missed = scheduled;
                        while missed < deadline {
                            if missed >= measure_from {
                                backlog += batch as u64;
                            }
                            missed += interval;
                        }
                        break;
                    }
                    let request: Vec<Operation> = (0..batch).map(|_| gen.next_op()).collect();
                    conn(&request);
                    let done = Instant::now();
                    // Open-loop latency: completion minus *scheduled*
                    // arrival, so waiting behind earlier requests counts.
                    // Every issued in-window request is recorded, even one
                    // completing past the deadline — dropping it would
                    // erase each worker's slowest request exactly in the
                    // saturation regime this driver exists to measure.
                    // Accounting: ops + backlog = all in-window arrivals.
                    let lat = done.saturating_duration_since(scheduled);
                    if scheduled >= measure_from {
                        for _ in 0..batch {
                            hist.record_duration(lat);
                        }
                        ops += batch as u64;
                    }
                    scheduled += interval;
                }
                OpenResult { hist, ops, backlog }
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut hist = Histogram::new();
    let mut ops = 0u64;
    let mut backlog = 0u64;
    for r in &results {
        hist.merge(&r.hist);
        ops += r.ops;
        backlog += r.backlog;
    }
    OpenLoopReport {
        elapsed: cfg.duration,
        offered: cfg.offered_ops_per_s,
        ops,
        throughput: ops as f64 / cfg.duration.as_secs_f64(),
        latency: hist.summary(),
        backlog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    /// A toy in-memory KV store standing in for an engine.
    #[derive(Default)]
    struct ToyStore {
        map: Mutex<HashMap<Vec<u8>, Vec<u8>>>,
    }

    #[test]
    fn driver_reports_sane_numbers() {
        let store = Arc::new(ToyStore::default());
        let spec = WorkloadSpec::mix(100, 0.5, 0.5, 0.0, 0.0);
        let shared = SharedState::new(&spec);
        let cfg = RunConfig::new(4, Duration::from_millis(200));
        let report = run_closed_loop(&cfg, &spec, &shared, |_t| {
            let store = store.clone();
            move |op: &Operation| match op {
                Operation::Read { key } => {
                    store.map.lock().get(key);
                }
                Operation::Update { key, value } => {
                    store.map.lock().insert(key.clone(), value.clone());
                }
                _ => {}
            }
        });
        assert!(report.ops > 1000, "ops {}", report.ops);
        assert!(report.throughput > 5000.0);
        assert_eq!(report.latency.count, report.ops);
        let kinds: Vec<_> = report.per_kind.iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&OpKind::Read));
        assert!(kinds.contains(&OpKind::Update));
    }

    #[test]
    fn open_loop_tracks_offered_load() {
        let spec = WorkloadSpec::read_only(100);
        let shared = SharedState::new(&spec);
        // 2000 ops/s over two workers for 300 ms: each worker's arrivals
        // are 1 ms apart, the second staggered half a gap behind the first.
        let (threads, duration) = (2, Duration::from_millis(300));
        let cfg = OpenLoopConfig::new(threads, duration, 2000.0);
        let report = run_open_loop(&cfg, &spec, &shared, |_t| |_ops: &[Operation]| {});
        // However the host schedules the workers, every arrival the
        // schedule puts inside the window is either issued or backlog.
        let interval = Duration::from_secs_f64(threads as f64 / 2000.0);
        let mut arrivals = 0;
        for t in 0..threads {
            let mut at = interval.mul_f64(t as f64 / threads as f64);
            while at < duration {
                arrivals += 1;
                at += interval;
            }
        }
        assert_eq!(arrivals, 600);
        assert_eq!(
            report.ops + report.backlog,
            arrivals,
            "ops {} backlog {}",
            report.ops,
            report.backlog
        );
        assert!(report.ops > 0);
    }

    #[test]
    fn open_loop_batches_arrive_whole() {
        let spec = WorkloadSpec::read_only(100).with_batch(8);
        let shared = SharedState::new(&spec);
        let cfg = OpenLoopConfig::new(1, Duration::from_millis(200), 800.0);
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let report = run_open_loop(&cfg, &spec, &shared, |_t| {
            let sizes = sizes.clone();
            move |ops: &[Operation]| {
                sizes.lock().push(ops.len());
            }
        });
        assert!(sizes.lock().iter().all(|&s| s == 8));
        assert_eq!(report.ops % 8, 0);
    }

    #[test]
    fn open_loop_overload_reports_queueing_and_backlog() {
        let spec = WorkloadSpec::read_only(100);
        let shared = SharedState::new(&spec);
        // Offer 1000 ops/s but each op takes 5ms -> capacity 200/s: the
        // latency must blow up with queueing delay and backlog be nonzero.
        let cfg = OpenLoopConfig::new(1, Duration::from_millis(300), 1000.0);
        let report = run_open_loop(&cfg, &spec, &shared, |_t| {
            |_ops: &[Operation]| std::thread::sleep(Duration::from_millis(5))
        });
        assert!(
            report.throughput < 400.0,
            "throughput {}",
            report.throughput
        );
        // p99 latency far exceeds the 5ms service time: queueing counted.
        assert!(
            report.latency.p99_ns > 20_000_000,
            "p99 {}",
            report.latency.p99_ns
        );
        assert!(report.backlog > 0);
    }

    #[test]
    fn windows_cover_duration() {
        let spec = WorkloadSpec::read_only(10);
        let shared = SharedState::new(&spec);
        let cfg =
            RunConfig::new(2, Duration::from_millis(200)).with_window(Duration::from_millis(50));
        let report = run_closed_loop(&cfg, &spec, &shared, |_t| |_op: &Operation| {});
        assert_eq!(report.windows.len(), 4);
        assert_eq!(report.windows.iter().sum::<u64>(), report.ops);
        assert!(report.windows.iter().all(|&w| w > 0));
    }
}
