//! # minuet-bench
//!
//! The benchmark harness that regenerates every figure of the Minuet
//! paper's evaluation (§6, Figures 10–18) plus the ablations called out in
//! DESIGN.md. Each `benches/figNN_*.rs` target prints the series the paper
//! plots alongside the paper-reported expectation.
//!
//! ## Methodology (see DESIGN.md §2)
//!
//! The cluster is simulated in one process. A "machine" is one
//! (memnode, proxy) pair driven by its own group of closed-loop client
//! threads. During measurement the instrumented transport **injects a real
//! RTT per round trip** (default 100 µs, like a fast LAN), so workers are
//! latency-bound rather than CPU-bound and closed-loop throughput obeys
//! Little's law: it scales with client count unless operations serialize
//! or fan out — exactly the effects the paper's strong-scaling plots
//! exhibit. Preloading runs with injection off.
//!
//! ## Environment knobs
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `MINUET_BENCH_SECS` | 2 | measured seconds per data point |
//! | `MINUET_BENCH_RECORDS` | 50000 | preloaded records |
//! | `MINUET_BENCH_SCALES` | `1,2,4,8` | machine counts swept |
//! | `MINUET_BENCH_CLIENTS` | 2 | client threads per machine |
//! | `MINUET_BENCH_RTT_US` | 1000 | injected per-round-trip latency |
//! | `MINUET_BENCH_FAST` | unset | if set: tiny records/durations (CI smoke) |
//!
//! A numeric value that does not parse panics, naming the variable.

use minuet_cdb::{CdbCluster, CdbConfig};
use minuet_core::{MinuetCluster, SnapshotId, TreeConfig};
use minuet_workload::{encode_key, load_keys, Operation};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parses `raw`, the value of env var `name` (`None` when unset), as a
/// comma-separated list of unsigned integers. A malformed or empty entry
/// panics naming the variable and its value: a typo must not silently run
/// a default or sweep a shorter list.
fn parse_env(name: &str, raw: Option<&str>) -> Option<Vec<u64>> {
    let raw = raw?;
    let parsed = raw.split(',').map(|x| x.trim().parse().ok()).collect();
    let Some(values) = parsed else {
        panic!("{name}={raw:?}: expected comma-separated unsigned integers");
    };
    Some(values)
}

/// Reads a one-integer env var with a default.
fn env_u64(name: &str, default: u64) -> u64 {
    let raw = std::env::var(name).ok();
    match parse_env(name, raw.as_deref()).as_deref() {
        None => default,
        Some(&[v]) => v,
        Some(list) => panic!("{name}={list:?}: expected one unsigned integer"),
    }
}

/// True when `MINUET_BENCH_FAST` is set (CI smoke mode).
pub fn fast_mode() -> bool {
    std::env::var("MINUET_BENCH_FAST").is_ok()
}

/// Measured duration per data point.
pub fn bench_secs() -> Duration {
    if fast_mode() {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(env_u64("MINUET_BENCH_SECS", 2) * 1000)
    }
}

/// Records preloaded before measured phases.
pub fn records() -> u64 {
    if fast_mode() {
        5_000
    } else {
        env_u64("MINUET_BENCH_RECORDS", 50_000)
    }
}

/// Machine counts swept by scaling benches.
pub fn scales() -> Vec<usize> {
    let raw = std::env::var("MINUET_BENCH_SCALES").ok();
    if let Some(scales) = parse_env("MINUET_BENCH_SCALES", raw.as_deref()) {
        return scales.into_iter().map(|s| s as usize).collect();
    }
    if fast_mode() {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// Client threads per machine.
pub fn clients_per_machine() -> usize {
    env_u64("MINUET_BENCH_CLIENTS", 2) as usize
}

/// Injected RTT during measured phases.
pub fn rtt() -> Duration {
    Duration::from_micros(env_u64("MINUET_BENCH_RTT_US", 1000))
}

/// Tree configuration used by the benches (4 kB nodes, as in the paper).
pub fn bench_tree_config() -> TreeConfig {
    TreeConfig {
        layout: minuet_core::LayoutParams {
            node_payload: 4096,
            slots_per_mem: 1 << 15,
            max_snapshots: 1 << 16,
        },
        ..TreeConfig::default()
    }
}

/// Builds a Minuet cluster of `machines` memnodes hosting `trees` trees,
/// with injection initially **off** (enable before the measured phase).
pub fn build_minuet(machines: usize, trees: u32, cfg: TreeConfig) -> Arc<MinuetCluster> {
    // Default durability (dir = None) means purely in-memory memnodes.
    build_minuet_durable(
        machines,
        trees,
        cfg,
        minuet_sinfonia::DurabilityConfig::default(),
    )
}

/// Like [`build_minuet`] but with memnode durability (redo logging +
/// checkpoints) enabled. The caller owns cleanup of the directory in
/// `durability.dir`.
pub fn build_minuet_durable(
    machines: usize,
    trees: u32,
    cfg: TreeConfig,
    durability: minuet_sinfonia::DurabilityConfig,
) -> Arc<MinuetCluster> {
    let sin_cfg = minuet_sinfonia::ClusterConfig {
        memnodes: machines,
        inject_rtt: None,
        durability,
        ..Default::default()
    };
    MinuetCluster::with_cluster_config(sin_cfg, trees, cfg)
}

/// Preloads `n` records (shuffled order) into `tree` using all available
/// parallelism, injection off.
pub fn preload_minuet(mc: &Arc<MinuetCluster>, tree: u32, n: u64) {
    mc.sinfonia.transport.set_inject(None);
    let keys = load_keys(n, 0xC0FFEE ^ tree as u64);
    let nthreads = 4;
    let chunk = keys.len().div_ceil(nthreads);
    std::thread::scope(|s| {
        for part in keys.chunks(chunk) {
            let mc = mc.clone();
            s.spawn(move || {
                let mut p = mc.proxy();
                for k in part {
                    p.put(tree, k.clone(), vec![0u8; 8]).unwrap();
                }
            });
        }
    });
}

/// How Minuet executes `Scan` operations.
#[derive(Clone, Copy, Debug)]
pub enum ScanPolicy {
    /// Create (or borrow/reuse within `k`) a snapshot via the SCS, then
    /// scan it (§6.3).
    SnapshotWithK(Duration),
    /// Strictly-serializable scan of the tip without a snapshot
    /// (abort-prone ablation).
    Serializable,
}

/// Builds a per-thread Minuet connection closure for the workload driver.
pub fn minuet_conn(mc: Arc<MinuetCluster>, scan_policy: ScanPolicy) -> impl FnMut(&Operation) {
    let mut proxy = mc.proxy();
    move |op: &Operation| match op {
        Operation::Read { key } => {
            proxy.get(0, key).unwrap();
        }
        Operation::Update { key, value } | Operation::Insert { key, value } => {
            proxy.put(0, key.clone(), value.clone()).unwrap();
        }
        Operation::Scan { start, len } => match scan_policy {
            ScanPolicy::SnapshotWithK(k) => {
                let scs = mc.scs(0);
                let (sid, _) = scs.snapshot_for_scan(&mut proxy, 0, k).unwrap();
                proxy.scan_at(0, sid, start, *len).unwrap();
            }
            ScanPolicy::Serializable => {
                proxy.scan_serializable(0, start, *len).unwrap();
            }
        },
        Operation::MultiRead { keys } => {
            let keys = keys.clone();
            proxy
                .txn(|t| {
                    for (i, k) in keys.iter().enumerate() {
                        t.get(i as u32, k)?;
                    }
                    Ok(())
                })
                .unwrap();
        }
        Operation::MultiUpdate { keys, value } | Operation::MultiInsert { keys, value } => {
            let keys = keys.clone();
            let value = value.clone();
            proxy
                .txn(|t| {
                    for (i, k) in keys.iter().enumerate() {
                        t.put(i as u32, k.clone(), value.clone())?;
                    }
                    Ok(())
                })
                .unwrap();
        }
    }
}

/// Builds a per-thread **batched** Minuet connection for the open-loop
/// driver: the point reads of one request execute as a single
/// `multi_get`, the updates/inserts as a single `multi_put`, so the
/// engine amortizes round trips across the request's
/// [`minuet_workload::WorkloadSpec::batch_size`] operations. Scans and
/// multi-index transactions (which carry their own network shapes) run
/// individually, as in [`minuet_conn`].
pub fn minuet_batch_conn(mc: Arc<MinuetCluster>) -> impl FnMut(&[Operation]) {
    let mut proxy = mc.proxy();
    let mut single = minuet_conn(mc, ScanPolicy::Serializable);
    move |ops: &[Operation]| {
        let mut gets: Vec<Vec<u8>> = Vec::new();
        let mut puts: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Operation::Read { key } => gets.push(key.clone()),
                Operation::Update { key, value } | Operation::Insert { key, value } => {
                    puts.push((key.clone(), value.clone()));
                }
                other => {
                    single(other);
                }
            }
        }
        if !gets.is_empty() {
            proxy.multi_get(0, &gets).unwrap();
        }
        if !puts.is_empty() {
            proxy.multi_put(0, &puts).unwrap();
        }
    }
}

/// Builds a CDB cluster.
pub fn build_cdb(machines: usize, tables: usize) -> Arc<CdbCluster> {
    Arc::new(CdbCluster::new(CdbConfig {
        servers: machines,
        tables,
        scan_memory_limit: 1 << 20,
    }))
}

/// Preloads `n` records into every CDB table, injection off.
pub fn preload_cdb(cdb: &Arc<CdbCluster>, tables: usize, n: u64) {
    cdb.transport.set_inject(None);
    for i in 0..n {
        let k = encode_key(i);
        for t in 0..tables {
            cdb.put(t, k.clone(), vec![0u8; 8]);
        }
    }
}

/// Builds a per-thread CDB connection closure.
pub fn cdb_conn(cdb: Arc<CdbCluster>) -> impl FnMut(&Operation) {
    move |op: &Operation| {
        match op {
            Operation::Read { key } => {
                cdb.get(0, key);
            }
            Operation::Update { key, value } | Operation::Insert { key, value } => {
                cdb.put(0, key.clone(), value.clone());
            }
            Operation::Scan { start, len } => {
                // Long scans legitimately fail on CDB (§6.3); count the
                // attempt either way.
                let _ = cdb.scan(0, start, *len);
            }
            Operation::MultiRead { keys } => {
                let pairs: Vec<(usize, Vec<u8>)> = keys.iter().cloned().enumerate().collect();
                cdb.multi(&pairs, |ctx| {
                    for i in 0..pairs.len() {
                        ctx.get(i);
                    }
                });
            }
            Operation::MultiUpdate { keys, value } | Operation::MultiInsert { keys, value } => {
                let pairs: Vec<(usize, Vec<u8>)> = keys.iter().cloned().enumerate().collect();
                cdb.multi(&pairs, |ctx| {
                    for i in 0..pairs.len() {
                        ctx.put(i, value.clone());
                    }
                });
            }
        }
    }
}

/// Handle stopping a background GC thread.
pub struct GcHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl GcHandle {
    /// Stops the GC thread and waits for it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for GcHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Spawns a background GC keeping the `keep_last` most recent snapshots
/// (§4.4's "always supporting queries over the ten most recent snapshots"
/// policy), sweeping every `period`.
pub fn spawn_gc(mc: Arc<MinuetCluster>, tree: u32, keep_last: u64, period: Duration) -> GcHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let join = std::thread::spawn(move || {
        let mut p = mc.proxy();
        while !stop2.load(Ordering::Relaxed) {
            std::thread::sleep(period);
            if let Ok((tip, _)) = p.current_tip(tree) {
                let lowest = tip.saturating_sub(keep_last);
                let _ = p.set_watermark(tree, lowest);
                let _ = p.gc_sweep(tree);
            }
        }
    });
    GcHandle {
        stop,
        join: Some(join),
    }
}

/// Prints the standard bench header.
pub fn header(figure: &str, claim: &str) {
    println!();
    println!("############################################################");
    println!("# {figure}");
    println!("# paper: {claim}");
    println!(
        "# setup: {} records, {:?}/point, rtt {:?}, {} clients/machine{}",
        records(),
        bench_secs(),
        rtt(),
        clients_per_machine(),
        if fast_mode() { " [FAST MODE]" } else { "" }
    );
    println!("############################################################");
}

/// Snapshot id type re-export for benches.
pub type Sid = SnapshotId;

/// Results of a mixed update/scan run (Figs. 15–18).
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Update ops/s over the measured window.
    pub update_tput: f64,
    /// Completed scans per second.
    pub scan_tput: f64,
    /// Keys scanned per second.
    pub keys_scanned_per_s: f64,
    /// Mean scan latency (ms).
    pub scan_mean_ms: f64,
    /// Snapshots actually created during the run.
    pub snapshots_created: u64,
    /// Snapshot requests served by borrowing.
    pub snapshots_borrowed: u64,
}

/// Runs `upd_threads` closed-loop updaters and `scan_threads` closed-loop
/// scanners concurrently against tree 0 (the paper's mixed analytics
/// workload). Scans use the SCS with staleness bound `k`; `borrowing`
/// toggles Fig. 7's fast path. Injection is enabled for the measured
/// phase.
#[allow(clippy::too_many_arguments)]
pub fn run_mixed(
    mc: &Arc<MinuetCluster>,
    upd_threads: usize,
    scan_threads: usize,
    nrecords: u64,
    scan_len: usize,
    k: Duration,
    borrowing: bool,
    duration: Duration,
) -> MixedReport {
    use minuet_workload::Histogram;
    use std::sync::atomic::AtomicU64;

    mc.scs(0).set_borrowing(borrowing);
    let created0 = mc.scs(0).stats.created.load(Ordering::Relaxed);
    let borrowed0 = mc.scs(0).stats.borrowed.load(Ordering::Relaxed);
    mc.sinfonia.transport.set_inject(Some(rtt()));

    let stop = Arc::new(AtomicBool::new(false));
    let updates = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    let keys_scanned = Arc::new(AtomicU64::new(0));

    let scan_hist = std::thread::scope(|s| {
        for t in 0..upd_threads {
            let mc = mc.clone();
            let stop = stop.clone();
            let updates = updates.clone();
            s.spawn(move || {
                let mut p = mc.proxy();
                let mut rng: u64 = 0x243F6A8885A308D3 ^ (t as u64);
                while !stop.load(Ordering::Relaxed) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = encode_key(rng % nrecords);
                    p.put(0, key, rng.to_le_bytes().to_vec()).unwrap();
                    updates.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut scan_handles = Vec::new();
        for t in 0..scan_threads {
            let mc = mc.clone();
            let stop = stop.clone();
            let scans = scans.clone();
            let keys_scanned = keys_scanned.clone();
            scan_handles.push(s.spawn(move || {
                let mut p = mc.proxy();
                let mut hist = Histogram::new();
                let mut rng: u64 = 0x452821E638D01377 ^ (t as u64);
                while !stop.load(Ordering::Relaxed) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let start_rec = rng % nrecords.saturating_sub(scan_len as u64).max(1);
                    let start = encode_key(start_rec);
                    let t0 = std::time::Instant::now();
                    let scs = mc.scs(0);
                    let (sid, _) = scs.snapshot_for_scan(&mut p, 0, k).unwrap();
                    // A scan can lose its snapshot to the GC watermark when
                    // snapshots churn faster than `keep_last` (§4.4: clients
                    // must query at or above the lowest snapshot id). Count
                    // only completed scans.
                    match p.scan_at(0, sid, &start, scan_len) {
                        Ok(got) => {
                            hist.record_duration(t0.elapsed());
                            scans.fetch_add(1, Ordering::Relaxed);
                            keys_scanned.fetch_add(got.len() as u64, Ordering::Relaxed);
                        }
                        Err(_) => continue,
                    }
                }
                hist
            }));
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let mut hist = Histogram::new();
        for h in scan_handles {
            hist.merge(&h.join().unwrap());
        }
        hist
    });

    mc.sinfonia.transport.set_inject(None);
    let secs = duration.as_secs_f64();
    MixedReport {
        update_tput: updates.load(Ordering::Relaxed) as f64 / secs,
        scan_tput: scans.load(Ordering::Relaxed) as f64 / secs,
        keys_scanned_per_s: keys_scanned.load(Ordering::Relaxed) as f64 / secs,
        scan_mean_ms: hist_mean_ms(&scan_hist),
        snapshots_created: mc.scs(0).stats.created.load(Ordering::Relaxed) - created0,
        snapshots_borrowed: mc.scs(0).stats.borrowed.load(Ordering::Relaxed) - borrowed0,
    }
}

fn hist_mean_ms(h: &minuet_workload::Histogram) -> f64 {
    h.mean() / 1e6
}

#[cfg(test)]
mod tests {
    use super::parse_env;

    #[test]
    fn parse_env_reads_numbers_and_lists() {
        assert_eq!(parse_env("V", None), None);
        assert_eq!(parse_env("V", Some("7")), Some(vec![7]));
        assert_eq!(parse_env("V", Some("1, 2,4")), Some(vec![1, 2, 4]));
    }

    #[test]
    #[should_panic(expected = "MINUET_BENCH_SCALES=\"1,x,4\"")]
    fn parse_env_rejects_a_malformed_entry() {
        parse_env("MINUET_BENCH_SCALES", Some("1,x,4"));
    }

    #[test]
    #[should_panic(expected = "MINUET_BENCH_SCALES=\"\"")]
    fn parse_env_rejects_an_empty_value() {
        parse_env("MINUET_BENCH_SCALES", Some(""));
    }

    #[test]
    #[should_panic(expected = "MINUET_BENCH_SECS=\"2s\"")]
    fn parse_env_rejects_a_unit_suffix() {
        parse_env("MINUET_BENCH_SECS", Some("2s"));
    }
}
