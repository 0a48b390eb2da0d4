//! Hot-path bench: read scaling and bytes/op for the zero-copy data plane
//! and the validated leaf cache.
//!
//! The paper's throughput story (§2.3, §4) is proxies doing almost all
//! work from cached state with memnodes cheap per operation. This bench
//! verifies the two observables the hot-path overhaul targets:
//!
//! 1. **bytes/get**: a warm get over a cached leaf issues a compare-only
//!    tip+seqno validation minitransaction (tens of bytes) instead of
//!    re-shipping the full leaf image — wire bytes per get must drop ≥5x
//!    between a cold and a warm pass over a uniform keyspace.
//! 2. **read scaling**: closed-loop client threads 1→32 at read fractions
//!    {0.5, 0.95, 1.0} under injected RTT. Reads touch one memnode for a
//!    tiny validation and never serialize against each other (the
//!    memnode-side lock-free read fast path), so read-only throughput at
//!    16 clients must be ≥6x the 1-client figure on a 2-memnode cluster.
//!
//! Also printed: the proxy node-cache counters (bounded CLOCK cache) and
//! the memnode read-fast-path hit counts.

use minuet_bench::{bench_secs, bench_tree_config, fast_mode, preload_minuet, records};
use minuet_core::MinuetCluster;
use minuet_workload::{cache_row, encode_key, fmt_bytes, fmt_count, print_table, CACHE_HEADERS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const MEMNODES: usize = 2;

/// Injected RTT for the scaling phase: fast-LAN-ish, so clients are
/// latency-bound (Little's law makes scaling visible) without making the
/// sweep glacial.
const SCALING_RTT: Duration = Duration::from_micros(200);

fn xorshift(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

/// Wire bytes per get over one pass of `n` uniform keys.
fn bytes_per_get(mc: &Arc<MinuetCluster>, p: &mut minuet_core::Proxy, n: u64, ops: u64) -> f64 {
    let (bo0, bi0) = mc.sinfonia.transport.stats.bytes_snapshot();
    let mut rng = 0x9E3779B97F4A7C15u64;
    for _ in 0..ops {
        let k = encode_key(xorshift(&mut rng) % n);
        p.get(0, &k).unwrap();
    }
    let (bo1, bi1) = mc.sinfonia.transport.stats.bytes_snapshot();
    ((bo1 - bo0) + (bi1 - bi0)) as f64 / ops as f64
}

/// Closed-loop mixed get/put throughput at `threads` clients.
fn measure(mc: &Arc<MinuetCluster>, n: u64, threads: usize, read_pct: u64) -> f64 {
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let window = bench_secs();
    std::thread::scope(|s| {
        for t in 0..threads {
            let mc = mc.clone();
            let stop = stop.clone();
            let ops = ops.clone();
            s.spawn(move || {
                let mut p = mc.proxy();
                let mut rng: u64 = 0x243F6A8885A308D3 ^ (t as u64 + 1);
                // Warm the proxy's internal + leaf caches before the
                // measured window (injection is already on; the warmup is
                // short).
                for _ in 0..256 {
                    let k = encode_key(xorshift(&mut rng) % n);
                    p.get(0, &k).unwrap();
                }
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    let k = encode_key(r % n);
                    if r % 100 < read_pct {
                        p.get(0, &k).unwrap();
                    } else {
                        p.put(0, k, r.to_le_bytes().to_vec()).unwrap();
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    ops.load(Ordering::Relaxed) as f64 / window.as_secs_f64()
}

fn main() {
    minuet_bench::header(
        "Hot path: zero-copy data plane + validated leaf cache",
        "version-tag validation, not data transfer, sits on the read hot \
         path (§2.3; MV-PBT); reads scale with clients, bytes/get collapses \
         once leaves are cached",
    );

    let n = records();

    // ---- Phase 1: bytes/get with the leaf cache off (every get ships
    // the full leaf image — the pre-overhaul data plane) vs cache-warm
    // (compare-only revalidation). No injected latency; both proxies get
    // a warm-up pass first so internal-node routing is cached either way
    // and the delta isolates the leaf transfer itself. ----
    let probe_ops = if fast_mode() { 2_000 } else { 20_000 };
    let mc_off = MinuetCluster::new(
        MEMNODES,
        1,
        minuet_core::TreeConfig {
            cache_leaves: false,
            ..bench_tree_config()
        },
    );
    preload_minuet(&mc_off, 0, n);
    let mut p_off = mc_off.proxy();
    bytes_per_get(&mc_off, &mut p_off, n, probe_ops); // warm internal routing
    let uncached = bytes_per_get(&mc_off, &mut p_off, n, probe_ops);

    let mc = MinuetCluster::new(MEMNODES, 1, bench_tree_config());
    preload_minuet(&mc, 0, n);
    let mut p = mc.proxy();
    bytes_per_get(&mc, &mut p, n, probe_ops); // warm routing + leaf cache
    let h0 = p.stats.leaf_cache_hits;
    let warm = bytes_per_get(&mc, &mut p, n, probe_ops);
    let hits = p.stats.leaf_cache_hits - h0;
    let (ch, cm, ce, cr) = p.cache_stats();
    print_table(
        "bytes per get, uniform keys",
        &["leaf cache", "B/get", "leaf hits/pass"],
        &[
            vec!["off".into(), fmt_bytes(uncached), "-".into()],
            vec!["warm".into(), fmt_bytes(warm), hits.to_string()],
        ],
    );
    print_table(
        "proxy node cache (bounded CLOCK)",
        &CACHE_HEADERS,
        &[cache_row(
            "probe",
            ch,
            cm,
            ce,
            cr as u64,
            p.stats.leaf_cache_hits,
        )],
    );

    // ---- Phase 2: closed-loop scaling, threads × read fraction. ----
    let threads: Vec<usize> = if fast_mode() {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let fracs: &[u64] = if fast_mode() {
        &[100, 50]
    } else {
        &[100, 95, 50]
    };

    let fp0: u64 = mc
        .sinfonia
        .nodes_snapshot()
        .iter()
        .map(|nd| nd.node_stats().expect("in-process node").read_fastpath)
        .sum();
    mc.sinfonia.transport.set_inject(Some(SCALING_RTT));
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut read_only: Vec<(usize, f64)> = Vec::new();
    for &t in &threads {
        let mut row = vec![t.to_string()];
        for &frac in fracs {
            let tput = measure(&mc, n, t, frac);
            if frac == 100 {
                read_only.push((t, tput));
            }
            row.push(fmt_count(tput));
        }
        table.push(row);
    }
    mc.sinfonia.transport.set_inject(None);
    let fp1: u64 = mc
        .sinfonia
        .nodes_snapshot()
        .iter()
        .map(|nd| nd.node_stats().expect("in-process node").read_fastpath)
        .sum();

    let headers: Vec<String> = std::iter::once("clients".to_string())
        .chain(fracs.iter().map(|f| format!("ops/s @{f}% read")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    print_table(
        &format!(
            "closed-loop scaling, {MEMNODES} memnodes, injected rtt {}µs",
            SCALING_RTT.as_micros()
        ),
        &headers_ref,
        &table,
    );
    println!();
    println!(
        "memnode lock-free read fast-path hits during sweep: {}",
        fp1 - fp0
    );

    // ---- Checks. ----
    let verdict = |pass: bool| {
        if fast_mode() {
            "(fast mode, informational)"
        } else if pass {
            "PASS"
        } else {
            "FAIL"
        }
    };
    let ratio = uncached / warm.max(1.0);
    println!(
        "check: bytes/get leaf-cache-off/warm = {ratio:.1}x (target >=5x): {}",
        verdict(ratio >= 5.0)
    );
    let t1 = read_only
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, x)| *x)
        .unwrap_or(1.0);
    let t16 = read_only
        .iter()
        .find(|(t, _)| *t == 16)
        .map(|(_, x)| *x)
        .unwrap_or(0.0);
    println!(
        "check: read-only scaling 16 clients / 1 client = {:.1}x (target >=6x): {}",
        t16 / t1.max(1.0),
        verdict(t16 >= 6.0 * t1)
    );
}
