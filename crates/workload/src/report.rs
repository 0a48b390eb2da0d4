//! Small fixed-width table/series printers used by the benchmark harness
//! to emit paper-style result tables, plus the standard rows shared
//! between benches, examples, and tests (per-memnode occupancy and
//! latency-versus-offered-load).

use crate::hist::LatencySummary;

/// Prints a titled, fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!();
    println!("== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a float with thousands-scaled units (e.g. `123.4k`, `1.2M`).
pub fn fmt_count(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}k", x / 1e3)
    } else {
        format!("{x:.1}")
    }
}

/// Formats a byte count with adaptive units (e.g. `1.5kB`, `2.3MB`) —
/// used by the durability ablation for log volumes.
pub fn fmt_bytes(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}GB", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.1}MB", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}kB", x / 1e3)
    } else {
        format!("{x:.0}B")
    }
}

/// Builds one row of the standard per-memnode occupancy table used by the
/// elasticity example, bench, and tests (pair with [`print_table`] and
/// headers `["memnode", "live", "free", "bump", "migrating", "state"]`).
/// Taking plain integers keeps this crate decoupled from the core types;
/// the numbers come from `minuet_core::stats::occupancy`.
pub fn occupancy_row(
    name: &str,
    live: u64,
    free: u64,
    bump: u64,
    migrating: u64,
    retiring: bool,
) -> Vec<String> {
    vec![
        name.to_string(),
        live.to_string(),
        free.to_string(),
        bump.to_string(),
        migrating.to_string(),
        if retiring { "retiring" } else { "ready" }.to_string(),
    ]
}

/// Column headers for the standard latency-vs-offered-load table
/// produced by the open-loop driver (pair with [`load_latency_row`]).
/// `B/op` is the data-plane cost next to the round-trip cost: bytes moved
/// over the (simulated) wire per operation, from the transport's byte
/// counters.
pub const LOAD_LATENCY_HEADERS: [&str; 8] = [
    "offered/s",
    "achieved/s",
    "p50",
    "p95",
    "p99",
    "rts/op",
    "B/op",
    "backlog",
];

/// Builds one row of the standard latency-vs-offered-load table from an
/// open-loop run: offered and achieved throughput, latency percentiles
/// (measured from scheduled arrival, so queueing delay is included), the
/// network round trips and wire bytes per operation observed on the
/// instrumented transport during the run, and the unserved backlog at the
/// deadline.
pub fn load_latency_row(
    offered: f64,
    achieved: f64,
    latency: &LatencySummary,
    round_trips_per_op: f64,
    bytes_per_op: f64,
    backlog: u64,
) -> Vec<String> {
    vec![
        fmt_count(offered),
        fmt_count(achieved),
        fmt_ns(latency.p50_ns as f64),
        fmt_ns(latency.p95_ns as f64),
        fmt_ns(latency.p99_ns as f64),
        format!("{round_trips_per_op:.2}"),
        fmt_bytes(bytes_per_op),
        backlog.to_string(),
    ]
}

/// Column headers for the standard proxy node-cache table (pair with
/// [`cache_row`]): the bounded-cache observability the hot-path work
/// added. `leaf hits` counts gets served by compare-only revalidation of
/// a cached leaf.
pub const CACHE_HEADERS: [&str; 6] = [
    "proxy",
    "hits",
    "misses",
    "evictions",
    "resident",
    "leaf hits",
];

/// Builds one row of the node-cache table from the cluster's `cache.*`
/// series, `minuet_core::Proxy::cached_nodes` and the proxy's
/// leaf-cache-hit operation counter. Plain integers keep this crate
/// decoupled from the core types.
pub fn cache_row(
    name: &str,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident: u64,
    leaf_hits: u64,
) -> Vec<String> {
    vec![
        name.to_string(),
        hits.to_string(),
        misses.to_string(),
        evictions.to_string(),
        resident.to_string(),
        leaf_hits.to_string(),
    ]
}

/// Formats nanoseconds as adaptive ms/µs.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_count(1_500_000.0), "1.50M");
        assert_eq!(fmt_count(2_500.0), "2.5k");
        assert_eq!(fmt_count(42.0), "42.0");
        assert_eq!(fmt_ns(2_000_000.0), "2.00ms");
        assert_eq!(fmt_ns(1_500.0), "1.5µs");
        assert_eq!(fmt_ns(900.0), "900ns");
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(2_500.0), "2.5kB");
        assert_eq!(fmt_bytes(3_000_000.0), "3.0MB");
    }

    #[test]
    fn load_latency_row_formats() {
        let lat = LatencySummary {
            count: 100,
            mean_ns: 1.0e6,
            p50_ns: 900_000,
            p95_ns: 2_000_000,
            p99_ns: 5_000_000,
            max_ns: 9_000_000,
        };
        let row = load_latency_row(10_000.0, 9_500.0, &lat, 0.25, 4200.0, 3);
        assert_eq!(row.len(), LOAD_LATENCY_HEADERS.len());
        assert_eq!(row[0], "10.0k");
        assert_eq!(row[5], "0.25");
        assert_eq!(row[6], "4.2kB");
        assert_eq!(row[7], "3");

        let crow = cache_row("p0", 10, 2, 1, 9, 8);
        assert_eq!(crow.len(), CACHE_HEADERS.len());
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "column"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
