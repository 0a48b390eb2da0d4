//! `minuet-stats` — poll running memnode daemons and render a text
//! dashboard of their observability plane.
//!
//! Each endpoint is polled over the ordinary wire protocol with one admin
//! exchange, `ObsSnapshot` (every series the node exports), plus
//! `TraceDump` (recent or slow request traces recorded server-side) when
//! `--traces` asks for it. The `ops:` and `wal:` summary lines are read
//! from that one snapshot. A node that cannot be reached, or stops
//! answering mid-poll, is reported as unreachable, never rendered as a
//! row of zeros.
//!
//! ```text
//! minuet-stats tcp:127.0.0.1:7400 1@tcp:127.0.0.1:7401
//! minuet-stats --once --traces 4 unix:/tmp/mem0.sock
//! minuet-stats --once --slow --traces 8 tcp:127.0.0.1:7400
//! ```
//!
//! Endpoints may be prefixed `N@` with the memnode id the daemon serves
//! (defaults to the argument's position); the id is only used for the
//! connectivity handshake.

use minuet_obs::{LatencySummary, Trace};
use minuet_sinfonia::wire::Endpoint;
use minuet_sinfonia::{MemNodeId, RemoteNode, Transport, WireConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Target {
    label: String,
    node: RemoteNode,
    /// Kept so the client-side registry (circuit-breaker transitions,
    /// fail-fast rejections, byte counters) can be rendered alongside the
    /// node's own snapshot.
    transport: Arc<Transport>,
}

struct Args {
    targets: Vec<Target>,
    interval: Duration,
    once: bool,
    traces: u32,
    slow: bool,
}

const USAGE: &str =
    "minuet-stats [--interval SECS] [--once] [--traces N] [--slow] <[ID@]ENDPOINT>...

  ENDPOINT        tcp:HOST:PORT or unix:PATH of a running memnoded,
                  optionally prefixed ID@ with the memnode id it serves
                  (default: argument position)
  --interval      seconds between polls (default 2)
  --once          poll once and exit (for scripts and smoke tests)
  --traces        also dump up to N request traces per node (default 0)
  --slow          dump the slow-trace ring instead of the recent ring";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        targets: Vec::new(),
        interval: Duration::from_secs(2),
        once: false,
        traces: 0,
        slow: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--interval" => {
                let v = value("--interval")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("--interval {v}: not a number"))?;
                args.interval = Duration::from_secs(secs.max(1));
            }
            "--once" => args.once = true,
            "--traces" => {
                let v = value("--traces")?;
                args.traces = v
                    .parse()
                    .map_err(|_| format!("--traces {v}: not a number"))?;
            }
            "--slow" => args.slow = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            spec => {
                let (id, ep) = match spec.split_once('@') {
                    Some((id, ep)) if id.chars().all(|c| c.is_ascii_digit()) => {
                        let id: u16 = id.parse().map_err(|_| format!("{spec}: bad memnode id"))?;
                        (id, ep)
                    }
                    _ => (args.targets.len() as u16, spec),
                };
                let endpoint = Endpoint::parse(ep).map_err(|e| format!("{spec}: {e}"))?;
                // The transport only hosts the client-side byte counters;
                // no injected latency, real sockets.
                let transport = Arc::new(Transport::new(None));
                args.targets.push(Target {
                    label: spec.to_string(),
                    node: RemoteNode::new(
                        MemNodeId(id),
                        endpoint,
                        WireConfig::default(),
                        Arc::clone(&transport),
                    ),
                    transport,
                });
            }
        }
    }
    if args.targets.is_empty() {
        return Err(format!("at least one endpoint is required\n\n{USAGE}"));
    }
    Ok(args)
}

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn render_hist(name: &str, s: &LatencySummary) -> String {
    format!(
        "  {name:<28} n={:<9} p50={:>9} p95={:>9} p99={:>9} max={:>9}  (µs)",
        s.count,
        fmt_us(s.p50_ns),
        fmt_us(s.p95_ns),
        fmt_us(s.p99_ns),
        fmt_us(s.max_ns),
    )
}

fn poll(t: &Target, traces: u32, slow: bool) {
    println!("== {} ==", t.label);
    let snap = match t.node.hello() {
        Ok(_) => t.node.obs_snapshot().map_err(|e| e.to_string()),
        Err(e) => Err(e.to_string()),
    };
    let snap = match snap {
        Ok(snap) => snap,
        Err(e) => {
            println!("  unreachable: {e}");
            return;
        }
    };
    let v = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "  ops: single_commits={} prepares={} commits={} aborts={} busy={} \
         fastpath={}/{} in_doubt={}",
        v("memnode.single_commits"),
        v("memnode.prepares"),
        v("memnode.commits"),
        v("memnode.aborts"),
        v("memnode.busy"),
        v("memnode.read_fastpath"),
        v("memnode.read_fastpath") + v("memnode.read_fastpath_misses"),
        v("memnode.in_doubt"),
    );
    println!(
        "  wal: appends={} bytes={} fsyncs={} retained={} checkpoints={} durable={}",
        v("wal.appends"),
        v("wal.bytes"),
        v("wal.fsyncs"),
        v("wal.retained_bytes"),
        v("wal.checkpoints"),
        v("wal.durable") == 1,
    );
    if !snap.counters.is_empty() {
        println!("  counters:");
        for (name, v) in &snap.counters {
            println!("    {name:<28} {v}");
        }
    }
    if !snap.hists.is_empty() {
        println!("  histograms:");
        for (name, s) in &snap.hists {
            if s.count > 0 {
                println!("  {}", render_hist(name, s));
            }
        }
    }
    // Client-side view: breaker state transitions and fail-fast rejections
    // accumulate in this process's transport registry, not on the node.
    let local = t.transport.obs.registry.snapshot();
    let breaker: Vec<_> = local
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("wire.breaker."))
        .collect();
    if !breaker.is_empty() {
        println!("  breaker (client-side):");
        for (name, v) in breaker {
            println!("    {name:<28} {v}");
        }
    }
    if traces > 0 {
        let dump: Vec<Trace> = t.node.trace_dump(traces, slow);
        let ring = if slow { "slow" } else { "recent" };
        println!("  {ring} traces ({}):", dump.len());
        for tr in &dump {
            for line in tr.render().lines() {
                println!("    {line}");
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        for t in &args.targets {
            poll(t, args.traces, args.slow);
        }
        if args.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(args.interval);
        println!();
    }
}
