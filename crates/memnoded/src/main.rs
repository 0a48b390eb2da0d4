//! `memnoded` — the standalone memnode daemon.
//!
//! Serves one Sinfonia memnode over the binary wire protocol on a TCP or
//! Unix-socket endpoint, thread-per-connection with a bounded accept pool.
//! Coordinators connect with `ClusterConfig::with_wire_transport`.
//!
//! ```text
//! memnoded --listen unix:/tmp/mem0.sock --id 0 --capacity-mb 64
//! memnoded --listen tcp:127.0.0.1:7400 --id 1 --capacity-mb 256 \
//!          --dir /var/lib/minuet/mem1 --sync batch
//! ```
//!
//! With `--dir`, the memnode is durable: it reopens an existing
//! checkpoint + redo log in the directory (crash restart) or starts fresh,
//! and logs before applying. Without it, the log and its checkpoint
//! images are held in memory: they survive a `Crash` / `Recover` of the
//! node, not the process, and the log checkpoints itself to stay bounded.
//!
//! With `--follow <endpoint>`, the daemon is a **replication follower**:
//! besides serving its own endpoint, it continuously pulls the WAL stream
//! of the same-id memnode at the primary endpoint and applies it locally
//! (wire protocol v4 `ReplFetch`). The pull cursor is this node's durable
//! replication watermark, so restarting the follower resumes the stream
//! with no gaps and no duplicate applies.
//!
//! The process exits cleanly when a client sends the `Shutdown` RPC, or
//! on SIGTERM: the daemon stops accepting, lets in-flight requests finish
//! (every acked commit is already durable per the WAL contract), takes a
//! final checkpoint when durable, and exits 0.
//!
//! Fault injection: `--faults SPEC` (or the `MINUET_FAULTS` environment
//! variable) arms named failpoints at startup using the
//! `minuet_faults::apply_spec` grammar, and the `Faults` admin RPC re-arms
//! them at runtime — the chaos harness's remote control surface.

use minuet_sinfonia::wire::Endpoint;
use minuet_sinfonia::{
    DurabilityConfig, MemNode, MemNodeId, MemNodeServer, RemoteNode, ServerOptions, SyncMode,
    Transport, WireConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: Endpoint,
    id: u16,
    capacity: u64,
    dir: Option<PathBuf>,
    sync: SyncMode,
    max_connections: usize,
    slow_us: u64,
    follow: Option<Endpoint>,
    follow_poll: Duration,
    faults: Option<String>,
}

const USAGE: &str = "memnoded --listen <tcp:HOST:PORT|unix:PATH> [--id N] [--capacity-mb MB]
         [--dir PATH] [--sync none|async|sync|group] [--max-connections N]
         [--slow-us US] [--follow ENDPOINT] [--follow-poll-ms MS]
         [--faults SPEC]

  --listen            endpoint to serve on (required)
  --id                memnode id this daemon serves (default 0)
  --capacity-mb       address-space capacity in MiB (default 256)
  --dir               durability directory; resumes existing state if present
  --sync              log sync mode when --dir is set (default async)
  --max-connections   bounded accept pool size (default 64)
  --slow-us           slow-op log threshold in microseconds: traced requests
                      slower than this are pinned in the slow-trace ring
                      (fetch with minuet-stats --slow; default 0 = off)
  --follow            run as a replication follower of the same-id memnode
                      served at this endpoint: pull its WAL stream and apply
                      it locally, resuming from the durable watermark
  --follow-poll-ms    sleep between pulls when caught up or the primary is
                      unreachable (default 2)
  --faults            arm fault-injection failpoints at startup, e.g.
                      'wal.fsync=err:count=3;wire.server.send=drop'
                      (also read from the MINUET_FAULTS env var; the
                      Faults admin RPC re-arms at runtime)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: Endpoint::Tcp(String::new()),
        id: 0,
        capacity: 256 << 20,
        dir: None,
        sync: SyncMode::Async,
        max_connections: ServerOptions::default().max_connections,
        slow_us: 0,
        follow: None,
        follow_poll: Duration::from_millis(2),
        faults: None,
    };
    let mut listen_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match flag.as_str() {
            "--listen" => {
                let v = value("--listen")?;
                args.listen = Endpoint::parse(&v).map_err(|e| format!("--listen {v}: {e}"))?;
                listen_set = true;
            }
            "--id" => {
                let v = value("--id")?;
                args.id = v.parse().map_err(|_| format!("--id {v}: not a u16"))?;
            }
            "--capacity-mb" => {
                let v = value("--capacity-mb")?;
                let mb: u64 = v
                    .parse()
                    .map_err(|_| format!("--capacity-mb {v}: not a number"))?;
                args.capacity = mb << 20;
            }
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "--sync" => {
                args.sync = match value("--sync")?.as_str() {
                    "none" => SyncMode::None,
                    "async" => SyncMode::Async,
                    "sync" => SyncMode::Sync,
                    "group" => SyncMode::GroupCommit {
                        window: std::time::Duration::from_millis(1),
                    },
                    other => return Err(format!("--sync {other}: use none|async|sync|group")),
                }
            }
            "--max-connections" => {
                let v = value("--max-connections")?;
                args.max_connections = v
                    .parse()
                    .map_err(|_| format!("--max-connections {v}: not a number"))?;
            }
            "--slow-us" => {
                let v = value("--slow-us")?;
                args.slow_us = v
                    .parse()
                    .map_err(|_| format!("--slow-us {v}: not a number"))?;
            }
            "--follow" => {
                let v = value("--follow")?;
                args.follow = Some(Endpoint::parse(&v).map_err(|e| format!("--follow {v}: {e}"))?);
            }
            "--follow-poll-ms" => {
                let v = value("--follow-poll-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--follow-poll-ms {v}: not a number"))?;
                args.follow_poll = Duration::from_millis(ms);
            }
            "--faults" => args.faults = Some(value("--faults")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
        }
    }
    if !listen_set {
        return Err(format!("--listen is required\n\n{USAGE}"));
    }
    Ok(args)
}

/// Set by the SIGTERM handler; polled by the shutdown watcher thread.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // Only the async-signal-safe atomic store happens here; the watcher
    // thread does the actual shutdown work.
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn run(args: Args) -> std::io::Result<()> {
    // Arm startup failpoints before the node opens, so WAL/recovery paths
    // are already under fault coverage. The flag extends (or overrides
    // per-site) whatever MINUET_FAULTS armed.
    minuet_faults::init_from_env()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    if let Some(spec) = &args.faults {
        let armed = minuet_faults::apply_spec(spec)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        eprintln!("memnoded: armed {armed} failpoint(s) from --faults");
    }
    let id = MemNodeId(args.id);
    let node = match &args.dir {
        Some(dir) => {
            let dcfg = DurabilityConfig {
                dir: Some(dir.clone()),
                sync: args.sync,
                ..Default::default()
            };
            let wal = minuet_sinfonia::wal::wal_path(dir, id);
            if wal.exists() {
                let (node, meta, _) = MemNode::open_from_disk(id, args.capacity, &dcfg)?;
                let staged = meta.staged.len();
                if staged > 0 {
                    eprintln!(
                        "memnoded: {id} reopened with {staged} in-doubt transaction(s); \
                         a coordinator must resolve them"
                    );
                }
                node
            } else {
                MemNode::durable(id, args.capacity, &dcfg)?
            }
        }
        None => MemNode::new(id, args.capacity),
    };
    if args.slow_us > 0 {
        node.obs.set_slow_op_ns(args.slow_us * 1_000);
    }
    let opts = ServerOptions {
        max_connections: args.max_connections,
        ..Default::default()
    };
    let node = Arc::new(node);
    let follower = args
        .follow
        .as_ref()
        .map(|primary| spawn_follow_loop(&node, id, primary.clone(), args.follow_poll));
    let server = Arc::new(MemNodeServer::spawn(node, &args.listen, opts)?);
    install_sigterm_handler();
    // The watcher turns the SIGTERM flag into the same graceful shutdown a
    // client `Shutdown` RPC performs; it exits on its own once the server
    // stops for any reason.
    let watcher = {
        let server = server.clone();
        std::thread::Builder::new()
            .name("memnoded-sigterm".into())
            .spawn(move || loop {
                if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
                    eprintln!("memnoded: SIGTERM, shutting down gracefully");
                    server.request_shutdown();
                    return;
                }
                if server.is_stopped() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            })
            .expect("spawning SIGTERM watcher failed")
    };
    eprintln!(
        "memnoded: serving {id} on {} (capacity {} MiB{}{})",
        args.listen,
        args.capacity >> 20,
        if args.dir.is_some() { ", durable" } else { "" },
        match &args.follow {
            Some(p) => format!(", following {p}"),
            None => String::new(),
        }
    );
    server.wait();
    let _ = watcher.join();
    if let Some((stop, handle)) = follower {
        stop.store(true, Ordering::Release);
        let _ = handle.join();
    }
    // Flush everything to disk before exiting: acked commits are already
    // durable (the WAL contract), and a final checkpoint persists the rest
    // so restart recovery starts from a fresh image. Failures (e.g. an
    // armed checkpoint failpoint) are reported but do not taint exit —
    // the WAL alone is sufficient for recovery.
    if args.dir.is_some() {
        if let Err(e) = server.node().checkpoint() {
            eprintln!("memnoded: final checkpoint failed: {e}");
        }
    }
    eprintln!("memnoded: {id} shutting down");
    Ok(())
}

/// Starts the follower pull loop: ask the local node for its durable
/// replication watermark, fetch the primary's WAL from there, apply. The
/// primary being down (or not yet up) is retried forever — the stream
/// resumes from the watermark whenever it returns.
fn spawn_follow_loop(
    node: &Arc<MemNode>,
    id: MemNodeId,
    primary: Endpoint,
    poll: Duration,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    const MAX_FETCH: u32 = 1 << 20;
    let stop = Arc::new(AtomicBool::new(false));
    let node = node.clone();
    let stop2 = stop.clone();
    let handle = std::thread::Builder::new()
        .name("memnoded-follow".into())
        .spawn(move || {
            let transport = Arc::new(Transport::new(None));
            let remote = RemoteNode::new(id, primary, WireConfig::default(), transport);
            while !stop2.load(Ordering::Acquire) {
                let fetched = node
                    .repl_status()
                    .and_then(|s| remote.wal_fetch(s.watermark, MAX_FETCH));
                match fetched {
                    Ok(seg) if !seg.bytes.is_empty() => {
                        let _ = node.repl_apply(seg.from, &seg.bytes);
                    }
                    // Caught up, or either side is unreachable.
                    _ => std::thread::sleep(poll),
                }
            }
        })
        .expect("spawning follower thread failed");
    (stop, handle)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("memnoded: {e}");
            ExitCode::FAILURE
        }
    }
}
