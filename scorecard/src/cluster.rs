//! The system under test: two real `memnoded` processes on Unix sockets
//! with their WAL in `--sync sync` mode, and the `MinuetCluster` that
//! talks to them over the wire transport.
//!
//! Everything a run leaves on disk lives under one run directory that is
//! unique per pid and workload; the guards here remove it and reap the
//! daemons on every path out of `main`, unwinding included.

use crate::host;
use minuet::sinfonia::wire::Endpoint;
use minuet::sinfonia::{ClusterConfig, WireConfig};
use minuet::{MinuetCluster, TreeConfig};
use std::collections::BTreeMap;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const MEMNODES: usize = 2;
/// Parent of every run directory, relative to the repository root; the
/// runner mounts a private tmpfs over it when it may.
pub const RUN_BASE: &str = "scorecard/run";
/// Address space each daemon gets beyond what the tree layout needs: the
/// scratch range the `sinfonia.exec_*` and `dyntx.*` probes write to.
pub const SCRATCH_BYTES: u64 = 1 << 20;

/// The repository this binary was built from: `scorecard/..`.
pub fn repo_root() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("scorecard/ has no parent directory")?
        .to_path_buf();
    for needed in ["Cargo.toml", "crates/memnoded/Cargo.toml"] {
        if !root.join(needed).is_file() {
            return Err(format!(
                "{} is missing: the scorecard must run inside the repository it was built from \
                 (it builds memnoded and minuet-stats from that source tree)",
                root.join(needed).display()
            ));
        }
    }
    Ok(root)
}

pub struct Bins {
    pub memnoded: PathBuf,
    pub stats: PathBuf,
}

/// Builds (a no-op when fresh) and locates `memnoded` and `minuet-stats`.
/// They go into the target directory this binary itself was built into,
/// so one `CARGO_TARGET_DIR` holds everything.
pub fn build_bins(root: &Path) -> Result<Bins, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", exe.display()))?;
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .args(["-p", "minuet-memnoded", "--bin", "memnoded", "--bin"])
        .args(["minuet-stats", "--target-dir"])
        .arg(target)
        // Progress and warnings go to stderr; stdout carries the result.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo to build memnoded: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of memnoded failed: {status}"));
    }
    let bin = |name: &str| {
        let p = target.join("release").join(name);
        if p.is_file() {
            Ok(p)
        } else {
            Err(format!("{} was not produced by the build", p.display()))
        }
    };
    Ok(Bins {
        memnoded: bin("memnoded")?,
        stats: bin("minuet-stats")?,
    })
}

/// A directory tree removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> Result<TempDir, String> {
        // A stale directory of the same pid is a leftover of a run that
        // was SIGKILLed; its name says it is ours.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where one run keeps its sockets, daemon logs and WALs.
pub struct RunDirs {
    /// Sockets and daemon stderr; relative to the repository root (the
    /// process's working directory), so socket paths stay short.
    pub run: TempDir,
    /// WAL directories, when `--log-dir` moves them off the run directory.
    pub log: Option<TempDir>,
}

impl RunDirs {
    pub fn create(workload: &str, log_dir: Option<&Path>) -> Result<RunDirs, String> {
        let tag = format!("{}-{workload}", std::process::id());
        Ok(RunDirs {
            run: TempDir::create(Path::new(RUN_BASE).join(&tag))?,
            log: match log_dir {
                Some(d) => Some(TempDir::create(d.join(format!("minuet-scorecard-{tag}")))?),
                None => None,
            },
        })
    }

    pub fn wal_base(&self) -> &Path {
        self.log.as_ref().unwrap_or(&self.run).path()
    }

    /// Removes what set-up `k` left, once its daemons are gone; the
    /// rest goes with the run directory itself.
    pub fn remove_setup(&self, k: usize) {
        for base in [self.run.path(), self.wal_base()] {
            let _ = std::fs::remove_dir_all(base.join(format!("s{k}")));
        }
    }
}

/// Child processes killed *and waited for* on drop.
pub struct Daemons(Vec<Child>);

impl Daemons {
    pub fn pids(&self) -> Vec<u32> {
        self.0.iter().map(Child::id).collect()
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
        }
        for c in &mut self.0 {
            let _ = c.wait();
        }
    }
}

/// One live cluster. Field order is drop order: client connections
/// close first, then the daemons die, and only then may the caller's
/// `RunDirs` remove the files under them.
pub struct Cluster {
    pub mc: Arc<MinuetCluster>,
    pub daemons: Daemons,
    pub endpoints: Vec<Endpoint>,
    /// This set-up's subdirectory of the WAL base.
    pub wal_dir: PathBuf,
    /// First byte of the scratch range on every memnode.
    pub scratch_off: u64,
}

fn tail_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(8)..].join("\n")
}

/// Spawns fresh daemons for set-up number `k` and connects to them.
pub fn spawn_cluster(
    bins: &Bins,
    dirs: &RunDirs,
    k: usize,
    cfg: &TreeConfig,
) -> Result<Cluster, String> {
    let sock_dir = dirs.run.path().join(format!("s{k}"));
    let wal_dir = dirs.wal_base().join(format!("s{k}"));
    for d in [&sock_dir, &wal_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let layout_bytes = MinuetCluster::required_node_capacity(cfg, 1, MEMNODES);
    let capacity_mb = (layout_bytes + SCRATCH_BYTES).div_ceil(1 << 20);

    let mut daemons = Daemons(Vec::new());
    let mut endpoints = Vec::new();
    let mut logs = Vec::new();
    for i in 0..MEMNODES {
        let sock = sock_dir.join(format!("m{i}.sock"));
        let log = sock_dir.join(format!("m{i}.log"));
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(&bins.memnoded);
        cmd.arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--id", &i.to_string()])
            .args(["--capacity-mb", &capacity_mb.to_string()])
            .arg("--dir")
            .arg(wal_dir.join(format!("m{i}")))
            .args(["--sync", "sync"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: the closure runs between fork and exec and makes one
        // async-signal-safe prctl call; it allocates nothing.
        unsafe { cmd.pre_exec(host::die_with_parent) };
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bins.memnoded.display()))?;
        daemons.0.push(child);
        endpoints.push(Endpoint::Unix(sock));
        logs.push(log);
    }

    // Wait for both sockets: the cluster constructor panics on a failed
    // handshake, and a daemon that died at start-up should be reported
    // with its own words.
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, ep) in endpoints.iter().enumerate() {
        let Endpoint::Unix(sock) = ep else {
            unreachable!("endpoints are unix sockets")
        };
        while !sock.exists() {
            if let Some(status) = daemons.0[i].try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "memnoded {i} exited at start-up ({status}):\n{}",
                    tail_of(&logs[i])
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "memnoded {i} did not listen within 10 s:\n{}",
                    tail_of(&logs[i])
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    let sin = ClusterConfig::with_memnodes(MEMNODES)
        .with_wire_transport(endpoints.clone(), WireConfig::default())
        .with_obs(minuet::obs::ObsConfig::default());
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg.clone());
    Ok(Cluster {
        mc,
        daemons,
        endpoints,
        wal_dir,
        scratch_off: layout_bytes,
    })
}

/// Counters of all polled daemons, summed by name.
pub type ServerCounters = BTreeMap<String, u64>;

/// Runs `minuet-stats --once` against the daemons and parses its text.
pub fn poll_stats(bins: &Bins, endpoints: &[Endpoint]) -> Result<ServerCounters, String> {
    let out = Command::new(&bins.stats)
        .arg("--once")
        .args(endpoints.iter().map(|e| e.to_string()))
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running {}: {e}", bins.stats.display()))?;
    if !out.status.success() {
        return Err(format!("minuet-stats failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    if text.contains("unreachable:") {
        return Err(format!("minuet-stats could not reach a daemon:\n{text}"));
    }
    Ok(parse_stats(&text))
}

/// Parses the `minuet-stats` dashboard. Per daemon it prints an `ops:`
/// and a `wal:` line of `key=value` pairs (kept as `ops.key` /
/// `wal_line.key`; `a/b` values as `key` and `key.of`), then a
/// `counters:` section of `name value` lines (kept by name). Histograms,
/// the client-side breaker section and anything unknown are skipped, so a
/// dashboard that only grows keeps parsing.
pub fn parse_stats(text: &str) -> ServerCounters {
    let mut sum = ServerCounters::new();
    let mut add = |k: String, v: u64| *sum.entry(k).or_insert(0) += v;
    let mut in_counters = false;
    for line in text.lines() {
        let t = line.trim();
        if let Some((section, rest)) = t.split_once(": ") {
            if section == "ops" || section == "wal" {
                let prefix = if section == "wal" { "wal_line" } else { "ops" };
                for pair in rest.split_whitespace() {
                    let Some((k, v)) = pair.split_once('=') else {
                        continue;
                    };
                    match v.split_once('/') {
                        Some((a, b)) => {
                            if let (Ok(a), Ok(b)) = (a.parse(), b.parse()) {
                                add(format!("{prefix}.{k}"), a);
                                add(format!("{prefix}.{k}.of"), b);
                            }
                        }
                        None => {
                            if let Ok(v) = v.parse() {
                                add(format!("{prefix}.{k}"), v);
                            }
                        }
                    }
                }
                in_counters = false;
                continue;
            }
        }
        if t.ends_with(':') || t.starts_with("==") {
            in_counters = t == "counters:";
            continue;
        }
        if in_counters {
            let mut it = t.split_whitespace();
            if let (Some(name), Some(v), None) = (it.next(), it.next(), it.next()) {
                if let Ok(v) = v.parse() {
                    add(name.to_string(), v);
                }
            }
        }
    }
    sum
}
