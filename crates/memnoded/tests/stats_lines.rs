//! The dashboard contract, tested where it is produced: a `minuet-stats
//! --once` poll of a real `memnoded` prints an `ops:` and a `wal:` line
//! whose every key is present, in order, and equals the daemon's own
//! snapshot, and a `counters:` section naming every series the benchmark
//! runner reads. A dead endpoint prints `unreachable`, never a row of
//! zeros.

use minuet_obs::ObsSnapshot;
use minuet_sinfonia::wire::Endpoint;
use minuet_sinfonia::{
    ClusterConfig, ItemRange, MemNodeId, Minitransaction, RemoteNode, SinfoniaCluster, Transport,
    Unavailable, WireConfig,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("memnoded-stats-{}-{tag}", std::process::id()))
}

/// Kills the daemon when the test ends, passing or not.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(ep: &Path, dir: &Path) -> Daemon {
    let child = Command::new(env!("CARGO_BIN_EXE_memnoded"))
        .args([
            "--listen",
            &format!("unix:{}", ep.display()),
            "--dir",
            &dir.display().to_string(),
            "--sync",
            "sync",
            "--capacity-mb",
            "1",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn memnoded");
    Daemon(child)
}

fn handle(ep: &Path) -> RemoteNode {
    let endpoint = Endpoint::Unix(ep.to_path_buf());
    let transport = Arc::new(Transport::new(None));
    RemoteNode::new(MemNodeId(0), endpoint, WireConfig::default(), transport)
}

fn minuet_stats(endpoint: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_minuet-stats"))
        .args(["--once", endpoint])
        .output()
        .expect("run minuet-stats");
    assert!(out.status.success(), "minuet-stats exited {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 dashboard")
}

/// The `key=value` pairs of the dashboard line that starts `section:`.
fn pairs(text: &str, section: &str) -> Vec<(String, String)> {
    let prefix = format!("{section}: ");
    let line = text
        .lines()
        .find_map(|l| l.trim().strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no `{section}:` line in\n{text}"));
    line.split_whitespace()
        .map(|pair| {
            let (k, v) = pair.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect()
}

/// What each key of the `ops:` and `wal:` lines must read, in order,
/// computed from the daemon's snapshot.
fn expected(snap: &ObsSnapshot) -> [Vec<(&'static str, String)>; 2] {
    let v = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("the snapshot has no `{name}`"))
    };
    let fastpath = v("memnode.read_fastpath");
    let ops = vec![
        ("single_commits", v("memnode.single_commits").to_string()),
        ("prepares", v("memnode.prepares").to_string()),
        ("commits", v("memnode.commits").to_string()),
        ("aborts", v("memnode.aborts").to_string()),
        ("busy", v("memnode.busy").to_string()),
        (
            "fastpath",
            format!(
                "{fastpath}/{}",
                fastpath + v("memnode.read_fastpath_misses")
            ),
        ),
        ("in_doubt", v("memnode.in_doubt").to_string()),
    ];
    let wal = vec![
        ("appends", v("wal.appends").to_string()),
        ("bytes", v("wal.bytes").to_string()),
        ("fsyncs", v("wal.fsyncs").to_string()),
        ("retained", v("wal.retained_bytes").to_string()),
        ("checkpoints", v("wal.checkpoints").to_string()),
        ("durable", (v("wal.durable") == 1).to_string()),
    ];
    [ops, wal]
}

#[test]
fn dashboard_lines_match_the_daemon_snapshot() {
    let (ep, dir) = (scratch("sock"), scratch("dir"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let _daemon = spawn_daemon(&ep, &dir);
    let node = handle(&ep);
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.hello().is_err() {
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }

    let c = SinfoniaCluster::new(
        ClusterConfig {
            capacity_per_node: 1 << 20,
            ..ClusterConfig::with_memnodes(1)
        }
        .with_wire_transport(vec![Endpoint::Unix(ep.clone())], WireConfig::default()),
    );
    for i in 0..8u64 {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId(0), i * 8, 8),
            i.to_le_bytes().to_vec(),
        );
        assert!(c.execute(&m).unwrap().committed());
    }
    let mut read = Minitransaction::new();
    read.read(ItemRange::new(MemNodeId(0), 0, 8));
    assert!(c.execute(&read).unwrap().committed());
    assert!(node.checkpoint().unwrap(), "checkpoint skipped");

    let text = minuet_stats(&format!("unix:{}", ep.display()));
    let snap = node.obs_snapshot().expect("daemon is up");
    let [ops, wal] = expected(&snap);
    for (section, want) in [("ops", ops), ("wal", wal)] {
        let got = pairs(&text, section);
        let want: Vec<(String, String)> =
            want.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(got, want, "the `{section}:` line");
    }
    assert!(text.contains("checkpoints=1 durable=true"), "{text}");

    let counters: Vec<&str> = text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "counters:")
        .skip(1)
        .take_while(|l| !l.ends_with(':'))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in [
        "memnode.read_fastpath",
        "memnode.read_fastpath_misses",
        "memnode.write_fastpath",
        "memnode.write_fastpath_misses",
        "memnode.busy",
        "memnode.prepares",
        "memnode.aborts",
        "wal.fsyncs",
        "wal.bytes",
    ] {
        assert!(counters.contains(&name), "`counters:` lacks {name}\n{text}");
    }
    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ep);
}

#[test]
fn a_dead_endpoint_prints_unreachable_and_no_ops_line() {
    let ep = scratch("nobody.sock");
    let _ = std::fs::remove_file(&ep);
    // The handle says so too: an error, not an empty snapshot.
    assert_eq!(handle(&ep).obs_snapshot(), Err(Unavailable(MemNodeId(0))));
    let text = minuet_stats(&format!("unix:{}", ep.display()));
    assert!(text.contains("unreachable"), "{text}");
    assert!(!text.contains("ops:"), "{text}");
}
