//! Wire-transport smoke test: two real `memnoded` *processes* on
//! Unix-domain sockets, a coordinator that bulk-loads and scans through
//! them over the binary wire protocol — with tracing armed, so the run
//! ends with a real client↔server span tree — a `minuet-stats` poll of
//! both daemons, and a clean shutdown via the `Shutdown` RPC.
//!
//! Build the binaries first, then run:
//!
//! ```sh
//! cargo build --release --bin memnoded --bin minuet-stats
//! cargo run --release --example wire_smoke
//! ```
//!
//! The binaries are located next to this example under
//! `target/<profile>/`; set `MEMNODED_BIN` / `MINUET_STATS_BIN` to
//! override. CI runs this as the end-to-end proof that the deployable
//! cluster works as a set of separate OS processes, not just in-process
//! servers.

use minuet::obs::ObsConfig;
use minuet::sinfonia::wire::Endpoint;
use minuet::sinfonia::{ClusterConfig, MemNodeId, RemoteNode, Transport, WireConfig};
use minuet::{MinuetCluster, TreeConfig};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Arc;

const MEMNODES: usize = 2;
const RECORDS: u32 = 10_000;

fn sibling_bin(name: &str, env_override: &str) -> PathBuf {
    if let Ok(p) = std::env::var(env_override) {
        return PathBuf::from(p);
    }
    // examples live in target/<profile>/examples/; the binaries sit one up.
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join(name))
        .expect("locate binary next to this example")
}

fn memnoded_bin() -> PathBuf {
    sibling_bin("memnoded", "MEMNODED_BIN")
}

struct Daemons(Vec<Child>);

impl Drop for Daemons {
    fn drop(&mut self) {
        // Best-effort cleanup if the smoke test fails before shutdown.
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn main() {
    let bin = memnoded_bin();
    assert!(
        bin.exists(),
        "memnoded binary not found at {} — run `cargo build --release --bin memnoded` first",
        bin.display()
    );

    let cfg = TreeConfig::default();
    let capacity = MinuetCluster::required_node_capacity(&cfg, 1, MEMNODES);
    let capacity_mb = capacity.div_ceil(1 << 20);

    let endpoints: Vec<Endpoint> = (0..MEMNODES)
        .map(|i| {
            Endpoint::Unix(
                std::env::temp_dir()
                    .join(format!("minuet-wire-smoke-{}-{i}.sock", std::process::id())),
            )
        })
        .collect();
    let mut daemons = Daemons(Vec::new());
    for (i, ep) in endpoints.iter().enumerate() {
        let child = Command::new(&bin)
            .args([
                "--listen",
                &ep.to_string(),
                "--id",
                &i.to_string(),
                "--capacity-mb",
                &capacity_mb.to_string(),
            ])
            .spawn()
            .expect("spawn memnoded");
        daemons.0.push(child);
    }
    println!(
        "spawned {MEMNODES} memnoded processes ({} MiB each) on unix sockets",
        capacity_mb
    );

    // The coordinator: same Minuet stack, transport selected by config.
    // Cluster construction retries the handshake while the daemons bind.
    let sin = ClusterConfig {
        capacity_per_node: capacity,
        ..ClusterConfig::with_memnodes(MEMNODES)
    }
    .with_wire_transport(endpoints.clone(), WireConfig::default())
    .with_obs(ObsConfig::sampled(1));
    let mc = MinuetCluster::with_cluster_config(sin, 1, cfg);
    let mut proxy = mc.proxy();

    let pairs: Vec<_> = (0..RECORDS)
        .map(|i| (format!("key{i:06}").into_bytes(), i.to_le_bytes().to_vec()))
        .collect();
    proxy.bulk_load(0, pairs).expect("bulk load over the wire");
    println!("bulk-loaded {RECORDS} records over the wire");

    let rows = proxy
        .scan_with_snapshot(0, b"key004200", 100)
        .expect("scan over the wire");
    assert_eq!(rows.len(), 100);
    assert_eq!(rows[0].0, b"key004200".to_vec());
    let v = proxy.get(0, b"key009999").expect("get").expect("present");
    assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), 9_999);
    let (bytes_out, bytes_in) = mc.sinfonia.transport.stats.bytes_snapshot();
    println!("scan + point reads verified; {bytes_out} B out / {bytes_in} B in of real frames");

    // Tracing was armed for every op: the last trace must stitch server
    // spans (recorded by the daemon processes) onto the client's tree.
    let trace = mc
        .sinfonia
        .obs()
        .recent(1)
        .pop()
        .expect("sampled ops left no trace");
    assert!(
        trace.spans.iter().any(|s| s.kind >= 9),
        "trace carries no server-side spans from the daemons"
    );
    println!("sampled span tree of the last op:\n{}", trace.render());

    // The dashboard must be able to poll live daemons.
    let stats_bin = sibling_bin("minuet-stats", "MINUET_STATS_BIN");
    assert!(
        stats_bin.exists(),
        "minuet-stats binary not found at {} — run `cargo build --release --bin minuet-stats` first",
        stats_bin.display()
    );
    let status = Command::new(&stats_bin)
        .args(endpoints.iter().map(|e| e.to_string()))
        .arg("--once")
        .status()
        .expect("run minuet-stats");
    assert!(status.success(), "minuet-stats exited with {status}");
    println!("minuet-stats polled both daemons");

    // Clean shutdown: one Shutdown RPC per daemon, then reap the
    // processes and check their exit codes.
    drop(proxy);
    let transport = Arc::new(Transport::new(None));
    for (i, ep) in endpoints.iter().enumerate() {
        let client = RemoteNode::new(
            MemNodeId(i as u16),
            ep.clone(),
            WireConfig::default(),
            transport.clone(),
        );
        client.shutdown_server().expect("shutdown RPC");
    }
    for (i, mut child) in daemons.0.drain(..).enumerate() {
        let status = child.wait().expect("wait for memnoded");
        assert!(status.success(), "memnoded {i} exited with {status}");
    }
    println!("both daemons exited cleanly on the Shutdown RPC");
}
