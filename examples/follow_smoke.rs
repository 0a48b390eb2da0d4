//! Replication-pipeline smoke test: two real `memnoded` *processes* — a
//! durable primary and a durable follower running with `--follow` — with
//! a coordinator committing through the primary while the follower pulls
//! the WAL stream over the wire. The follower is then SIGKILLed
//! mid-stream and respawned on its durability directory: the pull cursor
//! is the durable replication watermark, so the stream must resume with
//! no gaps and no duplicate applies.
//!
//! Build the daemon first, then run:
//!
//! ```sh
//! cargo build --release --bin memnoded
//! cargo run --release --example follow_smoke
//! ```
//!
//! Set `MEMNODED_BIN` to override the binary location. CI runs this as
//! the end-to-end proof that `memnoded --follow` implements the
//! replication plane as separate OS processes.

use minuet::sinfonia::wire::Endpoint;
use minuet::sinfonia::{
    ClusterConfig, ItemRange, MemNodeId, Minitransaction, RemoteNode, Transport, WireConfig,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Duration;

const CAPACITY_MB: u64 = 1;
const SLOTS: u64 = 200;

fn memnoded_bin() -> PathBuf {
    if let Ok(p) = std::env::var("MEMNODED_BIN") {
        return PathBuf::from(p);
    }
    // examples live in target/<profile>/examples/; the binary sits one up.
    let exe = std::env::current_exe().expect("current_exe");
    exe.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("memnoded"))
        .expect("locate memnoded next to this example")
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

fn sock(tag: &str) -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join(format!(
        "minuet-follow-smoke-{}-{tag}.sock",
        std::process::id()
    )))
}

fn spawn_daemon(bin: &Path, ep: &Endpoint, dir: &Path, follow: Option<&Endpoint>) -> Child {
    let mut cmd = Command::new(bin);
    cmd.args([
        "--listen",
        &ep.to_string(),
        "--id",
        "0",
        "--capacity-mb",
        &CAPACITY_MB.to_string(),
        "--dir",
        &dir.display().to_string(),
        "--sync",
        "async",
    ]);
    if let Some(primary) = follow {
        cmd.args(["--follow", &primary.to_string(), "--follow-poll-ms", "1"]);
    }
    cmd.spawn().expect("spawn memnoded")
}

fn wire_cluster(ep: &Endpoint) -> Arc<minuet::sinfonia::SinfoniaCluster> {
    let cfg = ClusterConfig {
        capacity_per_node: CAPACITY_MB << 20,
        ..ClusterConfig::with_memnodes(1)
    }
    .with_wire_transport(vec![ep.clone()], WireConfig::default());
    minuet::sinfonia::SinfoniaCluster::new(cfg)
}

fn put_slots(primary: &minuet::sinfonia::SinfoniaCluster, range: std::ops::Range<u64>) {
    for i in range {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId(0), i * 8, 8),
            i.to_le_bytes().to_vec(),
        );
        assert!(primary.execute(&m).unwrap().committed());
    }
}

fn assert_slots(follower: &minuet::sinfonia::SinfoniaCluster, upto: u64) {
    let mut m = Minitransaction::new();
    for i in 0..upto {
        m.read(ItemRange::new(MemNodeId(0), i * 8, 8));
    }
    let reads = follower.execute(&m).unwrap().into_reads();
    for (i, got) in reads.data.iter().enumerate() {
        assert_eq!(
            got.as_ref(),
            (i as u64).to_le_bytes(),
            "slot {i} missing or stale on the follower"
        );
    }
}

fn main() {
    let bin = memnoded_bin();
    assert!(
        bin.exists(),
        "memnoded binary not found at {} — run `cargo build --release --bin memnoded` first",
        bin.display()
    );
    let base = std::env::temp_dir().join(format!("minuet-follow-smoke-{}", std::process::id()));
    let pdir = base.join("primary");
    let fdir = base.join("follower");
    std::fs::create_dir_all(&pdir).unwrap();
    std::fs::create_dir_all(&fdir).unwrap();

    let pep = sock("primary");
    let fep = sock("follower");
    let mut daemons = Daemons(Vec::new());
    daemons.0.push(spawn_daemon(&bin, &pep, &pdir, None));
    daemons.0.push(spawn_daemon(&bin, &fep, &fdir, Some(&pep)));
    println!(
        "spawned primary and follower memnoded ({} following {})",
        fep, pep
    );

    let primary = wire_cluster(&pep);
    let follower = wire_cluster(&fep);

    put_slots(&primary, 0..SLOTS / 2);
    let token = primary.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(20)),
        "follower never converged: {:?}",
        follower.repl_statuses()
    );
    assert_slots(&follower, SLOTS / 2);
    println!(
        "follower caught up to {} committed slots over the wire",
        SLOTS / 2
    );

    // SIGKILL the follower mid-pipeline; the primary keeps committing.
    let mut victim = daemons.0.pop().unwrap();
    victim.kill().expect("kill follower");
    victim.wait().expect("reap follower");
    drop(follower);
    put_slots(&primary, SLOTS / 2..SLOTS);

    // Respawn on the same durability directory (fresh socket): the pull
    // cursor is the recovered watermark, so the stream just resumes.
    let fep2 = sock("follower2");
    daemons.0.push(spawn_daemon(&bin, &fep2, &fdir, Some(&pep)));
    let follower = wire_cluster(&fep2);
    let token = primary.repl_token();
    assert!(
        follower.wait_replicated(&token, Duration::from_secs(20)),
        "stream did not resume after follower restart: {:?}",
        follower.repl_statuses()
    );
    assert_slots(&follower, SLOTS);
    let status = &follower.repl_statuses()[0];
    let tail = primary.repl_statuses()[0].tail;
    assert_eq!(status.watermark, tail, "follower watermark left a gap");
    println!(
        "follower restarted, resumed at its durable watermark, converged to all {} slots \
         (watermark {} = primary tail)",
        SLOTS, status.watermark
    );

    // Clean shutdown: one Shutdown RPC per daemon, then reap.
    let transport = Arc::new(Transport::new(None));
    for ep in [&pep, &fep2] {
        RemoteNode::new(
            MemNodeId(0),
            ep.clone(),
            WireConfig::default(),
            transport.clone(),
        )
        .shutdown_server()
        .expect("shutdown RPC");
    }
    for mut child in daemons.0.drain(..) {
        let status = child.wait().expect("wait for memnoded");
        assert!(status.success(), "memnoded exited with {status}");
    }
    println!("both daemons exited cleanly on the Shutdown RPC");
    let _ = std::fs::remove_dir_all(&base);
}
