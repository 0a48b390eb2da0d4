//! Graceful-shutdown test against the real `memnoded` binary: SIGTERM
//! mid-write drains the daemon, flushes durable state, and exits 0 —
//! and a restart on the same directory serves every acked commit.

use minuet_sinfonia::wire::Endpoint;
use minuet_sinfonia::{
    ClusterConfig, ItemRange, MemNodeId, Minitransaction, RemoteNode, SinfoniaCluster, Transport,
    WireConfig,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAPACITY: u64 = 1 << 20;

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "memnoded-sigterm-{}-{tag}.sock",
        std::process::id()
    ))
}

fn spawn_daemon(ep: &Path, dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_memnoded"))
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
        .expect("spawn memnoded")
}

fn wait_ready(ep: &Path) -> RemoteNode {
    let transport = Arc::new(Transport::new(None));
    let node = RemoteNode::new(
        MemNodeId(0),
        Endpoint::Unix(ep.to_path_buf()),
        WireConfig::default(),
        transport,
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while node.hello().is_err() {
        assert!(Instant::now() < deadline, "daemon never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
    node
}

fn wire_cluster(ep: &Path) -> Arc<SinfoniaCluster> {
    SinfoniaCluster::new(
        ClusterConfig {
            capacity_per_node: CAPACITY,
            ..ClusterConfig::with_memnodes(1)
        }
        .with_wire_transport(
            vec![Endpoint::Unix(ep.to_path_buf())],
            WireConfig::default(),
        ),
    )
}

#[test]
fn sigterm_mid_write_loses_no_acked_commit_and_exits_zero() {
    let ep = sock("main");
    let dir = std::env::temp_dir().join(format!(
        "memnoded-sigterm-{}-{:x}",
        std::process::id(),
        0x51673u32
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut child = spawn_daemon(&ep, &dir);
    let _probe = wait_ready(&ep);
    let c = wire_cluster(&ep);

    // A writer hammers the daemon; everything it gets an ack for must
    // survive the SIGTERM.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut acked: Vec<u64> = Vec::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut m = Minitransaction::new();
                m.write(
                    ItemRange::new(MemNodeId(0), (i % 512) * 8, 8),
                    (i + 1).to_le_bytes().to_vec(),
                );
                match c.execute(&m) {
                    Ok(o) if o.committed() => acked.push(i),
                    _ => break, // the daemon is draining; stop cleanly
                }
                i += 1;
            }
            acked
        })
    };

    // SIGTERM mid-write, while the writer is in full flight.
    std::thread::sleep(Duration::from_millis(150));
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success(), "kill -TERM failed");

    // Graceful exit: status 0, within a drain timeout.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        assert!(Instant::now() < deadline, "daemon hung on SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM exit was not clean: {status}");

    stop.store(true, Ordering::Relaxed);
    let acked = writer.join().expect("writer panicked");
    assert!(!acked.is_empty(), "no write ever acked before the SIGTERM");

    // Restart on the same directory: every acked write must be there.
    let ep2 = sock("restart");
    let mut child2 = spawn_daemon(&ep2, &dir);
    let node2 = wait_ready(&ep2);
    let mut latest: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &i in &acked {
        latest.insert(i % 512, i + 1);
    }
    for (slot, want) in latest {
        let got = node2.raw_read(slot * 8, 8).expect("read after restart");
        assert_eq!(
            u64::from_le_bytes(got.try_into().unwrap()),
            want,
            "slot {slot}: acked write lost across SIGTERM"
        );
    }

    let _ = Command::new("kill")
        .args(["-TERM", &child2.id().to_string()])
        .status();
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ep);
    let _ = std::fs::remove_file(&ep2);
}
