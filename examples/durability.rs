//! Durability: build a tree, power-cut the whole cluster, restart it from
//! disk, and verify a snapshot scan sees exactly the frozen state.
//!
//! Every memnode logs before applying (redo log with CRC-framed records),
//! checkpoints bound the log, and `restart_from_disk` replays image + log
//! and resolves any in-doubt two-phase minitransactions.
//!
//! Run with: `cargo run --release --example durability`

use minuet::sinfonia::{ClusterConfig, DurabilityConfig, SyncMode};
use minuet::{MinuetCluster, TreeConfig};
use std::time::Duration;

fn main() {
    // Group commit: one fsync covers a whole window of commits.
    let durability = DurabilityConfig::ephemeral(
        "example",
        SyncMode::GroupCommit {
            window: Duration::from_millis(1),
        },
    );
    let dir = durability.dir.clone().unwrap();
    let sin_cfg = ClusterConfig {
        memnodes: 3,
        durability,
        ..Default::default()
    };
    let cfg = TreeConfig::default();

    // Build a tree and freeze a snapshot while the tip keeps moving.
    let cluster = MinuetCluster::with_cluster_config(sin_cfg.clone(), 1, cfg.clone());
    let mut proxy = cluster.proxy();
    for i in 0..1000u32 {
        proxy
            .put(
                0,
                format!("key{i:04}").into_bytes(),
                i.to_le_bytes().to_vec(),
            )
            .unwrap();
    }
    let snap = proxy.create_snapshot(0).unwrap();
    for i in 0..1000u32 {
        proxy
            .put(
                0,
                format!("key{i:04}").into_bytes(),
                (i + 1_000_000).to_le_bytes().to_vec(),
            )
            .unwrap();
    }
    let total = |name| cluster.sinfonia.memnode_total(name).expect("memnodes up");
    println!(
        "logged {} records ({} bytes), {} fsyncs, {} checkpoints",
        total("wal.appends"),
        total("wal.bytes"),
        total("wal.fsyncs"),
        total("wal.checkpoints"),
    );

    // Power off: drop every in-memory structure. Only the directory of
    // logs and checkpoint images survives.
    drop(proxy);
    drop(cluster);
    println!("cluster powered off; restarting from {}", dir.display());

    let (cluster, resolution) =
        MinuetCluster::restart_from_disk(sin_cfg, 1, cfg).expect("restart from disk");
    println!(
        "restarted; in-doubt resolution: {} committed, {} aborted",
        resolution.committed, resolution.aborted
    );
    let mut proxy = cluster.proxy();

    // The frozen snapshot is intact...
    let frozen = proxy.scan_at(0, snap.frozen_sid, b"", usize::MAX).unwrap();
    assert_eq!(frozen.len(), 1000);
    for (i, (_, v)) in frozen.iter().enumerate() {
        let n = u32::from_le_bytes(v.as_slice().try_into().unwrap());
        assert_eq!(n, i as u32, "snapshot must show pre-update values");
    }
    println!(
        "snapshot {} scan after restart: {} keys, all pre-update values",
        snap.frozen_sid,
        frozen.len()
    );

    // ...and so is the tip, which keeps serving.
    let v = proxy.get(0, b"key0042").unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), 1_000_042);
    proxy
        .put(0, b"post-restart".to_vec(), b"works".to_vec())
        .unwrap();
    println!("tip reads updated values and accepts new writes after restart");

    drop(proxy);
    drop(cluster);
    let _ = std::fs::remove_dir_all(dir);
}
