//! Quickstart: a four-memnode Minuet cluster, basic key-value operations,
//! a consistent snapshot, and a range scan.
//!
//! Run with: `cargo run --release --example quickstart`

use minuet::{MinuetCluster, TreeConfig};

fn main() {
    // A simulated cluster: 4 memnodes hosting one distributed B-tree.
    let cluster = MinuetCluster::new(4, 1, TreeConfig::default());
    let mut proxy = cluster.proxy();

    // Strictly-serializable key-value operations.
    for i in 0..1000u32 {
        proxy
            .put(
                0,
                format!("key{i:04}").into_bytes(),
                i.to_le_bytes().to_vec(),
            )
            .unwrap();
    }
    let v = proxy.get(0, b"key0042").unwrap().expect("key present");
    assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), 42);
    println!("loaded 1000 keys; key0042 reads back correctly");

    // Freeze a consistent snapshot; the tip keeps moving.
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

    // The snapshot still shows the frozen state; scans never abort.
    let frozen = proxy.scan_at(0, snap.frozen_sid, b"key0040", 3).unwrap();
    for (k, v) in &frozen {
        let n = u32::from_le_bytes(v.as_slice().try_into().unwrap());
        println!(
            "snapshot {}: {} = {}",
            snap.frozen_sid,
            String::from_utf8_lossy(k),
            n
        );
        assert!(n < 1_000_000, "snapshot must show pre-update values");
    }

    // The tip sees the new values.
    let v = proxy.get(0, b"key0042").unwrap().unwrap();
    assert_eq!(u32::from_le_bytes(v.try_into().unwrap()), 1_000_042);
    println!("tip sees updated values; snapshot stayed immutable");

    // Network cost accounting from the simulated transport.
    let net = &cluster.sinfonia.transport.stats;
    let (rts, msgs) = (net.round_trips.get(), net.messages.get());
    println!("total network round trips: {rts}, messages: {msgs}");
}
