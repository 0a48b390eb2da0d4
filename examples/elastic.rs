//! Elastic scale-out walkthrough: grow a running cluster, rebalance the
//! B-tree onto the new memnode, then drain a memnode for decommission —
//! all while a workload keeps running.
//!
//! ```sh
//! cargo run --release --example elastic
//! ```

use minuet::sinfonia::MemNodeId;
use minuet::workload::{occupancy_row, print_table};
use minuet::{occupancy, MinuetCluster, TreeConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn show(mc: &Arc<MinuetCluster>, title: &str) {
    let rows: Vec<Vec<String>> = occupancy(mc, 0)
        .unwrap()
        .iter()
        .map(|o| {
            occupancy_row(
                &o.mem.to_string(),
                o.live as u64,
                o.free_listed as u64,
                o.bump as u64,
                o.migrating as u64,
                o.retiring,
            )
        })
        .collect();
    print_table(
        title,
        &["memnode", "live", "free", "bump", "migrating", "state"],
        &rows,
    );
}

fn main() {
    // Start small: one memnode, with layout headroom for four.
    let cfg = TreeConfig {
        max_memnodes: 4,
        ..TreeConfig::default()
    };
    let mc = MinuetCluster::new(1, 1, cfg);
    let mut p = mc.proxy();
    for i in 0..20_000u64 {
        p.put(
            0,
            format!("key{i:08}").into_bytes(),
            i.to_le_bytes().to_vec(),
        )
        .unwrap();
    }
    show(&mc, "1 memnode, 20k keys");

    // Keep a workload running through every elastic step.
    let stop = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let worker = {
        let (mc, stop, ops) = (mc.clone(), stop.clone(), ops.clone());
        std::thread::spawn(move || {
            let mut p = mc.proxy();
            let mut rng = 0xDEADBEEFu64;
            while !stop.load(Ordering::Relaxed) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = format!("key{:08}", rng % 20_000).into_bytes();
                if rng.is_multiple_of(4) {
                    p.put(0, k, rng.to_le_bytes().to_vec()).unwrap();
                } else {
                    p.get(0, &k).unwrap();
                }
                ops.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // Scale out: two more memnodes, then shift existing load onto them.
    mc.add_memnode().unwrap();
    mc.add_memnode().unwrap();
    println!("\nadded 2 memnodes (replicated objects seeded online)");
    let report = mc.rebalance().unwrap();
    println!(
        "rebalance moved {} nodes in {} rounds",
        report.moved, report.rounds
    );
    show(&mc, "3 memnodes, rebalanced");

    // Scale in: decommission memnode 0.
    let moved = mc.drain(MemNodeId(0)).unwrap();
    println!("\ndrained {moved} nodes off mem0 (now retiring, zero live slots)");
    show(&mc, "mem0 drained");

    stop.store(true, Ordering::Relaxed);
    worker.join().unwrap();
    let migrate = |name| mc.sinfonia.obs().registry.counter(name).get();
    println!(
        "\nworkload ran {} ops concurrently; migrations: {} started, {} completed, \
         {} aborted, {} retries",
        ops.load(Ordering::Relaxed),
        migrate("migrate.started"),
        migrate("migrate.completed"),
        migrate("migrate.aborted"),
        migrate("migrate.retries"),
    );

    // Everything still reads.
    let got = p.scan_serializable(0, b"", usize::MAX).unwrap();
    assert_eq!(got.len(), 20_000);
    println!("scan of all 20k keys: OK");
}
