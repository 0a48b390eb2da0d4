//! Property tests for validated leaf-cache coherence: a proxy that serves
//! gets from cached leaves (revalidated by compare-only minitransactions)
//! must never return a stale value, no matter how another proxy mutates
//! the tree under it — in-place leaf updates, splits, copy-on-write
//! forced by snapshots, GC frees, and live migrations that relocate the
//! very leaf the cache points at. Staleness must be *detected by seqno
//! validation*, never missed by luck: the reader asserts every get against
//! a sequential model, and a final counter check proves the cached path
//! was actually exercised. The writer reads too: its cache is filled by
//! its own commits, which put back every node image they wrote, while
//! snapshots, GC and migration run under it. Clusters come from
//! `common::cluster`, so `MINUET_TRANSPORT=wire` runs the same properties
//! over sockets.

mod common;

use minuet::core::alloc::AllocState;
use minuet::dyntx::decode_obj;
use minuet::sinfonia::MemNodeId;
use minuet::{MinuetCluster, Node, NodePtr, TreeConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(k: u16) -> Vec<u8> {
    format!("c{k:05}").into_bytes()
}

#[derive(Debug, Clone)]
enum Op {
    /// Writer: insert/update (splits on overflow).
    Put(u16, u8),
    /// Writer: remove (empties leaves).
    Remove(u16),
    /// Writer: batched puts (exercises the grouped-fetch path's own
    /// cache population).
    MultiPut(Vec<(u16, u8)>),
    /// Writer: snapshot, making the next put copy-on-write its leaf.
    Snapshot,
    /// Writer: GC up to the tip (frees CoW'd originals; slots get
    /// reused, which cached pointers must survive via seqno mismatch).
    Gc,
    /// Writer: migrate the `i`-th live leaf of memnode `mem % 2` to the
    /// other memnode.
    Migrate(u8, u8),
    /// Reader: validated get, checked against the model.
    Get(u16),
    /// Reader: batched gets (cached leaves reused via compare items).
    MultiGet(Vec<u16>),
    /// Writer: validated get over the images its commits installed.
    WriterGet(u16),
    /// Writer: batched gets over the images its commits installed.
    WriterMultiGet(Vec<u16>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let kv = || (any::<u16>(), any::<u8>()).prop_map(|(k, v)| (k % 192, v));
    prop_oneof![
        5 => kv().prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u16>().prop_map(|k| Op::Remove(k % 192)),
        2 => proptest::collection::vec(kv(), 1..24).prop_map(Op::MultiPut),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Gc),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Migrate(a, b)),
        5 => any::<u16>().prop_map(|k| Op::Get(k % 192)),
        2 => proptest::collection::vec(any::<u16>().prop_map(|k| k % 192), 1..24)
            .prop_map(Op::MultiGet),
        3 => any::<u16>().prop_map(|k| Op::WriterGet(k % 192)),
        1 => proptest::collection::vec(any::<u16>().prop_map(|k| k % 192), 1..24)
            .prop_map(Op::WriterMultiGet),
    ]
}

fn live_leaves(mc: &Arc<MinuetCluster>, mem: MemNodeId) -> Vec<NodePtr> {
    let layout = *mc.layout(0);
    let node = mc.sinfonia.node(mem);
    let sraw = node.raw_read(layout.alloc_state(mem).off, 64).unwrap();
    let bump = AllocState::decode(&decode_obj(&sraw).data).bump;
    (0..bump)
        .filter_map(|slot| {
            let ptr = NodePtr { mem, slot };
            let obj = layout.node_obj(ptr);
            let raw = node.raw_read(obj.off, obj.cap).unwrap();
            let n = Node::decode(&decode_obj(&raw).data).ok()?;
            (n.height == 0).then_some(ptr)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, .. ProptestConfig::default()
    })]

    /// Sequential interleaving: after ANY writer-side mutation the
    /// reader's cached leaves may be stale, and every single read must
    /// still return exactly the model's answer.
    #[test]
    fn stale_cached_leaves_always_detected(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        // Tiny nodes: splits and multi-leaf trees from few keys.
        let mc = common::cluster(2, 1, TreeConfig::small_nodes(4));
        let mut reader = mc.proxy();
        let mut writer = mc.proxy();
        let mut model: Model = BTreeMap::new();

        // Warm the reader's leaf cache over an initial population so the
        // very first writer mutations hit cached leaves.
        for k in 0..48u16 {
            writer.put(0, key(k), vec![k as u8]).unwrap();
            model.insert(key(k), vec![k as u8]);
        }
        for k in 0..48u16 {
            prop_assert_eq!(reader.get(0, &key(k)).unwrap(), model.get(&key(k)).cloned());
        }

        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let old = writer.put(0, key(k), vec![v]).unwrap();
                    prop_assert_eq!(old, model.insert(key(k), vec![v]));
                }
                Op::Remove(k) => {
                    let old = writer.remove(0, &key(k)).unwrap();
                    prop_assert_eq!(old, model.remove(&key(k)));
                }
                Op::MultiPut(pairs) => {
                    let batch: Vec<(Vec<u8>, Vec<u8>)> =
                        pairs.iter().map(|&(k, v)| (key(k), vec![v])).collect();
                    let olds = writer.multi_put(0, &batch).unwrap();
                    for ((k, v), old) in batch.into_iter().zip(olds) {
                        prop_assert_eq!(old, model.insert(k, v));
                    }
                }
                Op::Snapshot => {
                    writer.create_snapshot(0).unwrap();
                }
                Op::Gc => {
                    let (tip, _) = writer.current_tip(0).unwrap();
                    writer.set_watermark(0, tip).unwrap();
                    writer.gc_sweep(0).unwrap();
                }
                Op::Migrate(a, b) => {
                    let src_mem = MemNodeId((a % 2) as u16);
                    let dst_mem = MemNodeId(((a % 2) ^ 1) as u16);
                    let leaves = live_leaves(&mc, src_mem);
                    if !leaves.is_empty() {
                        let src = leaves[b as usize % leaves.len()];
                        writer.migrate_node(0, src, dst_mem).unwrap();
                    }
                }
                Op::Get(k) | Op::WriterGet(k) => {
                    let p = if matches!(op, Op::Get(_)) { &mut reader } else { &mut writer };
                    prop_assert_eq!(p.get(0, &key(k)).unwrap(), model.get(&key(k)).cloned());
                }
                Op::MultiGet(ref ks) | Op::WriterMultiGet(ref ks) => {
                    let p = if matches!(op, Op::MultiGet(_)) { &mut reader } else { &mut writer };
                    let keys: Vec<Vec<u8>> = ks.iter().map(|&k| key(k)).collect();
                    let got = p.multi_get(0, &keys).unwrap();
                    for (k, g) in keys.iter().zip(got) {
                        prop_assert_eq!(g, model.get(k).cloned());
                    }
                }
            }
        }

        // Full sweep through both (possibly stale) caches, then prove the
        // cached path ran at all.
        for k in 0..192u16 {
            prop_assert_eq!(reader.get(0, &key(k)).unwrap(), model.get(&key(k)).cloned());
            prop_assert_eq!(writer.get(0, &key(k)).unwrap(), model.get(&key(k)).cloned());
        }
        let scan = reader.scan_serializable(0, b"", usize::MAX).unwrap();
        let flat: Model = scan.into_iter().collect();
        prop_assert_eq!(&flat, &model);
        prop_assert!(
            reader.stats.leaf_cache_hits > 0,
            "test never exercised the validated leaf cache"
        );
    }
}

/// A cached leaf relocated by migration: the old slot is freed (its seqno
/// changes when the free-list segment is written), so a reader routed by
/// a stale parent image can never have a stale cached leaf survive
/// validation. Deterministic version of the property above, pinned to the
/// exact scenario the migration subsystem creates.
#[test]
fn migration_invalidates_cached_leaves() {
    let mc = common::cluster(2, 1, TreeConfig::small_nodes(4));
    let mut reader = mc.proxy();
    let mut writer = mc.proxy();
    for k in 0..64u16 {
        writer.put(0, key(k), vec![1]).unwrap();
    }
    // Warm every leaf into the reader's cache.
    for k in 0..64u16 {
        assert_eq!(reader.get(0, &key(k)).unwrap(), Some(vec![1]));
    }
    let before_hits = reader.stats.leaf_cache_hits;

    // Move every live leaf to the other memnode, then mutate everything.
    for mem in [MemNodeId(0), MemNodeId(1)] {
        let dst = MemNodeId(mem.0 ^ 1);
        for src in live_leaves(&mc, mem) {
            writer.migrate_node(0, src, dst).unwrap();
        }
    }
    for k in 0..64u16 {
        writer.put(0, key(k), vec![2]).unwrap();
    }

    for k in 0..64u16 {
        assert_eq!(
            reader.get(0, &key(k)).unwrap(),
            Some(vec![2]),
            "stale value served for key {k} after migration"
        );
    }
    assert!(reader.stats.leaf_cache_hits >= before_hits);
}

/// Concurrent stress: one writer bumps per-key counters while a reader
/// (with a warm leaf cache) polls them. Strict serializability of gets
/// means per-key reads must be non-decreasing; a stale cached leaf served
/// without validation would show up as a counter going backwards.
#[test]
fn concurrent_reads_never_go_backwards() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mc = common::cluster(2, 1, TreeConfig::small_nodes(8));
    let nkeys: u64 = 64;
    {
        let mut w = mc.proxy();
        for k in 0..nkeys {
            w.put(0, key(k as u16), 0u64.to_le_bytes().to_vec())
                .unwrap();
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let leaf_hits = std::thread::scope(|s| {
        let mcw = mc.clone();
        let stopw = stop.clone();
        s.spawn(move || {
            let mut w = mcw.proxy();
            let mut rng: u64 = 0x9E3779B97F4A7C15;
            let mut counters = vec![0u64; nkeys as usize];
            while !stopw.load(Ordering::Relaxed) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = (rng % nkeys) as usize;
                counters[k] += 1;
                w.put(0, key(k as u16), counters[k].to_le_bytes().to_vec())
                    .unwrap();
            }
        });
        let mcr = mc.clone();
        let reader = s.spawn(move || {
            let mut r = mcr.proxy();
            let mut seen = vec![0u64; nkeys as usize];
            let mut rng: u64 = 0x243F6A8885A308D3;
            for _ in 0..20_000 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let k = (rng % nkeys) as usize;
                let raw = r.get(0, &key(k as u16)).unwrap().expect("key present");
                let v = u64::from_le_bytes(raw.try_into().unwrap());
                assert!(
                    v >= seen[k],
                    "key {k} went backwards: {v} < {} (stale cached leaf?)",
                    seen[k]
                );
                seen[k] = v;
            }
            r.stats.leaf_cache_hits
        });
        let hits = reader.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        hits
    });
    assert!(leaf_hits > 0, "reader never used the validated leaf cache");
}
