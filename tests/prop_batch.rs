//! Property tests for the batched multi-op API: any interleaved sequence
//! of `multi_put` / `multi_remove` / `multi_get` batches (and loose single
//! ops) is observably equivalent to applying the same operations one at a
//! time — same returned previous values, same get results, same final
//! scan — including duplicate keys within a batch, overflow spills onto
//! the per-key fallback path, and mid-batch conflict retries forced by
//! concurrent writers sharing leaves. Clusters come from
//! `common::cluster`, so `MINUET_TRANSPORT=wire` runs the same properties
//! over sockets.

mod common;

use minuet::core::TreeConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(k: u16) -> Vec<u8> {
    format!("b{k:05}").into_bytes()
}

#[derive(Debug, Clone)]
enum Step {
    /// Batched inserts/updates (duplicate keys allowed).
    MultiPut(Vec<(u16, u8)>),
    /// Batched removals (absent keys allowed).
    MultiRemove(Vec<u16>),
    /// Batched lookups.
    MultiGet(Vec<u16>),
    /// A loose single put interleaved between batches.
    Put(u16, u8),
    /// A loose single remove.
    Remove(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let k = || any::<u16>().prop_map(|k| k % 384);
    let kv = (any::<u16>(), any::<u8>()).prop_map(|(k, v)| (k % 384, v));
    prop_oneof![
        4 => proptest::collection::vec(kv, 1..48).prop_map(Step::MultiPut),
        2 => proptest::collection::vec(k(), 1..48).prop_map(Step::MultiRemove),
        2 => proptest::collection::vec(k(), 1..48).prop_map(Step::MultiGet),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Step::Put(k % 384, v)),
        1 => any::<u16>().prop_map(|k| Step::Remove(k % 384)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, .. ProptestConfig::default()
    })]

    /// Single-client equivalence: every batch returns exactly what the
    /// one-at-a-time model returns, and the final tree matches it.
    #[test]
    fn batches_equal_sequential_application(steps in proptest::collection::vec(step_strategy(), 1..24)) {
        // Tiny nodes force deep trees, splits mid-batch, and the
        // overflow-spill path.
        let mc = common::cluster(2, 1, TreeConfig::small_nodes(4));
        let mut p = mc.proxy();
        let mut model: Model = BTreeMap::new();

        for step in &steps {
            match step {
                Step::MultiPut(pairs) => {
                    let input: Vec<(Vec<u8>, Vec<u8>)> =
                        pairs.iter().map(|(k, v)| (key(*k), vec![*v])).collect();
                    let got = p.multi_put(0, &input).unwrap();
                    let want: Vec<Option<Vec<u8>>> = input
                        .iter()
                        .map(|(k, v)| model.insert(k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Step::MultiRemove(keys) => {
                    let input: Vec<Vec<u8>> = keys.iter().map(|k| key(*k)).collect();
                    let got = p.multi_remove(0, &input).unwrap();
                    let want: Vec<Option<Vec<u8>>> =
                        input.iter().map(|k| model.remove(k)).collect();
                    prop_assert_eq!(got, want);
                }
                Step::MultiGet(keys) => {
                    let input: Vec<Vec<u8>> = keys.iter().map(|k| key(*k)).collect();
                    let got = p.multi_get(0, &input).unwrap();
                    let want: Vec<Option<Vec<u8>>> =
                        input.iter().map(|k| model.get(k).cloned()).collect();
                    prop_assert_eq!(got, want);
                }
                Step::Put(k, v) => {
                    let got = p.put(0, key(*k), vec![*v]).unwrap();
                    prop_assert_eq!(got, model.insert(key(*k), vec![*v]));
                }
                Step::Remove(k) => {
                    let got = p.remove(0, &key(*k)).unwrap();
                    prop_assert_eq!(got, model.remove(&key(*k)));
                }
            }
        }

        let scan = p.scan_serializable(0, b"", usize::MAX).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(scan, want);
    }

    /// Equivalence under concurrent writers: a background thread hammers
    /// the odd keys while the batch client works the even keys. The key
    /// sets are disjoint but share every leaf, so group commits keep
    /// losing validation races and exercise the requeue/fallback paths;
    /// the batch client's view of its own keys must stay exactly the
    /// sequential model, and the writer's keys must all survive.
    #[test]
    fn batches_stay_sequential_under_concurrent_writers(seed in any::<u64>()) {
        let mc = common::cluster(2, 1, TreeConfig::small_nodes(5));
        let stop = Arc::new(AtomicBool::new(false));

        // Background writer: single-key puts/removes on odd keys.
        let writer = {
            let mc = mc.clone();
            let stop = stop.clone();
            let mut rng = seed | 1;
            std::thread::spawn(move || {
                let mut p = mc.proxy();
                let mut model: Model = BTreeMap::new();
                while !stop.load(Ordering::Relaxed) {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = key(((rng % 256) | 1) as u16);
                    if rng.is_multiple_of(5) {
                        p.remove(0, &k).unwrap();
                        model.remove(&k);
                    } else {
                        p.put(0, k.clone(), b"w".to_vec()).unwrap();
                        model.insert(k, b"w".to_vec());
                    }
                }
                model
            })
        };

        // Batch client: multi ops on even keys, checked against the model
        // after every batch.
        let mut p = mc.proxy();
        let mut model: Model = BTreeMap::new();
        let mut rng = seed.wrapping_mul(0x2545F4914F6CDD1D) | 2;
        for round in 0..30u8 {
            let mut keys: Vec<Vec<u8>> = Vec::new();
            for _ in 0..24 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                keys.push(key(((rng % 256) & !1) as u16));
            }
            match round % 3 {
                0 | 1 => {
                    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
                        keys.iter().map(|k| (k.clone(), vec![round])).collect();
                    let got = p.multi_put(0, &pairs).unwrap();
                    let want: Vec<Option<Vec<u8>>> = pairs
                        .iter()
                        .map(|(k, v)| model.insert(k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, want, "multi_put round {}", round);
                }
                _ => {
                    let got = p.multi_remove(0, &keys).unwrap();
                    let want: Vec<Option<Vec<u8>>> =
                        keys.iter().map(|k| model.remove(k)).collect();
                    prop_assert_eq!(got, want, "multi_remove round {}", round);
                }
            }
            // Reads of own keys are deterministic despite the writer.
            let got = p.multi_get(0, &keys).unwrap();
            let want: Vec<Option<Vec<u8>>> =
                keys.iter().map(|k| model.get(k).cloned()).collect();
            prop_assert_eq!(got, want, "multi_get round {}", round);
        }
        stop.store(true, Ordering::Relaxed);
        let writer_model = writer.join().unwrap();

        // Quiescent final state: the union of both models, exactly.
        let mut union = model.clone();
        union.extend(writer_model);
        let scan = p.scan_serializable(0, b"", usize::MAX).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            union.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(scan, want);
    }

    /// Bulk load equals a map built from the same pairs (last value wins
    /// on duplicates), and the loaded tree behaves normally afterwards.
    #[test]
    fn bulk_load_equals_map(pairs in proptest::collection::vec(
        (any::<u16>(), any::<u8>()).prop_map(|(k, v)| (k % 2048, v)), 0..600
    )) {
        let mc = common::cluster(3, 1, TreeConfig::small_nodes(6));
        let mut p = mc.proxy();
        let input: Vec<(Vec<u8>, Vec<u8>)> =
            pairs.iter().map(|(k, v)| (key(*k), vec![*v])).collect();
        let mut model: Model = BTreeMap::new();
        for (k, v) in &input {
            model.insert(k.clone(), v.clone());
        }
        let loaded = p.bulk_load(0, input).unwrap();
        prop_assert_eq!(loaded, model.len());

        let scan = p.scan_serializable(0, b"", usize::MAX).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        prop_assert_eq!(scan, want);

        // The loaded tree accepts further batched writes.
        let extra: Vec<(Vec<u8>, Vec<u8>)> =
            (0..64u16).map(|i| (key(i * 31 % 2048), b"x".to_vec())).collect();
        let got = p.multi_put(0, &extra).unwrap();
        let want: Vec<Option<Vec<u8>>> = extra
            .iter()
            .map(|(k, v)| model.insert(k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, want);
    }
}
