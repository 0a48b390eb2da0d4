//! Entries of mixed and of extreme sizes: a leaf splits by bytes, not only
//! by count, and an entry the tree cannot hold is refused with
//! `Error::EntryTooLarge` before anything is staged.

use minuet_core::{Error, MinuetCluster, TreeConfig};

fn all(p: &mut minuet_core::Proxy) -> Vec<(Vec<u8>, Vec<u8>)> {
    p.scan_serializable(0, b"", usize::MAX).unwrap()
}

#[test]
fn small_entries_then_large_ones_split_by_bytes() {
    // The count midpoint of 19 one-byte and 20 200-byte entries leaves
    // every large one in the right half, past the node's capacity.
    let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    let mut p = mc.proxy();
    for i in 0..19u8 {
        p.put(0, vec![b'a', i], vec![i]).unwrap();
    }
    for i in 0..20u8 {
        p.put(0, vec![b'b', i], vec![i; 200]).unwrap();
    }
    for i in 0..20u8 {
        assert_eq!(p.get(0, &[b'b', i]).unwrap(), Some(vec![i; 200]));
    }
    assert_eq!(all(&mut p).len(), 39);
}

#[test]
fn a_few_small_entries_then_kilobyte_ones_split_by_bytes() {
    let mc = MinuetCluster::new(2, 1, TreeConfig::default());
    let mut p = mc.proxy();
    for i in 0..3u8 {
        p.put(0, vec![b'a', i], vec![i]).unwrap();
    }
    for i in 0..4u8 {
        p.put(0, vec![b'b', i], vec![i; 1200]).unwrap();
    }
    let got = all(&mut p);
    assert_eq!(got.len(), 7);
    assert_eq!(got[6], (vec![b'b', 3], vec![3; 1200]));
}

#[test]
fn an_oversized_value_is_refused_by_every_writer_and_changes_nothing() {
    let cfg = TreeConfig::small_nodes(8);
    let too_big = |key: &[u8]| Error::EntryTooLarge {
        key: key.len(),
        value: 2000,
    };
    let mc = MinuetCluster::new(2, 1, cfg);
    let mut p = mc.proxy();
    let (key, value) = (b"k".to_vec(), vec![7u8; 2000]);
    assert_eq!(p.put(0, key.clone(), value.clone()), Err(too_big(&key)));
    let pairs = [(b"a".to_vec(), vec![1]), (key.clone(), value.clone())];
    assert_eq!(p.multi_put(0, &pairs), Err(too_big(&key)));
    assert_eq!(p.bulk_load(0, pairs.to_vec()), Err(too_big(&key)));
    let txn = p.txn(|t| {
        t.put(0, b"a".to_vec(), vec![1])?;
        t.put(0, key.clone(), value.clone())
    });
    assert_eq!(txn, Err(too_big(&key)));
    assert!(
        all(&mut p).is_empty(),
        "a refused write left something behind"
    );
    // A key longer than the bound is refused even with no value.
    let long_key = vec![b'k'; mc.cfg.max_key_len() + 1];
    let refused = p.put(0, long_key.clone(), Vec::new());
    assert_eq!(
        refused,
        Err(Error::EntryTooLarge {
            key: long_key.len(),
            value: 0
        })
    );
    assert!(all(&mut p).is_empty());
}

/// Keys of exactly the longest length and entries of exactly the most
/// bytes, through every writer, on both node sizes: every one is stored,
/// however the leaves and the long separators above them split.
#[test]
fn entries_exactly_at_the_bound_are_stored() {
    for cfg in [TreeConfig::small_nodes(8), TreeConfig::default()] {
        let (klen, elen) = (cfg.max_key_len(), cfg.max_entry_len());
        let key = |i: u32| {
            let mut k = format!("{i:06}").into_bytes();
            k.resize(klen, b'.');
            k
        };
        let pair = |i: u32| (key(i), vec![i as u8; elen - klen]);
        let mc = MinuetCluster::new(2, 3, cfg);
        let mut p = mc.proxy();
        for i in 0..40 {
            let (k, v) = pair(i * 7 % 40);
            p.put(0, k, v).unwrap();
        }
        p.multi_put(1, &(0..40).map(pair).collect::<Vec<_>>())
            .unwrap();
        p.bulk_load(2, (0..40).map(pair).collect()).unwrap();
        for tree in 0..3 {
            let got = p.scan_serializable(tree, b"", usize::MAX).unwrap();
            assert_eq!(got, (0..40).map(pair).collect::<Vec<_>>(), "tree {tree}");
        }
    }
}

/// The one case a two-way split cannot fit: a leaf full of small entries
/// takes an entry at the bound in its middle. The leaf splits again — as
/// the root, in place below it, and as a copy on write.
#[test]
fn a_largest_entry_landing_mid_leaf_splits_into_pieces_that_fit() {
    for cfg in [TreeConfig::small_nodes(usize::MAX), TreeConfig::default()] {
        let elen = cfg.max_entry_len();
        // A bulk load packs this many 10-byte entries into each leaf.
        let per_leaf = (cfg.split_payload_cap() - 29) / 10;
        let mc = MinuetCluster::new(1, 3, cfg);
        let mut p = mc.proxy();
        let key = |i: usize| format!("{i:05}").into_bytes();
        for (tree, leaves) in [(0, 1), (1, 3), (2, 3)] {
            let small = (0..per_leaf * leaves).map(|i| (key(2 * i), vec![1]));
            p.bulk_load(tree, small.collect()).unwrap();
            if tree == 2 {
                p.create_snapshot(tree).unwrap();
            }
            let mid = 2 * (per_leaf * (leaves / 2) + per_leaf / 2) + 1;
            let v = vec![2; elen - key(mid).len()];
            p.put(tree, key(mid), v.clone()).unwrap();
            assert_eq!(p.get(tree, &key(mid)).unwrap(), Some(v), "tree {tree}");
            let got = p.scan_serializable(tree, b"", usize::MAX).unwrap();
            assert_eq!(got.len(), per_leaf * leaves + 1, "tree {tree}");
        }
    }
}
