//! Property-based tests for the node binary format, the page that reads
//! it in place, and the split algebra.

use minuet_core::key::in_range;
use minuet_core::node::{changed_range, DescEntry, Node, NodeBody, NodePtr, Page};
use minuet_core::{Fence, TreeConfig};
use minuet_sinfonia::MemNodeId;
use proptest::prelude::*;

fn page(node: &Node) -> Page {
    Page::new(node.encode().into()).unwrap()
}

fn fence_strategy() -> impl Strategy<Value = Fence> {
    prop_oneof![
        Just(Fence::NegInf),
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(Fence::Key),
        Just(Fence::PosInf),
    ]
}

fn desc_strategy() -> impl Strategy<Value = Vec<DescEntry>> {
    proptest::collection::vec(
        (any::<u64>(), any::<u16>(), any::<u32>()).prop_map(|(sid, mem, slot)| DescEntry {
            sid,
            ptr: NodePtr {
                mem: MemNodeId(mem),
                slot,
            },
        }),
        0..4,
    )
}

fn leaf_strategy() -> impl Strategy<Value = Node> {
    (
        any::<u64>(),
        desc_strategy(),
        fence_strategy(),
        fence_strategy(),
        proptest::collection::btree_map(
            proptest::collection::vec(any::<u8>(), 0..16),
            proptest::collection::vec(any::<u8>(), 0..16),
            0..12,
        ),
    )
        .prop_map(|(created, desc, low, high, entries)| Node {
            height: 0,
            created,
            desc,
            low,
            high,
            body: NodeBody::Leaf {
                entries: entries.into_iter().collect(),
            },
        })
}

fn internal_strategy() -> impl Strategy<Value = Node> {
    (
        1u8..6,
        any::<u64>(),
        desc_strategy(),
        fence_strategy(),
        fence_strategy(),
        proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 0..10), 0..8),
        proptest::collection::vec((any::<u16>(), any::<u32>()), 9),
    )
        .prop_map(|(height, created, desc, low, high, seps, ptrs)| {
            let seps: Vec<Vec<u8>> = seps.into_iter().collect();
            let kids: Vec<NodePtr> = ptrs
                .into_iter()
                .take(seps.len() + 1)
                .map(|(mem, slot)| NodePtr {
                    mem: MemNodeId(mem),
                    slot,
                })
                .collect();
            Node {
                height,
                created,
                desc,
                low,
                high,
                body: NodeBody::Internal { seps, kids },
            }
        })
}

proptest! {
    #[test]
    fn leaf_roundtrip(node in leaf_strategy()) {
        let raw = node.encode();
        prop_assert_eq!(raw.len(), node.encoded_size());
        prop_assert_eq!(Node::decode(&raw).unwrap(), node);
    }

    #[test]
    fn internal_roundtrip(node in internal_strategy()) {
        let raw = node.encode();
        prop_assert_eq!(raw.len(), node.encoded_size());
        prop_assert_eq!(Node::decode(&raw).unwrap(), node);
    }

    /// Truncated or bit-flipped images must never panic — decode returns
    /// an error or (for flips that stay structurally valid) some node.
    #[test]
    fn decode_is_total(node in leaf_strategy(), cut in any::<u16>(), flip in any::<u16>()) {
        let mut raw = node.encode();
        if !raw.is_empty() {
            let cut = cut as usize % (raw.len() + 1);
            raw.truncate(cut);
            let _ = Node::decode(&raw); // must not panic
        }
        let mut raw2 = node.encode();
        if !raw2.is_empty() {
            let i = flip as usize % raw2.len();
            raw2[i] ^= 0xFF;
            let _ = Node::decode(&raw2); // must not panic
        }
    }

    /// Splitting preserves entries, ordering, and fence continuity.
    #[test]
    fn split_preserves_content(node in leaf_strategy()) {
        prop_assume!(node.len() >= 2);
        let before: Vec<(Vec<u8>, Vec<u8>)> = match &node.body {
            NodeBody::Leaf { entries } => entries.clone(),
            _ => unreachable!(),
        };
        let (low, high) = (node.low.clone(), node.high.clone());
        let (l, sep, r) = node.split(usize::MAX);
        prop_assert_eq!(&l.low, &low);
        prop_assert_eq!(&l.high, &Fence::Key(sep.clone()));
        prop_assert_eq!(&r.low, &Fence::Key(sep));
        prop_assert_eq!(&r.high, &high);
        let mut after = Vec::new();
        for n in [&l, &r] {
            if let NodeBody::Leaf { entries } = &n.body {
                after.extend(entries.clone());
            }
        }
        prop_assert_eq!(after, before);
        // Every left key below every right key.
        if let (NodeBody::Leaf { entries: le }, NodeBody::Leaf { entries: re }) = (&l.body, &r.body) {
            if let (Some(lmax), Some(rmin)) = (le.last(), re.first()) {
                prop_assert!(lmax.0 < rmin.0);
            }
        }
    }

    /// child_for routes to the child whose range contains the key.
    #[test]
    fn child_routing_consistent(node in internal_strategy(), key in proptest::collection::vec(any::<u8>(), 0..10)) {
        prop_assume!(matches!(&node.body, NodeBody::Internal { seps, .. } if !seps.is_empty()));
        let ptr = page(&node).child_for(&key).unwrap();
        if let NodeBody::Internal { seps, kids } = &node.body {
            let idx = seps.partition_point(|s| s.as_slice() <= key.as_slice());
            prop_assert_eq!(ptr, kids[idx]);
            // The chosen child's implied range contains the key.
            if idx > 0 {
                prop_assert!(seps[idx - 1].as_slice() <= key.as_slice());
            }
            if idx < seps.len() {
                prop_assert!(key.as_slice() < seps[idx].as_slice());
            }
        }
    }
}

/// A leaf of `cfg`'s nodes between fences of the longest key, filled
/// while it fits with entries of `sizes` (key and value lengths, within
/// the bound; key `i` starts with `2i + 2`), then overflowed by one more
/// entry of the size that no longer fit, its key `2 * at + 1`. `None` if
/// `sizes` runs out first.
fn overflowed_by_one(cfg: &TreeConfig, sizes: &[(usize, usize)], at: u16) -> Option<Node> {
    let bound = cfg.max_key_len();
    let entry = |i: u32, (k, v): (usize, usize)| {
        let mut key = i.to_be_bytes().to_vec();
        key.resize(k, b'k');
        (key, vec![b'v'; v])
    };
    let mut node = Node {
        low: Fence::Key(vec![0; bound]),
        high: Fence::Key(vec![0xff; bound]),
        ..Node::empty_root(0)
    };
    for (i, &size) in sizes.iter().enumerate() {
        let (key, value) = entry(2 * i as u32 + 2, size);
        let mut grown = node.clone();
        grown.leaf_put(key, value);
        if grown.encoded_size() <= cfg.split_payload_cap() {
            node = grown;
            continue;
        }
        let (key, value) = entry(2 * (at as u32 % (i as u32 + 1)) + 1, size);
        node.leaf_put(key, value);
        return Some(node);
    }
    None
}

/// Key and value lengths within `cfg`'s bound, from two raw draws.
fn sized(cfg: &TreeConfig, (k, v): (u16, u16)) -> (usize, usize) {
    let bound = cfg.max_key_len();
    let key = 4 + k as usize % (bound - 3);
    (key, v as usize % (bound - key + 1))
}

proptest! {
    /// Within the bound, a leaf that overflows by one entry splits once
    /// into halves that both fit, whatever the entries' sizes — even when
    /// `tiny` small entries come first and larger ones (all of one size,
    /// with `same`) after, so that the count midpoint leaves the large
    /// ones all on one side.
    #[test]
    fn a_leaf_overflowed_by_one_entry_splits_into_halves_that_fit(
        small in any::<bool>(),
        tiny in any::<u16>(),
        same in any::<bool>(),
        lens in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..400),
        at in any::<u16>(),
    ) {
        let cfg = if small { TreeConfig::small_nodes(usize::MAX) } else { TreeConfig::default() };
        let cap = cfg.split_payload_cap();
        let mut sizes = vec![(4, 0); tiny as usize % 64];
        let lens = if same { &[lens[0]; 400][..] } else { &lens[..] };
        sizes.extend(lens.iter().map(|&len| sized(&cfg, len)));
        let node = overflowed_by_one(&cfg, &sizes, at);
        prop_assume!(node.is_some());
        let node = node.unwrap();
        prop_assert!(node.encoded_size() > cap);
        let (l, _, r) = node.split(cap);
        prop_assert!(l.encoded_size() <= cap, "left {} > {cap}", l.encoded_size());
        prop_assert!(r.encoded_size() <= cap, "right {} > {cap}", r.encoded_size());
    }

    /// Entries of one size split where they always have: at `len / 2`.
    #[test]
    fn entries_of_one_size_split_at_the_middle(
        small in any::<bool>(),
        len in (any::<u16>(), any::<u16>()),
        at in any::<u16>(),
    ) {
        let cfg = if small { TreeConfig::small_nodes(usize::MAX) } else { TreeConfig::default() };
        let node = overflowed_by_one(&cfg, &[sized(&cfg, len); 5000], at).unwrap();
        let n = node.len();
        let (l, _, r) = node.split(cfg.split_payload_cap());
        prop_assert_eq!((l.len(), r.len()), (n / 2, n - n / 2));
    }
}

/// `base` with same-shape `edits` applied: for each `(at, pos, mask)`, a
/// leaf's value `at` gets byte `pos` xor-ed with `mask`, an internal
/// node's child `at` gets slot `pos` (memnode `mask`).
fn same_shape_edit(base: &Node, edits: &[(u16, u16, u8)]) -> Node {
    let mut node = base.clone();
    for &(at, pos, mask) in edits {
        match &mut node.body {
            NodeBody::Leaf { entries } if !entries.is_empty() => {
                let n = entries.len();
                let value = &mut entries[at as usize % n].1;
                if !value.is_empty() {
                    let i = pos as usize % value.len();
                    value[i] ^= mask;
                }
            }
            NodeBody::Internal { kids, .. } => {
                let i = at as usize % kids.len();
                kids[i] = NodePtr {
                    mem: MemNodeId(u16::from(mask)),
                    slot: u32::from(pos),
                };
            }
            NodeBody::Leaf { .. } => {}
        }
    }
    node
}

fn edits_strategy() -> impl Strategy<Value = Vec<(u16, u16, u8)>> {
    proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 0..4)
}

proptest! {
    /// An image that decodes is exactly its node's encoding: a byte
    /// changed or bytes appended either fail to decode or re-encode to
    /// the same image. A ranged write patches the image it observed, so
    /// the memnode must hold `encode()` of the node the writer decoded.
    #[test]
    fn an_image_that_decodes_re_encodes_to_itself(
        leaf in leaf_strategy(),
        internal in internal_strategy(),
        at in any::<u16>(),
        byte in any::<u8>(),
        tail in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        for node in [leaf, internal] {
            let mut raw = node.encode();
            let i = at as usize % raw.len();
            raw[i] = byte;
            raw.extend_from_slice(&tail);
            if let Ok(decoded) = Node::decode(&raw) {
                prop_assert_eq!(decoded.encode(), raw);
            }
            let mut trailing = node.encode();
            trailing.push(byte);
            prop_assert!(Node::decode(&trailing).is_err());
        }
    }

    /// For a same-shape edit, splicing the byte range where the new
    /// image differs from the base image into the base gives the new
    /// image, and the range is tight: its first and last bytes differ
    /// from the base's.
    #[test]
    fn a_same_shape_edit_splices_into_its_base(
        leaf in leaf_strategy(),
        internal in internal_strategy(),
        edits in edits_strategy(),
    ) {
        for base in [leaf, internal] {
            let node = same_shape_edit(&base, &edits);
            let (old, new) = (base.encode(), node.encode());
            let range = changed_range(&new, &old);
            prop_assert!(range.is_some(), "same shape, no range");
            let range = range.unwrap();
            prop_assert_eq!(old.len(), new.len());
            let mut spliced = old.clone();
            spliced[range.clone()].copy_from_slice(&new[range.clone()]);
            prop_assert_eq!(&spliced, &new);
            if range.is_empty() {
                prop_assert_eq!(&old, &new);
            } else {
                prop_assert!(old[range.start] != new[range.start]);
                prop_assert!(old[range.end - 1] != new[range.end - 1]);
            }
        }
    }

    /// A change of length yields no range: an insert, a remove, a value
    /// of another length, a new descendant entry, or a fence of another
    /// length.
    #[test]
    fn a_shape_change_yields_no_range(
        base in leaf_strategy(),
        change in 0u8..5,
        key in proptest::collection::vec(any::<u8>(), 0..16),
        at in any::<u16>(),
    ) {
        let mut node = base.clone();
        let entries = match &base.body {
            NodeBody::Leaf { entries } => entries.len(),
            NodeBody::Internal { .. } => unreachable!(),
        };
        match change {
            0 => {
                prop_assume!(base.leaf_get(&key).is_none());
                node.leaf_put(key, Vec::new());
            }
            1 | 2 => {
                prop_assume!(entries > 0);
                let NodeBody::Leaf { entries: e } = &mut node.body else { unreachable!() };
                let i = at as usize % e.len();
                if change == 1 {
                    e.remove(i);
                } else {
                    e[i].1.push(0);
                }
            }
            3 => node.desc.push(DescEntry {
                sid: u64::from(at),
                ptr: NodePtr { mem: MemNodeId(0), slot: 0 },
            }),
            _ => {
                node.high = match base.high {
                    Fence::Key(_) => Fence::PosInf,
                    _ => Fence::Key(key),
                }
            }
        }
        prop_assert!(changed_range(&node.encode(), &base.encode()).is_none());
    }
}

/// The keys a lookup, a routing decision or a fence check turns on:
/// every key or separator of `node` and its finite fences, each also one
/// byte shorter and one byte longer, the empty key, and `extra`.
fn probes(node: &Node, extra: &[u8]) -> Vec<Vec<u8>> {
    let mut keys: Vec<Vec<u8>> = match &node.body {
        NodeBody::Leaf { entries } => entries.iter().map(|(k, _)| k.clone()).collect(),
        NodeBody::Internal { seps, .. } => seps.clone(),
    };
    keys.extend(
        [&node.low, &node.high]
            .into_iter()
            .filter_map(|f| f.as_key().cloned()),
    );
    let mut out = vec![Vec::new(), extra.to_vec()];
    for key in keys {
        out.push(key[..key.len().saturating_sub(1)].to_vec());
        out.push([&key[..], &[0]].concat());
        out.push(key);
    }
    out
}

/// Asserts that `page` reads what `node` holds, through every accessor,
/// at every key of `probes`. Lookups are the binary searches a decoded
/// node's own are, so they agree even on a node whose keys are out of
/// order (a bit flip can make one).
fn assert_reads_as(page: &Page, node: &Node, probes: &[Vec<u8>]) {
    assert_eq!(page.to_node(), *node);
    assert_eq!(&page.image()[..], &node.encode()[..]);
    assert_eq!(
        (page.height(), page.created(), page.desc()),
        (node.height, node.created, &node.desc[..])
    );
    assert_eq!(
        (page.low(), page.high()),
        (node.low.clone(), node.high.clone())
    );
    assert_eq!((page.len(), page.is_empty()), (node.len(), node.is_empty()));
    assert_eq!(page.is_internal(), node.is_internal());
    let (seps, kids, entries) = match &node.body {
        NodeBody::Internal { seps, kids } => (&seps[..], &kids[..], &[][..]),
        NodeBody::Leaf { entries } => (&[][..], &[][..], &entries[..]),
    };
    assert!(page.seps().eq(seps.iter().map(Vec::as_slice)));
    assert!(page.kids().eq(kids.iter().copied()));
    for key in probes {
        let key = key.as_slice();
        assert_eq!(page.covers(key), in_range(&node.low, &node.high, key));
        let child = seps.partition_point(|s| s.as_slice() <= key);
        assert!(page.kids_from(key).eq(kids.iter().skip(child).copied()));
        assert_eq!(page.child_for(key), kids.get(child).copied());
        let got = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key));
        assert_eq!(page.leaf_get(key), got.ok().map(|i| &entries[i].1[..]));
        let from = &entries[entries.partition_point(|(k, _)| k.as_slice() < key)..];
        assert!(page
            .entries_from(key)
            .eq(from.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))));
    }
}

proptest! {
    /// A page agrees with the node it encodes on every accessor: the
    /// header, the fences, the separators and kids, present and absent
    /// keys, routing at every boundary, and entries from any key.
    #[test]
    fn a_page_reads_what_its_node_holds(
        leaf in leaf_strategy(),
        internal in internal_strategy(),
        key in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        for node in [leaf, internal] {
            assert_reads_as(&page(&node), &node, &probes(&node, &key));
        }
    }

    /// `Page::new` is total on truncated and bit-flipped images: it
    /// refuses exactly the images `Node::decode` refuses, with the same
    /// error, and reads an image it accepts as `decode` does.
    #[test]
    fn a_page_refuses_what_decode_refuses(
        leaf in leaf_strategy(),
        internal in internal_strategy(),
        cut in any::<u16>(),
        flip in any::<u16>(),
        mask in any::<u8>(),
        tail in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        for node in [leaf, internal] {
            let raw = node.encode();
            let cut = raw[..cut as usize % (raw.len() + 1)].to_vec();
            let mut flipped = raw.clone();
            flipped[flip as usize % raw.len()] ^= mask;
            let longer = [&raw[..], &tail].concat();
            for image in [cut, flipped, longer] {
                match (Page::new(image.clone().into()), Node::decode(&image)) {
                    (Ok(page), Ok(decoded)) => {
                        assert_reads_as(&page, &decoded, &probes(&decoded, &[]))
                    }
                    (Err(refused), Err(too)) => prop_assert_eq!(refused, too),
                    (page, decoded) => {
                        panic!("page {:?} but decode {:?}", page.is_ok(), decoded.is_ok())
                    }
                }
            }
        }
    }
}
