//! Golden bytes: the node image format did not move.
//!
//! A node's image is what a memnode stores in its slot, what a ranged
//! write patches and what a checkpoint or the WAL carries, so a reader
//! of any past image must still read it. The two constants below are a
//! leaf and an internal node, each with finite fences and one
//! descendant entry, spelled out field by field; the encoder must
//! reproduce them bit for bit and the decoder must give the node back.

use minuet_core::node::{DescEntry, Node, NodeBody, NodePtr};
use minuet_core::Fence;
use minuet_sinfonia::MemNodeId;

/// Field by field: magic, height 0, created 7, one descendant
/// (snapshot 9 at memnode 1 slot 0x203), low fence "b", high fence "m",
/// two entries: "c" = "1" and "d" = "22".
const LEAF: &str = "b7 00 0700000000000000 01 0900000000000000 0100 03020000 \
    01 0100 62 01 0100 6d 0200 0100 63 0100 31 0100 64 0200 3232";

/// Field by field: magic, height 2, created 5, one descendant
/// (snapshot 4 at memnode 0 slot 7), low fence "a", high fence "z", two
/// children split at "g": memnode 0 slot 1 and memnode 1 slot 0x10203.
const INTERNAL: &str = "b7 02 0500000000000000 01 0400000000000000 0000 07000000 \
    01 0100 61 01 0100 7a 0200 0100 67 0000 01000000 0100 03020100";

fn ptr(mem: u16, slot: u32) -> NodePtr {
    NodePtr {
        mem: MemNodeId(mem),
        slot,
    }
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
    let nibble = |d: u8| (d as char).to_digit(16).unwrap() as u8;
    digits
        .chunks(2)
        .map(|p| nibble(p[0]) << 4 | nibble(p[1]))
        .collect()
}

fn leaf() -> Node {
    Node {
        height: 0,
        created: 7,
        desc: vec![DescEntry {
            sid: 9,
            ptr: ptr(1, 0x203),
        }],
        low: Fence::Key(b"b".to_vec()),
        high: Fence::Key(b"m".to_vec()),
        body: NodeBody::Leaf {
            entries: vec![
                (b"c".to_vec(), b"1".to_vec()),
                (b"d".to_vec(), b"22".to_vec()),
            ],
        },
    }
}

fn internal() -> Node {
    Node {
        height: 2,
        created: 5,
        desc: vec![DescEntry {
            sid: 4,
            ptr: ptr(0, 7),
        }],
        low: Fence::Key(b"a".to_vec()),
        high: Fence::Key(b"z".to_vec()),
        body: NodeBody::Internal {
            seps: vec![b"g".to_vec()],
            kids: vec![ptr(0, 1), ptr(1, 0x10203)],
        },
    }
}

#[test]
fn a_leaf_image_did_not_move() {
    let golden = unhex(LEAF);
    assert_eq!(leaf().encode(), golden);
    assert_eq!(Node::decode(&golden).unwrap(), leaf());
}

#[test]
fn an_internal_image_did_not_move() {
    let golden = unhex(INTERNAL);
    assert_eq!(internal().encode(), golden);
    assert_eq!(Node::decode(&golden).unwrap(), internal());
}
