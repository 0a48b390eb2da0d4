//! B-tree node representation and its on-memnode binary format.
//!
//! Nodes are stored as dynamic-transaction objects in the Sinfonia address
//! space. Each node carries (per §3–§5 of the paper):
//!
//! * its **height** (0 = leaf),
//! * the **snapshot id at which it was created** (by split or copy-on-write),
//! * its **descendant set**: the snapshot ids it has been copied to — a
//!   single id in linear-snapshot mode (§4.2's "copied-to" tag), up to β
//!   ids with branching versions (§5.2),
//! * **two fence keys** delimiting the key range it is responsible for,
//! * entries: separator keys + child pointers (internal) or key/value pairs
//!   (leaf).

use crate::error::CorruptNode;
use crate::key::{Fence, Key, Value};
use minuet_sinfonia::MemNodeId;
use std::fmt;
use std::ops::Range;

/// Snapshot identifier. Snapshot 0 is the initial (tip) version of a tree.
pub type SnapshotId = u64;

/// One descendant-set entry: a snapshot this node was copied to, plus the
/// address of that copy. With branching versions (§5.2), traversals follow
/// these entries like a chain of forwarding pointers: a reader at snapshot
/// `t` that lands on a node copied at an ancestor of `t` redirects to the
/// copy instead of aborting — this is what makes discretionary copies
/// reachable from *every* descendant of the copy's snapshot without
/// rewriting read-only trees.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DescEntry {
    /// Snapshot the copy was made for.
    pub sid: SnapshotId,
    /// Location of the copy (for a copy that split immediately, the left
    /// half; fence checks reroute the right half via a fresh traversal).
    pub ptr: NodePtr,
}

/// Pointer to a B-tree node: a memnode plus a slot index within that
/// memnode's node region (the slot maps to a byte offset via
/// [`crate::layout::Layout`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodePtr {
    /// Memnode storing the node.
    pub mem: MemNodeId,
    /// Slot index within the node region.
    pub slot: u32,
}

impl fmt::Debug for NodePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.mem, self.slot)
    }
}

/// Body of a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeBody {
    /// Internal node: `kids.len() == seps.len() + 1`; child `i` covers
    /// `[seps[i-1], seps[i])` within the node's fences.
    Internal {
        /// Separator keys.
        seps: Vec<Key>,
        /// Child pointers.
        kids: Vec<NodePtr>,
    },
    /// Leaf node: sorted key/value pairs.
    Leaf {
        /// Sorted entries.
        entries: Vec<(Key, Value)>,
    },
}

/// A decoded B-tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// Height above the leaves (0 = leaf).
    pub height: u8,
    /// Snapshot id at which this physical node was created.
    pub created: SnapshotId,
    /// Descendant set: the copies made of this node (bounded by β with
    /// branching versions; at most one entry with linear snapshots).
    pub desc: Vec<DescEntry>,
    /// Low fence (inclusive).
    pub low: Fence,
    /// High fence (exclusive).
    pub high: Fence,
    /// Entries.
    pub body: NodeBody,
}

/// The fields in front of a node image's fences: enough to tell a node
/// from a free segment or a reservation (their magics differ) and to
/// decide whether any live snapshot can reach it, read without decoding
/// the body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeHeader {
    /// Height above the leaves (0 = leaf).
    pub height: u8,
    /// Snapshot id at which the node was created.
    pub created: SnapshotId,
    /// Descendant set.
    pub desc: Vec<DescEntry>,
}

impl NodeHeader {
    /// Reads the header of a node image; the rest of the image is not
    /// looked at, so a header that reads is no proof the body would.
    pub fn decode(raw: &[u8]) -> Result<NodeHeader, CorruptNode> {
        decode_header(&mut Cursor { raw, pos: 0 })
    }
}

const NODE_MAGIC: u8 = 0xB7;

impl Node {
    /// Creates an empty leaf covering the full key space (a fresh tree's
    /// root).
    pub fn empty_root(created: SnapshotId) -> Node {
        Node {
            height: 0,
            created,
            desc: Vec::new(),
            low: Fence::NegInf,
            high: Fence::PosInf,
            body: NodeBody::Leaf {
                entries: Vec::new(),
            },
        }
    }

    /// True if this is an internal node.
    pub fn is_internal(&self) -> bool {
        matches!(self.body, NodeBody::Internal { .. })
    }

    /// Number of entries (children or key/value pairs).
    pub fn len(&self) -> usize {
        match &self.body {
            NodeBody::Internal { kids, .. } => kids.len(),
            NodeBody::Leaf { entries } => entries.len(),
        }
    }

    /// True if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Child responsible for `key`. Caller must have checked the fences.
    pub fn child_for(&self, key: &[u8]) -> NodePtr {
        match &self.body {
            NodeBody::Internal { seps, kids } => {
                let idx = seps.partition_point(|s| s.as_slice() <= key);
                kids[idx]
            }
            NodeBody::Leaf { .. } => panic!("child_for on a leaf"),
        }
    }

    /// Looks up `key` in a leaf.
    pub fn leaf_get(&self, key: &[u8]) -> Option<&Value> {
        match &self.body {
            NodeBody::Leaf { entries } => entries
                .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                .ok()
                .map(|i| &entries[i].1),
            NodeBody::Internal { .. } => panic!("leaf_get on an internal node"),
        }
    }

    /// Inserts or replaces `key` in a leaf; returns the previous value.
    pub fn leaf_put(&mut self, key: Key, value: Value) -> Option<Value> {
        match &mut self.body {
            NodeBody::Leaf { entries } => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(&key)) {
                    Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
                    Err(i) => {
                        entries.insert(i, (key, value));
                        None
                    }
                }
            }
            NodeBody::Internal { .. } => panic!("leaf_put on an internal node"),
        }
    }

    /// Removes `key` from a leaf; returns the previous value.
    pub fn leaf_remove(&mut self, key: &[u8]) -> Option<Value> {
        match &mut self.body {
            NodeBody::Leaf { entries } => entries
                .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                .ok()
                .map(|i| entries.remove(i).1),
            NodeBody::Internal { .. } => panic!("leaf_remove on an internal node"),
        }
    }

    /// Replaces the child pointer `old` with `new`; returns false if `old`
    /// is not present (signals a stale parent image — caller aborts).
    pub fn replace_child(&mut self, old: NodePtr, new: NodePtr) -> bool {
        match &mut self.body {
            NodeBody::Internal { kids, .. } => {
                for k in kids.iter_mut() {
                    if *k == old {
                        *k = new;
                        return true;
                    }
                }
                false
            }
            NodeBody::Leaf { .. } => false,
        }
    }

    /// Inserts a new child: a separator `sep` and the pointer to the child
    /// covering `[sep, next sep)`. Used after a child split.
    pub fn insert_child(&mut self, sep: Key, ptr: NodePtr) {
        match &mut self.body {
            NodeBody::Internal { seps, kids } => {
                let idx = seps.partition_point(|s| s.as_slice() <= sep.as_slice());
                seps.insert(idx, sep);
                kids.insert(idx + 1, ptr);
            }
            NodeBody::Leaf { .. } => panic!("insert_child on a leaf"),
        }
    }

    /// Encoded bytes before the first separator or entry: the header,
    /// the fences and the entry count.
    fn body_offset(&self) -> usize {
        let fences = fence_size(&self.low) + fence_size(&self.high);
        1 + 1 + 8 + 1 + 14 * self.desc.len() + fences + 2
    }

    /// Encoded payload size in bytes.
    pub fn encoded_size(&self) -> usize {
        let mut n = self.body_offset();
        match &self.body {
            NodeBody::Internal { seps, kids } => {
                n += seps.iter().map(|s| 2 + s.len()).sum::<usize>();
                n += kids.len() * 6;
            }
            NodeBody::Leaf { entries } => {
                n += entries
                    .iter()
                    .map(|(k, v)| 4 + k.len() + v.len())
                    .sum::<usize>();
            }
        }
        n
    }

    /// The one byte range where `self.encode()` differs from
    /// `base.encode()`, computed from the two nodes without encoding
    /// either. `None` unless the two have one shape — equal header,
    /// fences and count, and equal keys and value lengths (a leaf) or
    /// separators (an internal node) — so that every byte sits at the
    /// same offset in both encodings; an empty range when they are equal.
    /// Splicing `self.encode()[range]` into `base.encode()` gives
    /// `self.encode()`.
    pub fn changed_range(&self, base: &Node) -> Option<Range<usize>> {
        let fields = |n: &Node| (n.height, n.created, n.len());
        if fields(self) != fields(base)
            || (&self.desc, &self.low, &self.high) != (&base.desc, &base.low, &base.high)
        {
            return None;
        }
        let mut at = self.body_offset();
        let mut changed = at..at;
        match (&self.body, &base.body) {
            (NodeBody::Leaf { entries }, NodeBody::Leaf { entries: old }) => {
                for ((k, v), (old_k, old_v)) in entries.iter().zip(old) {
                    if k != old_k || v.len() != old_v.len() {
                        return None;
                    }
                    at += 4 + k.len();
                    widen(&mut changed, at, v, old_v);
                    at += v.len();
                }
            }
            (
                NodeBody::Internal { seps, kids },
                NodeBody::Internal {
                    seps: old,
                    kids: was,
                },
            ) => {
                if seps != old {
                    return None;
                }
                at += seps.iter().map(|s| 2 + s.len()).sum::<usize>();
                for (k, w) in kids.iter().zip(was) {
                    widen(&mut changed, at, &ptr_bytes(*k), &ptr_bytes(*w));
                    at += 6;
                }
            }
            _ => return None,
        }
        Some(changed)
    }

    /// True if the node no longer fits in a slot (or exceeds the
    /// configured entry cap) and must split.
    pub fn overflows(&self, payload_cap: usize, max_entries: usize) -> bool {
        self.len() > max_entries || self.encoded_size() > payload_cap
    }

    /// Splits the node in two. The cut starts at the count midpoint (a
    /// leaf's middle entry, an internal node's middle separator) and moves
    /// toward the heavier side only while a half encodes to more than
    /// `cap` bytes, so entries of one size split exactly in half. Returns
    /// `(left, separator, right)`: both halves inherit `created` and get
    /// empty descendant sets (they are fresh physical nodes); the
    /// separator is `right.low`'s key, and an internal node promotes it
    /// out of both halves.
    ///
    /// Panics if the node has fewer than 2 entries.
    pub fn split(self, cap: usize) -> (Node, Key, Node) {
        let len = self.len();
        assert!(len >= 2, "cannot split a node with <2 entries");
        // Cut `c` sends the first `c` entries (kids) left. `before[c]`:
        // their bytes (an entry, or a kid with the separator before it);
        // `sep[c]`: the length of the separator it makes.
        let (mut before, sep, internal): (Vec<usize>, Vec<usize>, bool) = match &self.body {
            NodeBody::Leaf { entries } => {
                let entry = entries.iter().map(|(k, v)| 4 + k.len() + v.len());
                let sep = entries.iter().map(|(k, _)| k.len()).collect();
                ([0].into_iter().chain(entry).collect(), sep, false)
            }
            NodeBody::Internal { seps, .. } => {
                let kid = seps.iter().map(|s| 8 + s.len());
                let sep = [0].into_iter().chain(seps.iter().map(Vec::len)).collect();
                ([0, 6].into_iter().chain(kid).collect(), sep, true)
            }
        };
        for c in 1..before.len() {
            before[c] += before[c - 1];
        }
        // Both halves' encoded sizes at cut `c` (13: the fixed header). An
        // internal node's separator leaves both halves.
        let (low, high) = (fence_size(&self.low), fence_size(&self.high));
        let sizes = |c: usize| {
            let fence = 3 + sep[c];
            let promoted = if internal { 2 + sep[c] } else { 0 };
            let right = before[len] - before[c] - promoted;
            (13 + low + fence + before[c], 13 + fence + high + right)
        };
        let mut c = if internal { len.div_ceil(2) } else { len / 2 };
        while c > 1 && sizes(c).0 > cap {
            c -= 1;
        }
        while c + 1 < len && sizes(c).1 > cap {
            c += 1;
        }

        let (lbody, sep, rbody) = match self.body {
            NodeBody::Leaf { mut entries } => {
                let right = entries.split_off(c);
                let sep = right[0].0.clone();
                (
                    NodeBody::Leaf { entries },
                    sep,
                    NodeBody::Leaf { entries: right },
                )
            }
            NodeBody::Internal { mut seps, mut kids } => {
                let (right_seps, right_kids) = (seps.split_off(c), kids.split_off(c));
                let sep = seps.swap_remove(c - 1);
                let left = NodeBody::Internal { seps, kids };
                let right = NodeBody::Internal {
                    seps: right_seps,
                    kids: right_kids,
                };
                (left, sep, right)
            }
        };
        let (height, created) = (self.height, self.created);
        let half = |low, high, body| Node {
            height,
            created,
            desc: Vec::new(),
            low,
            high,
            body,
        };
        let left = half(self.low, Fence::Key(sep.clone()), lbody);
        (left, sep.clone(), half(Fence::Key(sep), self.high, rbody))
    }

    /// Splits an overflowing node into pieces that each fit `cap` bytes
    /// and `max_entries` entries: in two ([`Node::split`]), then again any
    /// half that still overflows, as a large entry can make one that
    /// lands between small ones in a full node. Returns the first piece,
    /// and every later one with its separator, in key order.
    pub fn split_to_fit(self, cap: usize, max_entries: usize) -> (Node, Vec<(Key, Node)>) {
        let (left, sep, right) = self.split(cap);
        let fit = |n: Node| {
            if n.overflows(cap, max_entries) && n.len() >= 2 {
                n.split_to_fit(cap, max_entries)
            } else {
                (n, Vec::new())
            }
        };
        let (first, mut rest) = fit(left);
        let (mid, tail) = fit(right);
        rest.push((sep, mid));
        rest.extend(tail);
        (first, rest)
    }

    /// Serializes the node into an object payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size());
        out.push(NODE_MAGIC);
        out.push(self.height);
        out.extend_from_slice(&self.created.to_le_bytes());
        debug_assert!(self.desc.len() <= u8::MAX as usize);
        out.push(self.desc.len() as u8);
        for d in &self.desc {
            out.extend_from_slice(&d.sid.to_le_bytes());
            out.extend_from_slice(&d.ptr.mem.0.to_le_bytes());
            out.extend_from_slice(&d.ptr.slot.to_le_bytes());
        }
        encode_fence(&mut out, &self.low);
        encode_fence(&mut out, &self.high);
        match &self.body {
            NodeBody::Internal { seps, kids } => {
                debug_assert_eq!(kids.len(), seps.len() + 1);
                out.extend_from_slice(&(kids.len() as u16).to_le_bytes());
                for s in seps {
                    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
                    out.extend_from_slice(s);
                }
                for k in kids {
                    out.extend_from_slice(&ptr_bytes(*k));
                }
            }
            NodeBody::Leaf { entries } => {
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    out.extend_from_slice(k);
                    out.extend_from_slice(&(v.len() as u16).to_le_bytes());
                    out.extend_from_slice(v);
                }
            }
        }
        debug_assert_eq!(out.len(), self.encoded_size());
        out
    }

    /// Deserializes a node, validating structure defensively (raw GC scans
    /// may race with writers; a torn or freed image must decode to an
    /// error, never panic).
    pub fn decode(raw: &[u8]) -> Result<Node, CorruptNode> {
        let mut c = Cursor { raw, pos: 0 };
        let NodeHeader {
            height,
            created,
            desc,
        } = decode_header(&mut c)?;
        let low = decode_fence(&mut c)?;
        let high = decode_fence(&mut c)?;
        let count = c.u16()? as usize;
        let body = if height > 0 {
            if count == 0 {
                return Err(CorruptNode::Truncated);
            }
            let mut seps = Vec::with_capacity(count - 1);
            for _ in 0..count - 1 {
                seps.push(c.bytes_u16()?.to_vec());
            }
            let mut kids = Vec::with_capacity(count);
            for _ in 0..count {
                let mem = c.u16()?;
                let slot = c.u32()?;
                kids.push(NodePtr {
                    mem: MemNodeId(mem),
                    slot,
                });
            }
            NodeBody::Internal { seps, kids }
        } else {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let k = c.bytes_u16()?.to_vec();
                let v = c.bytes_u16()?.to_vec();
                entries.push((k, v));
            }
            NodeBody::Leaf { entries }
        };
        // Every byte is accounted for, so the image is exactly the
        // node's encoding: a ranged write patches the image it observed.
        if c.pos != raw.len() {
            return Err(CorruptNode::Trailing(raw.len() - c.pos));
        }
        Ok(Node {
            height,
            created,
            desc,
            low,
            high,
            body,
        })
    }
}

/// Reads the magic, height, creation snapshot and descendant set.
fn decode_header(c: &mut Cursor<'_>) -> Result<NodeHeader, CorruptNode> {
    let magic = c.u8()?;
    if magic != NODE_MAGIC {
        return Err(CorruptNode::BadMagic(magic));
    }
    let height = c.u8()?;
    let created = c.u64()?;
    let ndesc = c.u8()? as usize;
    let mut desc = Vec::with_capacity(ndesc);
    for _ in 0..ndesc {
        let sid = c.u64()?;
        let mem = c.u16()?;
        let slot = c.u32()?;
        desc.push(DescEntry {
            sid,
            ptr: NodePtr {
                mem: MemNodeId(mem),
                slot,
            },
        });
    }
    Ok(NodeHeader {
        height,
        created,
        desc,
    })
}

/// A child pointer as encoded: memnode, then slot.
fn ptr_bytes(p: NodePtr) -> [u8; 6] {
    let mut out = [0; 6];
    out[..2].copy_from_slice(&p.mem.0.to_le_bytes());
    out[2..].copy_from_slice(&p.slot.to_le_bytes());
    out
}

/// Widens `changed` to cover the bytes where `new` and `old`, of one
/// length and both encoded at offset `at`, differ.
fn widen(changed: &mut Range<usize>, at: usize, new: &[u8], old: &[u8]) {
    let differs = |(a, b): (&u8, &u8)| a != b;
    let Some(first) = new.iter().zip(old).position(differs) else {
        return;
    };
    let last = new.iter().zip(old).rposition(differs).unwrap_or(first);
    let (start, end) = (at + first, at + last + 1);
    *changed = if changed.start == changed.end {
        start..end
    } else {
        changed.start.min(start)..changed.end.max(end)
    };
}

/// Encoded bytes of a fence: its tag, and a finite key's length and bytes.
fn fence_size(f: &Fence) -> usize {
    1 + f.as_key().map_or(0, |k| 2 + k.len())
}

fn encode_fence(out: &mut Vec<u8>, f: &Fence) {
    match f {
        Fence::NegInf => out.push(0),
        Fence::Key(k) => {
            out.push(1);
            out.extend_from_slice(&(k.len() as u16).to_le_bytes());
            out.extend_from_slice(k);
        }
        Fence::PosInf => out.push(2),
    }
}

fn decode_fence(c: &mut Cursor<'_>) -> Result<Fence, CorruptNode> {
    match c.u8()? {
        0 => Ok(Fence::NegInf),
        1 => Ok(Fence::Key(c.bytes_u16()?.to_vec())),
        2 => Ok(Fence::PosInf),
        t => Err(CorruptNode::BadFenceTag(t)),
    }
}

struct Cursor<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CorruptNode> {
        if self.pos + n > self.raw.len() {
            return Err(CorruptNode::Truncated);
        }
        let s = &self.raw[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CorruptNode> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CorruptNode> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CorruptNode> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CorruptNode> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes_u16(&mut self) -> Result<&'a [u8], CorruptNode> {
        let n = self.u16()? as usize;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(mem: u16, slot: u32) -> NodePtr {
        NodePtr {
            mem: MemNodeId(mem),
            slot,
        }
    }

    fn leaf(entries: Vec<(&str, &str)>) -> Node {
        Node {
            height: 0,
            created: 3,
            desc: vec![DescEntry {
                sid: 5,
                ptr: ptr(1, 9),
            }],
            low: Fence::NegInf,
            high: Fence::Key(b"zz".to_vec()),
            body: NodeBody::Leaf {
                entries: entries
                    .into_iter()
                    .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                    .collect(),
            },
        }
    }

    #[test]
    fn leaf_encode_decode_roundtrip() {
        let n = leaf(vec![("a", "1"), ("b", "2"), ("c", "3")]);
        let raw = n.encode();
        assert_eq!(raw.len(), n.encoded_size());
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn internal_encode_decode_roundtrip() {
        let n = Node {
            height: 2,
            created: 7,
            desc: vec![],
            low: Fence::Key(b"d".to_vec()),
            high: Fence::PosInf,
            body: NodeBody::Internal {
                seps: vec![b"g".to_vec(), b"m".to_vec()],
                kids: vec![ptr(0, 1), ptr(1, 2), ptr(2, 3)],
            },
        };
        let raw = n.encode();
        assert_eq!(raw.len(), n.encoded_size());
        assert_eq!(Node::decode(&raw).unwrap(), n);
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Node::decode(&[]).is_err());
        assert!(Node::decode(&[0u8; 40]).is_err());
        let mut raw = leaf(vec![("a", "1")]).encode();
        raw.truncate(raw.len() - 1);
        assert!(Node::decode(&raw).is_err());
    }

    #[test]
    fn child_routing() {
        let n = Node {
            height: 1,
            created: 0,
            desc: vec![],
            low: Fence::NegInf,
            high: Fence::PosInf,
            body: NodeBody::Internal {
                seps: vec![b"g".to_vec(), b"m".to_vec()],
                kids: vec![ptr(0, 1), ptr(0, 2), ptr(0, 3)],
            },
        };
        assert_eq!(n.child_for(b"a"), ptr(0, 1));
        assert_eq!(n.child_for(b"g"), ptr(0, 2)); // separator belongs right
        assert_eq!(n.child_for(b"l"), ptr(0, 2));
        assert_eq!(n.child_for(b"m"), ptr(0, 3));
        assert_eq!(n.child_for(b"z"), ptr(0, 3));
    }

    #[test]
    fn leaf_put_get_remove() {
        let mut n = leaf(vec![("b", "2")]);
        assert_eq!(n.leaf_put(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(
            n.leaf_put(b"a".to_vec(), b"x".to_vec()),
            Some(b"1".to_vec())
        );
        assert_eq!(n.leaf_get(b"a"), Some(&b"x".to_vec()));
        assert_eq!(n.leaf_remove(b"a"), Some(b"x".to_vec()));
        assert_eq!(n.leaf_get(b"a"), None);
        assert_eq!(n.leaf_remove(b"nope"), None);
    }

    #[test]
    fn leaf_split_covers_range() {
        let n = leaf(vec![("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")]);
        let high = n.high.clone();
        let low = n.low.clone();
        let (l, sep, r) = n.split(usize::MAX);
        assert_eq!(sep, b"c".to_vec());
        assert_eq!(l.low, low);
        assert_eq!(l.high, Fence::Key(sep.clone()));
        assert_eq!(r.low, Fence::Key(sep));
        assert_eq!(r.high, high);
        assert_eq!(l.len() + r.len(), 4);
        assert!(l.desc.is_empty() && r.desc.is_empty());
    }

    #[test]
    fn a_large_entry_mid_leaf_splits_into_three_pieces_that_fit() {
        // 60 entries of 10 bytes, and one of 500 between the 30th and
        // 31st: no cut leaves both halves within 600 bytes.
        let mut n = Node::empty_root(0);
        for i in 0..60u32 {
            n.leaf_put(format!("{:04}", 2 * i).into_bytes(), vec![0, 0]);
        }
        n.leaf_put(b"0059".to_vec(), vec![1; 492]);
        let cap = 600;
        let (l, _, r) = n.clone().split(cap);
        assert!(l.encoded_size() > cap || r.encoded_size() > cap);
        let (first, rest) = n.split_to_fit(cap, usize::MAX);
        assert_eq!(rest.len(), 2);
        let pieces: Vec<&Node> = [&first]
            .into_iter()
            .chain(rest.iter().map(|(_, n)| n))
            .collect();
        assert!(pieces.iter().all(|n| n.encoded_size() <= cap));
        let lens: Vec<usize> = pieces.iter().map(|n| n.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 61);
        for ((sep, piece), prev) in rest.iter().zip(&pieces) {
            assert_eq!(piece.low, Fence::Key(sep.clone()));
            assert_eq!(prev.high, piece.low);
        }
    }

    #[test]
    fn internal_split_promotes_separator() {
        let n = Node {
            height: 1,
            created: 0,
            desc: vec![],
            low: Fence::NegInf,
            high: Fence::PosInf,
            body: NodeBody::Internal {
                seps: vec![b"b".to_vec(), b"d".to_vec(), b"f".to_vec()],
                kids: vec![ptr(0, 0), ptr(0, 1), ptr(0, 2), ptr(0, 3)],
            },
        };
        let (l, sep, r) = n.split(usize::MAX);
        assert_eq!(sep, b"d".to_vec());
        // The promoted separator appears in neither half.
        match (&l.body, &r.body) {
            (
                NodeBody::Internal { seps: ls, kids: lk },
                NodeBody::Internal { seps: rs, kids: rk },
            ) => {
                assert_eq!(ls, &vec![b"b".to_vec()]);
                assert_eq!(rs, &vec![b"f".to_vec()]);
                assert_eq!(lk.len(), 2);
                assert_eq!(rk.len(), 2);
            }
            _ => panic!("expected internal nodes"),
        }
    }

    #[test]
    fn insert_child_keeps_order() {
        let mut n = Node {
            height: 1,
            created: 0,
            desc: vec![],
            low: Fence::NegInf,
            high: Fence::PosInf,
            body: NodeBody::Internal {
                seps: vec![b"m".to_vec()],
                kids: vec![ptr(0, 0), ptr(0, 1)],
            },
        };
        n.insert_child(b"f".to_vec(), ptr(0, 9));
        match &n.body {
            NodeBody::Internal { seps, kids } => {
                assert_eq!(seps, &vec![b"f".to_vec(), b"m".to_vec()]);
                assert_eq!(kids, &vec![ptr(0, 0), ptr(0, 9), ptr(0, 1)]);
            }
            _ => unreachable!(),
        }
        assert_eq!(n.child_for(b"a"), ptr(0, 0));
        assert_eq!(n.child_for(b"g"), ptr(0, 9));
        assert_eq!(n.child_for(b"x"), ptr(0, 1));
    }

    #[test]
    fn replace_child_detects_missing() {
        let mut n = Node {
            height: 1,
            created: 0,
            desc: vec![],
            low: Fence::NegInf,
            high: Fence::PosInf,
            body: NodeBody::Internal {
                seps: vec![],
                kids: vec![ptr(0, 0)],
            },
        };
        assert!(n.replace_child(ptr(0, 0), ptr(1, 5)));
        assert!(!n.replace_child(ptr(0, 0), ptr(1, 6)));
        assert_eq!(n.child_for(b"k"), ptr(1, 5));
    }

    #[test]
    fn overflow_thresholds() {
        let n = leaf(vec![("a", "1"), ("b", "2")]);
        assert!(!n.overflows(4096, 10));
        assert!(n.overflows(4096, 1)); // entry cap
        assert!(n.overflows(10, 10)); // size cap
    }
}
