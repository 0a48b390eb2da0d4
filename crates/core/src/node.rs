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
use minuet_sinfonia::bytes::Bytes;
use minuet_sinfonia::MemNodeId;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

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
        Ok(Index::parse(raw)?.node(raw))
    }
}

/// A node image, validated and read in place. [`Page::new`] parses the
/// header and notes where the fences and each separator or entry start,
/// so a lookup is a binary search over the image, and nothing is copied
/// out of it unless a caller asks ([`Page::to_node`] for a write). The
/// image is [`Node::encode`]'s; the index lives only in memory. Cloning
/// a page is a reference-count bump.
#[derive(Clone, Debug)]
pub struct Page(Arc<PageInner>);

#[derive(Clone, Debug)]
struct PageInner {
    image: Bytes,
    index: Index,
}

/// What one pass over a node image learns: its header, and where its
/// fences and its body's fields start.
#[derive(Clone, Debug)]
struct Index {
    header: NodeHeader,
    /// Where the low and the high fence start (their tag bytes).
    fences: [usize; 2],
    /// Where each separator (internal node) or entry (leaf) starts.
    at: Vec<u32>,
    /// Where the child pointers start (internal node).
    kids: usize,
}

impl Index {
    /// Parses and validates a node image.
    fn parse(raw: &[u8]) -> Result<Index, CorruptNode> {
        let mut c = Cursor { raw, pos: 0 };
        let header = decode_header(&mut c)?;
        let fences = [c.fence()?, c.fence()?];
        let count = c.u16()? as usize;
        let internal = header.height > 0;
        if internal && count == 0 {
            return Err(CorruptNode::Truncated);
        }
        let fields = count - usize::from(internal);
        let mut at = Vec::with_capacity(fields);
        for _ in 0..fields {
            at.push(c.pos as u32);
            c.bytes_u16()?;
            if !internal {
                c.bytes_u16()?;
            }
        }
        let kids = c.pos;
        if internal {
            c.take(6 * count)?;
        }
        // Every byte is accounted for, so the image is exactly the
        // node's encoding: a ranged write patches the image it observed.
        if c.pos != raw.len() {
            return Err(CorruptNode::Trailing(raw.len() - c.pos));
        }
        Ok(Index {
            header,
            fences,
            at,
            kids,
        })
    }

    /// The node `raw`, the image this index was parsed from, encodes.
    fn node(&self, raw: &[u8]) -> Node {
        let NodeHeader {
            height,
            created,
            ref desc,
        } = self.header;
        let body = if height > 0 {
            let sep = |&at: &u32| field(raw, at as usize).0.to_vec();
            NodeBody::Internal {
                seps: self.at.iter().map(sep).collect(),
                kids: (0..=self.at.len())
                    .map(|i| ptr_at(raw, self.kids + 6 * i))
                    .collect(),
            }
        } else {
            let entry = |&at: &u32| {
                let (key, value) = entry(raw, at);
                (key.to_vec(), value.to_vec())
            };
            NodeBody::Leaf {
                entries: self.at.iter().map(entry).collect(),
            }
        };
        Node {
            height,
            created,
            desc: desc.clone(),
            low: fence(raw, self.fences[0]),
            high: fence(raw, self.fences[1]),
            body,
        }
    }
}

impl Page {
    /// Validates and indexes a node image. Refuses exactly the images
    /// [`Node::decode`] refuses, with the same errors.
    pub fn new(image: Bytes) -> Result<Page, CorruptNode> {
        let index = Index::parse(&image)?;
        Ok(Page(Arc::new(PageInner { image, index })))
    }

    /// The image.
    pub fn image(&self) -> &Bytes {
        &self.0.image
    }

    /// Height above the leaves (0 = leaf).
    pub fn height(&self) -> u8 {
        self.0.index.header.height
    }

    /// Snapshot id at which this physical node was created.
    pub fn created(&self) -> SnapshotId {
        self.0.index.header.created
    }

    /// Descendant set.
    pub fn desc(&self) -> &[DescEntry] {
        &self.0.index.header.desc
    }

    /// Low fence (inclusive).
    pub fn low(&self) -> Fence {
        fence(&self.0.image, self.0.index.fences[0])
    }

    /// High fence (exclusive).
    pub fn high(&self) -> Fence {
        fence(&self.0.image, self.0.index.fences[1])
    }

    /// True if `key` lies within the fences, read in place.
    pub fn covers(&self, key: &[u8]) -> bool {
        let (image, [low, high]) = (&self.0.image, self.0.index.fences);
        let above_low = match image[low] {
            0 => true,
            1 => field(image, low + 1).0 <= key,
            _ => false,
        };
        let below_high = match image[high] {
            2 => true,
            1 => key < field(image, high + 1).0,
            _ => false,
        };
        above_low && below_high
    }

    /// True if this is an internal node.
    pub fn is_internal(&self) -> bool {
        self.height() > 0
    }

    /// Number of entries (children or key/value pairs).
    pub fn len(&self) -> usize {
        self.0.index.at.len() + usize::from(self.is_internal())
    }

    /// True if the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the separators start: none in a leaf.
    fn sep_at(&self) -> &[u32] {
        if self.is_internal() {
            &self.0.index.at
        } else {
            &[]
        }
    }

    /// Where the entries start: none in an internal node.
    fn entry_at(&self) -> &[u32] {
        if self.is_internal() {
            &[]
        } else {
            &self.0.index.at
        }
    }

    /// The separator keys, in order.
    pub fn seps(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.sep_at().iter().map(|&at| self.key(at))
    }

    /// The child pointers, in key order: none in a leaf.
    pub fn kids(&self) -> impl ExactSizeIterator<Item = NodePtr> + '_ {
        let count = self.sep_at().len() + usize::from(self.is_internal());
        (0..count).map(|i| ptr_at(&self.0.image, self.0.index.kids + 6 * i))
    }

    /// The children from the one responsible for `key` on, in key order:
    /// none in a leaf. The caller must have checked the fences.
    pub fn kids_from(&self, key: &[u8]) -> impl Iterator<Item = NodePtr> + '_ {
        let at = self.sep_at();
        let first = at.partition_point(|&at| self.key(at) <= key);
        self.kids().skip(first)
    }

    /// Child responsible for `key`; `None` in a leaf. The caller must
    /// have checked the fences.
    pub fn child_for(&self, key: &[u8]) -> Option<NodePtr> {
        self.kids_from(key).next()
    }

    /// The key/value pair starting at `at`.
    fn entry(&self, at: u32) -> (&[u8], &[u8]) {
        entry(&self.0.image, at)
    }

    /// The separator, or the entry's key, starting at `at`.
    fn key(&self, at: u32) -> &[u8] {
        field(&self.0.image, at as usize).0
    }

    /// The entries with a key of at least `from`, in key order: none in
    /// an internal node.
    pub fn entries_from(&self, from: &[u8]) -> impl ExactSizeIterator<Item = (&[u8], &[u8])> {
        let at = self.entry_at();
        let first = at.partition_point(|&at| self.key(at) < from);
        at[first..].iter().map(|&at| self.entry(at))
    }

    /// The value of `key` in a leaf; `None` if absent, or in an internal
    /// node.
    pub fn leaf_get(&self, key: &[u8]) -> Option<&[u8]> {
        let at = self.entry_at();
        let i = at.binary_search_by(|&at| self.key(at).cmp(key)).ok()?;
        Some(self.entry(at[i]).1)
    }

    /// The node, decoded to be changed: a write's starting point.
    pub fn to_node(&self) -> Node {
        self.0.index.node(&self.0.image)
    }

    /// This page keeping alive at most twice its own bytes: itself, or a
    /// copy when its image is a slice of a larger buffer. Every object a
    /// read ships fills its slot's whole capacity, so an image from a
    /// reply that carried several is always copied; one from a reply of
    /// its own only when the node fills less than half its slot.
    pub(crate) fn detached(mut self) -> Page {
        let image = &self.0.image;
        if image.buffer_len() > 2 * image.len() {
            let copy = Bytes::copy_from_slice(image);
            Arc::make_mut(&mut self.0).image = copy;
        }
        self
    }
}

/// The one byte range where `new` differs from `base`: `None` when their
/// lengths differ, an empty range when they are equal. Splicing
/// `new[range]` into `base` gives `new`.
pub fn changed_range(new: &[u8], base: &[u8]) -> Option<Range<usize>> {
    if new.len() != base.len() {
        return None;
    }
    let start = common_prefix(new, base);
    Some(start..new.len() - common_suffix(&new[start..], &base[start..]))
}

/// How many leading bytes `a` and `b` share, compared 16 at a time
/// while they can be.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let blocks = a.chunks_exact(16).zip(b.chunks_exact(16));
    let n = blocks.take_while(|(x, y)| x == y).count() * 16;
    n + a[n..]
        .iter()
        .zip(&b[n..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// How many trailing bytes `a` and `b` share, as [`common_prefix`].
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let blocks = a.rchunks_exact(16).zip(b.rchunks_exact(16));
    let n = blocks.take_while(|(x, y)| x == y).count() * 16;
    let (a, b) = (&a[..a.len() - n], &b[..b.len() - n]);
    n + a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

/// The length-prefixed field at `at` of a parsed image, and where the
/// field after it starts.
fn field(raw: &[u8], at: usize) -> (&[u8], usize) {
    let end = at + 2 + usize::from(u16::from_le_bytes([raw[at], raw[at + 1]]));
    (&raw[at + 2..end], end)
}

/// The key/value pair at `at` of a parsed leaf image.
fn entry(raw: &[u8], at: u32) -> (&[u8], &[u8]) {
    let (key, next) = field(raw, at as usize);
    (key, field(raw, next).0)
}

/// The child pointer at `at` of a parsed image.
fn ptr_at(raw: &[u8], at: usize) -> NodePtr {
    let p = &raw[at..at + 6];
    NodePtr {
        mem: MemNodeId(u16::from_le_bytes([p[0], p[1]])),
        slot: u32::from_le_bytes([p[2], p[3], p[4], p[5]]),
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

/// The fence whose tag byte is at `at` of a parsed image.
fn fence(raw: &[u8], at: usize) -> Fence {
    match raw[at] {
        0 => Fence::NegInf,
        1 => Fence::Key(field(raw, at + 1).0.to_vec()),
        _ => Fence::PosInf,
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
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CorruptNode> {
        self.take(N)?.try_into().map_err(|_| CorruptNode::Truncated)
    }
    fn u16(&mut self) -> Result<u16, CorruptNode> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, CorruptNode> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, CorruptNode> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn bytes_u16(&mut self) -> Result<&'a [u8], CorruptNode> {
        let n = self.u16()? as usize;
        self.take(n)
    }
    /// Checks a fence's tag and skips the fence; returns where it starts.
    fn fence(&mut self) -> Result<usize, CorruptNode> {
        let at = self.pos;
        match self.u8()? {
            0 | 2 => {}
            1 => drop(self.bytes_u16()?),
            t => return Err(CorruptNode::BadFenceTag(t)),
        }
        Ok(at)
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

    fn page(n: &Node) -> Page {
        Page::new(n.encode().into()).unwrap()
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
    fn a_page_keeps_at_most_twice_its_bytes_alive() {
        let image = leaf(vec![("a", "1"), ("b", "2")]).encode();
        let in_buffer = |extra: usize| {
            let buffer = Bytes::from([&image[..], &vec![0; extra]].concat());
            (buffer.slice(0, image.len()), buffer)
        };
        let (short, buffer) = in_buffer(image.len() / 2);
        let kept = Page::new(short).unwrap().detached();
        assert!(Bytes::same_buffer(kept.image(), &buffer));
        let (long, buffer) = in_buffer(image.len() + 1);
        let copied = Page::new(long).unwrap().detached();
        assert!(!Bytes::same_buffer(copied.image(), &buffer));
        assert_eq!(copied.image().buffer_len(), image.len());
        assert_eq!(copied.to_node(), Node::decode(&image).unwrap());
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
        let p = page(&n);
        assert_eq!(p.child_for(b"a"), Some(ptr(0, 1)));
        assert_eq!(p.child_for(b"g"), Some(ptr(0, 2))); // separator belongs right
        assert_eq!(p.child_for(b"l"), Some(ptr(0, 2)));
        assert_eq!(p.child_for(b"m"), Some(ptr(0, 3)));
        assert_eq!(p.child_for(b"z"), Some(ptr(0, 3)));
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
        let p = page(&n);
        assert_eq!(p.child_for(b"a"), Some(ptr(0, 0)));
        assert_eq!(p.child_for(b"g"), Some(ptr(0, 9)));
        assert_eq!(p.child_for(b"x"), Some(ptr(0, 1)));
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
        let p = page(&n);
        assert_eq!(p.child_for(b"k"), Some(ptr(1, 5)));
    }

    #[test]
    fn overflow_thresholds() {
        let n = leaf(vec![("a", "1"), ("b", "2")]);
        assert!(!n.overflows(4096, 10));
        assert!(n.overflows(4096, 1)); // entry cap
        assert!(n.overflows(10, 10)); // size cap
    }
}
