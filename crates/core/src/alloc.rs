//! Distributed node allocator.
//!
//! Every memnode holds an allocator-state object (bump pointer + free-list
//! head) managed with dynamic transactions, exactly in the spirit of the
//! distributed memory allocator of Aguilera et al. (§2.3). To keep
//! allocation off the critical path, proxies transactionally grab *chunks*
//! of slots and hand them out locally with no coordination; the slot only
//! becomes reachable when the node written into it commits.
//!
//! Freed slots (from GC) are kept in per-memnode free lists made of
//! *segments*: the first freed slot of a batch stores the ids of its
//! companions, so a proxy refills an entire chunk with two object reads.

use crate::error::{Attempt, Error, RetryCause};
use crate::layout::Layout;
use crate::node::NodePtr;
use crate::retry::run_tx;
use crate::stats::raw_obj;
use minuet_dyntx::DynTx;
use minuet_sinfonia::{MemNodeId, SinfoniaCluster};
use std::collections::HashMap;

/// Sentinel for an empty free list.
pub const NIL_SLOT: u32 = u32::MAX;

/// Payload of the per-memnode allocator-state object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct AllocState {
    /// Next never-used slot.
    pub bump: u32,
    /// Head of the free-segment list ([`NIL_SLOT`] if empty).
    pub free_head: u32,
    /// Total slots currently sitting on the free list (diagnostics).
    pub free_count: u32,
}

impl AllocState {
    /// Serializes the state.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(12);
        v.extend_from_slice(&self.bump.to_le_bytes());
        v.extend_from_slice(&self.free_head.to_le_bytes());
        v.extend_from_slice(&self.free_count.to_le_bytes());
        v
    }

    /// Deserializes the state (an unwritten object decodes to defaults
    /// with an empty free list).
    pub fn decode(raw: &[u8]) -> AllocState {
        if raw.len() < 12 {
            return AllocState {
                bump: 0,
                free_head: NIL_SLOT,
                free_count: 0,
            };
        }
        AllocState {
            bump: u32::from_le_bytes(raw[0..4].try_into().unwrap()),
            free_head: u32::from_le_bytes(raw[4..8].try_into().unwrap()),
            free_count: u32::from_le_bytes(raw[8..12].try_into().unwrap()),
        }
    }

    /// Transactional read of `mem`'s allocator state (joins the read set).
    pub(crate) fn read(tx: &mut DynTx<'_>, layout: &Layout, mem: MemNodeId) -> Attempt<AllocState> {
        Ok(AllocState::decode(&tx.read(layout.alloc_state(mem))?))
    }

    /// Unsynchronized read of the same object.
    pub(crate) fn read_raw(
        sin: &SinfoniaCluster,
        layout: &Layout,
        mem: MemNodeId,
    ) -> Result<AllocState, Error> {
        Ok(AllocState::decode(
            &raw_obj(sin, layout.alloc_state(mem))?.data,
        ))
    }
}

/// A free-list segment stored in a freed slot's object payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreeSegment {
    /// Next segment slot ([`NIL_SLOT`] = end of list).
    pub next: u32,
    /// Additional free slots carried by this segment (the segment's own
    /// slot is also free once the segment is popped).
    pub slots: Vec<u32>,
}

const SEGMENT_MAGIC: u8 = 0xFE;

impl FreeSegment {
    /// Serializes the segment.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(7 + 4 * self.slots.len());
        v.push(SEGMENT_MAGIC);
        v.extend_from_slice(&self.next.to_le_bytes());
        v.extend_from_slice(&(self.slots.len() as u16).to_le_bytes());
        for s in &self.slots {
            v.extend_from_slice(&s.to_le_bytes());
        }
        v
    }

    /// Deserializes a segment; `None` if the payload is not a segment.
    pub fn decode(raw: &[u8]) -> Option<FreeSegment> {
        if raw.len() < 7 || raw[0] != SEGMENT_MAGIC {
            return None;
        }
        let next = u32::from_le_bytes(raw[1..5].try_into().unwrap());
        let n = u16::from_le_bytes(raw[5..7].try_into().unwrap()) as usize;
        if raw.len() < 7 + 4 * n {
            return None;
        }
        let slots = (0..n)
            .map(|i| u32::from_le_bytes(raw[7 + 4 * i..11 + 4 * i].try_into().unwrap()))
            .collect();
        Some(FreeSegment { next, slots })
    }

    /// Maximum companion slots per segment for a given node payload size.
    pub fn capacity(node_payload: u32) -> usize {
        ((node_payload as usize).saturating_sub(7)) / 4
    }
}

/// Per-proxy chunk cache: locally-owned slots per (tree, memnode).
pub struct ChunkCache {
    chunks: HashMap<(u32, u16), Vec<u32>>,
    rr: usize,
    chunk_size: u32,
    max_retries: usize,
}

impl ChunkCache {
    /// Creates an empty cache refilling `chunk_size` slots at a time, each
    /// refill transaction giving up after `max_retries` aborts.
    pub fn new(chunk_size: u32, max_retries: usize) -> Self {
        ChunkCache {
            chunks: HashMap::new(),
            rr: 0,
            chunk_size,
            max_retries,
        }
    }

    /// Allocates one node slot.
    ///
    /// `prefer` pins the memnode (copy-on-write copies stay on the
    /// original's memnode so commits stay single-node, DESIGN.md §3.5);
    /// otherwise memnodes are rotated round-robin for balance.
    ///
    /// Placement is elasticity-aware: memnodes that are *joining* (their
    /// replicated replicas are still being seeded) or *retiring* (being
    /// drained for decommissioning) are skipped in a first pass — a
    /// preferred-but-retiring memnode redirects elsewhere so drains
    /// converge. A second pass ignores the flags rather than surfacing a
    /// spurious [`Error::OutOfSlots`] when only flagged memnodes have
    /// capacity left.
    pub fn alloc(
        &mut self,
        cluster: &SinfoniaCluster,
        layout: &Layout,
        tree: u32,
        prefer: Option<MemNodeId>,
    ) -> Result<NodePtr, Error> {
        let n = cluster.n();
        let start = match prefer {
            Some(m) => m.index(),
            None => {
                self.rr = (self.rr + 1) % n;
                self.rr
            }
        };
        // Try the chosen memnode first, then fall over to the others if it
        // is out of slots.
        for pass in 0..2 {
            for i in 0..n {
                let mem = MemNodeId(((start + i) % n) as u16);
                if pass == 0 {
                    let node = cluster.node(mem);
                    if node.is_joining() || node.is_retiring() {
                        continue;
                    }
                }
                match self.alloc_on(cluster, layout, tree, mem) {
                    Ok(ptr) => return Ok(ptr),
                    Err(Error::OutOfSlots(_)) => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Err(Error::OutOfSlots(MemNodeId(start as u16)))
    }

    /// Allocates one node slot on exactly `mem` — no fallback to other
    /// memnodes. Used by migration, which must place the copy on the
    /// requested target.
    pub fn alloc_on(
        &mut self,
        cluster: &SinfoniaCluster,
        layout: &Layout,
        tree: u32,
        mem: MemNodeId,
    ) -> Result<NodePtr, Error> {
        let key = (tree, mem.0);
        if let Some(chunk) = self.chunks.get_mut(&key) {
            if let Some(slot) = chunk.pop() {
                return Ok(NodePtr { mem, slot });
            }
        }
        let mut slots = grab_chunk(cluster, layout, mem, self.chunk_size, self.max_retries)?;
        let slot = slots.pop().ok_or(Error::OutOfSlots(mem))?;
        self.chunks.insert(key, slots);
        Ok(NodePtr { mem, slot })
    }

    /// Slots currently cached locally (diagnostics).
    pub fn cached(&self) -> usize {
        self.chunks.values().map(|c| c.len()).sum()
    }
}

/// Transactionally grabs up to `want` slots from `mem`'s allocator.
/// Returns an empty vector when the memnode is exhausted.
fn grab_chunk(
    cluster: &SinfoniaCluster,
    layout: &Layout,
    mem: MemNodeId,
    want: u32,
    max_retries: usize,
) -> Result<Vec<u32>, Error> {
    let grab = |_: &mut (), tx: &mut DynTx<'_>| {
        let mut state = AllocState::read(tx, layout, mem)?;
        let mut got: Vec<u32> = Vec::with_capacity(want as usize);
        if state.free_head != NIL_SLOT {
            // Pop one whole segment: the segment slot itself plus its
            // companions.
            let seg_slot = state.free_head;
            let seg_raw = tx.read(layout.node_obj(NodePtr {
                mem,
                slot: seg_slot,
            }))?;
            // Torn state (should not survive validation): retry.
            let seg = FreeSegment::decode(&seg_raw).ok_or(RetryCause::TornRead)?;
            state.free_head = seg.next;
            state.free_count = state.free_count.saturating_sub(1 + seg.slots.len() as u32);
            got.push(seg_slot);
            got.extend_from_slice(&seg.slots);
        } else {
            let available = layout.params.slots_per_mem.saturating_sub(state.bump);
            let take = want.min(available);
            got.extend(state.bump..state.bump + take);
            state.bump += take;
        }
        tx.write(layout.alloc_state(mem), state.encode());
        Ok(got)
    };
    Ok(run_tx(cluster, true, max_retries, &mut (), |_, _| {}, grab)?.0)
}

/// Tombstone payload written over freed non-header slots so a racing GC
/// scan can never mistake the stale node image for a live node (decode
/// fails on the marker byte).
pub const TOMBSTONE: [u8; 1] = [0xFD];

/// Pushes a batch of freed slots (all on `mem`) onto the free list as one
/// segment, within the caller's transaction. The first slot becomes the
/// segment header; companions are overwritten with [`TOMBSTONE`]. Returns
/// the new allocator state to be written by the caller after validation
/// succeeds.
pub fn push_free_segment(
    tx: &mut DynTx<'_>,
    layout: &Layout,
    mem: MemNodeId,
    state: &AllocState,
    slots: &[u32],
) -> AllocState {
    assert!(!slots.is_empty());
    let seg = FreeSegment {
        next: state.free_head,
        slots: slots[1..].to_vec(),
    };
    let seg_obj = layout.node_obj(NodePtr {
        mem,
        slot: slots[0],
    });
    tx.write(seg_obj, seg.encode());
    for &s in &slots[1..] {
        tx.write(
            layout.node_obj(NodePtr { mem, slot: s }),
            TOMBSTONE.to_vec(),
        );
    }
    AllocState {
        bump: state.bump,
        free_head: slots[0],
        free_count: state.free_count + slots.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutParams;
    use minuet_sinfonia::ClusterConfig;

    fn setup(slots: u32, mems: usize) -> (std::sync::Arc<SinfoniaCluster>, Layout) {
        let params = LayoutParams {
            node_payload: 256,
            slots_per_mem: slots,
            max_snapshots: 8,
        };
        let cap = Layout::required_capacity(1, params, mems);
        let cluster = SinfoniaCluster::new(ClusterConfig {
            memnodes: mems,
            capacity_per_node: cap,
            ..Default::default()
        });
        (cluster, Layout::new(0, params, mems))
    }

    #[test]
    fn state_roundtrip() {
        let s = AllocState {
            bump: 7,
            free_head: 3,
            free_count: 12,
        };
        assert_eq!(AllocState::decode(&s.encode()), s);
        assert_eq!(AllocState::decode(&[]).free_head, NIL_SLOT);
    }

    #[test]
    fn segment_roundtrip() {
        let seg = FreeSegment {
            next: NIL_SLOT,
            slots: vec![4, 9, 2],
        };
        assert_eq!(FreeSegment::decode(&seg.encode()), Some(seg));
        assert_eq!(FreeSegment::decode(&[0u8; 3]), None);
        // A node image never decodes as a segment.
        let node = crate::node::Node::empty_root(0);
        assert_eq!(FreeSegment::decode(&node.encode()), None);
    }

    #[test]
    fn bump_allocation_unique_slots() {
        let (cluster, layout) = setup(100, 2);
        let mut cc = ChunkCache::new(8, 100_000);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60 {
            let p = cc.alloc(&cluster, &layout, 0, None).unwrap();
            assert!(seen.insert(p), "duplicate allocation {p:?}");
        }
    }

    #[test]
    fn preferred_memnode_respected() {
        let (cluster, layout) = setup(100, 4);
        let mut cc = ChunkCache::new(4, 100_000);
        for _ in 0..10 {
            let p = cc.alloc(&cluster, &layout, 0, Some(MemNodeId(2))).unwrap();
            assert_eq!(p.mem, MemNodeId(2));
        }
    }

    #[test]
    fn exhaustion_falls_over_then_errors() {
        let (cluster, layout) = setup(4, 2);
        let mut cc = ChunkCache::new(16, 100_000);
        // 8 slots total across 2 memnodes.
        let mut got = Vec::new();
        for _ in 0..8 {
            got.push(cc.alloc(&cluster, &layout, 0, None).unwrap());
        }
        assert!(matches!(
            cc.alloc(&cluster, &layout, 0, None),
            Err(Error::OutOfSlots(_))
        ));
        let on0 = got.iter().filter(|p| p.mem == MemNodeId(0)).count();
        assert_eq!(on0, 4);
    }

    #[test]
    fn concurrent_grabs_never_collide() {
        let (cluster, layout) = setup(1024, 2);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cluster = cluster.clone();
            handles.push(std::thread::spawn(move || {
                let mut cc = ChunkCache::new(16, 100_000);
                let mut got = Vec::new();
                for _ in 0..100 {
                    got.push(cc.alloc(&cluster, &layout, 0, None).unwrap());
                }
                got
            }));
        }
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for p in h.join().unwrap() {
                assert!(seen.insert(p), "duplicate allocation {p:?}");
            }
        }
        assert_eq!(seen.len(), 800);
    }

    #[test]
    fn free_segment_cycle() {
        let (cluster, layout) = setup(64, 1);
        let mem = MemNodeId(0);
        let mut cc = ChunkCache::new(4, 100_000);
        let a: Vec<NodePtr> = (0..4)
            .map(|_| cc.alloc(&cluster, &layout, 0, Some(mem)).unwrap())
            .collect();
        // Free them as one segment.
        loop {
            let mut tx = DynTx::new(&cluster);
            let state_obj = layout.alloc_state(mem);
            let state = AllocState::decode(&tx.read(state_obj).unwrap());
            let slots: Vec<u32> = a.iter().map(|p| p.slot).collect();
            let new_state = push_free_segment(&mut tx, &layout, mem, &state, &slots);
            tx.write(state_obj, new_state.encode());
            if tx.commit().is_ok() {
                break;
            }
        }
        // A fresh chunk grab must reuse exactly those slots.
        let mut cc2 = ChunkCache::new(4, 100_000);
        let mut reused: Vec<u32> = (0..4)
            .map(|_| cc2.alloc(&cluster, &layout, 0, Some(mem)).unwrap().slot)
            .collect();
        reused.sort_unstable();
        let mut orig: Vec<u32> = a.iter().map(|p| p.slot).collect();
        orig.sort_unstable();
        assert_eq!(reused, orig);
    }
}
