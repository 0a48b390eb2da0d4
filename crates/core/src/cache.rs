//! Per-proxy cache of B-tree node pages.
//!
//! Proxies cache internal nodes to traverse the upper levels of the tree
//! without round trips (§2.3), and — since the hot-path overhaul — leaf
//! nodes as well: a get over a cached leaf revalidates the observed
//! sequence number with a compare-only minitransaction instead of
//! re-shipping the full leaf image (the paper's version-number validation,
//! applied one level deeper). The cache is non-coherent: stale entries are
//! detected by fence-key checks, version-tag checks, and commit-time
//! seqno validation, all of which invalidate the offending entries and
//! retry.
//!
//! A leaf read at a snapshot the proxy already knew was frozen is cached
//! **frozen**, tagged with that snapshot: its entries and fences are final
//! for every snapshot from its creation up to the tag (linear mode), so a
//! later read there is served without a round trip and without any
//! validation ([`NodeCache::get_at`]; ARCHITECTURE.md states the fill and
//! hit rules). A snapshot read never takes a leaf from a tip entry, which
//! may predate writes the snapshot includes.
//!
//! Every entry is a [`Page`]: the node's image, read in place through an
//! index of where its entries start, so a hit decodes nothing and hands
//! out a reference-count bump, and an eviction frees the image and its
//! index, not an allocation per key and per value. A pointer's slot holds
//! a tip page, a frozen page, or both (they differ once a write at the tip
//! moves on), and each keeps alive at most twice its own bytes: a page
//! read as a slice of a reply that carried several objects is copied when
//! it is installed ([`Page`]'s `detached`).
//!
//! The cache is **bounded**: entries above the configured capacity, frozen
//! or not, are evicted with one CLOCK (second-chance) sweep, so large
//! trees cannot grow a proxy's footprint without bound. Hits, misses, and
//! evictions are counted for the bench reports.

use crate::node::{NodePtr, Page, SnapshotId};
use minuet_dyntx::SeqNo;
use minuet_obs::{Counter, ObsPlane};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Default capacity (in nodes) of a proxy's cache; see
/// [`crate::tree::TreeConfig::node_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

type Key = (u32, NodePtr);

/// A frozen leaf, read at snapshot `sid`.
struct Frozen {
    sid: SnapshotId,
    seqno: SeqNo,
    page: Page,
}

/// One cached pointer: the page a tip read saw, a frozen page, or both.
struct Slot {
    tip: Option<(SeqNo, Page)>,
    frozen: Option<Frozen>,
    /// This entry's position on the CLOCK ring.
    ring: usize,
}

/// A position on the CLOCK ring: the key cached there, and its reference
/// bit, set on hit and cleared as the hand sweeps by.
struct Hand {
    key: Key,
    referenced: bool,
}

/// Sets the reference bit at ring position `at`.
fn touch(ring: &mut [Option<Hand>], at: usize) {
    if let Some(Some(hand)) = ring.get_mut(at) {
        hand.referenced = true;
    }
}

impl Slot {
    /// The page a tip read may use: the tip's, or else the frozen one.
    fn tip(&self) -> Option<(SeqNo, Page)> {
        let frozen = || self.frozen.as_ref().map(|f| (f.seqno, f.page.clone()));
        self.tip.clone().or_else(frozen)
    }

    /// The page a dirty read at snapshot `sid` may use: an internal node
    /// from the tip's entry, a leaf only from a frozen page at some `S`
    /// with `created <= sid <= S`.
    fn at(&self, sid: SnapshotId) -> Option<(SeqNo, Page)> {
        if let Some((seqno, page)) = &self.tip {
            if page.is_internal() {
                return Some((*seqno, page.clone()));
            }
        }
        let f = self.frozen.as_ref()?;
        (f.page.created() <= sid && sid <= f.sid).then(|| (f.seqno, f.page.clone()))
    }
}

/// A per-proxy node-page cache keyed by `(tree, ptr)`, bounded by a
/// CLOCK eviction sweep.
pub struct NodeCache {
    map: HashMap<Key, Slot>,
    /// The CLOCK ring; a position is `None` once freed.
    ring: Vec<Option<Hand>>,
    free: Vec<usize>,
    hand: usize,
    capacity: usize,
    /// Lookups that hit.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Entries evicted by the CLOCK sweep (not counting explicit
    /// invalidations).
    pub evictions: Counter,
    /// Snapshot reads served by a frozen leaf.
    pub frozen_hits: Counter,
    /// Snapshot reads that found no entry they may use.
    pub frozen_misses: Counter,
    /// Node images a committed write put back at the seqno it installed.
    pub installs: Counter,
}

impl Default for NodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded at `capacity` nodes (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        NodeCache {
            map: HashMap::new(),
            ring: Vec::new(),
            free: Vec::new(),
            hand: 0,
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            frozen_hits: Counter::new(),
            frozen_misses: Counter::new(),
            installs: Counter::new(),
        }
    }

    /// Swaps the freshly-created counters for handles shared through
    /// `plane`'s registry, so every cache attached to the same plane
    /// aggregates into one `cache.hits` / `cache.misses` /
    /// `cache.evictions` / `cache.frozen_hits` / `cache.frozen_misses` /
    /// `cache.installs` set and a single [`snapshot`](minuet_obs::Registry::snapshot)
    /// covers them all.
    pub fn attach(&mut self, plane: &ObsPlane) {
        self.hits = plane.registry.counter("cache.hits");
        self.misses = plane.registry.counter("cache.misses");
        self.evictions = plane.registry.counter("cache.evictions");
        self.frozen_hits = plane.registry.counter("cache.frozen_hits");
        self.frozen_misses = plane.registry.counter("cache.frozen_misses");
        self.installs = plane.registry.counter("cache.installs");
    }

    /// The configured capacity in nodes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a cached page for a tip read, which checks or validates
    /// whatever it is served: a frozen page serves too.
    pub fn get(&mut self, tree: u32, ptr: NodePtr) -> Option<(SeqNo, Page)> {
        let got = self.map.get_mut(&(tree, ptr)).and_then(|slot| {
            let got = slot.tip()?;
            touch(&mut self.ring, slot.ring);
            Some(got)
        });
        match got {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        got
    }

    /// Looks up a page for a dirty read at snapshot `sid`. An internal
    /// node is served from the tip's entry: it only routes, and the
    /// descent's fence checks catch a stale one. A leaf is served only
    /// from a frozen page at some `S` with `created <= sid <= S`; the
    /// caller still runs the descent's checks on it.
    pub fn get_at(&mut self, tree: u32, ptr: NodePtr, sid: SnapshotId) -> Option<(SeqNo, Page)> {
        let got = self.map.get_mut(&(tree, ptr)).and_then(|slot| {
            let got = slot.at(sid)?;
            touch(&mut self.ring, slot.ring);
            Some(got)
        });
        match &got {
            Some((_, page)) if page.is_internal() => self.hits.inc(),
            Some(_) => self.frozen_hits.inc(),
            None => self.frozen_misses.inc(),
        }
        got
    }

    /// Installs a page read or written at the tip, evicting per CLOCK
    /// when at capacity. Returns the page as cached.
    pub fn put(&mut self, tree: u32, ptr: NodePtr, seqno: SeqNo, page: Page) -> Page {
        let page = page.detached();
        let kept = page.clone();
        self.update((tree, ptr), |slot| slot.tip = Some((seqno, page)));
        kept
    }

    /// Installs a leaf read at snapshot `sid`, which the proxy knew was
    /// frozen before the read went out. Returns the page as cached.
    pub fn put_frozen(
        &mut self,
        tree: u32,
        ptr: NodePtr,
        seqno: SeqNo,
        page: Page,
        sid: SnapshotId,
    ) -> Page {
        let page = page.detached();
        let kept = page.clone();
        self.update((tree, ptr), |slot| {
            slot.frozen = Some(Frozen { sid, seqno, page })
        });
        kept
    }

    /// Applies `set` to `key`'s slot, creating it (evicting per CLOCK when
    /// at capacity) if there is none.
    fn update(&mut self, key: Key, set: impl FnOnce(&mut Slot)) {
        if let Some(slot) = self.map.get_mut(&key) {
            touch(&mut self.ring, slot.ring);
            set(slot);
            return;
        }
        let ring = match self.free.pop() {
            Some(at) => at,
            None if self.ring.len() < self.capacity => {
                self.ring.push(None);
                self.ring.len() - 1
            }
            None => self.evict(),
        };
        // Fresh entries start unreferenced: only an actual hit earns the
        // second chance, so a scan of cold nodes cannot flush the hot set.
        self.ring[ring] = Some(Hand {
            key,
            referenced: false,
        });
        let mut slot = Slot {
            tip: None,
            frozen: None,
            ring,
        };
        set(&mut slot);
        self.map.insert(key, slot);
    }

    /// CLOCK sweep: advance the hand, clearing reference bits, until an
    /// unreferenced entry is found; evict it and return its ring position.
    /// Terminates within two sweeps (all bits cleared after one).
    fn evict(&mut self) -> usize {
        debug_assert!(!self.ring.is_empty());
        loop {
            let at = self.hand;
            self.hand = (self.hand + 1) % self.ring.len();
            if let Some(hand) = &mut self.ring[at] {
                if hand.referenced {
                    hand.referenced = false;
                    continue;
                }
                self.map.remove(&hand.key);
                self.evictions.inc();
            }
            self.ring[at] = None;
            return at;
        }
    }

    /// Drops one entry.
    pub fn invalidate(&mut self, tree: u32, ptr: NodePtr) {
        if let Some(slot) = self.map.remove(&(tree, ptr)) {
            self.ring[slot.ring] = None;
            self.free.push(slot.ring);
        }
    }

    /// Drops the tip's page, which a write at the tip has made stale. A
    /// frozen page stays: a write at the tip cannot change what a frozen
    /// snapshot sees there.
    pub fn forget_tip(&mut self, tree: u32, ptr: NodePtr) {
        if let Entry::Occupied(mut e) = self.map.entry((tree, ptr)) {
            if e.get().frozen.is_some() {
                e.get_mut().tip = None;
            } else {
                let at = e.remove().ring;
                self.ring[at] = None;
                self.free.push(at);
            }
        }
    }

    /// Drops every entry of one tree.
    pub fn invalidate_tree(&mut self, tree: u32) {
        let (ring, free) = (&mut self.ring, &mut self.free);
        self.map.retain(|&(t, _), slot| {
            if t != tree {
                return true;
            }
            ring[slot.ring] = None;
            free.push(slot.ring);
            false
        });
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeBody};
    use minuet_sinfonia::MemNodeId;

    fn page(node: &Node) -> Page {
        Page::new(node.encode().into()).unwrap()
    }

    /// A fresh tree's root, created at `sid`.
    fn root(sid: SnapshotId) -> Page {
        page(&Node::empty_root(sid))
    }

    fn ptr(slot: u32) -> NodePtr {
        NodePtr {
            mem: MemNodeId(0),
            slot,
        }
    }

    #[test]
    fn basic_cycle() {
        let mut c = NodeCache::new();
        assert!(c.get(0, ptr(1)).is_none());
        c.put(0, ptr(1), 9, root(0));
        let (seq, n) = c.get(0, ptr(1)).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(n.height(), 0);
        c.invalidate(0, ptr(1));
        assert!(c.get(0, ptr(1)).is_none());
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 2);
    }

    #[test]
    fn per_tree_isolation() {
        let mut c = NodeCache::new();
        c.put(0, ptr(1), 1, root(0));
        c.put(1, ptr(1), 2, root(0));
        assert_eq!(c.len(), 2);
        c.invalidate_tree(0);
        assert!(c.get(0, ptr(1)).is_none());
        assert!(c.get(1, ptr(1)).is_some());
    }

    #[test]
    fn capacity_bounds_and_clock_eviction() {
        let mut c = NodeCache::with_capacity(4);
        for i in 0..4 {
            c.put(0, ptr(i), i as u64, root(0));
        }
        assert_eq!(c.len(), 4);
        // Touch 0 and 1 so the sweep prefers 2 or 3.
        c.get(0, ptr(0)).unwrap();
        c.get(0, ptr(1)).unwrap();
        for i in 4..40 {
            c.put(0, ptr(i), i as u64, root(0));
            assert!(c.len() <= 4, "capacity exceeded at insert {i}");
        }
        assert_eq!(c.evictions.get(), 36);
    }

    #[test]
    fn second_chance_protects_hot_entries() {
        let mut c = NodeCache::with_capacity(3);
        for i in 0..3 {
            c.put(0, ptr(i), 0, root(0));
        }
        // Keep entry 0 hot; insert a stream of cold entries.
        for i in 3..10 {
            c.get(0, ptr(0)).unwrap();
            c.put(0, ptr(i), 0, root(0));
        }
        assert!(c.get(0, ptr(0)).is_some(), "hot entry evicted");
    }

    #[test]
    fn update_in_place_does_not_grow() {
        let mut c = NodeCache::with_capacity(2);
        c.put(0, ptr(1), 1, root(0));
        c.put(0, ptr(1), 2, root(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0, ptr(1)).unwrap().0, 2);
        assert_eq!(c.evictions.get(), 0);
    }

    #[test]
    fn invalidated_slots_are_reused() {
        let mut c = NodeCache::with_capacity(2);
        c.put(0, ptr(1), 1, root(0));
        c.put(0, ptr(2), 2, root(0));
        c.invalidate(0, ptr(1));
        c.put(0, ptr(3), 3, root(0));
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.evictions.get(),
            0,
            "freed slot should be reused, not evicted"
        );
    }

    #[test]
    fn frozen_leaves_serve_only_their_snapshot_range() {
        let mut c = NodeCache::new();
        c.put_frozen(0, ptr(1), 4, root(3), 7);
        for sid in [3, 5, 7] {
            assert_eq!(c.get_at(0, ptr(1), sid).unwrap().0, 4, "sid {sid}");
        }
        // Created after the snapshot, or read at an older one.
        assert!(c.get_at(0, ptr(1), 2).is_none());
        assert!(c.get_at(0, ptr(1), 8).is_none());
        assert_eq!((c.frozen_hits.get(), c.frozen_misses.get()), (3, 2));
        // A tip lookup may take a frozen entry: it validates what it uses.
        // The entry still serves `sid`.
        assert_eq!(c.get(0, ptr(1)).unwrap().1.created(), 3);
        assert!(c.get_at(0, ptr(1), 7).is_some());
        // A tip write's invalidation keeps it; a failed check's does not.
        c.forget_tip(0, ptr(1));
        assert!(c.get_at(0, ptr(1), 7).is_some());
        c.invalidate(0, ptr(1));
        assert!(c.get_at(0, ptr(1), 7).is_none());
    }

    #[test]
    fn a_snapshot_read_never_takes_a_tip_leaf() {
        let mut c = NodeCache::new();
        c.put(0, ptr(1), 1, root(0));
        assert!(c.get_at(0, ptr(1), 0).is_none());
        // A frozen page and a tip page share a slot; neither replaces
        // the other, and a tip write drops only the tip's.
        c.put_frozen(0, ptr(2), 1, root(0), 5);
        c.put(0, ptr(2), 2, root(0));
        assert_eq!(c.get_at(0, ptr(2), 5).unwrap().0, 1);
        assert_eq!(c.get(0, ptr(2)).unwrap().0, 2);
        c.forget_tip(0, ptr(2));
        assert_eq!(c.get_at(0, ptr(2), 5).unwrap().0, 1);
        assert_eq!(c.len(), 2);
        // Internal nodes only route, so any entry serves them.
        let internal = Node {
            height: 1,
            body: NodeBody::Internal {
                seps: Vec::new(),
                kids: vec![ptr(1)],
            },
            ..Node::empty_root(0)
        };
        c.put(0, ptr(3), 1, page(&internal));
        assert!(c.get_at(0, ptr(3), 9).is_some());
        assert_eq!(c.hits.get(), 2);
    }

    #[test]
    fn frozen_entries_share_the_clock() {
        let mut c = NodeCache::with_capacity(3);
        c.put(0, ptr(0), 0, root(0));
        for i in 1..10 {
            c.get(0, ptr(0)).unwrap();
            c.put_frozen(0, ptr(i), 0, root(0), 1);
            assert!(c.len() <= 3);
        }
        assert!(c.get(0, ptr(0)).is_some(), "hot tip entry evicted");
        c.invalidate_tree(0);
        assert!(c.is_empty());
        c.put(0, ptr(1), 0, root(0));
        assert_eq!(c.evictions.get(), 7, "cleared slots are reused");
    }
}
