//! The snapshot catalog and version tree (§5.1).
//!
//! Every snapshot has a catalog entry — a replicated object holding the
//! snapshot's root location, its parent in the version tree, its *branch
//! id* (the first branch created from it; `0` = none, i.e. the snapshot is
//! a writable tip), a branch count (to enforce the version-tree branching
//! factor β), and a deleted flag for GC.
//!
//! In the paper the catalog is a dedicated B-tree whose leaves are
//! replicated at every memnode and cached at proxies. We store each entry
//! directly as a replicated object indexed by snapshot id (ids are dense),
//! which preserves the behaviour the paper relies on — cheap validated
//! reads from any replica, write-all updates — with a simpler
//! representation (see DESIGN.md §3.7).
//!
//! Immutable fields (`root`, `parent`) are cached process-wide in a
//! [`VersionCache`]; mutable fields (`branch_id`, `nbranches`, `deleted`)
//! are always read transactionally when a decision depends on them.

use crate::error::{Attempt, Error};
use crate::layout::Layout;
use crate::node::{NodePtr, SnapshotId};
use crate::stats::raw_obj;
use minuet_dyntx::{decode_obj, DynTx, ReplRef, SeqNo};
use minuet_sinfonia::{MemNodeId, Minitransaction, Outcome, SinfoniaCluster};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Sentinel parent for the initial snapshot (id 0).
pub const NO_PARENT: u64 = u64::MAX;

/// The `N` bytes of `raw` at offset `at`, or `None` past its end: the one
/// fixed-width read of every decoder here.
fn field<const N: usize>(raw: &[u8], at: usize) -> Option<[u8; N]> {
    raw.get(at..at.checked_add(N)?)?.try_into().ok()
}

/// Payload of the replicated TIP object: the mainline tip snapshot id and
/// its root location (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TipVal {
    /// Mainline tip snapshot id.
    pub sid: SnapshotId,
    /// Root node of the tip snapshot.
    pub root: NodePtr,
}

impl TipVal {
    /// Serializes the tip payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(14);
        v.extend_from_slice(&self.sid.to_le_bytes());
        v.extend_from_slice(&self.root.mem.0.to_le_bytes());
        v.extend_from_slice(&self.root.slot.to_le_bytes());
        v
    }

    /// Deserializes the tip payload.
    pub fn decode(raw: &[u8]) -> Option<TipVal> {
        Some(TipVal {
            sid: u64::from_le_bytes(field(raw, 0)?),
            root: NodePtr {
                mem: MemNodeId(u16::from_le_bytes(field(raw, 8)?)),
                slot: u32::from_le_bytes(field(raw, 10)?),
            },
        })
    }

    fn parse(raw: &[u8]) -> Result<TipVal, Error> {
        TipVal::decode(raw).ok_or(Error::CorruptMeta("tip"))
    }

    /// Transactional read from the replica at `home` (joins the read set).
    pub(crate) fn read(tx: &mut DynTx<'_>, layout: &Layout, home: MemNodeId) -> Attempt<TipVal> {
        Ok(TipVal::parse(&tx.read_repl(layout.tip(), home)?)?)
    }

    /// Unsynchronized read of the same replica, with the seqno observed.
    pub(crate) fn read_raw(
        sin: &SinfoniaCluster,
        layout: &Layout,
        home: MemNodeId,
    ) -> Result<(SeqNo, TipVal), Error> {
        let val = raw_obj(sin, layout.tip().at(home))?;
        Ok((val.seqno, TipVal::parse(&val.data)?))
    }
}

/// Payload of the replicated GLOBAL header object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalVal {
    /// Next snapshot id to assign.
    pub next_sid: SnapshotId,
    /// Lowest snapshot id still queryable (GC watermark, §4.4).
    pub lowest: SnapshotId,
}

impl GlobalVal {
    /// Serializes the header payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&self.next_sid.to_le_bytes());
        v.extend_from_slice(&self.lowest.to_le_bytes());
        v
    }

    /// Deserializes the header payload.
    pub fn decode(raw: &[u8]) -> Option<GlobalVal> {
        Some(GlobalVal {
            next_sid: u64::from_le_bytes(field(raw, 0)?),
            lowest: u64::from_le_bytes(field(raw, 8)?),
        })
    }

    fn parse(raw: &[u8]) -> Result<GlobalVal, Error> {
        GlobalVal::decode(raw).ok_or(Error::CorruptMeta("global header"))
    }

    /// Transactional read from the replica at `home` (joins the read set).
    pub(crate) fn read(tx: &mut DynTx<'_>, layout: &Layout, home: MemNodeId) -> Attempt<GlobalVal> {
        Ok(GlobalVal::parse(&tx.read_repl(layout.global(), home)?)?)
    }

    /// Unsynchronized read of the same replica.
    pub(crate) fn read_raw(
        sin: &SinfoniaCluster,
        layout: &Layout,
        home: MemNodeId,
    ) -> Result<GlobalVal, Error> {
        GlobalVal::parse(&raw_obj(sin, layout.global().at(home))?.data)
    }
}

/// One catalog entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CatEntry {
    /// Root node of this snapshot.
    pub root: NodePtr,
    /// Parent snapshot in the version tree ([`NO_PARENT`] for snapshot 0).
    pub parent: SnapshotId,
    /// First branch created from this snapshot; `0` = none (writable tip).
    pub branch_id: SnapshotId,
    /// Number of branches created from this snapshot (bounded by β).
    pub nbranches: u8,
    /// True once the snapshot has been deleted (GC may reclaim).
    pub deleted: bool,
}

impl CatEntry {
    /// True if this snapshot is a writable tip (§5.1: branch id NULL).
    pub fn is_writable(&self) -> bool {
        self.branch_id == 0 && !self.deleted
    }

    /// Serializes the entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&self.root.mem.0.to_le_bytes());
        v.extend_from_slice(&self.root.slot.to_le_bytes());
        v.extend_from_slice(&self.parent.to_le_bytes());
        v.extend_from_slice(&self.branch_id.to_le_bytes());
        v.push(self.nbranches);
        v.push(self.deleted as u8);
        v
    }

    /// Deserializes an entry; `None` for an unwritten slot.
    pub fn decode(raw: &[u8]) -> Option<CatEntry> {
        let [nbranches, deleted] = field(raw, 22)?;
        Some(CatEntry {
            root: NodePtr {
                mem: MemNodeId(u16::from_le_bytes(field(raw, 0)?)),
                slot: u32::from_le_bytes(field(raw, 2)?),
            },
            parent: u64::from_le_bytes(field(raw, 6)?),
            branch_id: u64::from_le_bytes(field(raw, 14)?),
            nbranches,
            deleted: deleted != 0,
        })
    }

    /// Transactional read of snapshot `sid`'s entry from the replica at
    /// `home` (joins the read set), with the object it lives in. An id
    /// beyond the catalog region or never written is
    /// [`Error::NoSuchSnapshot`].
    pub(crate) fn read(
        tx: &mut DynTx<'_>,
        layout: &Layout,
        sid: SnapshotId,
        home: MemNodeId,
    ) -> Attempt<(ReplRef, CatEntry)> {
        let repl = layout
            .catalog_entry(sid)
            .ok_or(Error::NoSuchSnapshot(sid))?;
        let entry = CatEntry::decode(&tx.read_repl(repl, home)?);
        Ok((repl, entry.ok_or(Error::NoSuchSnapshot(sid))?))
    }

    /// Reads snapshot `sid`'s entry without any transactional tracking
    /// (one read-only minitransaction at the replica at `home`), with the
    /// seqno observed; `None` for a never-written entry. Used for ancestry
    /// resolution, read-only snapshot lookups and the GC / migration scans.
    pub(crate) fn fetch(
        sin: &SinfoniaCluster,
        layout: &Layout,
        sid: SnapshotId,
        home: MemNodeId,
    ) -> Result<Option<(SeqNo, CatEntry)>, Error> {
        let repl = layout
            .catalog_entry(sid)
            .ok_or(Error::NoSuchSnapshot(sid))?;
        let mut m = Minitransaction::new();
        m.read(repl.at(home).full_range());
        let Outcome::Committed(res) = sin.execute(&m)? else {
            return Err(Error::Internal(
                "a compare failed in a read-only minitransaction".into(),
            ));
        };
        let val = decode_obj(&res.data[0]);
        Ok(CatEntry::decode(&val.data).map(|e| (val.seqno, e)))
    }
}

/// Process-wide cache of the *immutable* catalog fields, backing ancestry
/// queries during traversals without round trips.
#[derive(Default)]
pub struct VersionCache {
    map: RwLock<HashMap<SnapshotId, (SnapshotId, NodePtr)>>,
}

impl VersionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a snapshot's parent and root.
    pub fn insert(&self, sid: SnapshotId, parent: SnapshotId, root: NodePtr) {
        self.map.write().insert(sid, (parent, root));
    }

    /// Parent of `sid`, if cached.
    pub fn parent(&self, sid: SnapshotId) -> Option<SnapshotId> {
        self.map.read().get(&sid).map(|e| e.0)
    }

    /// Root of `sid`, if cached.
    pub fn root(&self, sid: SnapshotId) -> Option<NodePtr> {
        self.map.read().get(&sid).map(|e| e.1)
    }

    /// True if some cached snapshot has `sid` as its parent: `sid` has
    /// been branched from, so in linear mode it is no longer the tip.
    pub fn has_child(&self, sid: SnapshotId) -> bool {
        self.map.read().values().any(|&(parent, _)| parent == sid)
    }

    /// Walks parents from `b` toward the root to decide whether `a` is an
    /// ancestor of (or equal to) `b`. Parent ids are always smaller than
    /// child ids, so the walk stops as soon as the current id drops below
    /// `a`. Missing entries are resolved through `fetch` (which should
    /// consult the catalog and populate the cache).
    pub fn is_ancestor_or_self(
        &self,
        a: SnapshotId,
        b: SnapshotId,
        mut fetch: impl FnMut(SnapshotId) -> Result<(SnapshotId, NodePtr), Error>,
    ) -> Result<bool, Error> {
        let mut cur = b;
        loop {
            if cur == a {
                return Ok(true);
            }
            if cur < a || cur == NO_PARENT {
                return Ok(false);
            }
            let parent = match self.parent(cur) {
                Some(p) => p,
                None => {
                    let (p, root) = fetch(cur)?;
                    self.insert(cur, p, root);
                    p
                }
            };
            if parent == NO_PARENT {
                return Ok(false);
            }
            cur = parent;
        }
    }

    /// Lowest common ancestor of `a` and `b` (requires both paths cached
    /// or fetchable).
    pub fn lca(
        &self,
        a: SnapshotId,
        b: SnapshotId,
        mut fetch: impl FnMut(SnapshotId) -> Result<(SnapshotId, NodePtr), Error>,
    ) -> Result<SnapshotId, Error> {
        let mut pa = a;
        let mut pb = b;
        // Parents have smaller ids: repeatedly lift the larger one.
        loop {
            if pa == pb {
                return Ok(pa);
            }
            let lift =
                |cache: &Self,
                 cur: SnapshotId,
                 fetch: &mut dyn FnMut(SnapshotId) -> Result<(SnapshotId, NodePtr), Error>|
                 -> Result<SnapshotId, Error> {
                    if let Some(p) = cache.parent(cur) {
                        return Ok(p);
                    }
                    let (p, root) = fetch(cur)?;
                    cache.insert(cur, p, root);
                    Ok(p)
                };
            if pa > pb {
                pa = lift(self, pa, &mut fetch)?;
                if pa == NO_PARENT {
                    return Err(Error::NoSuchSnapshot(a));
                }
            } else {
                pb = lift(self, pb, &mut fetch)?;
                if pb == NO_PARENT {
                    return Err(Error::NoSuchSnapshot(b));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(slot: u32) -> NodePtr {
        NodePtr {
            mem: MemNodeId(0),
            slot,
        }
    }

    #[test]
    fn tip_roundtrip() {
        let t = TipVal {
            sid: 42,
            root: NodePtr {
                mem: MemNodeId(3),
                slot: 77,
            },
        };
        assert_eq!(TipVal::decode(&t.encode()), Some(t));
        assert_eq!(TipVal::decode(&[]), None);
    }

    #[test]
    fn global_roundtrip() {
        let g = GlobalVal {
            next_sid: 9,
            lowest: 4,
        };
        assert_eq!(GlobalVal::decode(&g.encode()), Some(g));
    }

    #[test]
    fn cat_entry_roundtrip() {
        let e = CatEntry {
            root: ptr(5),
            parent: 2,
            branch_id: 7,
            nbranches: 2,
            deleted: true,
        };
        assert_eq!(CatEntry::decode(&e.encode()), Some(e));
        assert!(!e.is_writable());
        let w = CatEntry {
            branch_id: 0,
            deleted: false,
            ..e
        };
        assert!(w.is_writable());
    }

    /// Every strict prefix of an encoding decodes to `None`, never a panic.
    #[test]
    fn short_payloads_decode_to_none() {
        let tip = TipVal {
            sid: 1,
            root: ptr(2),
        }
        .encode();
        let global = GlobalVal {
            next_sid: 3,
            lowest: 1,
        }
        .encode();
        let entry = CatEntry {
            root: ptr(4),
            parent: 0,
            branch_id: 0,
            nbranches: 1,
            deleted: false,
        }
        .encode();
        for n in 0..tip.len() {
            assert_eq!(TipVal::decode(&tip[..n]), None, "tip, {n} bytes");
        }
        for n in 0..global.len() {
            assert_eq!(GlobalVal::decode(&global[..n]), None, "global, {n} bytes");
        }
        for n in 0..entry.len() {
            assert_eq!(CatEntry::decode(&entry[..n]), None, "entry, {n} bytes");
        }
    }

    /// A zeroed or truncated TIP / GLOBAL image surfaces as the typed
    /// error from every entry point that reads it, not as a panic.
    #[test]
    fn corrupt_header_objects_are_typed_errors() {
        use crate::tree::{MinuetCluster, TreeConfig};
        let zeroed = vec![0u8; 64];
        let truncated = minuet_dyntx::encode_obj(99, &[7u8; 5]);
        for image in [&zeroed, &truncated] {
            let mc = MinuetCluster::new(2, 1, TreeConfig::default());
            let layout = *mc.layout(0);
            let smash = |repl: ReplRef| {
                for mem in mc.sinfonia.memnode_ids() {
                    let node = mc.sinfonia.node(mem);
                    node.raw_write(repl.at(mem).off, image[..].into()).unwrap();
                }
            };
            smash(layout.tip());
            let tip = Error::CorruptMeta("tip");
            assert_eq!(mc.proxy().get(0, b"k").unwrap_err(), tip);
            assert_eq!(mc.proxy().put(0, b"k".to_vec(), vec![1]).unwrap_err(), tip);
            assert_eq!(mc.proxy().create_snapshot(0).unwrap_err(), tip);
            assert_eq!(mc.proxy().delete_snapshot(0, 0).unwrap_err(), tip);
            assert_eq!(mc.proxy().current_tip(0).unwrap_err(), tip);
            mc.proxy()
                .set_watermark(0, 0)
                .expect("global header intact");

            smash(layout.global());
            let global = Error::CorruptMeta("global header");
            assert_eq!(mc.proxy().set_watermark(0, 1).unwrap_err(), global);
            assert_eq!(mc.proxy().create_snapshot(0).unwrap_err(), global);
            assert_eq!(mc.proxy().gc_sweep(0).unwrap_err(), global);
        }
    }

    /// Version tree used below (ids in parentheses are parents):
    /// 0 -> 1 -> 2 -> 4        (mainline)
    ///      1 -> 3 -> 5
    #[test]
    fn ancestry_walks() {
        let vc = VersionCache::new();
        vc.insert(0, NO_PARENT, ptr(0));
        vc.insert(1, 0, ptr(1));
        vc.insert(2, 1, ptr(2));
        vc.insert(3, 1, ptr(3));
        vc.insert(4, 2, ptr(4));
        vc.insert(5, 3, ptr(5));
        let no_fetch = |s: SnapshotId| -> Result<(SnapshotId, NodePtr), Error> {
            Err(Error::NoSuchSnapshot(s))
        };
        assert!(vc.is_ancestor_or_self(1, 4, no_fetch).unwrap());
        assert!(vc.is_ancestor_or_self(1, 5, no_fetch).unwrap());
        assert!(vc.is_ancestor_or_self(4, 4, no_fetch).unwrap());
        assert!(!vc.is_ancestor_or_self(2, 5, no_fetch).unwrap());
        assert!(!vc.is_ancestor_or_self(3, 4, no_fetch).unwrap());
        assert!(!vc.is_ancestor_or_self(4, 1, no_fetch).unwrap());
    }

    #[test]
    fn ancestry_fetches_missing() {
        let vc = VersionCache::new();
        vc.insert(0, NO_PARENT, ptr(0));
        // 1 and 2 not cached: provided by fetch.
        let fetched = std::cell::RefCell::new(Vec::new());
        let ok = vc
            .is_ancestor_or_self(0, 2, |s| {
                fetched.borrow_mut().push(s);
                Ok((s - 1, ptr(s as u32)))
            })
            .unwrap();
        assert!(ok);
        assert_eq!(*fetched.borrow(), vec![2, 1]);
        // Now cached.
        assert_eq!(vc.parent(2), Some(1));
    }

    #[test]
    fn lca_queries() {
        let vc = VersionCache::new();
        vc.insert(0, NO_PARENT, ptr(0));
        vc.insert(1, 0, ptr(1));
        vc.insert(2, 1, ptr(2));
        vc.insert(3, 1, ptr(3));
        vc.insert(4, 2, ptr(4));
        vc.insert(5, 3, ptr(5));
        let no_fetch = |s: SnapshotId| -> Result<(SnapshotId, NodePtr), Error> {
            Err(Error::NoSuchSnapshot(s))
        };
        assert_eq!(vc.lca(4, 5, no_fetch).unwrap(), 1);
        assert_eq!(vc.lca(2, 4, no_fetch).unwrap(), 2);
        assert_eq!(vc.lca(3, 3, no_fetch).unwrap(), 3);
        assert_eq!(vc.lca(4, 3, no_fetch).unwrap(), 1);
    }
}
