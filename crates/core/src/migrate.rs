//! Live migration of B-tree nodes between memnodes, and the rebalancing
//! policies built on it — the mechanism behind the paper's incremental
//! scale-out claim (§1: "grows incrementally by adding memory nodes").
//!
//! ## Protocol
//!
//! Relocating a physical node `X` from one memnode to another happens in
//! two minitransactions, both executed by a proxy with no coordination
//! beyond Sinfonia's own concurrency control:
//!
//! 1. **Reserve** — a slot is allocated on the target memnode and a
//!    *reservation marker* is blind-written into it. The marker decodes
//!    as neither a node nor a free-list segment, so a traversal that
//!    somehow lands on it aborts as a torn read, and a crash between the
//!    phases leaves an orphan that
//!    [`Proxy::reclaim_orphaned_reservations`] returns to the free list.
//! 2. **Swap** — one dynamic transaction that (a) re-reads `X` and writes
//!    its current image into the reserved slot, (b) rewrites **every
//!    referencer** of `X` — parent child-pointers, descendant-set
//!    forwarding entries, catalog root pointers, and the TIP — to the new
//!    location, and (c) frees `X`'s slot through the ordinary free-list
//!    path, all validated and applied atomically by the commit
//!    minitransaction.
//!
//! ## Why validating the scanned referencers is enough
//!
//! The referencer set is discovered by an unsynchronized raw scan, so it
//! can be stale. The swap transaction therefore reads every scanned
//! referencer transactionally and aborts (and rescans) if any differs
//! from its scanned version. That closes the race with concurrent
//! *creation* of new referencers because of a structural invariant of
//! this codebase: **every operation that creates a new reference to an
//! existing physical node also writes some existing referencer of that
//! node in the same transaction** — a copy-on-write or split rewrites the
//! parent and desc-tags the original, a root split rewrites the root in
//! place, and a snapshot/branch creation rewrites the TIP, the source
//! catalog entry, and desc-tags the old root. Since the swap writes every
//! referencer, any such transaction either commits first (some referencer
//! no longer matches its scanned seqno → the migration rescans) or
//! second (its validation fails against the migration's writes → it
//! retries and observes the new location).
//!
//! ## Readers
//!
//! Concurrent proxies keep traversing through their non-coherent
//! [`crate::cache::NodeCache`]s. A stale cached parent still naming the
//! old location leads to a slot that now holds a free-list segment or a
//! reused node: the decode failure, fence check, version tag, or leaf
//! validation catches it, the cached path is invalidated, and the retry
//! observes the swapped pointers. Snapshot reads stay correct in linear
//! mode because any node written into a reused slot carries a creation
//! tag above every frozen snapshot id.

use crate::alloc::{push_free_segment, AllocState};
use crate::catalog::{CatEntry, GlobalVal, TipVal};
use crate::error::{Attempt, Error, RetryCause};
use crate::node::{Node, NodePtr, Page, SnapshotId};
use crate::proxy::Proxy;
use crate::stats::{occupancy, raw_obj, MemOccupancy};
use crate::tree::{ConcurrencyMode, MinuetCluster};
use minuet_dyntx::{DynTx, SeqNo, TxKey};
use minuet_sinfonia::MemNodeId;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Leading byte of a migration reservation marker. Distinct from the
/// node magic (`0xB7`), the free-segment magic (`0xFE`), and the
/// tombstone (`0xFD`), so a reservation decodes as nothing else.
const RESERVATION_MAGIC: u8 = 0xFC;

/// Encodes the reservation marker written into a target slot: the magic
/// plus the source location, for diagnostics and orphan accounting.
fn encode_reservation(src: NodePtr) -> Vec<u8> {
    let mut v = Vec::with_capacity(7);
    v.push(RESERVATION_MAGIC);
    v.extend_from_slice(&src.mem.0.to_le_bytes());
    v.extend_from_slice(&src.slot.to_le_bytes());
    v
}

/// True if a slot payload is a migration reservation marker (in-flight,
/// or orphaned by a crash between the reserve and swap phases — the
/// latter are returned to the free list by
/// [`Proxy::reclaim_orphaned_reservations`]).
pub fn is_reservation(payload: &[u8]) -> bool {
    payload.first() == Some(&RESERVATION_MAGIC)
}

/// Everything that referenced the source node at scan time, with the
/// versions observed, so the swap can validate the set is still current.
struct RefScan {
    /// Nodes whose child pointers or descendant-set entries name the
    /// source, with the seqno observed by the scan.
    nodes: Vec<(NodePtr, SeqNo)>,
    /// Catalog entries whose root is the source: `(sid, parent, seqno)`.
    cats: Vec<(SnapshotId, SnapshotId, SeqNo)>,
    /// Observed TIP seqno, if the TIP's root is the source.
    tip: Option<SeqNo>,
}

/// A committed migration: the node's new location plus the sequence
/// numbers the commit installed, used to patch sibling referencer hints
/// during batched drains/rebalances.
struct Moved {
    to: NodePtr,
    installed: Vec<(TxKey, SeqNo)>,
    /// True if the committing attempt used the caller's batch-scanned
    /// hint unmodified. Only then may sibling hints be patched and kept:
    /// a success that needed a rescan may have written referencers the
    /// siblings' hints never saw, so those hints must be discarded.
    pristine: bool,
}

/// Attempt budget for one migration (each retry re-scans referencers, so
/// this is intentionally far below the per-op optimistic budget).
const MIGRATE_RETRIES: usize = 256;

/// A referencer changed under the swap, or the reservation was reclaimed:
/// the attempt aborts and the retry rescans.
const STALE: RetryCause = RetryCause::Validation;

impl Proxy {
    /// Scans every possible referencer of `target` (see
    /// [`Proxy::scan_referencers_many`]).
    fn scan_referencers(&mut self, tree: u32, target: NodePtr) -> Result<RefScan, Error> {
        let mut map = self.scan_referencers_many(tree, &[target])?;
        Ok(map.remove(&target).expect("requested target present"))
    }

    /// One full sweep collecting the referencers of every node in
    /// `targets`: all node slots on all memnodes (child pointers and
    /// descendant-set entries), every allocated catalog entry's root, and
    /// the TIP. Batched drains and rebalances scan once per pass instead
    /// of once per migrated node.
    ///
    /// **Seqno fence.** Object seqnos are global transaction ids, so a
    /// watermark drawn before the sweep splits referencer versions into
    /// pre-scan and mid-scan. A transaction that commits *during* the
    /// sweep can write a brand-new referencer into a slot the sweep
    /// already passed — invisible — while the existing referencer it
    /// rewrote (every reference-creating transaction writes one; see the
    /// module docs) is swept *afterwards*, showing its post-commit seqno
    /// and validating cleanly. Rejecting any sweep that recorded a seqno
    /// above the watermark closes that window: the racing commit either
    /// left a fenced seqno (rescan) or touched the referencer after we
    /// recorded it (commit-time validation fails). Transitively-created
    /// referencers reduce to the same two cases, since every mid-scan
    /// commit installs post-watermark seqnos.
    fn scan_referencers_many(
        &mut self,
        tree: u32,
        targets: &[NodePtr],
    ) -> Result<std::collections::HashMap<NodePtr, RefScan>, Error> {
        const SCAN_RETRIES: usize = 64;
        for _ in 0..SCAN_RETRIES {
            let watermark = self.mc.sinfonia.next_txid();
            let map = self.scan_referencers_once(tree, targets)?;
            let fenced = map.values().any(|rs| {
                rs.nodes.iter().any(|(_, s)| *s > watermark)
                    || rs.cats.iter().any(|(_, _, s)| *s > watermark)
                    || rs.tip.is_some_and(|s| s > watermark)
            });
            if !fenced {
                return Ok(map);
            }
        }
        Err(Error::TooManyRetries {
            attempts: SCAN_RETRIES,
        })
    }

    /// One unfenced referencer sweep (see [`Proxy::scan_referencers_many`]).
    fn scan_referencers_once(
        &mut self,
        tree: u32,
        targets: &[NodePtr],
    ) -> Result<std::collections::HashMap<NodePtr, RefScan>, Error> {
        use std::collections::{HashMap, HashSet};
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        let sin = &mc.sinfonia;
        let tset: HashSet<NodePtr> = targets.iter().copied().collect();
        let mut map: HashMap<NodePtr, RefScan> = targets
            .iter()
            .map(|t| {
                (
                    *t,
                    RefScan {
                        nodes: Vec::new(),
                        cats: Vec::new(),
                        tip: None,
                    },
                )
            })
            .collect();

        for mem in sin.memnode_ids() {
            crate::stats::scan_slots(sin, &layout, mem, &mut |slot, val| {
                let ptr = NodePtr { mem, slot };
                if let Ok(page) = Page::new(val.data) {
                    // Each referencing node appears once per target, even
                    // if it references that target through several
                    // pointers (the swap rewrites all of them at once).
                    let mut hit: Vec<NodePtr> = Vec::new();
                    for k in page.kids() {
                        if k != ptr && tset.contains(&k) && !hit.contains(&k) {
                            hit.push(k);
                        }
                    }
                    for d in page.desc() {
                        if d.ptr != ptr && tset.contains(&d.ptr) && !hit.contains(&d.ptr) {
                            hit.push(d.ptr);
                        }
                    }
                    for t in hit {
                        map.get_mut(&t).unwrap().nodes.push((ptr, val.seqno));
                    }
                }
            })?;
        }

        let home = self.home;
        for sid in 0..GlobalVal::read_raw(sin, &layout, home)?.next_sid {
            if let Some((seqno, e)) = CatEntry::fetch(sin, &layout, sid, home)? {
                if let Some(refs) = map.get_mut(&e.root) {
                    refs.cats.push((sid, e.parent, seqno));
                }
            }
        }
        let (seqno, tip) = TipVal::read_raw(sin, &layout, home)?;
        if let Some(refs) = map.get_mut(&tip.root) {
            refs.tip = Some(seqno);
        }
        Ok(map)
    }

    /// Stages one swap attempt into `tx`: copy, referencer compare-swaps,
    /// and the free of the source. `Ok(false)` if the source slot no
    /// longer holds a decodable node (freed or reclaimed concurrently):
    /// nothing to migrate.
    fn stage_swap(
        &mut self,
        tx: &mut DynTx<'_>,
        tree: u32,
        src: NodePtr,
        target: NodePtr,
        refs: &RefScan,
    ) -> Attempt<bool> {
        let layout = *self.mc.layout(tree);
        let home = self.home;

        let raw = tx.read(layout.node_obj(src))?;
        if Page::new(raw.clone()).is_err() {
            return Ok(false);
        }

        // The reservation must still be ours; if the GC reclaimed an
        // (apparently orphaned) marker, the caller re-reserves.
        let tgt_obj = layout.node_obj(target);
        if !is_reservation(&tx.read(tgt_obj)?) {
            return Err(STALE.into());
        }
        tx.write(tgt_obj, raw);

        // Referencers: every one must match its scanned version exactly —
        // see the module docs for why this makes the set complete.
        for &(rptr, seen) in &refs.nodes {
            let robj = layout.node_obj(rptr);
            let mut rnode = Node::decode(&tx.read(robj)?).map_err(|_| STALE)?;
            if tx.observed_seqno(&TxKey::Plain(robj)) != Some(seen)
                || !swap_references(&mut rnode, src, target)
            {
                return Err(STALE.into());
            }
            tx.write(robj, rnode.encode());
        }
        for &(sid, _, seen) in &refs.cats {
            let (repl, mut entry) = CatEntry::read(tx, &layout, sid, home)?;
            if tx.observed_seqno(&TxKey::Repl(repl)) != Some(seen) || entry.root != src {
                return Err(STALE.into());
            }
            entry.root = target;
            tx.write_repl(repl, entry.encode());
        }
        if let Some(seen) = refs.tip {
            let mut tip = TipVal::read(tx, &layout, home)?;
            if tx.observed_seqno(&TxKey::Repl(layout.tip())) != Some(seen) || tip.root != src {
                return Err(STALE.into());
            }
            tip.root = target;
            tx.write_repl(layout.tip(), tip.encode());
        }

        // Free the source through the ordinary free-list path: the slot
        // itself becomes the segment header, atomically with the swap.
        let state = AllocState::read(tx, &layout, src.mem)?;
        let new_state = push_free_segment(tx, &layout, src.mem, &state, &[src.slot]);
        tx.write(layout.alloc_state(src.mem), new_state.encode());
        Ok(true)
    }

    /// Reserves a slot for a migration of `src` on `dst_mem` and marks it
    /// (phase 1 of the protocol). Public as a crash-injection hook for
    /// the recovery tests: a cluster crashed right after this call holds
    /// an orphaned reservation that recovery plus a GC sweep must
    /// reclaim.
    pub fn migrate_reserve(
        &mut self,
        tree: u32,
        src: NodePtr,
        dst_mem: MemNodeId,
    ) -> Result<NodePtr, Error> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        let target = self.chunks.alloc_on(&mc.sinfonia, &layout, tree, dst_mem)?;
        self.run_tx(tree, mc.cfg.max_op_retries, |_, tx| {
            tx.write(layout.node_obj(target), encode_reservation(src));
            Ok(())
        })?;
        Ok(target)
    }

    /// Migrates the physical node at `src` to a fresh slot on `dst_mem`,
    /// transparently to concurrent operations. Returns the new location,
    /// or `Ok(None)` if the source stopped being a live node before the
    /// swap could commit (e.g. freed by GC or already superseded).
    pub fn migrate_node(
        &mut self,
        tree: u32,
        src: NodePtr,
        dst_mem: MemNodeId,
    ) -> Result<Option<NodePtr>, Error> {
        self.migrate_node_hinted(tree, src, dst_mem, None)
            .map(|o| o.map(|m| m.to))
    }

    /// [`Proxy::migrate_node`] with an optional pre-scanned referencer
    /// hint (first attempt only; retries rescan). Returns the installed
    /// seqnos so batch callers can patch sibling hints.
    fn migrate_node_hinted(
        &mut self,
        tree: u32,
        src: NodePtr,
        dst_mem: MemNodeId,
        hint: Option<RefScan>,
    ) -> Result<Option<Moved>, Error> {
        let mc = self.mc.clone();
        if mc.cfg.mode == ConcurrencyMode::FullValidation {
            return Err(Error::ElasticityUnsupported(
                "migration does not maintain the FullValidation seqno table; \
                 use DirtyTraversals",
            ));
        }
        if src.mem == dst_mem {
            return Ok(None);
        }
        mc.migration.started.fetch_add(1, Ordering::Relaxed);

        let mut target: Option<NodePtr> = None;
        let result = self.migrate_attempts(tree, src, dst_mem, hint, &mut target);
        // On any outcome except a committed swap, release the reservation
        // we may still hold: nothing else reclaims it during normal
        // operation (GC ignores markers; only the explicit post-crash
        // reclaim pass touches them). Best-effort on the error paths.
        if !matches!(result, Ok(Some(_))) {
            if let Some(t) = target {
                let _ = self.free_reservation(tree, t);
            }
        }
        result
    }

    /// The reserve/swap transaction of [`Proxy::migrate_node`]: every
    /// attempt (re)scans the referencers, reserves a target if none is
    /// held, and stages the swap. `target` reports the reservation still
    /// held when this returns without a committed swap, so the caller can
    /// release it.
    fn migrate_attempts(
        &mut self,
        tree: u32,
        src: NodePtr,
        dst_mem: MemNodeId,
        mut hint: Option<RefScan>,
        target: &mut Option<NodePtr>,
    ) -> Result<Option<Moved>, Error> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        let mut retrying = false;
        let (swapped, info) = self.run_tx(tree, MIGRATE_RETRIES, |p, tx| {
            if std::mem::replace(&mut retrying, true) {
                mc.migration.retries.fetch_add(1, Ordering::Relaxed);
            }
            let (refs, pristine) = match hint.take() {
                Some(h) => (h, true), // batch-scanned hint: first attempt only
                None => (p.scan_referencers(tree, src)?, false),
            };
            // If a (misplaced) reclaim pass freed our reservation, the
            // slot is back on the free list and no longer ours: reserve a
            // fresh one.
            if let Some(t) = *target {
                if !is_reservation(&raw_obj(&mc.sinfonia, layout.node_obj(t))?.data) {
                    *target = None;
                }
            }
            let tgt = match *target {
                Some(t) => t,
                None => *target.insert(p.migrate_reserve(tree, src, dst_mem)?),
            };
            Ok(p.stage_swap(tx, tree, src, tgt, &refs)?
                .then_some((tgt, refs, pristine)))
        })?;
        let Some((tgt, refs, pristine)) = swapped else {
            mc.migration.aborted.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        mc.migration.completed.fetch_add(1, Ordering::Relaxed);
        self.ncache.invalidate(tree, src);
        // Process-local version cache: swapped catalog roots must be
        // re-pointed or snapshot resolution would chase the freed slot
        // forever.
        let shared = mc.shared(tree);
        for &(sid, parent, _) in &refs.cats {
            shared.vcache.insert(sid, parent, tgt);
        }
        Ok(Some(Moved {
            to: tgt,
            installed: info.installed,
            pristine,
        }))
    }

    /// Frees a reservation this proxy owns, transferring the slot to the
    /// memnode's free list. No-op if the slot no longer holds a marker.
    fn free_reservation(&mut self, tree: u32, ptr: NodePtr) -> Result<(), Error> {
        let layout = *self.mc.layout(tree);
        self.run_tx(tree, self.mc.cfg.max_op_retries, |_, tx| {
            if is_reservation(&tx.read(layout.node_obj(ptr))?) {
                let state = AllocState::read(tx, &layout, ptr.mem)?;
                let new_state = push_free_segment(tx, &layout, ptr.mem, &state, &[ptr.slot]);
                tx.write(layout.alloc_state(ptr.mem), new_state.encode());
            }
            Ok(())
        })?;
        Ok(())
    }

    /// Reclaims reservation markers orphaned by a crash between the
    /// reserve and swap phases, returning their slots to the free lists.
    /// Call while no migration is in flight (e.g. right after recovery):
    /// reclaiming a *live* migration's reservation is safe — its swap
    /// fails validation and re-reserves — but wastes work.
    pub fn reclaim_orphaned_reservations(&mut self, tree: u32) -> Result<u64, Error> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        let mut reclaimed = 0u64;
        for mem in mc.sinfonia.memnode_ids() {
            let mut orphans: Vec<NodePtr> = Vec::new();
            crate::stats::scan_slots(&mc.sinfonia, &layout, mem, &mut |slot, val| {
                if is_reservation(&val.data) {
                    orphans.push(NodePtr { mem, slot });
                }
            })?;
            for ptr in orphans {
                // `free_reservation` re-confirms transactionally, so a
                // raced slot is skipped, never double-freed.
                self.free_reservation(tree, ptr)?;
                reclaimed += 1;
            }
        }
        Ok(reclaimed)
    }

    /// Drains every live node of `tree` off `mem` (which is first marked
    /// *retiring* so allocation placement steers away), migrating them to
    /// the least-loaded eligible memnodes. Returns the number of nodes
    /// moved. The retiring mark is left set — this is the decommission
    /// path; clear it with `sinfonia.set_retiring(mem, false)` to reuse
    /// the node.
    ///
    /// Caveat: the retiring mark steers allocation away but is not a hard
    /// ban — if **every** non-retiring memnode runs out of slots, the
    /// allocator's fallback pass places on retiring nodes rather than
    /// failing (capacity pressure beats decommissioning). Re-check
    /// [`crate::stats::occupancy`] immediately before physically removing
    /// a drained node, and re-drain if it regained slots.
    pub fn drain(&mut self, tree: u32, mem: MemNodeId) -> Result<u64, Error> {
        let mc = self.mc.clone();
        let layout = *mc.layout(tree);
        mc.sinfonia.set_retiring(mem, true)?;
        let mut moved = 0u64;
        for _pass in 0..64 {
            let victims: Vec<NodePtr> = live_slots(&mc, tree, mem)?
                .into_iter()
                .map(|slot| NodePtr { mem, slot })
                .collect();
            if victims.is_empty() {
                return Ok(moved);
            }
            let mut dsts = eligible_targets(&mc, tree, mem)?;
            if dsts.is_empty() {
                return Err(Error::ElasticityUnsupported(
                    "no eligible memnode left to drain onto",
                ));
            }
            // One referencer sweep per pass; each committed migration
            // patches the remaining hints, so the common case stays at
            // one scan for the whole batch instead of one per node.
            let mut hints = self.scan_referencers_many(tree, &victims)?;
            for src in victims {
                // Least-loaded target, tracking the nodes placed this pass.
                let t = dsts.iter_mut().min_by_key(|o| o.live).unwrap();
                let dst = t.mem;
                let hint = hints.remove(&src);
                if let Some(m) = self.migrate_node_hinted(tree, src, dst, hint)? {
                    moved += 1;
                    t.live += 1;
                    if m.pristine {
                        patch_hints(hints.values_mut(), &layout, src, &m);
                    } else {
                        // The success rescanned: sibling hints may miss
                        // referencers it wrote. Fall back to per-node
                        // scans for the rest of this pass.
                        hints.clear();
                    }
                }
            }
        }
        // Live slots kept appearing for 64 passes: a writer is racing the
        // drain faster than we migrate.
        Err(Error::TooManyRetries { attempts: 64 })
    }
}

/// After one migration in a batch commits, brings the remaining victims'
/// hints up to the commit's instant: a referencer that was itself the
/// migrated node moved to its new slot, and every object the commit
/// wrote carries a newly installed seqno. (The swap changes no *other*
/// membership in sibling referencer sets — it only rewrites pointers
/// inside existing referencers — so patching pointers and seqnos keeps
/// each hint exactly the referencer set as of the commit.)
fn patch_hints<'a>(
    hints: impl Iterator<Item = &'a mut RefScan>,
    layout: &crate::layout::Layout,
    moved_from: NodePtr,
    moved: &Moved,
) {
    let find = |key: TxKey| {
        moved
            .installed
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| *s)
    };
    for rs in hints {
        for (ptr, seq) in rs.nodes.iter_mut() {
            if *ptr == moved_from {
                *ptr = moved.to;
            }
            if let Some(s) = find(TxKey::Plain(layout.node_obj(*ptr))) {
                *seq = s;
            }
        }
        for (sid, _, seq) in rs.cats.iter_mut() {
            if let Some(repl) = layout.catalog_entry(*sid) {
                if let Some(s) = find(TxKey::Repl(repl)) {
                    *seq = s;
                }
            }
        }
        if let Some(seq) = rs.tip.as_mut() {
            if let Some(s) = find(TxKey::Repl(layout.tip())) {
                *seq = s;
            }
        }
    }
}

/// Rewrites every reference to `old` in `node` to `new`; returns whether
/// anything changed.
fn swap_references(node: &mut Node, old: NodePtr, new: NodePtr) -> bool {
    let mut changed = false;
    if let crate::node::NodeBody::Internal { kids, .. } = &mut node.body {
        for k in kids.iter_mut() {
            if *k == old {
                *k = new;
                changed = true;
            }
        }
    }
    for d in node.desc.iter_mut() {
        if d.ptr == old {
            d.ptr = new;
            changed = true;
        }
    }
    changed
}

/// Slots of `mem` currently holding a decodable node (raw scan).
fn live_slots(mc: &MinuetCluster, tree: u32, mem: MemNodeId) -> Result<Vec<u32>, Error> {
    let layout = *mc.layout(tree);
    let mut out = Vec::new();
    crate::stats::scan_slots(&mc.sinfonia, &layout, mem, &mut |slot, val| {
        if Page::new(val.data).is_ok() {
            out.push(slot);
        }
    })?;
    Ok(out)
}

/// Occupancy of every memnode eligible as a migration target (seeded,
/// not retiring, not `exclude`), least-loaded first.
fn eligible_targets(
    mc: &MinuetCluster,
    tree: u32,
    exclude: MemNodeId,
) -> Result<Vec<MemOccupancy>, Error> {
    let mut occ: Vec<MemOccupancy> = occupancy(mc, tree)?
        .into_iter()
        .filter(|o| o.mem != exclude && !o.retiring && !mc.sinfonia.node(o.mem).is_joining())
        .collect();
    occ.sort_by_key(|o| o.live);
    Ok(occ)
}

/// Report of one [`MinuetCluster::rebalance`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Nodes migrated.
    pub moved: u64,
    /// Rebalance rounds executed.
    pub rounds: u32,
}

/// Occupancy-driven rebalancing policy: drains memnodes whose live-slot
/// count exceeds the mean (over eligible memnodes) by more than
/// `tolerance`, toward the under-loaded ones, until the spread is within
/// tolerance or the move budget runs out.
#[derive(Debug, Clone, Copy)]
pub struct Rebalancer {
    /// Acceptable relative deviation from the mean (e.g. `0.15` = 15 %).
    pub tolerance: f64,
    /// Upper bound on migrations per invocation.
    pub max_moves: u64,
    /// Upper bound on scan/plan/migrate rounds.
    pub max_rounds: u32,
}

impl Default for Rebalancer {
    fn default() -> Self {
        Rebalancer {
            tolerance: 0.15,
            max_moves: u64::MAX,
            max_rounds: 16,
        }
    }
}

impl Rebalancer {
    /// Runs the policy on one tree through `proxy`.
    pub fn run(&self, proxy: &mut Proxy, tree: u32) -> Result<RebalanceReport, Error> {
        let mc = proxy.cluster().clone();
        let mut report = RebalanceReport::default();
        'rounds: for _ in 0..self.max_rounds {
            let occ: Vec<MemOccupancy> = occupancy(&mc, tree)?
                .into_iter()
                .filter(|o| !o.retiring && !mc.sinfonia.node(o.mem).is_joining())
                .collect();
            if occ.len() < 2 {
                return Ok(report);
            }
            let total: u64 = occ.iter().map(|o| o.live as u64).sum();
            let mean = total as f64 / occ.len() as f64;
            let high = mean * (1.0 + self.tolerance);
            let mut donors: Vec<&MemOccupancy> =
                occ.iter().filter(|o| (o.live as f64) > high).collect();
            if donors.is_empty() {
                break;
            }
            donors.sort_by_key(|o| std::cmp::Reverse(o.live));
            let mut takers: Vec<(MemNodeId, i64)> = occ
                .iter()
                .filter(|o| (o.live as f64) < mean)
                .map(|o| (o.mem, (mean - o.live as f64).floor() as i64))
                .collect();
            report.rounds += 1;

            let layout = *mc.layout(tree);
            for donor in donors {
                let surplus = (donor.live as f64 - mean).ceil() as usize;
                let mut victims: Vec<NodePtr> = live_slots(&mc, tree, donor.mem)?
                    .into_iter()
                    .map(|slot| NodePtr {
                        mem: donor.mem,
                        slot,
                    })
                    .collect();
                victims.truncate(surplus);
                // One referencer sweep per donor batch (see drain()).
                let mut hints = proxy.scan_referencers_many(tree, &victims)?;
                for src in victims {
                    let Some(t) = takers.iter_mut().find(|(_, room)| *room > 0) else {
                        break;
                    };
                    let dst = t.0;
                    if report.moved >= self.max_moves {
                        break 'rounds;
                    }
                    let hint = hints.remove(&src);
                    if let Some(m) = proxy.migrate_node_hinted(tree, src, dst, hint)? {
                        report.moved += 1;
                        t.1 -= 1;
                        if m.pristine {
                            patch_hints(hints.values_mut(), &layout, src, &m);
                        } else {
                            hints.clear(); // see drain(): rescan the rest
                        }
                    }
                }
            }
        }
        Ok(report)
    }
}

impl MinuetCluster {
    /// Rebalances every tree's slot occupancy across the cluster with the
    /// default [`Rebalancer`] policy. Run this after
    /// [`MinuetCluster::add_memnode`] so existing load shifts onto the
    /// new node instead of only absorbing future allocations.
    pub fn rebalance(self: &Arc<Self>) -> Result<RebalanceReport, Error> {
        let policy = Rebalancer::default();
        let mut proxy = self.proxy();
        let mut total = RebalanceReport::default();
        for tree in 0..self.n_trees() as u32 {
            let r = policy.run(&mut proxy, tree)?;
            total.moved += r.moved;
            total.rounds += r.rounds;
        }
        Ok(total)
    }

    /// Decommissions `mem`: marks it retiring and migrates every live
    /// node of every tree off it. Returns the total nodes moved. After
    /// this returns, the memnode holds zero live slots (for each tree)
    /// and receives no new allocations.
    pub fn drain(self: &Arc<Self>, mem: MemNodeId) -> Result<u64, Error> {
        let mut proxy = self.proxy();
        let mut moved = 0;
        for tree in 0..self.n_trees() as u32 {
            moved += proxy.drain(tree, mem)?;
        }
        Ok(moved)
    }
}
