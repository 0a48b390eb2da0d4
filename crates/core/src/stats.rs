//! Per-proxy operation statistics, per-memnode slot occupancy, and
//! cluster-wide migration counters — the shared source of truth for the
//! rebalancer, the elasticity tests, and the bench reports.

use crate::alloc::AllocState;
use crate::error::{Error, RetryCause};
use crate::layout::Layout;
use crate::node::{NodePtr, Page};
use crate::tree::MinuetCluster;
use minuet_dyntx::{ObjRef, ObjVal};
use minuet_sinfonia::{MemNodeId, SinfoniaCluster};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unsynchronized read of one object image (a raw read: no locks, no
/// read set). Concurrent writers may be observed mid-flight; callers must
/// confirm any decision transactionally.
pub(crate) fn raw_obj(sin: &SinfoniaCluster, obj: ObjRef) -> Result<ObjVal, Error> {
    let raw = sin.node(obj.mem).raw_read(obj.off, obj.cap)?;
    Ok(minuet_dyntx::decode_obj(&raw))
}

/// Slots a scan reads with one raw read: 64 slots of a 4 KiB payload are
/// 257 KiB, one frame.
const SCAN_RUN: u32 = 64;

/// Raw-scans every allocated slot of `mem` (0..bump), invoking
/// `f(slot, val)` with each decoded object image, and returns the
/// allocator state observed before the scan. The single place that knows
/// the alloc-state/bump scan protocol — shared by [`occupancy`], the GC
/// sweep, and migration's referencer/liveness scans. Slots are read in
/// runs of [`SCAN_RUN`], one raw read each, and handed out as slices of
/// the run. Unsynchronized, like [`raw_obj`].
pub(crate) fn scan_slots(
    sin: &SinfoniaCluster,
    layout: &Layout,
    mem: MemNodeId,
    f: &mut dyn FnMut(u32, ObjVal),
) -> Result<AllocState, Error> {
    let state = AllocState::read_raw(sin, layout, mem)?;
    let (stride, cap) = (
        layout.slot_size(),
        layout.node_obj(NodePtr { mem, slot: 0 }).cap,
    );
    for first in (0..state.bump).step_by(SCAN_RUN as usize) {
        let n = SCAN_RUN.min(state.bump - first);
        let off = layout.node_obj(NodePtr { mem, slot: first }).off;
        let len = u64::from(n - 1) * stride + u64::from(cap);
        let run = sin.node(mem).raw_read(off, len as u32)?;
        for i in 0..n {
            // A short reply reads as unwritten slots, never a panic.
            let at = ((u64::from(i) * stride) as usize).min(run.len());
            let image = run.slice(at, (cap as usize).min(run.len() - at));
            f(first + i, minuet_dyntx::decode_obj_shared(&image));
        }
    }
    Ok(state)
}

/// Counters a proxy accumulates while executing operations. Useful for
//  understanding abort behaviour in benchmarks and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ProxyStats {
    /// Completed operations.
    pub ops: u64,
    /// Total optimistic retries across all operations.
    pub retries: u64,
    /// Retries caused by commit/piggy-backed validation failures.
    pub retries_validation: u64,
    /// Retries caused by fence-key violations during dirty traversals.
    pub retries_fence: u64,
    /// Retries caused by height inconsistencies (Fig. 5 fatal check).
    pub retries_height: u64,
    /// Retries caused by version-tag staleness (§4.2/§5.2 checks).
    pub retries_stale_version: u64,
    /// Retries caused by stale tip / catalog observations.
    pub retries_stale_tip: u64,
    /// Retries caused by torn node decodes.
    pub retries_torn: u64,
    /// Retries because no memnode was ready for replicated compares
    /// (membership transition windows).
    pub retries_no_ready: u64,
    /// Operations served through the batched multi-op fast path (shared
    /// traversal + grouped leaf fetches + pipelined commits).
    pub batched_ops: u64,
    /// Multi-op members that fell back to the per-key path (conflicts,
    /// fence/version misses, or unsupported configurations).
    pub batch_fallbacks: u64,
    /// Per-leaf groups formed by the batch planner.
    pub batch_groups: u64,
    /// Gets served from a cached leaf, validated by a compare-only
    /// minitransaction instead of a full leaf fetch (the hot-path
    /// overhaul's headline counter; includes batch-path reuses).
    pub leaf_cache_hits: u64,
    /// Validated-leaf lookups that missed the cache and fetched the full
    /// image.
    pub leaf_cache_misses: u64,
    /// Copy-on-write node copies performed.
    pub cow_copies: u64,
    /// Discretionary copies performed (§5.2).
    pub discretionary_copies: u64,
    /// Leaf/internal splits performed.
    pub splits: u64,
}

impl ProxyStats {
    /// Records one retry with its cause.
    pub fn record_retry(&mut self, cause: RetryCause) {
        self.retries += 1;
        match cause {
            RetryCause::Validation => self.retries_validation += 1,
            RetryCause::FenceViolation => self.retries_fence += 1,
            RetryCause::HeightMismatch => self.retries_height += 1,
            RetryCause::StaleVersion => self.retries_stale_version += 1,
            RetryCause::StaleTip => self.retries_stale_tip += 1,
            RetryCause::TornRead => self.retries_torn += 1,
            RetryCause::NoReadyReplica => self.retries_no_ready += 1,
        }
    }

    /// Abort rate: retries per completed operation.
    pub fn abort_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.retries as f64 / self.ops as f64
        }
    }
}

/// Physical slot occupancy of one memnode for one tree, from a raw
/// (unsynchronized) scan of the node region. Concurrent writers may shift
/// individual counts by a few slots; the totals are exact while quiescent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOccupancy {
    /// The memnode.
    pub mem: MemNodeId,
    /// Allocator bump pointer: slots ever handed out.
    pub bump: u32,
    /// Slots currently on the memnode's free list (allocator state).
    pub free_listed: u32,
    /// Slots holding a decodable B-tree node (live or awaiting GC).
    pub live: u32,
    /// Slots holding a migration reservation marker (in-flight
    /// migrations, or crash orphans awaiting
    /// `Proxy::reclaim_orphaned_reservations`).
    pub migrating: u32,
    /// True if the memnode is being drained.
    pub retiring: bool,
}

/// Scans every memnode's node region of `tree` and reports per-memnode
/// slot occupancy. This is the rebalancer's input and the tests' ground
/// truth for "drained to zero live slots".
pub fn occupancy(mc: &MinuetCluster, tree: u32) -> Result<Vec<MemOccupancy>, Error> {
    let layout = *mc.layout(tree);
    let sin = &mc.sinfonia;
    let mut out = Vec::new();
    for mem in sin.memnode_ids() {
        let (mut live, mut migrating) = (0, 0);
        let state = scan_slots(sin, &layout, mem, &mut |_, val| {
            if Page::new(val.data.clone()).is_ok() {
                live += 1;
            } else if crate::migrate::is_reservation(&val.data) {
                migrating += 1;
            }
        })?;
        out.push(MemOccupancy {
            mem,
            bump: state.bump,
            free_listed: state.free_count,
            live,
            migrating,
            retiring: sin.node(mem).is_retiring(),
        });
    }
    Ok(out)
}

/// Cluster-wide migration counters, updated by [`crate::migrate`] and
/// surfaced through `MinuetCluster::migration`.
#[derive(Debug, Default)]
pub struct MigrationCounters {
    /// Migrations attempted (including retried ones, counted once).
    pub started: AtomicU64,
    /// Migrations that committed: node copied, referencers swapped,
    /// source slot freed.
    pub completed: AtomicU64,
    /// Migrations abandoned because the source slot stopped being a live
    /// node (freed or rewritten concurrently).
    pub aborted: AtomicU64,
    /// Optimistic retries across all migrations (validation conflicts,
    /// referencer rescans, reclaimed reservations).
    pub retries: AtomicU64,
}

/// A point-in-time copy of [`MigrationCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationSnapshot {
    /// Migrations attempted.
    pub started: u64,
    /// Migrations that committed.
    pub completed: u64,
    /// Migrations abandoned (source gone).
    pub aborted: u64,
    /// Optimistic retries across all migrations.
    pub retries: u64,
}

impl MigrationCounters {
    /// Reads all counters at once.
    pub fn snapshot(&self) -> MigrationSnapshot {
        MigrationSnapshot {
            started: self.started.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_accounting() {
        let mut s = ProxyStats::default();
        s.record_retry(RetryCause::Validation);
        s.record_retry(RetryCause::FenceViolation);
        s.record_retry(RetryCause::Validation);
        s.ops = 2;
        assert_eq!(s.retries, 3);
        assert_eq!(s.retries_validation, 2);
        assert_eq!(s.retries_fence, 1);
        assert!((s.abort_rate() - 1.5).abs() < 1e-9);
    }
}
