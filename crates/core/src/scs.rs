//! The Snapshot Creation Service with borrowed snapshots (Figure 7, §4.3)
//! and the minimum-time-between-snapshots staleness policy (§6.3).
//!
//! Snapshot creation engages every memnode (the replicated tip id and root
//! location must be updated atomically), so the service (a) serializes
//! creations through one critical section, and (b) lets a request *borrow*
//! the snapshot created by a concurrent request whenever doing so
//! preserves strict serializability: if a snapshot was created entirely
//! within the waiting period of a queued request, it reflects a state of
//! affairs during that request, so returning it is correct.

use crate::error::Error;
use crate::node::{NodePtr, SnapshotId};
use crate::proxy::Proxy;
use minuet_obs::{Counter, ObsPlane};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct LastSnapshot {
    sid: SnapshotId,
    root: NodePtr,
    created_at: Instant,
}

/// Snapshot creation service; one per tree, shared by all proxies
/// ("all proxies should route snapshot requests to the same server").
pub struct SnapshotService {
    state: Mutex<Option<LastSnapshot>>,
    num_snapshots: AtomicU64,
    borrowing: AtomicBool,
    /// Requests served by creating a fresh snapshot (`scs.created`).
    created: Counter,
    /// Requests served by borrowing, Fig. 7's fast path (`scs.borrowed`).
    borrowed: Counter,
    /// Requests served stale under the k-staleness policy, §6.3
    /// (`scs.reused_stale`).
    reused_stale: Counter,
}

impl SnapshotService {
    /// Creates the service with borrowing enabled. Its counters are the
    /// `scs.*` series of `plane` (the cluster's), summed over every tree
    /// whose service shares the plane.
    pub fn new(plane: &ObsPlane) -> Self {
        let r = &plane.registry;
        SnapshotService {
            state: Mutex::new(None),
            num_snapshots: AtomicU64::new(0),
            borrowing: AtomicBool::new(true),
            created: r.counter("scs.created"),
            borrowed: r.counter("scs.borrowed"),
            reused_stale: r.counter("scs.reused_stale"),
        }
    }

    /// Enables/disables borrowing (the Fig. 15 ablation).
    pub fn set_borrowing(&self, on: bool) {
        self.borrowing.store(on, Ordering::Relaxed);
    }

    /// Requests a read-only snapshot, borrowing a concurrently-created one
    /// when strict serializability allows (Figure 7).
    pub fn create(&self, proxy: &mut Proxy, tree: u32) -> Result<(SnapshotId, NodePtr), Error> {
        // Fig. 7 line 1: read the counter before entering the critical
        // section.
        let tmp1 = self.num_snapshots.load(Ordering::SeqCst);
        let mut guard = self.state.lock();
        let tmp2 = self.num_snapshots.load(Ordering::SeqCst);
        let can_borrow = self.borrowing.load(Ordering::Relaxed) && tmp2 >= tmp1 + 2;
        if can_borrow {
            // Some other request started *and finished* a creation while we
            // were waiting: its snapshot reflects a moment within our
            // request window. Borrow it.
            let last = guard.expect("counter >= 2 implies a stored snapshot");
            self.borrowed.inc();
            return Ok((last.sid, last.root));
        }
        let info = proxy.create_snapshot(tree)?;
        *guard = Some(LastSnapshot {
            sid: info.frozen_sid,
            root: info.frozen_root,
            created_at: Instant::now(),
        });
        self.num_snapshots.fetch_add(1, Ordering::SeqCst);
        self.created.inc();
        Ok((info.frozen_sid, info.frozen_root))
    }

    /// Requests a snapshot for a scan under the k-staleness policy: if a
    /// snapshot younger than `k` exists, reuse it (sacrificing strict
    /// serializability for ordinary serializability, §6.3); otherwise
    /// create one.
    pub fn snapshot_for_scan(
        &self,
        proxy: &mut Proxy,
        tree: u32,
        k: Duration,
    ) -> Result<(SnapshotId, NodePtr), Error> {
        if !k.is_zero() {
            let guard = self.state.lock();
            if let Some(last) = *guard {
                if last.created_at.elapsed() < k {
                    self.reused_stale.inc();
                    return Ok((last.sid, last.root));
                }
            }
        }
        self.create(proxy, tree)
    }

    /// Total snapshots created through this service.
    pub fn snapshots_created(&self) -> u64 {
        self.num_snapshots.load(Ordering::SeqCst)
    }
}
