//! Epoch-batched commit: amortizing validation round trips across
//! concurrent transactions.
//!
//! Per-commit OCC pays one validation round trip per transaction — fine in
//! a datacenter, ruinous over a WAN where the RTT is tens of milliseconds.
//! An [`EpochService`] instead enrolls every committing transaction in the
//! current *epoch*; when the epoch closes (it filled up, or its interval
//! expired), one leader hands **all** of the epoch's staged commits to the
//! crate's one executor ([`crate::txn`]) as a single batch — one round
//! trip per participant memnode for the whole epoch, instead of one per
//! transaction. A per-commit `commit()` is the same executor applied to
//! one member; this module adds only the wait: enrolment, the full /
//! expired decision, and the hand-back of results.
//!
//! ## The epoch invariant
//!
//! Epoch closes are serialized: epoch *E+1*'s batch does not execute until
//! *E*'s has fully committed. Every transaction in an epoch therefore
//! validates against a frozen snapshot of the state as of the prior
//! epoch's close, plus the writes of *earlier members of its own epoch*:
//! a memnode executes its slice of the batch **in order**, so a later
//! member's compares observe an earlier member's installed seqnos. Two
//! same-epoch transactions touching the same object resolve
//! first-committer-wins, exactly as they would under per-commit OCC —
//! batching changes *when* validation happens, never *what* it admits.
//!
//! Members never gain atomicity from sharing an epoch: each validates and
//! applies independently, and a failure — validation, a dead participant —
//! is its own member's ([`TxError::Validation`] to that caller only). Nor
//! do they share a deadline: the close runs in an [`OpScope`] with no
//! deadline at all — not the leader's [`OpDeadline`], nobody's — and a
//! leader that unwinds mid-close still releases everyone
//! ([`TxError::Abandoned`]). Its round trips and spans stay the leader's.

use crate::txn::{execute_staged, CommitInfo, DynTx, StagedCommit, TxError};
use minuet_obs::{span, OpScope, SpanKind};
use minuet_sinfonia::{OpDeadline, SinfoniaCluster};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Epoch sizing knobs.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Close the epoch as soon as this many commits have enrolled.
    pub max_batch: usize,
    /// Close the epoch this long after its first enrollee arrives, even
    /// if it is not full. Bounds the latency a lone commit pays for
    /// batching; should be small next to the WAN RTT being amortized.
    pub interval: Duration,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            max_batch: 32,
            interval: Duration::from_millis(2),
        }
    }
}

/// Results of a closed epoch, held until every member has claimed its
/// slot.
struct ClosedEpoch {
    slots: Vec<Result<CommitInfo, TxError>>,
    unclaimed: usize,
}

struct Inner<'c> {
    /// Number of the currently open epoch; `pending` are its enrollees.
    epoch: u64,
    pending: Vec<StagedCommit<'c>>,
    /// When the open epoch received its first enrollee.
    opened: Option<Instant>,
    /// A leader is currently executing a close (epoch closes serialize:
    /// this is what freezes the prior-epoch snapshot the next epoch
    /// validates against).
    closing: bool,
    done: HashMap<u64, ClosedEpoch>,
}

/// The coordinator-side epoch service (see module docs). One instance per
/// commit stream; committing threads share it by reference.
pub struct EpochService<'c> {
    cfg: EpochConfig,
    inner: Mutex<Inner<'c>>,
    cv: Condvar,
    epochs_closed: minuet_obs::Counter,
    batch_size: minuet_obs::HistHandle,
}

impl<'c> EpochService<'c> {
    /// Creates an epoch service over `cluster`.
    pub fn new(cluster: &'c SinfoniaCluster, cfg: EpochConfig) -> Self {
        assert!(cfg.max_batch > 0, "epoch batch must hold at least one");
        let registry = &cluster.obs().registry;
        EpochService {
            cfg,
            inner: Mutex::new(Inner {
                epoch: 1,
                pending: Vec::new(),
                opened: None,
                closing: false,
                done: HashMap::new(),
            }),
            cv: Condvar::new(),
            epochs_closed: registry.counter("epoch.closed"),
            batch_size: registry.histogram("epoch.batch_size"),
        }
    }

    /// Commits `tx` through the epoch machinery: stage, enroll in the open
    /// epoch, block until that epoch's batch has executed, return this
    /// transaction's own outcome. Equivalent to [`DynTx::commit`] in what
    /// it admits; cheaper in round trips.
    pub fn commit(&self, tx: DynTx<'c>) -> Result<CommitInfo, TxError> {
        self.commit_staged(tx.stage_commit())
    }

    /// [`EpochService::commit`] for an already-staged commit.
    pub fn commit_staged(&self, staged: StagedCommit<'c>) -> Result<CommitInfo, TxError> {
        // Members that will not reach the network resolve on their own, as
        // a batch of one: a fully piggy-back-validated read-only commit or
        // a staging failure (holding them for an epoch would buy nothing
        // and cost the interval), an object past its memnode's capacity
        // (it would refuse the whole epoch's batch), and a caller whose
        // deadline has already expired (zero RPCs, under its own deadline
        // — the close runs under nobody's).
        let staged = staged.bounds_checked();
        if !staged.needs_network() || OpDeadline::current().expired() {
            return staged.execute();
        }

        let mut inner = self.inner.lock();
        let my_epoch = inner.epoch;
        let my_idx = inner.pending.len();
        if my_idx == 0 {
            inner.opened = Some(Instant::now());
        }
        inner.pending.push(staged);

        loop {
            // My epoch already closed? Claim my slot.
            if let Some(done) = inner.done.get_mut(&my_epoch) {
                let result = std::mem::replace(&mut done.slots[my_idx], Err(TxError::Abandoned));
                done.unclaimed -= 1;
                if done.unclaimed == 0 {
                    inner.done.remove(&my_epoch);
                }
                return result;
            }

            // Should *I* close it? Only while it is still the open epoch,
            // no other leader is mid-close, and it is full or expired.
            let open = inner.epoch == my_epoch && !inner.closing;
            let full = open && inner.pending.len() >= self.cfg.max_batch;
            let expired = open
                && inner
                    .opened
                    .is_some_and(|t| t.elapsed() >= self.cfg.interval);
            if full || expired {
                inner = self.close_epoch(inner);
                continue;
            }

            let _wait = span(SpanKind::EpochWait);
            match inner.opened {
                // Wake myself at the interval deadline to lead the close
                // if nothing else (a full batch, another leader) happens
                // first.
                Some(opened) if open => {
                    self.cv.wait_until(&mut inner, opened + self.cfg.interval);
                }
                // A leader is executing (mine or an earlier epoch's); it
                // notifies when results land.
                _ => self.cv.wait(&mut inner),
            }
        }
    }

    /// Closes the open epoch as leader: swap its batch out, open the next
    /// epoch, release the lock, hand the batch to the executor, publish
    /// the per-member slots and wake the waiters. Takes the lock held;
    /// returns with it re-held.
    fn close_epoch<'g>(
        &'g self,
        mut inner: MutexGuard<'g, Inner<'c>>,
    ) -> MutexGuard<'g, Inner<'c>> {
        let epoch = inner.epoch;
        let mut batch = std::mem::take(&mut inner.pending);
        inner.epoch += 1;
        inner.opened = None;
        inner.closing = true;
        // Enrollment continues into the next epoch while this one
        // validates; only the close itself is serialized (`closing` keeps
        // other would-be leaders out until the results are published).
        drop(inner);

        let abandoned = batch.iter().map(|_| Err(TxError::Abandoned));
        let mut slots: Vec<_> = abandoned.collect();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            // The leader works for every member: its deadline is not theirs.
            let _nobodys = OpScope::deadline(|_| None);
            #[cfg(test)]
            tests::close_hook();
            execute_staged(&mut batch, &mut slots)
        }));
        if let Ok(Err(e)) = &ran {
            // Nothing was sent: every member fails alike.
            slots.fill_with(|| Err(e.clone()));
        }

        // Publish whatever the close left in the slots, also when it
        // unwound: `closing` clears and every waiter wakes to its outcome
        // or to the `Abandoned` its slot was created with. Only then does
        // the leader's panic go on (it never claims its own slot).
        let mut inner = self.inner.lock();
        inner.closing = false;
        self.epochs_closed.inc();
        self.batch_size.record(slots.len() as u64);
        let unclaimed = slots.len() - usize::from(ran.is_err());
        if unclaimed > 0 {
            inner.done.insert(epoch, ClosedEpoch { slots, unclaimed });
        }
        self.cv.notify_all();
        match ran {
            Ok(_) => inner,
            Err(panic) => resume_unwind(panic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjRef;
    use crate::txn::TxKey;
    use minuet_sinfonia::{with_op_net, ClusterConfig, MemNodeId};
    use std::cell::Cell;
    use std::sync::mpsc::{channel, Receiver};
    use std::sync::Arc;

    const CAPACITY: u64 = 1 << 20;

    fn cluster(n: usize) -> Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            memnodes: n,
            capacity_per_node: CAPACITY,
            unavailable_retry: Duration::from_millis(20),
            ..Default::default()
        })
    }

    fn obj(mem: u16, off: u64) -> ObjRef {
        ObjRef::new(MemNodeId(mem), off, 64)
    }

    thread_local! {
        /// What the next close led by this thread does before it executes.
        static CLOSE_HOOK: Cell<Option<fn()>> = const { Cell::new(None) };
    }

    /// Called by `close_epoch` once the epoch's slots exist.
    pub(super) fn close_hook() {
        if let Some(hook) = CLOSE_HOOK.with(Cell::take) {
            hook();
        }
    }

    /// How long any one commit of the tests below may take: a member left
    /// parked is a failed test, not a stuck job.
    const BOUND: Duration = Duration::from_secs(3);

    /// A cluster, and a service over it, that the test's detached threads
    /// can share.
    fn leaked_service(
        n: usize,
        max_batch: usize,
        interval_ms: u64,
    ) -> (&'static SinfoniaCluster, &'static EpochService<'static>) {
        let c: &'static SinfoniaCluster = Box::leak(Box::new(cluster(n)));
        let cfg = EpochConfig {
            max_batch,
            interval: Duration::from_millis(interval_ms),
        };
        (c, Box::leak(Box::new(EpochService::new(c, cfg))))
    }

    type Committed = std::thread::Result<Result<CommitInfo, TxError>>;

    /// Commits a blind write to `o` on a thread of its own — after running
    /// `before` there — and hands back where the outcome (or the panic
    /// that unwound the thread) will arrive.
    fn commit_on_a_thread(
        (c, svc): (&'static SinfoniaCluster, &'static EpochService<'static>),
        o: ObjRef,
        before: fn(),
    ) -> Receiver<Committed> {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(|| {
                before();
                let mut t = DynTx::new(c);
                t.write(o, vec![7; 40]);
                svc.commit(t)
            }));
        });
        rx
    }

    fn outcome(rx: &Receiver<Committed>) -> Committed {
        rx.recv_timeout(BOUND)
            .expect("a member of the epoch is still parked")
    }

    /// Waits until `n` members are enrolled in the open epoch.
    fn await_enrolled(svc: &EpochService<'_>, n: usize) {
        let give_up = Instant::now() + BOUND;
        while svc.inner.lock().pending.len() != n {
            assert!(Instant::now() < give_up, "member never enrolled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn members_keep_their_own_deadlines() {
        // B waits in an epoch of two; A arrives with its deadline spent.
        let on @ (c, svc) = leaked_service(1, 2, 50);
        let b = commit_on_a_thread(on, obj(0, 0), || {});
        await_enrolled(svc, 1);
        let before = c.transport.stats.round_trips.get();
        let a = commit_on_a_thread(on, obj(0, 64), || {
            std::mem::forget(OpDeadline::at(Instant::now() - Duration::from_millis(1)).enter());
        });
        assert_eq!(outcome(&a).unwrap().unwrap_err(), TxError::DeadlineExceeded);
        // A cost no RPC and never enrolled: B closes alone, on the interval.
        assert_eq!(c.transport.stats.round_trips.get(), before);
        assert_eq!(outcome(&b).unwrap().unwrap().installed.len(), 1);
        assert_eq!(
            svc.batch_size.summary().max_ns,
            1,
            "the epoch B closed held B alone"
        );

        // A's deadline runs out while it leads: the close is not A's op.
        let b = commit_on_a_thread(on, obj(0, 128), || {});
        await_enrolled(svc, 1);
        let a = commit_on_a_thread(on, obj(0, 192), || {
            std::mem::forget(OpDeadline::after(Duration::from_millis(20)).enter());
            CLOSE_HOOK.set(Some(|| std::thread::sleep(Duration::from_millis(40))));
        });
        assert!(outcome(&b).unwrap().is_ok());
        assert!(outcome(&a).unwrap().is_ok());
    }

    #[test]
    fn an_out_of_bounds_member_never_joins_the_batch() {
        let on @ (_, svc) = leaked_service(1, 2, 50);
        let b = commit_on_a_thread(on, obj(0, 0), || {});
        await_enrolled(svc, 1);
        // Ends 32 bytes past memnode 0's capacity.
        let a = commit_on_a_thread(on, obj(0, CAPACITY - 32), || {});
        match outcome(&a).unwrap() {
            Err(TxError::OutOfBounds { mem, .. }) => assert_eq!(mem, MemNodeId(0)),
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
        assert!(outcome(&b).unwrap().is_ok());
    }

    #[test]
    fn a_leader_that_unwinds_releases_its_epoch() {
        let on @ (_, svc) = leaked_service(1, 2, 50);
        let b = commit_on_a_thread(on, obj(0, 0), || {});
        await_enrolled(svc, 1);
        // A fills the epoch, leads its close and panics in it.
        let a = commit_on_a_thread(on, obj(0, 64), || {
            CLOSE_HOOK.set(Some(|| panic!("injected: leader dies mid-close")));
        });
        assert!(outcome(&a).is_err(), "the leader's panic is its own");
        assert_eq!(outcome(&b).unwrap().unwrap_err(), TxError::Abandoned);
        // `closing` was cleared and nothing is left behind: the next epoch
        // closes as usual.
        let next = commit_on_a_thread(on, obj(0, 128), || {});
        assert!(outcome(&next).unwrap().is_ok());
        assert!(svc.inner.lock().done.is_empty());
    }

    #[test]
    fn a_dead_participant_fails_only_its_own_member() {
        let on @ (c, svc) = leaked_service(2, 2, 5_000);
        c.crash(MemNodeId(1));
        let a = commit_on_a_thread(on, obj(0, 0), || {});
        await_enrolled(svc, 1);
        let b = commit_on_a_thread(on, obj(1, 0), || {});
        let info = outcome(&a).unwrap().unwrap();
        assert_eq!(info.installed[0].0, TxKey::Plain(obj(0, 0)));
        assert_eq!(
            outcome(&b).unwrap().unwrap_err(),
            TxError::Unavailable(MemNodeId(1))
        );
    }

    #[test]
    fn concurrent_commits_share_an_epoch() {
        let c = cluster(1);
        let svc = EpochService::new(
            &c,
            EpochConfig {
                max_batch: 8,
                interval: Duration::from_millis(50),
            },
        );
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let svc = &svc;
                let c = &c;
                s.spawn(move || {
                    let mut tx = DynTx::new(c);
                    tx.write(obj(0, i * 64), format!("v{i}").into_bytes());
                    svc.commit(tx).unwrap();
                });
            }
        });
        for i in 0..8u64 {
            let mut tx = DynTx::new(&c);
            assert_eq!(
                tx.read(obj(0, i * 64)).unwrap(),
                format!("v{i}").into_bytes()
            );
        }
        // All eight fit one epoch (or a couple, under scheduling jitter) —
        // never one epoch each.
        let closed = c.obs().registry.snapshot().counter("epoch.closed").unwrap();
        assert!(closed <= 4, "{closed} epochs for 8 concurrent commits");
    }

    #[test]
    fn lone_commit_closes_on_interval() {
        let c = cluster(1);
        let svc = EpochService::new(
            &c,
            EpochConfig {
                max_batch: 64,
                interval: Duration::from_millis(1),
            },
        );
        let mut tx = DynTx::new(&c);
        tx.write(obj(0, 0), b"solo".to_vec());
        let info = svc.commit(tx).unwrap();
        assert_eq!(info.installed.len(), 1);
    }

    #[test]
    fn same_epoch_conflict_is_first_committer_wins() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(o, b"init".to_vec());
        t0.commit().unwrap();

        // Two transactions that read the same version and both write it,
        // staged *before* enrollment so they demonstrably share an epoch.
        let mut ta = DynTx::new(&c);
        let _ = ta.read(o).unwrap();
        ta.write(o, b"a".to_vec());
        let mut tb = DynTx::new(&c);
        let _ = tb.read(o).unwrap();
        tb.write(o, b"b".to_vec());

        let svc = EpochService::new(
            &c,
            EpochConfig {
                max_batch: 2,
                interval: Duration::from_secs(5),
            },
        );
        let (sa, sb) = (ta.stage_commit(), tb.stage_commit());
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(|| svc.commit_staged(sa));
            let hb = s.spawn(|| svc.commit_staged(sb));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        // Exactly one wins; the loser fails validation inside the batch
        // (the memnode executes batch members in order, so the second
        // member's compare sees the first's installed seqno).
        assert_ne!(ra.is_ok(), rb.is_ok(), "{ra:?} vs {rb:?}");
        let loser = if ra.is_ok() { rb } else { ra };
        assert_eq!(loser.unwrap_err(), TxError::Validation);
    }

    #[test]
    fn readonly_validated_commits_skip_the_epoch() {
        let c = cluster(1);
        let o = obj(0, 0);
        let mut t0 = DynTx::new(&c);
        t0.write(o, b"x".to_vec());
        t0.commit().unwrap();

        let svc = EpochService::new(
            &c,
            EpochConfig {
                max_batch: 64,
                interval: Duration::from_secs(10), // would hang a batched member
            },
        );
        let mut tx = DynTx::new(&c);
        let _ = tx.read(o).unwrap();
        let ((), net) = with_op_net(|| {
            assert!(svc.commit(tx).unwrap().validation_skipped);
        });
        assert_eq!(net.round_trips, 0);
    }

    #[test]
    fn epoch_batching_amortizes_validation_round_trips() {
        let c = cluster(1);
        let svc = EpochService::new(
            &c,
            EpochConfig {
                max_batch: 8,
                interval: Duration::from_secs(5),
            },
        );
        // Pre-stage eight independent updates, then commit them through
        // one epoch and count round trips across the whole pass: one
        // batched round trip per epoch and nothing else, instead of eight
        // commits.
        let staged: Vec<StagedCommit<'_>> = (0..8u64)
            .map(|i| {
                let mut tx = DynTx::new(&c);
                tx.write(obj(0, i * 64), vec![i as u8]);
                tx.stage_commit()
            })
            .collect();
        let before = c.transport.stats.round_trips.get();
        std::thread::scope(|s| {
            let handles: Vec<_> = staged
                .into_iter()
                .map(|sc| s.spawn(|| svc.commit_staged(sc).unwrap()))
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let spent = c.transport.stats.round_trips.get() - before;
        assert!(
            spent <= 2,
            "8 epoch-batched commits cost {spent} round trips"
        );
    }
}
