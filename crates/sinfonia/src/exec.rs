//! Coordinator-side minitransaction execution.
//!
//! Implements Sinfonia's two-phase protocol with the automatic collapse to
//! one phase when a single memnode is involved, transparent retry on lock
//! contention with jittered exponential backoff, and bounded retry against
//! crashed participants (waiting for failover/recovery).
//!
//! [`execute_many`] adds the batched path: independent single-memnode
//! minitransactions bound for the same memnode share one round trip, so a
//! batch of N co-located one-phase commits costs ~1 round trip instead of
//! N — the substrate the B-tree's multi-op API builds on.
//!
//! This is where round trips and messages are counted: one
//! [`crate::transport::Transport::round_trip`] per phase, with its
//! fan-out. Bytes are not counted here: the node handle
//! ([`crate::client::RemoteNode`]) records the frames each call really
//! exchanged, in process as over a socket.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::cluster::SinfoniaCluster;
use crate::deadline::OpDeadline;
use crate::error::SinfoniaError;
use crate::lock::TxId;
use crate::memnode::{SingleResult, Vote};
use crate::minitx::{LockPolicy, Minitransaction, Outcome, ReadResults};
use crate::wire::WireBatchItem;
use minuet_obs::{jitter, OpScope};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Counts and constructs the typed deadline error: every loop that gives
/// up on an expired [`OpDeadline`] funnels through here so the
/// `deadline.exceeded` series in the cluster's registry stays exact.
fn deadline_exceeded(cluster: &SinfoniaCluster) -> SinfoniaError {
    cluster
        .obs()
        .registry
        .counter("deadline.exceeded")
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    SinfoniaError::DeadlineExceeded
}

/// Sleeps the retry backoff for the given attempt: 1µs .. ~256µs,
/// exponential with per-thread jitter ([`minuet_obs::jitter`], no rand
/// dependency in the hot path; contention windows in the cluster are
/// short, so the ceiling stays low). The one backoff policy of the stack
/// — the B-tree's optimistic retry loop sleeps here too.
pub fn backoff(attempt: u32) {
    let exp = attempt.min(8);
    let ceil = 1u64 << exp;
    let us = 1 + jitter(ceil);
    std::thread::sleep(Duration::from_micros(us));
}

/// Holds every share of `m` to its memnode's capacity before anything is
/// sent. An item past the end of a space is the caller's layout bug, not
/// a condition of the cluster: it gets a typed error and costs no round
/// trip, instead of a refusal from the server that reads as a dead node.
pub(crate) fn check_bounds(
    cluster: &SinfoniaCluster,
    m: &Minitransaction,
) -> Result<(), SinfoniaError> {
    for (mem, shard) in m.shards() {
        let (extent, capacity) = (shard.max_extent(), cluster.node(*mem).capacity());
        if extent > capacity {
            return Err(SinfoniaError::OutOfBounds {
                mem: *mem,
                detail: format!("an item ends at byte {extent}, capacity is {capacity}"),
            });
        }
    }
    Ok(())
}

/// Puts each `(index, data)` pair where the `index`-th `read()` of the
/// minitransaction expects it.
fn place(reads: &mut [Bytes], pairs: Vec<(usize, Bytes)>) {
    for (i, data) in pairs {
        reads[i] = data;
    }
}

/// Executes a minitransaction against the cluster, retrying transparently
/// on lock contention and (within `cfg.unavailable_retry`) on crashed
/// participants.
///
/// Returns [`Outcome::FailedCompare`] to let the application react to
/// failed comparisons, per the Sinfonia API, and
/// [`SinfoniaError::OutOfBounds`] — before anything is sent — for an item
/// that does not fit its memnode.
pub fn execute(cluster: &SinfoniaCluster, m: &Minitransaction) -> Result<Outcome, SinfoniaError> {
    debug_assert!(!m.is_empty(), "empty minitransaction");
    let op = OpDeadline::current();
    // Fail fast: an already-expired deadline costs zero RPCs.
    if op.expired() {
        return Err(deadline_exceeded(cluster));
    }
    check_bounds(cluster, m)?;
    let policy = m.policy.unwrap_or(LockPolicy::AbortOnBusy);
    let deadline = Instant::now() + cluster.cfg.unavailable_retry;
    let mut attempt: u32 = 0;
    loop {
        let txid: TxId = cluster.next_txid();
        match try_once(cluster, m, txid, policy) {
            TryResult::Done(outcome) => return Ok(outcome),
            TryResult::Deadline => return Err(deadline_exceeded(cluster)),
            TryResult::Busy => {
                if op.expired() {
                    return Err(deadline_exceeded(cluster));
                }
                attempt += 1;
                backoff(attempt);
            }
            TryResult::Unavailable(id) => {
                if op.expired() {
                    return Err(deadline_exceeded(cluster));
                }
                if Instant::now() >= deadline {
                    return Err(SinfoniaError::Unavailable(id));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

/// Executes a batch of **independent** minitransactions, amortizing round
/// trips: single-memnode members bound for the same memnode travel as one
/// batched round trip (their one-phase commits piggyback on the request).
/// Everything else runs alone through [`execute`]: a multi-memnode member,
/// the only member bound for its memnode (the `ExecSingle` frame a lone
/// commit sends, never a one-element batch), and any member the batched
/// pass left busy or unanswered.
///
/// The batch carries **no atomicity guarantee across its members**: each
/// minitransaction commits, fails its compares or fails outright on its
/// own, exactly as if executed alone, and members may interleave with
/// concurrent minitransactions from other coordinators. The outer `Err`
/// means **nothing was sent** — a deadline already expired at entry, or a
/// member with an out-of-bounds item ([`SinfoniaError::OutOfBounds`]);
/// once anything is sent, each member answers for itself, in input order.
pub fn execute_many(
    cluster: &SinfoniaCluster,
    ms: &[Minitransaction],
) -> Result<Vec<Result<Outcome, SinfoniaError>>, SinfoniaError> {
    if !ms.is_empty() && OpDeadline::current().expired() {
        return Err(deadline_exceeded(cluster));
    }
    let mut groups: BTreeMap<MemNodeId, Vec<usize>> = BTreeMap::new();
    for (i, m) in ms.iter().enumerate() {
        debug_assert!(!m.is_empty(), "empty minitransaction in batch");
        check_bounds(cluster, m)?;
        if let [(mem, _)] = m.shards() {
            groups.entry(*mem).or_default().push(i);
        }
    }
    groups.retain(|_, idxs| idxs.len() > 1);

    // `None` marks a member still to run alone: one outside every batch,
    // or a batched one that met contention or a crash.
    let mut out: Vec<Option<Result<Outcome, SinfoniaError>>> = ms.iter().map(|_| None).collect();
    for (mem, idxs) in &groups {
        // One batched request to this memnode: one round trip carrying
        // `idxs.len()` packed minitransactions (counted as messages), in
        // one ExecBatch frame whose members are these values as they are.
        let items: Vec<WireBatchItem> = idxs
            .iter()
            .map(|&i| WireBatchItem {
                txid: cluster.next_txid(),
                policy: ms[i].policy.unwrap_or(LockPolicy::AbortOnBusy),
                shard: ms[i].shards()[0].1.clone(),
            })
            .collect();
        cluster.transport.round_trip(idxs.len());
        let results = cluster.node(*mem).exec_batch(items);
        debug_assert_eq!(results.len(), idxs.len());
        for (&i, result) in idxs.iter().zip(results) {
            match result {
                // Contention or a crash mid-batch: retry this member alone
                // through the standard backoff/recovery-wait machinery.
                Err(_) | Ok(SingleResult::Busy) => {}
                Ok(SingleResult::BadCompare(idx)) => {
                    out[i] = Some(Ok(Outcome::FailedCompare(idx)));
                }
                Ok(SingleResult::Committed(pairs)) => {
                    let mut reads = vec![Bytes::new(); ms[i].read_count()];
                    place(&mut reads, pairs);
                    out[i] = Some(Ok(Outcome::Committed(ReadResults { data: reads })));
                }
            }
        }
    }

    // A member that runs out of `unavailable_retry` or deadline here fails
    // alone: what the others did stands, and is reported.
    Ok(out
        .into_iter()
        .zip(ms)
        .map(|(o, m)| o.unwrap_or_else(|| execute(cluster, m)))
        .collect())
}

enum TryResult {
    Done(Outcome),
    Busy,
    Unavailable(MemNodeId),
    /// The ambient [`OpDeadline`] expired mid-protocol.
    Deadline,
}

fn try_once(
    cluster: &SinfoniaCluster,
    m: &Minitransaction,
    txid: TxId,
    policy: LockPolicy,
) -> TryResult {
    let shards = m.shards();
    let mut reads: Vec<Bytes> = vec![Bytes::new(); m.read_count()];

    if let [(mem, shard)] = shards {
        // Collapsed one-phase protocol: one round trip, locks held only
        // inside the memnode call.
        cluster.transport.round_trip(1);
        let result = cluster.node(*mem).exec_single(txid, shard, policy);
        match result {
            Err(u) => TryResult::Unavailable(u.0),
            Ok(SingleResult::Busy) => TryResult::Busy,
            Ok(SingleResult::BadCompare(idx)) => TryResult::Done(Outcome::FailedCompare(idx)),
            Ok(SingleResult::Committed(pairs)) => {
                place(&mut reads, pairs);
                TryResult::Done(Outcome::Committed(ReadResults { data: reads }))
            }
        }
    } else {
        // Phase one: prepare at every participant (messages in parallel on
        // a real network; one round trip). Every prepare carries the full
        // participant list so a durable node can resolve the outcome after
        // a coordinator crash.
        cluster.transport.round_trip(shards.len());
        let participants = m.participants();
        let mut prepared: Vec<MemNodeId> = Vec::with_capacity(shards.len());
        let mut failed_compares: Vec<usize> = Vec::new();
        let mut busy = false;
        let mut unavailable = None;
        for (mem, shard) in shards {
            let vote = cluster
                .node(*mem)
                .prepare(txid, shard, policy, &participants);
            match vote {
                Err(u) => {
                    unavailable = Some(u.0);
                    break;
                }
                Ok(Vote::Busy) => {
                    busy = true;
                    break;
                }
                Ok(Vote::BadCompare(mut idx)) => {
                    failed_compares.append(&mut idx);
                    break;
                }
                Ok(Vote::Ok(pairs)) => {
                    prepared.push(*mem);
                    place(&mut reads, pairs);
                }
            }
        }

        let all_prepared = prepared.len() == shards.len();
        // Decisions go out whatever the op deadline (it ends only the retry
        // loop): a participant that voted Ok holds its locks until told.
        let op = OpDeadline::current();
        let _deliver = OpScope::deadline(|_| None);
        if all_prepared {
            // Phase two: commit everywhere. A participant that crashed
            // after voting Ok must still apply the decision after recovery:
            // we retry commit delivery until the recovery deadline.
            cluster.transport.round_trip(prepared.len());
            for mem in &prepared {
                let node = cluster.node(*mem);
                let deadline = Instant::now() + cluster.cfg.unavailable_retry;
                loop {
                    match node.commit(txid) {
                        Ok(()) => break,
                        Err(u) => {
                            // Decision is committed (all voted Ok). An
                            // expired op deadline or retry budget stops
                            // the delivery loop with a typed error; the
                            // durable participant lists let in-doubt
                            // resolution finish the transaction later.
                            if op.expired() {
                                return TryResult::Deadline;
                            }
                            if Instant::now() >= deadline {
                                return TryResult::Unavailable(u.0);
                            }
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                }
            }
            return TryResult::Done(Outcome::Committed(ReadResults { data: reads }));
        }

        // Abort everyone we prepared.
        if !prepared.is_empty() {
            cluster.transport.round_trip(prepared.len());
            for mem in &prepared {
                let _ = cluster.node(*mem).abort(txid);
            }
        }
        if let Some(id) = unavailable {
            TryResult::Unavailable(id)
        } else if busy {
            TryResult::Busy
        } else {
            failed_compares.sort_unstable();
            TryResult::Done(Outcome::FailedCompare(failed_compares))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ItemRange, MemNodeId};
    use crate::cluster::ClusterConfig;
    use crate::transport::with_op_net;
    use std::sync::Arc;

    /// Contending writers must not retry in lock-step: each thread draws
    /// its own jitter sequence.
    #[test]
    fn jitter_sequences_differ_between_threads() {
        let draws = || (0..8).map(|_| jitter(u64::MAX)).collect::<Vec<_>>();
        let a = std::thread::spawn(draws).join().unwrap();
        let b = std::thread::spawn(draws).join().unwrap();
        assert_ne!(a, b);
    }

    fn cluster(n: usize) -> Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            memnodes: n,
            capacity_per_node: 1 << 20,
            ..Default::default()
        })
    }

    /// Runs `batch` and unwraps every member's own result.
    fn exec_all(c: &SinfoniaCluster, batch: &[Minitransaction]) -> Vec<Outcome> {
        let results = c.exec_many(batch).unwrap();
        results.into_iter().map(Result::unwrap).collect()
    }

    fn write_at(mem: u16, off: u64, data: Vec<u8>) -> Minitransaction {
        let mut m = Minitransaction::new();
        m.write(ItemRange::new(MemNodeId(mem), off, data.len() as u32), data);
        m
    }

    #[test]
    fn batch_to_one_memnode_is_one_round_trip() {
        let c = cluster(2);
        let batch: Vec<Minitransaction> = (0..16)
            .map(|i| write_at(0, i * 8, vec![i as u8; 8]))
            .collect();
        let (outcomes, net) = with_op_net(|| exec_all(&c, &batch));
        assert!(outcomes.iter().all(|o| o.committed()));
        assert_eq!(net.round_trips, 1);
        assert_eq!(net.messages, 16);
        for i in 0..16u64 {
            assert_eq!(
                c.node(MemNodeId(0)).raw_read(i * 8, 8).unwrap(),
                vec![i as u8; 8]
            );
        }
    }

    #[test]
    fn batch_spanning_memnodes_is_one_round_trip_per_memnode() {
        let c = cluster(4);
        let batch: Vec<Minitransaction> = (0..12)
            .map(|i| write_at((i % 4) as u16, 64 + (i / 4) * 8, vec![1; 8]))
            .collect();
        let (outcomes, net) = with_op_net(|| exec_all(&c, &batch));
        assert!(outcomes.iter().all(|o| o.committed()));
        assert_eq!(net.round_trips, 4);
    }

    #[test]
    fn batch_outcomes_keep_input_order_and_isolate_failures() {
        let c = cluster(2);
        // Seed a value the middle member's compare will mismatch.
        assert!(c.execute(&write_at(0, 0, vec![7])).unwrap().committed());

        let mut failing = Minitransaction::new();
        failing.compare(ItemRange::new(MemNodeId(0), 0, 1), vec![9]);
        failing.write(ItemRange::new(MemNodeId(0), 8, 1), vec![1]);
        let mut reading = Minitransaction::new();
        reading.read(ItemRange::new(MemNodeId(0), 0, 1));
        let batch = vec![write_at(0, 16, vec![2]), failing, reading];

        let outcomes = exec_all(&c, &batch);
        assert!(outcomes[0].committed());
        match &outcomes[1] {
            Outcome::FailedCompare(idx) => assert_eq!(idx, &vec![0]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(outcomes[2].clone().into_reads().data[0], vec![7]);
        // The failed member wrote nothing; the others did.
        assert_eq!(c.node(MemNodeId(0)).raw_read(8, 1).unwrap(), vec![0]);
        assert_eq!(c.node(MemNodeId(0)).raw_read(16, 1).unwrap(), vec![2]);
    }

    #[test]
    fn multi_memnode_members_fall_back_to_two_phase() {
        let c = cluster(2);
        let mut multi = Minitransaction::new();
        multi.write(ItemRange::new(MemNodeId(0), 0, 1), vec![1]);
        multi.write(ItemRange::new(MemNodeId(1), 0, 1), vec![2]);
        let batch = vec![write_at(0, 8, vec![3]), multi];
        let outcomes = exec_all(&c, &batch);
        assert!(outcomes.iter().all(|o| o.committed()));
        assert_eq!(c.node(MemNodeId(0)).raw_read(0, 1).unwrap(), vec![1]);
        assert_eq!(c.node(MemNodeId(1)).raw_read(0, 1).unwrap(), vec![2]);
    }

    #[test]
    fn busy_members_retry_individually() {
        let c = cluster(1);
        // Hold a lock over offset 0..8 by preparing a 2-phase txn manually.
        let mut held = Minitransaction::new();
        held.write(ItemRange::new(MemNodeId(0), 0, 8), vec![1; 8]);
        let txid = c.next_txid();
        c.node(MemNodeId(0))
            .prepare(
                txid,
                &held.shards()[0].1,
                LockPolicy::AbortOnBusy,
                &[MemNodeId(0)],
            )
            .unwrap();

        let c2 = c.clone();
        let batch = vec![write_at(0, 0, vec![2; 8]), write_at(0, 64, vec![3; 8])];
        let h = std::thread::spawn(move || exec_all(&c2, &batch));
        std::thread::sleep(Duration::from_millis(20));
        c.node(MemNodeId(0)).commit(txid).unwrap();
        let outcomes = h.join().unwrap();
        assert!(outcomes.iter().all(|o| o.committed()));
        assert_eq!(c.node(MemNodeId(0)).raw_read(0, 8).unwrap(), vec![2; 8]);
        assert_eq!(c.node(MemNodeId(0)).raw_read(64, 8).unwrap(), vec![3; 8]);
    }

    #[test]
    fn a_dead_participant_fails_only_its_own_members() {
        let c = SinfoniaCluster::new(ClusterConfig {
            memnodes: 2,
            capacity_per_node: 1 << 20,
            unavailable_retry: Duration::from_millis(20),
            ..Default::default()
        });
        c.crash(MemNodeId(1));
        // A lone member per memnode, then a batched group per memnode:
        // either way the live memnode's members commit and are reported.
        for per_node in [1u64, 3] {
            let batch: Vec<Minitransaction> = (0..2 * per_node)
                .map(|i| write_at((i % 2) as u16, 128 * per_node + i * 8, vec![7; 8]))
                .collect();
            let results = c.exec_many(&batch).unwrap();
            for (i, r) in results.iter().enumerate() {
                match (i % 2, r) {
                    (0, Ok(o)) => assert!(o.committed()),
                    (1, Err(SinfoniaError::Unavailable(MemNodeId(1)))) => {}
                    other => panic!("member {i}: unexpected {other:?}"),
                }
            }
            let off = 128 * per_node;
            assert_eq!(c.node(MemNodeId(0)).raw_read(off, 8).unwrap(), vec![7; 8]);
        }
    }

    #[test]
    fn empty_batch_is_free() {
        let c = cluster(1);
        let (outcomes, net) = with_op_net(|| exec_all(&c, &[]));
        assert!(outcomes.is_empty());
        assert_eq!(net.round_trips, 0);
    }
}
