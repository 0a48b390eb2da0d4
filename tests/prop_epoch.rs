//! Property tests for epoch-batched commit: batching validation must be
//! observably equivalent to per-commit OCC. Both modes run the same
//! random concurrent workloads; every outcome either mode produces must
//! be admissible under plain OCC semantics — results are only `Ok` or
//! `Validation`, winners of a round are pairwise conflict-free, every
//! loser conflicts with some winner, and the final state of every object
//! is exactly the surviving winner's write. Conflict-free rounds must
//! commit in full under both modes. Separate tests force validation
//! conflicts (first-committer-wins in both modes) and hammer the
//! epoch-boundary race (enrollment racing a close never loses a commit).

mod common;

use minuet::dyntx::{
    commit_many, CommitInfo, DynTx, EpochConfig, EpochService, ObjRef, StagedCommit, TxError,
};
use minuet::sinfonia::{MemNodeId, SinfoniaCluster};
use proptest::prelude::*;
use std::time::Duration;

const N_MEMNODES: usize = 2;
const OBJ_LEN: u32 = 64;

fn obj(i: usize) -> ObjRef {
    ObjRef::new(
        MemNodeId((i % N_MEMNODES) as u16),
        ((i / N_MEMNODES) * OBJ_LEN as usize) as u64,
        OBJ_LEN,
    )
}

fn value(round: usize, tx: usize, o: usize) -> Vec<u8> {
    format!("r{round}t{tx}o{o}").into_bytes()
}

/// One transaction of a workload: the object indices it reads *and*
/// writes (reading everything it writes is what makes conflicts
/// detectable — blind writes never validate).
#[derive(Debug, Clone)]
struct TxSpec {
    objs: Vec<usize>,
}

fn arb_workload() -> impl Strategy<Value = (usize, Vec<Vec<TxSpec>>)> {
    let tx = proptest::collection::btree_set(0..5usize, 1..=3usize);
    let round = proptest::collection::vec(tx, 2..=5usize);
    (2..=5usize, proptest::collection::vec(round, 1..=3usize)).prop_map(|(n_objs, rounds)| {
        // Object indices are drawn from the widest range and folded onto
        // the chosen universe (the vendored proptest has no flat_map).
        let rounds = rounds
            .into_iter()
            .map(|round| {
                round
                    .into_iter()
                    .map(|objs| {
                        let objs: std::collections::BTreeSet<usize> =
                            objs.into_iter().map(|o| o % n_objs).collect();
                        TxSpec {
                            objs: objs.into_iter().collect(),
                        }
                    })
                    .collect()
            })
            .collect();
        (n_objs, rounds)
    })
}

fn init_cluster(n_objs: usize) -> std::sync::Arc<SinfoniaCluster> {
    let c = common::sinfonia_cluster(N_MEMNODES, 1 << 20);
    let mut tx = DynTx::new(&c);
    for o in 0..n_objs {
        tx.write(obj(o), format!("init{o}").into_bytes());
    }
    tx.commit().unwrap();
    c
}

/// Stages every transaction of a round against the same pre-round
/// snapshot (each reads all of its objects, then overwrites them).
fn stage_round<'c>(
    c: &'c SinfoniaCluster,
    round_no: usize,
    round: &[TxSpec],
) -> Vec<StagedCommit<'c>> {
    round
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let mut tx = DynTx::new(c);
            for &o in &spec.objs {
                tx.read(obj(o)).unwrap();
                tx.write(obj(o), value(round_no, t, o));
            }
            tx.stage_commit()
        })
        .collect()
}

fn commit_per_commit(staged: Vec<StagedCommit<'_>>) -> Vec<Result<CommitInfo, TxError>> {
    // Per-commit OCC is the same executor, one member at a time.
    (staged.into_iter())
        .map(|s| commit_many(vec![s]).unwrap().remove(0))
        .collect()
}

fn commit_epoch<'c>(
    svc: &EpochService<'c>,
    staged: Vec<StagedCommit<'c>>,
) -> Vec<Result<CommitInfo, TxError>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = staged
            .into_iter()
            .map(|sc| s.spawn(|| svc.commit_staged(sc)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Asserts one round's outcome is admissible OCC behaviour and folds the
/// winners into the model state. The identical predicate runs against
/// both commit modes — that *is* the equivalence claim.
fn check_round(
    c: &SinfoniaCluster,
    mode: &str,
    round_no: usize,
    round: &[TxSpec],
    results: &[Result<CommitInfo, TxError>],
    state: &mut [Vec<u8>],
) {
    // (a) The only permitted failure is a validation conflict.
    for (t, r) in results.iter().enumerate() {
        if let Err(e) = r {
            assert_eq!(*e, TxError::Validation, "{mode} r{round_no}t{t}: {e:?}");
        }
    }
    let winners: Vec<usize> = (0..round.len()).filter(|&t| results[t].is_ok()).collect();
    // (b) Winners are pairwise conflict-free: both read everything they
    // wrote from the same snapshot, so a shared object would have failed
    // the later one's compare.
    for (i, &a) in winners.iter().enumerate() {
        for &b in &winners[i + 1..] {
            let overlap = round[a].objs.iter().any(|o| round[b].objs.contains(o));
            assert!(
                !overlap,
                "{mode} r{round_no}: winners t{a} and t{b} share an object"
            );
        }
    }
    // (c) Every loser lost *to* someone: it shares an object with a
    // winner. A transaction with no conflicting winner must commit.
    for t in 0..round.len() {
        if results[t].is_ok() {
            continue;
        }
        let blocked = winners
            .iter()
            .any(|&w| round[w].objs.iter().any(|o| round[t].objs.contains(o)));
        assert!(
            blocked,
            "{mode} r{round_no}t{t} failed without conflicting with any winner"
        );
    }
    // (d) Final state: each object holds its winner's write, or its
    // pre-round value if no winner touched it.
    for &w in &winners {
        for &o in &round[w].objs {
            state[o] = value(round_no, w, o);
        }
    }
    let mut tx = DynTx::new(c);
    for (o, expect) in state.iter().enumerate() {
        assert_eq!(
            &tx.read(obj(o)).unwrap(),
            expect,
            "{mode} r{round_no}: object {o} diverged from the OCC model"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random concurrent workloads under both commit modes: every
    /// observable outcome must satisfy the same OCC admissibility
    /// predicate, and conflict-free rounds commit in full everywhere.
    #[test]
    fn epoch_batching_is_observably_equivalent_to_per_commit_occ(
        (n_objs, rounds) in arb_workload()
    ) {
        let cp = init_cluster(n_objs);
        let ce = init_cluster(n_objs);
        let svc = EpochService::new(
            &ce,
            EpochConfig { max_batch: 5, interval: Duration::from_millis(20) },
        );
        let mut state_p: Vec<Vec<u8>> =
            (0..n_objs).map(|o| format!("init{o}").into_bytes()).collect();
        let mut state_e = state_p.clone();

        for (round_no, round) in rounds.iter().enumerate() {
            let rp = commit_per_commit(stage_round(&cp, round_no, round));
            let re = commit_epoch(&svc, stage_round(&ce, round_no, round));
            check_round(&cp, "per-commit", round_no, round, &rp, &mut state_p);
            check_round(&ce, "epoch", round_no, round, &re, &mut state_e);

            let disjoint = round.iter().enumerate().all(|(i, a)| {
                round[i + 1..]
                    .iter()
                    .all(|b| a.objs.iter().all(|o| !b.objs.contains(o)))
            });
            if disjoint {
                prop_assert!(rp.iter().all(Result::is_ok), "conflict-free round lost a commit");
                prop_assert!(re.iter().all(Result::is_ok), "conflict-free round lost a commit");
                prop_assert_eq!(&state_p, &state_e, "conflict-free states diverged");
            }
        }
    }

    /// Forced validation conflict: every transaction of the round reads
    /// and writes the same object from the same snapshot. Exactly one
    /// commits under either mode — first-committer-wins, batched or not.
    #[test]
    fn forced_conflicts_are_first_committer_wins_in_both_modes(k in 2..=5usize) {
        let cp = init_cluster(1);
        let ce = init_cluster(1);
        let svc = EpochService::new(
            &ce,
            EpochConfig { max_batch: 5, interval: Duration::from_millis(20) },
        );
        let round: Vec<TxSpec> = (0..k).map(|_| TxSpec { objs: vec![0] }).collect();
        let rp = commit_per_commit(stage_round(&cp, 0, &round));
        let re = commit_epoch(&svc, stage_round(&ce, 0, &round));
        for (mode, results) in [("per-commit", &rp), ("epoch", &re)] {
            let oks = results.iter().filter(|r| r.is_ok()).count();
            prop_assert_eq!(oks, 1, "{}: {} of {} conflicting txs committed", mode, oks, k);
            for r in results.iter().filter(|r| r.is_err()) {
                prop_assert_eq!(r.as_ref().unwrap_err(), &TxError::Validation);
            }
        }
        // Per-commit execution order is index order, so the winner is
        // deterministic: the first stager.
        prop_assert!(rp[0].is_ok(), "per-commit winner must be the first committer");
    }
}

/// Enrollment racing epoch closes: many threads commit back-to-back with
/// a tiny epoch, so commits constantly straddle a closing epoch. Every
/// commit must resolve (no lost slots, no hangs) and every write must
/// land — the enroll-while-closing path is the one under test.
#[test]
fn commits_straddling_epoch_boundaries_never_get_lost() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 20;
    let c = common::sinfonia_cluster(N_MEMNODES, 1 << 20);
    let svc = EpochService::new(
        &c,
        EpochConfig {
            max_batch: 3,
            interval: Duration::from_micros(500),
        },
    );
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let svc = &svc;
            let c = &c;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let o = t * PER_THREAD + i;
                    let mut tx = DynTx::new(c);
                    tx.write(obj(o), value(0, t, o));
                    svc.commit(tx).unwrap();
                }
            });
        }
    });
    let closed = c.obs().registry.snapshot().counter("epoch.closed").unwrap();
    assert!(closed >= 2, "workload never crossed an epoch boundary");
    let mut tx = DynTx::new(&c);
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let o = t * PER_THREAD + i;
            assert_eq!(tx.read(obj(o)).unwrap(), value(0, t, o), "object {o} lost");
        }
    }
}
