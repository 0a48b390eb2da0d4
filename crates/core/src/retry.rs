//! The optimistic loop (§2.2): the one place a dynamic transaction is
//! begun, committed, and — on an abort — retried. Every transactional
//! entry point of this crate is a closure handed to `run_tx` (directly,
//! or through [`crate::Proxy`]'s wrappers around it), so the retry
//! contract is written once: a budget, the ambient deadline, one jittered
//! backoff, and a hook that invalidates what the failed attempt assumed.

use crate::error::{Attempt, Error, RetryCause, TxnError};
use minuet_dyntx::{CommitInfo, DynTx};
use minuet_obs::{span, SpanKind};
use minuet_sinfonia::{OpDeadline, SinfoniaCluster};

/// One retry backoff, as a `Backoff` span around the stack's single
/// jittered policy ([`minuet_sinfonia::backoff`]).
pub(crate) fn backoff(attempt: usize) {
    let _backoff = span(SpanKind::Backoff);
    minuet_sinfonia::backoff(attempt.min(u32::MAX as usize) as u32);
}

/// Runs `f` as one dynamic transaction until it commits: each attempt
/// gets a fresh [`DynTx`], and an abort — `f` asked for a retry, or the
/// commit failed validation or found no ready replica — calls
/// `on_retry`, sleeps the backoff and tries again. Stops with
/// [`Error::TooManyRetries`] after `budget` attempts, with
/// [`Error::DeadlineExceeded`] once the ambient [`OpDeadline`] has expired
/// (checked before every attempt, so an expired deadline issues no new
/// RPC), or with whatever non-retryable error an attempt hit.
///
/// `state` is lent to both closures in turn (they cannot both capture
/// it): the proxy for tree operations, `()` for the allocator.
pub(crate) fn run_tx<S: ?Sized, T>(
    sin: &SinfoniaCluster,
    piggyback: bool,
    budget: usize,
    state: &mut S,
    mut on_retry: impl FnMut(&mut S, RetryCause),
    mut f: impl FnMut(&mut S, &mut DynTx<'_>) -> Attempt<T>,
) -> Result<(T, CommitInfo), Error> {
    let mut attempts = 0usize;
    loop {
        if attempts >= budget {
            return Err(Error::TooManyRetries { attempts });
        }
        if OpDeadline::current().expired() {
            return Err(Error::DeadlineExceeded);
        }
        let mut tx = DynTx::with_piggyback(sin, piggyback);
        let abort = match f(state, &mut tx) {
            Ok(v) => match tx.commit() {
                Ok(info) => return Ok((v, info)),
                Err(e) => e.into(),
            },
            Err(e) => e,
        };
        match abort {
            TxnError::Error(e) => return Err(e),
            TxnError::Retry(cause) => on_retry(state, cause),
        }
        attempts += 1;
        backoff(attempts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minuet_dyntx::ObjRef;
    use minuet_sinfonia::{ClusterConfig, MemNodeId};
    use std::time::{Duration, Instant};

    fn cluster() -> std::sync::Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            capacity_per_node: 1 << 16,
            ..ClusterConfig::with_memnodes(1)
        })
    }

    #[test]
    fn budget_bounds_attempts_and_every_abort_is_noted() {
        let c = cluster();
        let mut noted = Vec::new();
        let out = run_tx(
            &c,
            true,
            5,
            &mut noted,
            |n, cause| n.push(cause),
            |_, _| Err::<(), _>(RetryCause::StaleTip.into()),
        );
        assert_eq!(out.unwrap_err(), Error::TooManyRetries { attempts: 5 });
        assert_eq!(noted, vec![RetryCause::StaleTip; 5]);
    }

    #[test]
    fn expired_deadline_stops_before_the_next_attempt() {
        let c = cluster();
        let mut calls = 0;
        let scope = OpDeadline::at(Instant::now() - Duration::from_millis(1)).enter();
        let out = run_tx(
            &c,
            true,
            5,
            &mut calls,
            |_, _| {},
            |n, _| {
                *n += 1;
                Ok(())
            },
        );
        drop(scope);
        assert_eq!(out.unwrap_err(), Error::DeadlineExceeded);
        assert_eq!(calls, 0);
    }

    #[test]
    fn hard_errors_are_not_retried() {
        let c = cluster();
        let mut noted = 0;
        let out = run_tx(
            &c,
            true,
            5,
            &mut noted,
            |n, _| *n += 1,
            |_, _| Err::<(), _>(Error::CatalogFull.into()),
        );
        assert_eq!(out.unwrap_err(), Error::CatalogFull);
        assert_eq!(noted, 0);
    }

    #[test]
    fn failed_commit_validation_retries_with_a_fresh_transaction() {
        let c = cluster();
        let obj = ObjRef::new(MemNodeId(0), 0, 64);
        let mut noted = Vec::new();
        let (seen, info) = run_tx(
            &c,
            true,
            5,
            &mut noted,
            |n, cause| n.push(cause),
            |n, tx| {
                let seen = tx.read(obj)?.to_vec();
                if n.is_empty() {
                    // A concurrent writer slips in between read and commit.
                    let mut other = DynTx::new(&c);
                    other.write(obj, vec![1]);
                    other.commit().unwrap();
                }
                tx.write(obj, vec![2]);
                Ok(seen)
            },
        )
        .unwrap();
        assert_eq!(noted, vec![RetryCause::Validation]);
        assert_eq!(seen, vec![1], "the retry read the writer's value");
        assert_eq!(info.installed.len(), 1);
    }
}
