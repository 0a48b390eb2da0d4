//! Crash recovery: image + log replay, and in-doubt 2PC resolution.
//!
//! Recovering a memnode — any memnode, whether its log is a file or lives
//! in memory — is two steps. [`Wal::read_back`] reads the latest
//! checkpoint image (if any) and the log back from the store, cutting a
//! torn tail (a crash or failure mid-append) back to the last valid record.
//! Then [`replay`], a pure function of those bytes, decodes the image and
//! [`NodeState::redo`]es the log on top — the same function that gave each
//! record its effect when it was first logged.
//!
//! Transactions still staged after replay are **in doubt**: this node
//! voted yes and never learned the outcome. When the coordinator is also
//! gone (a whole-cluster restart), [`resolve_in_doubt`] decides them with
//! Sinfonia's rule: *commit if and only if every participant voted yes* —
//! which holds exactly when every participant either still stages the
//! transaction or has already committed it (recorded in its durable
//! decided set); otherwise abort. Participants never unilaterally abort
//! after voting yes, so this reconstructs the coordinator's decision.

use crate::addr::MemNodeId;
use crate::checkpoint;
use crate::cluster::SinfoniaCluster;
use crate::lock::TxId;
use crate::memnode::Unavailable;
use crate::state::NodeState;
use crate::wal::{parse_log, Wal};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// Path of the marker recording that a memnode's elastic join is still
/// in progress (its replicated replicas are not fully seeded). Created
/// before the node's durable state, removed on `finish_join`; a restart
/// that finds it re-opens the node in the `joining` state so it is never
/// read from until a retried join re-seeds it.
pub fn join_marker_path(dir: &Path, id: MemNodeId) -> PathBuf {
    dir.join(format!("joining-{:04}", id.0))
}

/// Discovers how many memnodes left durable state in `dir`, by scanning
/// for per-node redo logs (`wal-NNNN.log`; ids are dense, so the count is
/// max id + 1). Elastic growth means a cluster can hold more memnodes
/// than its original configuration — recovery must open them all or
/// every node migrated onto the newer memnodes would be lost.
pub fn discover_memnodes(dir: &Path) -> io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut count = 0usize;
    for entry in entries {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|n| n.parse::<u16>().ok())
        {
            count = count.max(id as usize + 1);
        }
    }
    Ok(count)
}

/// Rebuilds a memnode's state from what its log's store holds: the one
/// way a crashed or reopened node gets its state back.
pub fn recover_node(wal: &Wal, capacity: u64) -> io::Result<NodeState> {
    let (image, log) = wal.read_back()?;
    replay(image.as_deref(), &log, capacity)
}

/// The state an image and a log describe: the image decoded (an empty
/// state of `capacity` bytes when there is none; an image's recorded
/// capacity must match), then every whole record of `log`
/// [`NodeState::redo`]ne on top. A corrupt image is an error, not an
/// absent one — the log prefix it covered is gone — and so is a record
/// the state refuses (a write past capacity): never a panic.
pub fn replay(image: Option<&[u8]>, log: &[u8], capacity: u64) -> io::Result<NodeState> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut state = match image {
        Some(bytes) => checkpoint::decode_image(bytes)
            .ok_or_else(|| invalid("corrupt checkpoint image".to_string()))?,
        None => NodeState::new(capacity),
    };
    if state.space.capacity() != capacity {
        return Err(invalid(format!(
            "checkpoint capacity {} != configured {capacity}",
            state.space.capacity()
        )));
    }
    let (records, _) = parse_log(log);
    for rec in &records {
        let (src_off, rec) = rec.lend();
        state
            .redo(src_off, &rec)
            .map_err(|e| invalid(format!("redo OOB: {e}")))?;
    }
    Ok(state)
}

/// Per-node recovery metadata consumed by [`resolve_in_doubt`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NodeMeta {
    /// In-doubt transactions with their recorded participant lists.
    pub staged: HashMap<TxId, Vec<MemNodeId>>,
    /// Durable decided-commit set.
    pub decided: HashSet<TxId>,
}

/// Outcome counts of a resolution pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// In-doubt transactions driven to commit.
    pub committed: u64,
    /// In-doubt transactions driven to abort.
    pub aborted: u64,
    /// In-doubt transactions left as they were, because a participant
    /// could not be asked for its vote or told the decision. They stay
    /// staged (and hold their locks) until a later pass reaches everyone.
    pub unresolved: u64,
}

/// Coordinator-side resolution of in-doubt transactions after a restart.
/// `metas[i]` is what memnode `i` answered when asked for its recovery
/// metadata. Applies the decision at every participant through the normal
/// commit/abort entry points (which log it), so resolution itself is
/// crash-safe — and re-runnable: a pass that could not finish a
/// transaction leaves it for the next one.
///
/// A participant that could not be reached has not voted no; it has not
/// answered. Nothing is decided for a transaction until every participant
/// has: aborting on the strength of a missing answer would undo, at the
/// reachable participants, a transaction the missing one may have
/// committed.
pub fn resolve_in_doubt(
    cluster: &SinfoniaCluster,
    metas: &[Result<NodeMeta, Unavailable>],
) -> Resolution {
    let meta_of = |p: &MemNodeId| metas.get(p.index()).and_then(|m| m.as_ref().ok());
    // Union of in-doubt transactions across the nodes that answered.
    let mut in_doubt: HashMap<TxId, Vec<MemNodeId>> = HashMap::new();
    for meta in metas.iter().flatten() {
        for (txid, participants) in &meta.staged {
            in_doubt
                .entry(*txid)
                .or_insert_with(|| participants.clone());
        }
    }
    let mut txids: Vec<TxId> = in_doubt.keys().copied().collect();
    txids.sort_unstable();

    let mut res = Resolution::default();
    for txid in txids {
        let participants = &in_doubt[&txid];
        if participants
            .iter()
            .any(|p| matches!(metas.get(p.index()), Some(Err(_))))
        {
            res.unresolved += 1;
            continue;
        }
        let all_voted_yes = participants.iter().all(|p| {
            meta_of(p).is_some_and(|m| m.staged.contains_key(&txid) || m.decided.contains(&txid))
        });
        let any_committed = participants
            .iter()
            .any(|p| meta_of(p).is_some_and(|m| m.decided.contains(&txid)));
        let commit = any_committed || all_voted_yes;
        // Tell everyone, even past a participant that has become
        // unreachable since it answered: the decision is made, and the
        // next pass re-derives it from those that heard it.
        let mut delivered = true;
        for p in participants {
            let node = cluster.node(*p);
            let outcome = if commit {
                node.commit(txid)
            } else {
                node.abort(txid)
            };
            delivered &= outcome.is_ok();
        }
        match (delivered, commit) {
            (false, _) => res.unresolved += 1,
            (true, true) => res.committed += 1,
            (true, false) => res.aborted += 1,
        }
    }
    res
}
