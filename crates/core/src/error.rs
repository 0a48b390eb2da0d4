//! Error types for the Minuet B-tree.

use crate::node::SnapshotId;
use minuet_dyntx::TxError;
use minuet_sinfonia::{SinfoniaError, Unavailable};
use std::fmt;

/// A node image failed to decode (torn raw read, freed slot, or corruption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptNode {
    /// Wrong leading magic byte.
    BadMagic(u8),
    /// Buffer ended mid-field.
    Truncated,
    /// Unknown fence tag.
    BadFenceTag(u8),
    /// A leaf's high fence is −∞: no key lies below it.
    NegInfHighFence,
    /// Bytes left over after the last entry: this many.
    Trailing(usize),
}

impl fmt::Display for CorruptNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptNode::BadMagic(m) => write!(f, "bad node magic 0x{m:02x}"),
            CorruptNode::Truncated => write!(f, "truncated node image"),
            CorruptNode::BadFenceTag(t) => write!(f, "bad fence tag {t}"),
            CorruptNode::NegInfHighFence => write!(f, "high fence is -inf"),
            CorruptNode::Trailing(n) => write!(f, "{n} trailing bytes after the last entry"),
        }
    }
}

impl std::error::Error for CorruptNode {}

/// Errors surfaced by Minuet operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The operation kept aborting (validation failures / inconsistent
    /// traversals) beyond the configured retry budget. Under correct
    /// configuration this indicates pathological contention.
    TooManyRetries {
        /// Retries attempted.
        attempts: usize,
    },
    /// A memnode stayed unavailable beyond the Sinfonia retry budget.
    Unavailable(minuet_sinfonia::MemNodeId),
    /// A memnode ran out of node slots (GC cannot keep up or the tree
    /// outgrew the configured region).
    OutOfSlots(minuet_sinfonia::MemNodeId),
    /// The requested snapshot does not exist.
    NoSuchSnapshot(SnapshotId),
    /// The snapshot is read-only (a branch was already created from it) and
    /// cannot be written through this handle.
    SnapshotReadOnly(SnapshotId),
    /// The version-tree branching factor β would be exceeded by creating
    /// another branch from this snapshot.
    BranchingFactorExceeded {
        /// The snapshot at its branching limit.
        from: SnapshotId,
        /// Configured β.
        beta: usize,
    },
    /// Branching API used on a tree configured for linear snapshots.
    BranchingDisabled,
    /// The snapshot id space or catalog region is exhausted.
    CatalogFull,
    /// A stored node image failed to decode.
    Corrupt(CorruptNode),
    /// A tree's metadata object (named by the payload: the TIP or the
    /// global header) failed to decode — zeroed, truncated or overwritten.
    CorruptMeta(&'static str),
    /// The cluster already hosts `max` memnodes — the address-space layout
    /// was sized with [`crate::tree::TreeConfig::max_memnodes`] and cannot
    /// grow past it.
    ClusterAtCapacity {
        /// The layout's memnode capacity.
        max: usize,
    },
    /// The requested elastic operation is not supported in the current
    /// configuration (e.g. `FullValidation` mode, whose replicated seqno
    /// table is exactly the all-memnode coupling the paper criticizes).
    ElasticityUnsupported(&'static str),
    /// Creating or opening a memnode's durable state failed (message
    /// carries the underlying I/O error).
    Storage(String),
    /// `bulk_load` was called on a tree whose mainline tip is not a fresh
    /// empty root (the bottom-up builder only runs against empty trees;
    /// use `multi_put` for incremental batched ingest).
    TreeNotEmpty {
        /// The non-empty tree.
        tree: u32,
    },
    /// A put's key is longer than [`crate::tree::TreeConfig::max_key_len`],
    /// or key and value than [`crate::tree::TreeConfig::max_entry_len`].
    EntryTooLarge {
        /// Key bytes.
        key: usize,
        /// Value bytes.
        value: usize,
    },
    /// The operation's end-to-end deadline (see
    /// [`minuet_sinfonia::deadline`]) expired before it completed. The
    /// tree may be healthy — the caller's time budget ran out first.
    DeadlineExceeded,
    /// A condition this crate's own invariants rule out reached it anyway
    /// (the message says which). A bug in this stack, not a state of the
    /// cluster or of the caller's data.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::TooManyRetries { attempts } => {
                write!(f, "operation aborted {attempts} times; giving up")
            }
            Error::Unavailable(m) => write!(f, "memnode {m} unavailable"),
            Error::OutOfSlots(m) => write!(f, "memnode {m} out of node slots"),
            Error::NoSuchSnapshot(s) => write!(f, "snapshot {s} does not exist"),
            Error::SnapshotReadOnly(s) => write!(f, "snapshot {s} is read-only"),
            Error::BranchingFactorExceeded { from, beta } => {
                write!(f, "snapshot {from} already has β={beta} branches")
            }
            Error::BranchingDisabled => write!(f, "tree configured for linear snapshots"),
            Error::CatalogFull => write!(f, "snapshot catalog exhausted"),
            Error::Corrupt(c) => write!(f, "corrupt node: {c}"),
            Error::CorruptMeta(what) => write!(f, "corrupt {what} object"),
            Error::ClusterAtCapacity { max } => {
                write!(
                    f,
                    "cluster already at its layout capacity of {max} memnodes"
                )
            }
            Error::ElasticityUnsupported(why) => {
                write!(f, "elastic operation unsupported: {why}")
            }
            Error::Storage(why) => write!(f, "memnode storage error: {why}"),
            Error::TreeNotEmpty { tree } => {
                write!(
                    f,
                    "bulk_load requires an empty tree, but tree {tree} has data"
                )
            }
            Error::EntryTooLarge { key, value } => write!(f, "entry too large: {key} + {value} B"),
            Error::DeadlineExceeded => write!(f, "operation deadline exceeded"),
            Error::Internal(what) => write!(f, "internal invariant broken: {what}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<CorruptNode> for Error {
    fn from(c: CorruptNode) -> Self {
        Error::Corrupt(c)
    }
}

/// Why an attempt aborted (kept for statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryCause {
    /// Commit-time (or piggy-backed) validation failed.
    Validation,
    /// Search key fell outside a visited node's fences (§3).
    FenceViolation,
    /// Child height did not decrease by one (§3, "fatal inconsistency").
    HeightMismatch,
    /// The node was copied to a snapshot covering the target (§4.2/§5.2).
    StaleVersion,
    /// The cached/observed tip or catalog entry was stale.
    StaleTip,
    /// A node image failed to decode during a dirty read.
    TornRead,
    /// No memnode was ready to bind replicated-object compares (every
    /// member joining or of unknown state — a drain or fault window).
    NoReadyReplica,
}

/// Why one optimistic attempt stopped short: abort and retry the whole
/// operation, or fail it. Every fallible step of an attempt returns this,
/// so `?` carries both dispositions to the runner ([`crate::retry`]). Also
/// the error type inside [`crate::Proxy::txn`] closures: use `?` freely
/// there — conflict aborts are retried, real errors propagate out.
#[derive(Debug)]
pub enum TxnError {
    /// Internal: the attempt must be retried.
    #[doc(hidden)]
    Retry(RetryCause),
    /// A non-retryable error.
    Error(Error),
}

/// Result of one optimistic attempt (or of a step inside one).
pub(crate) type Attempt<T> = Result<T, TxnError>;

impl From<Error> for TxnError {
    fn from(e: Error) -> Self {
        TxnError::Error(e)
    }
}

impl From<RetryCause> for TxnError {
    fn from(c: RetryCause) -> Self {
        TxnError::Retry(c)
    }
}

/// The one place a dyntx failure becomes an attempt disposition.
impl From<TxError> for TxnError {
    fn from(e: TxError) -> Self {
        match e {
            TxError::Validation => TxnError::Retry(RetryCause::Validation),
            TxError::NoReadyReplica => TxnError::Retry(RetryCause::NoReadyReplica),
            TxError::Unavailable(m) => TxnError::Error(Error::Unavailable(m)),
            TxError::DeadlineExceeded => TxnError::Error(Error::DeadlineExceeded),
            // Invariants: addresses come from a `Layout` (see below), and
            // only an epoch leader abandons a member — this crate commits
            // through `retry::run_tx` and `commit_many`.
            e @ (TxError::OutOfBounds { .. } | TxError::Abandoned) => {
                TxnError::Error(Error::Internal(e.to_string()))
            }
        }
    }
}

impl From<SinfoniaError> for Error {
    fn from(e: SinfoniaError) -> Self {
        match e {
            SinfoniaError::Unavailable(m) => Error::Unavailable(m),
            SinfoniaError::DeadlineExceeded => Error::DeadlineExceeded,
            // Invariant: every address this crate hands to Sinfonia comes
            // from a `Layout` whose `required_capacity` sized the memnodes
            // (checked against each server at handshake), so an
            // out-of-bounds item is a bug in the address arithmetic.
            SinfoniaError::OutOfBounds { mem, detail } => {
                Error::Internal(format!("layout address out of bounds at {mem}: {detail}"))
            }
        }
    }
}

impl From<Unavailable> for Error {
    fn from(u: Unavailable) -> Self {
        Error::Unavailable(u.0)
    }
}
