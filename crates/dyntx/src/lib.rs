//! # minuet-dyntx
//!
//! The **dynamic transaction layer** of Aguilera et al. (PVLDB 2008),
//! extended with Minuet's **dirty reads** (§3 of the Minuet paper).
//!
//! Dynamic transactions let applications read and write arbitrary objects
//! discovered *during* execution (something a single minitransaction cannot
//! do, since minitransaction items must be declared up front). They use
//! optimistic concurrency control with backward validation: objects carry
//! sequence numbers; commit executes a final minitransaction that compares
//! the read-set seqnos and applies the write set atomically.
//!
//! Key features:
//! * per-object sequence numbers with globally-unique ids (ABA-safe),
//! * piggy-backed validation (read-only transactions can commit for free),
//! * dirty reads that bypass the read set, with promotion-on-write,
//! * replicated objects (read-any / write-all) for hot metadata.
//!
//! ```
//! use minuet_sinfonia::{ClusterConfig, SinfoniaCluster, MemNodeId};
//! use minuet_dyntx::{DynTx, ObjRef};
//!
//! let cluster = SinfoniaCluster::new(ClusterConfig::with_memnodes(2));
//! let obj = ObjRef::new(MemNodeId(1), 0, 64);
//!
//! let mut tx = DynTx::new(&cluster);
//! tx.write(obj, b"hello".to_vec());
//! tx.commit().unwrap();
//!
//! let mut tx = DynTx::new(&cluster);
//! assert_eq!(tx.read(obj).unwrap(), b"hello");
//! tx.commit().unwrap();
//! ```

pub mod epoch;
pub mod object;
pub mod txn;

pub use epoch::{EpochConfig, EpochService};
pub use object::{
    decode_obj, decode_obj_shared, encode_obj, ObjRef, ObjVal, ReplRef, SeqNo, OBJ_HEADER,
};
pub use txn::{commit_many, CommitInfo, DynTx, ReadItem, ReadMany, StagedCommit, TxError, TxKey};
