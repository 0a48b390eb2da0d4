//! # minuet
//!
//! A scalable distributed multiversion B-tree — a full, from-scratch
//! reproduction of *“Minuet: A Scalable Distributed Multiversion B-Tree”*
//! (Sowell, Golab, Shah; PVLDB 5(9), VLDB 2012).
//!
//! This facade crate re-exports the whole stack:
//!
//! | crate | contents |
//! |---|---|
//! | [`obs`] | the observability plane: request traces, counter/histogram registry, snapshot wire format |
//! | [`faults`] | the deterministic fault-injection plane: named failpoints in WAL/wire/disk paths, spec grammar, env/RPC arming |
//! | [`sinfonia`] | the Sinfonia minitransaction substrate (memnodes, range locks, 1/2-phase commit, replication) |
//! | [`dyntx`] | dynamic transactions: OCC with backward validation, piggy-backed validation, dirty reads, replicated objects |
//! | [`core`] | the Minuet B-tree: dirty traversals, copy-on-write snapshots, borrowed snapshots, writable clones, GC |
//! | [`cdb`] | the hash-partitioned commercial-DB baseline of the paper's evaluation |
//! | [`workload`] | a YCSB-style workload generator and closed-loop driver |
//!
//! ## Quickstart
//!
//! ```
//! use minuet::{MinuetCluster, TreeConfig};
//!
//! let cluster = MinuetCluster::new(4, 1, TreeConfig::default());
//! let mut proxy = cluster.proxy();
//!
//! proxy.put(0, b"hello".to_vec(), b"world".to_vec()).unwrap();
//! assert_eq!(proxy.get(0, b"hello").unwrap(), Some(b"world".to_vec()));
//!
//! // Consistent snapshot for analytics while writes continue.
//! let snap = proxy.create_snapshot(0).unwrap();
//! proxy.put(0, b"hello".to_vec(), b"again".to_vec()).unwrap();
//! let frozen = proxy.scan_at(0, snap.frozen_sid, b"", 10).unwrap();
//! assert_eq!(frozen[0].1, b"world".to_vec());
//! ```

pub use minuet_cdb as cdb;
pub use minuet_core as core;
pub use minuet_dyntx as dyntx;
pub use minuet_faults as faults;
pub use minuet_obs as obs;
pub use minuet_sinfonia as sinfonia;
pub use minuet_workload as workload;

pub use minuet_core::{
    occupancy, ConcurrencyMode, Error, Fence, Key, LayoutParams, MemOccupancy, MinuetCluster, Node,
    NodePtr, Proxy, RebalanceReport, Rebalancer, SnapshotId, SnapshotInfo, SnapshotService,
    TreeConfig, Txn, TxnError, Value, VersionMode,
};
