//! # minuet-core
//!
//! **Minuet**: a scalable distributed multiversion B-tree — a from-scratch
//! reproduction of Sowell, Golab & Shah (PVLDB 5(9), 2012).
//!
//! Minuet is a main-memory, distributed B-tree supporting:
//!
//! * strictly-serializable transactional key-value operations (get / put /
//!   remove / multi-key transactions across multiple trees),
//! * **dirty traversals** (§3): internal nodes are read without validation,
//!   guarded by fence keys and version tags, so only leaves validate —
//!   removing the replicated sequence-number table of the prior art,
//! * **copy-on-write snapshots** (§4) for in-situ analytics: long scans run
//!   against immutable snapshots and never abort,
//! * a **snapshot creation service** with *borrowed snapshots* (§4.3) and a
//!   k-staleness policy (§6.3),
//! * **writable clones / branching versions** (§5) with bounded descendant
//!   sets and discretionary copy-on-write,
//! * watermark + branch-deletion **garbage collection** (§4.4).
//!
//! ## Quickstart
//!
//! ```
//! use minuet_core::{MinuetCluster, TreeConfig};
//!
//! // 4 memnodes, 1 tree.
//! let mc = MinuetCluster::new(4, 1, TreeConfig::default());
//! let mut proxy = mc.proxy();
//!
//! proxy.put(0, b"k1".to_vec(), b"v1".to_vec()).unwrap();
//! assert_eq!(proxy.get(0, b"k1").unwrap(), Some(b"v1".to_vec()));
//!
//! // Freeze a snapshot, keep writing, scan the frozen state.
//! let snap = proxy.create_snapshot(0).unwrap();
//! proxy.put(0, b"k2".to_vec(), b"v2".to_vec()).unwrap();
//! let frozen = proxy.scan_at(0, snap.frozen_sid, b"", 100).unwrap();
//! assert_eq!(frozen.len(), 1);
//! ```

pub mod alloc;
pub mod batch;
pub mod cache;
pub mod catalog;
pub mod clone;
pub mod error;
pub mod gc;
pub mod key;
pub mod layout;
pub mod migrate;
pub mod node;
pub mod ops;
pub mod proxy;
pub mod retry;
pub mod scan;
pub mod scs;
pub mod snapshot;
pub mod stats;
pub mod traverse;
pub mod tree;

pub use catalog::{CatEntry, GlobalVal, TipVal};
pub use error::{Error, RetryCause, TxnError};
pub use gc::SweepStats;
pub use key::{Fence, Key, Value};
pub use layout::{Layout, LayoutParams};
pub use migrate::{RebalanceReport, Rebalancer};
pub use node::{Node, NodeBody, NodePtr, Page, SnapshotId};
pub use proxy::{op_tag, op_tag_name, Proxy, Txn};
pub use scs::SnapshotService;
pub use snapshot::SnapshotInfo;
pub use stats::{occupancy, MemOccupancy, ProxyStats};
pub use tree::{ConcurrencyMode, MinuetCluster, TreeConfig, VersionMode};

impl MinuetCluster {
    /// The snapshot creation service of `tree` (§4.3).
    pub fn scs(&self, tree: u32) -> &SnapshotService {
        &self.shared(tree).scs
    }
}
