//! # minuet-cdb
//!
//! **CDB**: an emulation of the unnamed "modern commercial main-memory
//! database" the Minuet paper benchmarks against (§6.2) — a VoltDB-style,
//! hash-partitioned, stored-procedure engine:
//!
//! * each table is hash-partitioned across servers; one logical thread
//!   owns each partition (emulated by a per-partition lock),
//! * single-key stored procedures execute at exactly one server,
//! * **multi-partition transactions engage every server** and serialize
//!   behind a global coordinator — the structural reason Fig. 13 shows
//!   CDB collapsing on dual-key transactions while Minuet scales,
//! * every item is synchronously replicated once (primary-backup),
//! * scans fan out to all servers and buffer results subject to a
//!   per-query memory cap — the reason the paper "was unable to perform
//!   long scans" on CDB (§6.3).
//!
//! Network costs are accounted through the same instrumented
//! [`Transport`](minuet_sinfonia::Transport) as Minuet, so round-trip
//! and message counts are directly comparable.

pub mod engine;
pub mod partition;

pub use engine::{CdbCluster, CdbConfig, CdbError};
pub use partition::Partition;
