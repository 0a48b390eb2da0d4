//! # minuet-sinfonia
//!
//! A from-scratch implementation of the **Sinfonia** data-sharing service
//! (Aguilera et al., SOSP 2007 / TOCS 2009) as used by **Minuet** (Sowell,
//! Golab, Shah; VLDB 2012): a set of *memnodes* exporting byte-addressable
//! address spaces, accessed through *minitransactions* that atomically
//! compare, read, and conditionally write multiple memory ranges across
//! multiple memnodes.
//!
//! The cluster runs in one of two transport modes, selected only by
//! [`cluster::ClusterConfig::transport`]:
//!
//! - **In-process** (default): memnodes are real concurrent objects with
//!   real lock managers; an "RPC" is the wire exchange minus the socket
//!   ([`client::RemoteNode::in_process`]), and [`transport::Transport`] counts round
//!   trips exactly (and can inject latency), so distributed cost
//!   structure is observable without physical machines.
//! - **Wire**: memnodes live behind real sockets (TCP or Unix), served by
//!   [`server::MemNodeServer`] (or the standalone `memnoded` binary).
//!
//! Either way a memnode is reached through the length-prefixed,
//! CRC-framed binary protocol in [`wire`] by the pooled
//! [`client::RemoteNode`], the one memnode handle type, so the whole
//! coordinator stack runs unchanged in either mode and counts the same
//! bytes. With durability enabled ([`wal::DurabilityConfig`]) memnodes
//! log before applying, checkpoint in the background, and recover from
//! disk — including in-doubt two-phase resolution after a coordinator
//! crash ([`recovery`]).
//!
//! ## Quick example
//!
//! ```
//! use minuet_sinfonia::{ClusterConfig, SinfoniaCluster, Minitransaction, ItemRange, MemNodeId};
//!
//! let cluster = SinfoniaCluster::new(ClusterConfig::with_memnodes(2));
//! // Atomically write to two memnodes.
//! let mut m = Minitransaction::new();
//! m.write(ItemRange::new(MemNodeId(0), 0, 3), b"foo".to_vec());
//! m.write(ItemRange::new(MemNodeId(1), 0, 3), b"bar".to_vec());
//! assert!(cluster.execute(&m).unwrap().committed());
//!
//! // Independent minitransactions batch: co-located members share one
//! // round trip per memnode (no atomicity across members).
//! let batch: Vec<Minitransaction> = (0..8u64)
//!     .map(|i| {
//!         let mut m = Minitransaction::new();
//!         m.write(ItemRange::new(MemNodeId(0), 64 + i * 8, 1), vec![i as u8]);
//!         m
//!     })
//!     .collect();
//! let outcomes = cluster.exec_many(&batch).unwrap();
//! assert!(outcomes.iter().all(|o| o.as_ref().unwrap().committed()));
//! ```

pub mod addr;
pub mod bytes;
pub mod checkpoint;
pub mod client;
pub mod cluster;
pub mod crc;
pub mod deadline;
pub mod error;
pub mod exec;
pub mod lock;
pub mod memnode;
pub mod minitx;
pub mod recovery;
pub mod repl;
pub mod server;
pub mod space;
pub mod state;
pub mod transport;
pub mod wal;
pub mod wire;

pub use addr::{ItemRange, MemNodeId};
pub use bytes::Bytes;
pub use client::{RemoteNode, WireConfig};
pub use cluster::{ClusterConfig, SinfoniaCluster, TransportMode};
pub use deadline::OpDeadline;
pub use error::SinfoniaError;
pub use exec::backoff;
pub use memnode::{MemNode, ReplStatus, Unavailable};
pub use minitx::{LockPolicy, Minitransaction, Outcome, ReadResults};
pub use recovery::Resolution;
pub use repl::{ReplConfig, ReplToken, Replicator};
pub use server::{MemNodeServer, ServerOptions};
pub use transport::{with_op_net, OpNet, Transport};
pub use wal::{DurabilityConfig, SyncMode, WalError, WalSegment, WalStats};
pub use wire::{Endpoint, WireError};
