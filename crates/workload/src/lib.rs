//! # minuet-workload
//!
//! A Rust port of the YCSB core workload (Cooper et al., SoCC 2010) as
//! used in the Minuet paper's evaluation (§6.1): key-value operation
//! streams (read / update / insert / scan / multi-index transactions) over
//! configurable key distributions, a closed-loop multi-threaded driver,
//! and latency histograms reporting the paper's metrics (aggregate
//! throughput, mean and 95th-percentile latency).
//!
//! The driver is engine-agnostic: workers execute [`Operation`]s through a
//! caller-provided closure, and latency is the wall time it measures.

pub mod dist;
pub mod driver;
pub mod hist;
pub mod report;
pub mod spec;

pub use dist::{fnv1a, KeyChooser, KeyDist, Zipfian, ZIPFIAN_CONSTANT};
pub use driver::{
    run_closed_loop, run_open_loop, OpenLoopConfig, OpenLoopReport, RunConfig, RunReport,
};
pub use hist::{Histogram, LatencySummary};
pub use report::{
    cache_row, fmt_bytes, fmt_count, fmt_ns, load_latency_row, occupancy_row, print_table,
    CACHE_HEADERS, LOAD_LATENCY_HEADERS,
};
pub use spec::{encode_key, load_keys, OpGenerator, OpKind, Operation, SharedState, WorkloadSpec};
