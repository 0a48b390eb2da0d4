//! Asynchronous WAL-stream replication: primary → follower.
//!
//! A [`Replicator`] continuously ships each primary memnode's redo log to
//! the same-id memnode of a follower cluster. The loop per node pair is a
//! pull: ask the follower for its durable watermark
//! ([`crate::memnode::MemNode::repl_status`]), fetch the primary's raw WAL
//! frames from that offset ([`crate::memnode::MemNode::wal_fetch`]), and
//! hand them to the follower ([`crate::memnode::MemNode::repl_apply`]),
//! which re-logs every frame through its *own* WAL as a
//! [`crate::wal::Record::Repl`] before applying its effect.
//!
//! Because the cursor is the follower's **durable** watermark, the stream
//! self-heals across either side dying: a restarted follower resumes at
//! exactly the offset its recovered log proves it incorporated (frames at
//! or below it are skipped as duplicates), and a restarted primary serves
//! fetches from its recovered log tail. Frames arrive in log order over a
//! sequential byte range, so gaps are impossible by construction.
//!
//! Everything goes through [`crate::client::RemoteNode`], so the two clusters
//! may be in-process objects, wire clients against `memnoded` daemons, or
//! a mix — the replication RPC family is part of wire protocol v4.

use crate::cluster::SinfoniaCluster;
use crate::memnode::ReplStatus;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the replication pull loop.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Sleep between polls when the follower is caught up (or a side is
    /// unreachable).
    pub poll: Duration,
    /// Largest segment fetched per round trip, in bytes.
    pub max_bytes: u32,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            poll: Duration::from_millis(2),
            max_bytes: 1 << 20,
        }
    }
}

/// A running primary→follower replication stream (one pull thread per
/// memnode pair). Dropping it stops the threads; the follower keeps its
/// durable watermarks, so a new replicator resumes where this one left
/// off.
pub struct Replicator {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Replicator {
    /// Starts streaming every primary memnode's WAL to the same-id
    /// follower memnode. Both clusters must have the same node count. A
    /// primary ships its log wherever the log lives; only a durable one
    /// keeps it across a restart of its process.
    pub fn spawn(
        primary: &Arc<SinfoniaCluster>,
        follower: &Arc<SinfoniaCluster>,
        cfg: ReplConfig,
    ) -> Replicator {
        assert_eq!(
            primary.n(),
            follower.n(),
            "replication pairs memnodes by id: cluster sizes must match"
        );
        let stop = Arc::new(AtomicBool::new(false));
        let threads = primary
            .memnode_ids()
            .map(|id| {
                let src = primary.node(id);
                let dst = follower.node(id);
                let stop = stop.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("repl-{id}"))
                    .spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            let fetched = dst
                                .repl_status()
                                .and_then(|s| src.wal_fetch(s.watermark, cfg.max_bytes));
                            match fetched {
                                Ok(seg) if !seg.bytes.is_empty() => {
                                    let _ = dst.repl_apply(seg.from, seg.bytes);
                                }
                                // Caught up, or a side is unreachable.
                                _ => std::thread::sleep(cfg.poll),
                            }
                        }
                    })
                    .expect("spawning replication thread failed")
            })
            .collect();
        Replicator { stop, threads }
    }

    /// Signals the pull threads to stop and joins them.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A read-your-writes token: the primary's per-memnode WAL tails at the
/// moment of capture. Every write committed before the capture is at an
/// offset at or below its node's entry, so a follower whose per-node
/// replication watermarks have all reached the token has durably applied
/// everything the session could have observed on the primary.
pub type ReplToken = Vec<u64>;

impl SinfoniaCluster {
    /// Captures a [`ReplToken`] from this (primary) cluster: the current
    /// logical WAL tail of every memnode. Crashed nodes report their last
    /// known tail as 0 — a token taken mid-crash only gates on the nodes
    /// that answered.
    pub fn repl_token(&self) -> ReplToken {
        self.repl_statuses().iter().map(|s| s.tail).collect()
    }

    /// Per-memnode replication status (all-zero entries for crashed
    /// nodes).
    pub fn repl_statuses(&self) -> Vec<ReplStatus> {
        self.nodes_snapshot()
            .iter()
            .map(|n| n.repl_status().unwrap_or_default())
            .collect()
    }

    /// Blocks until this (follower) cluster's per-node replication
    /// watermarks have all reached `token`, or the timeout expires.
    /// Returns whether the token was reached. A token from a cluster
    /// with a different node count never matches. An ambient
    /// [`crate::deadline::OpDeadline`] caps the timeout: the wait never
    /// outlives the caller's end-to-end budget.
    pub fn wait_replicated(&self, token: &[u64], timeout: Duration) -> bool {
        let timeout = crate::deadline::OpDeadline::current().cap(timeout);
        let deadline = Instant::now() + timeout;
        loop {
            let marks = self.repl_statuses();
            if marks.len() == token.len() && marks.iter().zip(token).all(|(s, t)| s.watermark >= *t)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{ItemRange, MemNodeId};
    use crate::cluster::ClusterConfig;
    use crate::minitx::Minitransaction;
    use crate::wal::{DurabilityConfig, SyncMode};

    fn durable_cluster(tag: &str, n: usize) -> Arc<SinfoniaCluster> {
        SinfoniaCluster::new(ClusterConfig {
            memnodes: n,
            capacity_per_node: 1 << 20,
            durability: DurabilityConfig::ephemeral(tag, SyncMode::Async),
            ..Default::default()
        })
    }

    #[test]
    fn follower_converges_and_serves_reads() {
        let primary = durable_cluster("repl-src", 2);
        let follower = durable_cluster("repl-dst", 2);
        let _repl = Replicator::spawn(&primary, &follower, ReplConfig::default());

        for i in 0..20u64 {
            let mut m = Minitransaction::new();
            m.write(
                ItemRange::new(MemNodeId((i % 2) as u16), i * 8, 8),
                i.to_le_bytes().to_vec(),
            );
            assert!(primary.execute(&m).unwrap().committed());
        }
        let token = primary.repl_token();
        assert!(
            follower.wait_replicated(&token, Duration::from_secs(5)),
            "follower did not reach {token:?}, at {:?}",
            follower.repl_statuses()
        );
        for i in 0..20u64 {
            let got = follower
                .node(MemNodeId((i % 2) as u16))
                .raw_read(i * 8, 8)
                .unwrap();
            assert_eq!(got, i.to_le_bytes().to_vec(), "key {i}");
        }
    }

    #[test]
    fn multi_node_2pc_replicates_decisions() {
        let primary = durable_cluster("repl-2pc-src", 2);
        let follower = durable_cluster("repl-2pc-dst", 2);
        let _repl = Replicator::spawn(&primary, &follower, ReplConfig::default());

        // Cross-node minitransactions exercise the Prepare/Commit path.
        for i in 0..10u64 {
            let mut m = Minitransaction::new();
            m.write(ItemRange::new(MemNodeId(0), i * 8, 8), vec![1; 8]);
            m.write(ItemRange::new(MemNodeId(1), i * 8, 8), vec![2; 8]);
            assert!(primary.execute(&m).unwrap().committed());
        }
        let token = primary.repl_token();
        assert!(follower.wait_replicated(&token, Duration::from_secs(5)));
        // All decisions arrived: nothing staged, data visible.
        for id in [MemNodeId(0), MemNodeId(1)] {
            assert_eq!(follower.node(id).in_doubt(), Ok(0));
        }
        assert_eq!(
            follower.node(MemNodeId(0)).raw_read(0, 8).unwrap(),
            vec![1; 8]
        );
        assert_eq!(
            follower.node(MemNodeId(1)).raw_read(0, 8).unwrap(),
            vec![2; 8]
        );
    }

    #[test]
    fn duplicate_segments_are_skipped() {
        let primary = durable_cluster("repl-dup-src", 1);
        let follower = durable_cluster("repl-dup-dst", 1);

        let mut m = Minitransaction::new();
        m.write(ItemRange::new(MemNodeId(0), 0, 4), vec![9; 4]);
        assert!(primary.execute(&m).unwrap().committed());

        let seg = primary.node(MemNodeId(0)).wal_fetch(0, 1 << 20).unwrap();
        assert!(!seg.bytes.is_empty());
        let s1 = follower
            .node(MemNodeId(0))
            .repl_apply(seg.from, seg.bytes.clone())
            .unwrap();
        assert!(s1.applies > 0);
        assert_eq!(s1.dup_skips, 0);
        // Re-applying the same segment must be a no-op.
        let s2 = follower
            .node(MemNodeId(0))
            .repl_apply(seg.from, seg.bytes)
            .unwrap();
        assert_eq!(s2.applies, s1.applies);
        assert_eq!(s2.dup_skips, s1.applies);
        assert_eq!(s2.watermark, s1.watermark);
        assert_eq!(
            follower.node(MemNodeId(0)).raw_read(0, 4).unwrap(),
            vec![9; 4]
        );
    }
}
