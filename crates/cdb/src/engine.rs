//! The CDB cluster engine: hash routing, stored-procedure execution,
//! multi-partition transactions, and fan-out scans.

use crate::partition::Partition;
use minuet_sinfonia::Transport;
use parking_lot::Mutex;

/// CDB configuration.
#[derive(Debug, Clone)]
pub struct CdbConfig {
    /// Number of servers (one partition of each table per server).
    pub servers: usize,
    /// Number of tables.
    pub tables: usize,
    /// Per-query scan buffer limit in bytes; long scans exceeding it fail
    /// (the paper: "CDB was unable to perform long scans due to internal
    /// memory limitations for individual queries").
    pub scan_memory_limit: usize,
}

impl Default for CdbConfig {
    fn default() -> Self {
        CdbConfig {
            servers: 4,
            tables: 1,
            scan_memory_limit: 1 << 20,
        }
    }
}

/// Rows returned by a scan: `(key, value)` pairs in key order.
pub type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// CDB errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdbError {
    /// A scan exceeded the per-query memory cap.
    ScanMemoryExceeded {
        /// Bytes the scan would have buffered.
        needed: usize,
        /// Configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for CdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdbError::ScanMemoryExceeded { needed, limit } => {
                write!(f, "scan needs {needed} B, per-query limit is {limit} B")
            }
        }
    }
}

impl std::error::Error for CdbError {}

fn hash_key(key: &[u8]) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A CDB cluster.
pub struct CdbCluster {
    cfg: CdbConfig,
    /// `tables[t][s]` = partition of table `t` on server `s`.
    tables: Vec<Vec<Partition>>,
    /// Multi-partition transactions serialize behind one coordinator.
    multi_coordinator: Mutex<()>,
    /// Instrumented transport (round-trip accounting, shared scheme with
    /// the Minuet side).
    pub transport: Transport,
}

impl CdbCluster {
    /// Builds a cluster.
    pub fn new(cfg: CdbConfig) -> Self {
        assert!(cfg.servers > 0 && cfg.tables > 0);
        let tables = (0..cfg.tables)
            .map(|_| (0..cfg.servers).map(|_| Partition::new()).collect())
            .collect();
        CdbCluster {
            transport: Transport::new(None),
            tables,
            multi_coordinator: Mutex::new(()),
            cfg,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.cfg.servers
    }

    fn route(&self, table: usize, key: &[u8]) -> &Partition {
        let s = (hash_key(key) % self.cfg.servers as u64) as usize;
        &self.tables[table][s]
    }

    /// Single-key read stored procedure: one server, one round trip.
    pub fn get(&self, table: usize, key: &[u8]) -> Option<Vec<u8>> {
        self.transport.round_trip(1);
        self.route(table, key).get(key)
    }

    /// Single-key write stored procedure: one round trip to the primary
    /// (backup applied synchronously within it).
    pub fn put(&self, table: usize, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        self.transport.round_trip(2); // primary + backup messages in parallel
        self.route(table, &key).put(key, value)
    }

    /// Single-key delete.
    pub fn remove(&self, table: usize, key: &[u8]) -> Option<Vec<u8>> {
        self.transport.round_trip(2);
        self.route(table, key).remove(key)
    }

    /// Multi-partition transaction: atomically applies `f` to every listed
    /// `(table, key)` pair. As in VoltDB-style engines, the transaction is
    /// coordinated globally and **stalls every server** for its duration
    /// (two-phase: prepare + commit fan-out to all servers).
    pub fn multi<R>(&self, keys: &[(usize, Vec<u8>)], f: impl FnOnce(&mut MultiCtx<'_>) -> R) -> R {
        // Global serialization point: only one multi-partition transaction
        // executes at a time (single-threaded coordinator).
        let _g = self.multi_coordinator.lock();
        // Engages all servers: prepare + commit.
        self.transport.round_trip(self.cfg.servers);
        let mut ctx = MultiCtx {
            cluster: self,
            keys,
        };
        let r = f(&mut ctx);
        self.transport.round_trip(self.cfg.servers);
        r
    }

    /// Range scan stored procedure: fans out to every server of the
    /// table, merges the per-partition results, and enforces the
    /// per-query memory cap.
    pub fn scan(&self, table: usize, start: &[u8], limit: usize) -> Result<Rows, CdbError> {
        // One fan-out round trip; every partition conservatively returns
        // up to `limit` rows because the coordinator cannot know the
        // global cut-off in advance — this over-fetch is what blows the
        // per-query memory budget on long scans.
        self.transport.round_trip(self.cfg.servers);
        let mut merged: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut buffered = 0usize;
        for part in &self.tables[table] {
            let rows = part.scan_from(start, limit);
            buffered += rows
                .iter()
                .map(|(k, v)| k.len() + v.len() + 32)
                .sum::<usize>();
            if buffered > self.cfg.scan_memory_limit {
                return Err(CdbError::ScanMemoryExceeded {
                    needed: buffered,
                    limit: self.cfg.scan_memory_limit,
                });
            }
            merged.extend(rows);
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        merged.truncate(limit);
        Ok(merged)
    }

    /// Total records in a table (test support).
    pub fn table_len(&self, table: usize) -> usize {
        self.tables[table].iter().map(|p| p.len()).sum()
    }
}

/// Operations available inside a multi-partition transaction.
pub struct MultiCtx<'a> {
    cluster: &'a CdbCluster,
    keys: &'a [(usize, Vec<u8>)],
}

impl MultiCtx<'_> {
    /// Reads key `i` of the transaction's key list.
    pub fn get(&self, i: usize) -> Option<Vec<u8>> {
        let (table, key) = &self.keys[i];
        self.cluster.route(*table, key).get(key)
    }

    /// Writes key `i` of the transaction's key list.
    pub fn put(&mut self, i: usize, value: Vec<u8>) -> Option<Vec<u8>> {
        let (table, key) = &self.keys[i];
        self.cluster.route(*table, key).put(key.clone(), value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minuet_sinfonia::with_op_net;

    fn cluster(servers: usize, tables: usize) -> CdbCluster {
        CdbCluster::new(CdbConfig {
            servers,
            tables,
            ..Default::default()
        })
    }

    #[test]
    fn single_key_crud() {
        let c = cluster(4, 1);
        assert_eq!(c.put(0, b"k".to_vec(), b"v".to_vec()), None);
        assert_eq!(c.get(0, b"k"), Some(b"v".to_vec()));
        assert_eq!(c.remove(0, b"k"), Some(b"v".to_vec()));
        assert_eq!(c.get(0, b"k"), None);
    }

    #[test]
    fn single_key_is_one_round_trip() {
        let c = cluster(8, 1);
        c.put(0, b"k".to_vec(), b"v".to_vec());
        let (_, net) = with_op_net(|| {
            c.get(0, b"k");
        });
        assert_eq!(net.round_trips, 1);
        assert_eq!(net.messages, 1);
    }

    #[test]
    fn multi_engages_all_servers() {
        let c = cluster(8, 2);
        let keys = vec![(0usize, b"a".to_vec()), (1usize, b"b".to_vec())];
        let (_, net) = with_op_net(|| {
            c.multi(&keys, |ctx| {
                ctx.put(0, b"1".to_vec());
                ctx.put(1, b"2".to_vec());
            });
        });
        assert_eq!(net.round_trips, 2);
        assert_eq!(net.messages, 16, "2 phases x 8 servers");
        assert_eq!(c.get(0, b"a"), Some(b"1".to_vec()));
        assert_eq!(c.get(1, b"b"), Some(b"2".to_vec()));
    }

    #[test]
    fn multi_transactions_serialize() {
        // Two concurrent multi transactions on disjoint keys still
        // serialize (global coordinator): verify with a read-modify-write
        // race that would lose updates if they interleaved.
        let c = std::sync::Arc::new(cluster(4, 1));
        c.put(0, b"ctr".to_vec(), 0u64.to_le_bytes().to_vec());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let keys = vec![(0usize, b"ctr".to_vec())];
                    c.multi(&keys, |ctx| {
                        let v = u64::from_le_bytes(ctx.get(0).unwrap().try_into().unwrap());
                        ctx.put(0, (v + 1).to_le_bytes().to_vec());
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = u64::from_le_bytes(c.get(0, b"ctr").unwrap().try_into().unwrap());
        assert_eq!(v, 2000);
    }

    #[test]
    fn scan_merges_across_partitions() {
        let c = cluster(4, 1);
        for i in 0..100u64 {
            c.put(0, format!("k{i:04}").into_bytes(), vec![1]);
        }
        let rows = c.scan(0, b"k0010", 20).unwrap();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].0, b"k0010".to_vec());
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn long_scan_exceeds_memory_cap() {
        let mut cfg = CdbConfig {
            servers: 4,
            tables: 1,
            ..Default::default()
        };
        cfg.scan_memory_limit = 4 * 1024;
        let c = CdbCluster::new(cfg);
        for i in 0..2000u64 {
            c.put(0, format!("user{i:010}").into_bytes(), vec![0u8; 8]);
        }
        assert!(matches!(
            c.scan(0, b"", 2000),
            Err(CdbError::ScanMemoryExceeded { .. })
        ));
        // Short scans still work.
        assert!(c.scan(0, b"", 10).is_ok());
    }

    #[test]
    fn partitions_roughly_balanced() {
        let c = cluster(4, 1);
        for i in 0..4000u64 {
            c.put(0, format!("user{i:010}").into_bytes(), vec![1]);
        }
        for s in 0..4 {
            let n = c.tables[0][s].len();
            assert!((700..1300).contains(&n), "partition {s} has {n}");
        }
    }
}
