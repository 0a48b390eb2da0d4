//! The three workloads: what is loaded, which ops the one client issues,
//! and the model every result is checked against.
//!
//! The program under test only ever sees the generated ops. With one
//! closed-loop client the model is exact: a `BTreeMap` of acked writes
//! plus, for the latest snapshot, the pre-images of keys written since.

use minuet::workload::{
    encode_key, KeyChooser, KeyDist, OpGenerator, Operation, SharedState, WorkloadSpec,
};
use minuet::{Key, MinuetCluster, Proxy, SnapshotId, TreeConfig, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

pub const NAMES: [&str; 3] = ["get_hot", "rw_cold", "htap_scan"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    GetHot,
    RwCold,
    HtapScan,
}

/// Records every workload loads unless `--smoke` shrinks it.
pub const RECORDS: u64 = 200_000;

/// `htap_scan`: puts per cycle, keys per scan, cycles per snapshot.
/// 4 000 uniform puts over ≈1.4 k leaves touch ≈94 % of them, so about a
/// third of the puts in a period copy a leaf (and, early in the period,
/// its path) and the rest are in-place fused puts.
pub const HTAP_PUTS_PER_CYCLE: u32 = 10;
pub const HTAP_SCAN_LEN: usize = 1_000;
pub const HTAP_CYCLES_PER_SNAPSHOT: u64 = 400;

/// Op classes, stored per call beside its latency.
pub mod class {
    pub const GET: u8 = 0;
    pub const PUT: u8 = 1;
    pub const SCAN: u8 = 2;
    pub const SNAPSHOT: u8 = 3;
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub records: u64,
    pub value_len: usize,
    pub cfg: TreeConfig,
    /// One in this many gets is compared with the model inside the
    /// window (every put and every scan is checked; see `Client`).
    pub get_check_every: u64,
    /// Successful ops per second of window after which the daemons' RSS
    /// is sampled (time-sliced workloads; `htap_scan` counts periods).
    pub rss_ops_per_window_s: u64,
}

impl Spec {
    pub fn new(name: &str, records: u64) -> Result<Spec, String> {
        let mut cfg = TreeConfig::default();
        cfg.layout.slots_per_mem = 1 << 17;
        Ok(match name {
            "get_hot" => Spec {
                kind: Kind::GetHot,
                name: "get_hot",
                records,
                value_len: 8,
                cfg,
                // A model lookup misses the CPU cache all the way down a
                // 200 k-entry map, ≈1 µs against a ≈12 µs get: checking
                // each one would make the generator 8 % of the run.
                get_check_every: 32,
                rss_ops_per_window_s: 6_000,
            },
            "rw_cold" => {
                // ≈5.9 k bulk-packed leaves against 1 024 cached nodes:
                // the tree is ≈6× the cache.
                cfg.node_cache_capacity = 1024;
                Spec {
                    kind: Kind::RwCold,
                    name: "rw_cold",
                    records,
                    value_len: 100,
                    cfg,
                    get_check_every: 1,
                    rss_ops_per_window_s: 300,
                }
            }
            "htap_scan" => Spec {
                kind: Kind::HtapScan,
                name: "htap_scan",
                records,
                value_len: 8,
                cfg,
                get_check_every: 1,
                rss_ops_per_window_s: 0,
            },
            other => {
                return Err(format!(
                    "unknown workload {other:?} (known: {})",
                    NAMES.join(", ")
                ))
            }
        })
    }

    /// The YCSB description of the op stream. `htap_scan` drives its own
    /// cycle of puts and scans; for it this is the nearest equivalent
    /// (uniform 8-byte updates) and only the generator-cost probe uses it.
    pub fn ycsb_spec(&self) -> WorkloadSpec {
        let mut w = match self.kind {
            Kind::GetHot => {
                WorkloadSpec::read_only(self.records).with_dist(KeyDist::ScrambledZipfian)
            }
            Kind::RwCold => WorkloadSpec::mix(self.records, 0.6, 0.3, 0.1, 0.0),
            Kind::HtapScan => WorkloadSpec::update_only(self.records),
        };
        w.value_len = self.value_len;
        w
    }

    /// The records every set-up bulk-loads, made from the seed.
    pub fn load_pairs(&self, seed: u64) -> Vec<(Key, Value)> {
        let mut rng = SplitMix(seed ^ 0x5EED_10AD);
        (0..self.records)
            .map(|i| (encode_key(i), rng.bytes(self.value_len)))
            .collect()
    }
}

/// SplitMix64: values and sampling decisions of the runner itself (key
/// choice comes from the `workload` crate's seeded generators).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            let w = self.next().to_le_bytes();
            v.extend_from_slice(&w[..w.len().min(len - v.len())]);
        }
        v
    }
}

/// One executed call.
pub struct Step {
    pub class: u8,
    pub ns: u64,
    /// When the call returned, so the loop reads the clock twice per op.
    pub end: Instant,
    /// The call returned `Ok`; only such calls are measured.
    pub ok: bool,
    /// `htap_scan`: this call was the last of a snapshot period.
    pub period_end: bool,
}

struct Htap {
    chooser: KeyChooser,
    values: SplitMix,
    cycle: u64,
    /// Position inside the cycle: `0..PUTS` are puts, `PUTS` is the scan.
    pos: u32,
    snapshot_taken: bool,
    snapshot: Option<SnapshotId>,
    /// Values as of `snapshot` of the keys written since.
    preimages: HashMap<Key, Value>,
    last_scan: Option<LastScan>,
}

/// The previous scan: its start key, snapshot and rows.
type LastScan = (Key, SnapshotId, Vec<(Key, Value)>);

enum Stream {
    Ycsb(OpGenerator),
    Htap(Htap),
}

const READBACK_SAMPLE: usize = 1_000;

/// The one closed-loop client: a `Proxy`, the op stream and the model.
pub struct Client {
    pub proxy: Proxy,
    mc: Arc<MinuetCluster>,
    stream: Stream,
    model: BTreeMap<Key, Value>,
    get_check_every: u64,
    gets: u64,
    /// Reservoir of keys written inside windows, for the read-back.
    written: Vec<Key>,
    writes_seen: u64,
    rng: SplitMix,
    pub attempted: u64,
    pub failed: u64,
    pub inserts: u64,
    /// Arms the counting allocator around each timed call.
    pub count_allocs: bool,
}

impl Client {
    pub fn new(spec: &Spec, mc: &Arc<MinuetCluster>, pairs: &[(Key, Value)], seed: u64) -> Client {
        // Insertion in load order: for the (rare) colliding keys the
        // last value wins, as `bulk_load` documents.
        let model: BTreeMap<Key, Value> = pairs.iter().cloned().collect();
        let stream = match spec.kind {
            Kind::GetHot | Kind::RwCold => {
                let w = spec.ycsb_spec();
                Stream::Ycsb(OpGenerator::new(&w, &SharedState::new(&w), seed))
            }
            Kind::HtapScan => Stream::Htap(Htap {
                chooser: KeyChooser::new(
                    KeyDist::Uniform,
                    Arc::new(AtomicU64::new(spec.records)),
                    seed,
                ),
                values: SplitMix(seed ^ 0x7A1E),
                cycle: 0,
                pos: 0,
                snapshot_taken: false,
                snapshot: None,
                preimages: HashMap::new(),
                last_scan: None,
            }),
        };
        Client {
            proxy: mc.proxy(),
            mc: mc.clone(),
            stream,
            model,
            get_check_every: spec.get_check_every,
            gets: 0,
            written: Vec::with_capacity(READBACK_SAMPLE),
            writes_seen: 0,
            rng: SplitMix(seed ^ 0xC11E),
            attempted: 0,
            failed: 0,
            inserts: 0,
            count_allocs: false,
        }
    }

    /// A `Proxy` error is counted, reported once per kind of call, and
    /// the run goes on: the result line carries the count.
    fn note_failure(&mut self, what: &str, e: &minuet::Error) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("scorecard: {what} failed: {e}");
        }
    }

    fn remember_write(&mut self, key: &Key) {
        self.writes_seen += 1;
        if self.written.len() < READBACK_SAMPLE {
            self.written.push(key.clone());
        } else {
            let j = self.rng.next() % self.writes_seen;
            if (j as usize) < READBACK_SAMPLE {
                self.written[j as usize] = key.clone();
            }
        }
    }

    fn timed_get(&mut self, key: &[u8]) -> Result<Step, String> {
        self.attempted += 1;
        crate::alloc::arm(self.count_allocs);
        let t0 = Instant::now();
        let res = self.proxy.get(0, key);
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        crate::alloc::arm(false);
        let ok = res.is_ok();
        match res {
            Ok(got) => {
                self.gets += 1;
                if self.gets.is_multiple_of(self.get_check_every)
                    && got.as_ref() != self.model.get(key)
                {
                    return Err(format!(
                        "get({}) returned {:?}, the model holds {:?}",
                        String::from_utf8_lossy(key),
                        got,
                        self.model.get(key)
                    ));
                }
            }
            Err(e) => self.note_failure("get", &e),
        }
        Ok(Step {
            class: class::GET,
            ns,
            end,
            ok,
            period_end: false,
        })
    }

    /// Returns the step and, for an acked put, the value it replaced.
    fn timed_put(&mut self, key: Key, value: Value) -> Result<(Step, Option<Value>), String> {
        self.attempted += 1;
        let (k, v) = (key.clone(), value.clone());
        crate::alloc::arm(self.count_allocs);
        let t0 = Instant::now();
        let res = self.proxy.put(0, key, value);
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        crate::alloc::arm(false);
        let step = Step {
            class: class::PUT,
            ns,
            end,
            ok: res.is_ok(),
            period_end: false,
        };
        match res {
            Ok(old) => {
                self.remember_write(&k);
                let prev = self.model.insert(k.clone(), v);
                if old != prev {
                    return Err(format!(
                        "put({}) replaced {:?}, the model held {:?}",
                        String::from_utf8_lossy(&k),
                        old,
                        prev
                    ));
                }
                Ok((step, prev))
            }
            Err(e) => {
                self.note_failure("put", &e);
                Ok((step, None))
            }
        }
    }

    /// Issues the next op of the stream and checks its result.
    /// `Err` is a correctness violation and ends the run.
    pub fn step(&mut self) -> Result<Step, String> {
        match &mut self.stream {
            Stream::Ycsb(gen) => match gen.next_op() {
                Operation::Read { key } => self.timed_get(&key),
                Operation::Update { key, value } => Ok(self.timed_put(key, value)?.0),
                Operation::Insert { key, value } => {
                    self.inserts += 1;
                    Ok(self.timed_put(key, value)?.0)
                }
                other => unreachable!("the specs generate point ops only, got {other:?}"),
            },
            Stream::Htap(_) => self.htap_step(),
        }
    }

    fn htap(&mut self) -> &mut Htap {
        match &mut self.stream {
            Stream::Htap(h) => h,
            Stream::Ycsb(_) => unreachable!("htap_step is only called on the htap stream"),
        }
    }

    fn htap_step(&mut self) -> Result<Step, String> {
        let h = self.htap();
        if h.pos == 0 && h.cycle.is_multiple_of(HTAP_CYCLES_PER_SNAPSHOT) && !h.snapshot_taken {
            return self.htap_snapshot();
        }
        if h.pos < HTAP_PUTS_PER_CYCLE {
            h.pos += 1;
            let key = encode_key(h.chooser.next());
            let value = h.values.next().to_le_bytes().to_vec();
            let (step, prev) = self.timed_put(key.clone(), value)?;
            if let Some(prev) = prev {
                self.htap().preimages.entry(key).or_insert(prev);
            }
            return Ok(step);
        }
        self.htap_scan()
    }

    fn htap_snapshot(&mut self) -> Result<Step, String> {
        self.attempted += 1;
        let mc = self.mc.clone();
        let t0 = Instant::now();
        let res = mc.scs(0).create(&mut self.proxy, 0);
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        match res {
            Ok((sid, _root)) => {
                let h = self.htap();
                h.snapshot = Some(sid);
                h.snapshot_taken = true;
                h.preimages.clear();
            }
            // Without a snapshot nothing further can be checked.
            Err(e) => return Err(format!("snapshot creation failed: {e}")),
        }
        Ok(Step {
            class: class::SNAPSHOT,
            ns,
            end,
            ok: true,
            period_end: false,
        })
    }

    fn htap_scan(&mut self) -> Result<Step, String> {
        let h = self.htap();
        let sid = h.snapshot.expect("a period starts with a snapshot");
        let cycle = h.cycle;
        // Every 16th scan repeats the previous one: a frozen snapshot
        // must read the same after ten more puts.
        let repeat = match &h.last_scan {
            Some((start, s, _)) if cycle % 16 == 15 && *s == sid => Some(start.clone()),
            _ => None,
        };
        let start = repeat
            .clone()
            .unwrap_or_else(|| encode_key(h.chooser.next()));
        h.pos = 0;
        h.cycle += 1;
        h.snapshot_taken = false;
        let period_end = h.cycle.is_multiple_of(HTAP_CYCLES_PER_SNAPSHOT);

        self.attempted += 1;
        let t0 = Instant::now();
        let res = self.proxy.scan_at(0, sid, &start, HTAP_SCAN_LEN);
        let end = Instant::now();
        let ns = (end - t0).as_nanos() as u64;
        let ok = res.is_ok();
        match res {
            Ok(rows) => {
                self.check_scan(&start, &rows, cycle.is_multiple_of(4))?;
                let h = self.htap();
                if repeat.is_some() {
                    let (_, _, before) = h.last_scan.as_ref().expect("repeat implies a last scan");
                    if *before != rows {
                        return Err(format!(
                            "scan_at({}, snapshot {sid}) differs when repeated",
                            String::from_utf8_lossy(&start)
                        ));
                    }
                }
                h.last_scan = Some((start, sid, rows));
            }
            Err(e) => self.note_failure("scan_at", &e),
        }
        Ok(Step {
            class: class::SCAN,
            ns,
            end,
            ok,
            period_end,
        })
    }

    /// Every scan: sorted, starts at or after `start`, and full unless it
    /// reached the end of the key space. With `full`: equal, key by key,
    /// to the model as of the snapshot.
    fn check_scan(&self, start: &[u8], rows: &[(Key, Value)], full: bool) -> Result<(), String> {
        let at = String::from_utf8_lossy(start);
        if rows.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(format!("scan from {at} is not sorted"));
        }
        if rows.first().is_some_and(|(k, _)| k.as_slice() < start) {
            return Err(format!("scan from {at} starts before its start key"));
        }
        let last_key = self.model.keys().next_back();
        if rows.len() < HTAP_SCAN_LEN && rows.last().map(|(k, _)| k) != last_key {
            return Err(format!(
                "scan from {at} returned {} of {HTAP_SCAN_LEN} keys before the key space ended",
                rows.len()
            ));
        }
        if !full {
            return Ok(());
        }
        let Stream::Htap(h) = &self.stream else {
            unreachable!("scans only run on the htap stream")
        };
        let mut expected = self.model.range(start.to_vec()..).take(HTAP_SCAN_LEN);
        for (k, v) in rows {
            let Some((mk, mv)) = expected.next() else {
                return Err(format!(
                    "scan from {at} returned more keys than the model holds"
                ));
            };
            let want = h.preimages.get(mk).unwrap_or(mv);
            if k != mk || v != want {
                return Err(format!(
                    "scan from {at} at the snapshot returned ({}, {v:?}), the model holds ({}, {want:?})",
                    String::from_utf8_lossy(k),
                    String::from_utf8_lossy(mk)
                ));
            }
        }
        if expected.next().is_some() && rows.len() < HTAP_SCAN_LEN {
            return Err(format!("scan from {at} is shorter than the model"));
        }
        Ok(())
    }

    /// After the windows: a sample of acked writes (topped up with
    /// loaded records) must be readable through a *fresh* `Proxy`, which
    /// shares no cache with the one that wrote them.
    pub fn verify_readback(&mut self) -> Result<usize, String> {
        let mut keys = std::mem::take(&mut self.written);
        let missing = READBACK_SAMPLE.saturating_sub(keys.len());
        let stride = (self.model.len() / missing.max(1)).max(1);
        keys.extend(self.model.keys().step_by(stride).take(missing).cloned());
        let mut fresh = self.mc.proxy();
        for key in &keys {
            let got = fresh
                .get(0, key)
                .map_err(|e| format!("read-back get failed: {e}"))?;
            if got.as_ref() != self.model.get(key) {
                return Err(format!(
                    "read-back of {} through a fresh proxy returned {:?}, the model holds {:?}",
                    String::from_utf8_lossy(key),
                    got,
                    self.model.get(key)
                ));
            }
        }
        Ok(keys.len())
    }

    /// The latest snapshot of the htap stream (for the GC probe).
    pub fn latest_snapshot(&self) -> Option<SnapshotId> {
        match &self.stream {
            Stream::Htap(h) => h.snapshot,
            Stream::Ycsb(_) => None,
        }
    }

    /// `n` keys that exist, evenly spread over the key space, for probes.
    pub fn sample_keys(&self, n: usize) -> Vec<Key> {
        let stride = (self.model.len() / n.max(1)).max(1);
        self.model.keys().step_by(stride).take(n).cloned().collect()
    }
}
