//! A unified registry of named counters and histograms.
//!
//! Subsystems keep cheap shared handles ([`Counter`], [`HistHandle`]) on
//! their own structs — the hot path never touches the registry — and
//! *register* those handles under stable names. One [`Registry::snapshot`]
//! then yields every metric a process exports, and the snapshot encodes to
//! a plain byte vector so the wire layer can ship it without knowing the
//! schema.
//!
//! ## Ownership rules
//!
//! - The subsystem that *increments* a metric owns its handle; the
//!   registry holds a clone (same underlying atomic/histogram).
//! - Names are `dotted.paths` (`memnode.commits`, `wal.fsync_ns`,
//!   `wire.lat.exec_single`); registering an existing name *replaces* the
//!   registered handle (last adopter wins), and [`Registry::counter`] /
//!   [`Registry::histogram`] get-or-create so independent components can
//!   share one series by name.

use crate::hist::{Histogram, LatencySummary};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared monotonically increasing counter. Clones share the same
/// underlying atomic, so a subsystem handle and the registry see one
/// series. API-compatible with the bare `AtomicU64` fields it replaced
/// ([`Counter::load`] / [`Counter::fetch_add`] accept an `Ordering` and
/// ignore it: counters are statistics, relaxed is always correct).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// `AtomicU64`-compatible read (the ordering is ignored).
    #[inline]
    pub fn load(&self, _order: Ordering) -> u64 {
        self.get()
    }

    /// `AtomicU64`-compatible add (the ordering is ignored); returns the
    /// previous value.
    #[inline]
    pub fn fetch_add(&self, n: u64, _order: Ordering) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Resets to zero (tests and bench phase boundaries).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A shared histogram handle: a mutex-protected [`Histogram`] cheap enough
/// for microsecond-scale paths (one uncontended lock per record).
#[derive(Clone, Default)]
pub struct HistHandle(Arc<Mutex<Histogram>>);

impl std::fmt::Debug for HistHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.lock().fmt(f)
    }
}

impl HistHandle {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value (nanoseconds, by convention, for latency series).
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    /// Records a duration.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.0.lock().record_duration(d);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.lock().count()
    }

    /// A point-in-time copy of the full histogram.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().clone()
    }

    /// Compact summary (count, mean, p50/p95/p99, max).
    pub fn summary(&self) -> LatencySummary {
        self.0.lock().summary()
    }
}

/// A process-wide snapshot of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every registered histogram.
    pub hists: Vec<(String, LatencySummary)>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    /// The next `N` bytes as an array: the one fixed-size read.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
    fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }
    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u16()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

impl ObsSnapshot {
    /// Serializes the snapshot to an opaque byte vector (shipped by the
    /// wire layer's `Obs` response without schema knowledge).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.counters.len() * 32 + self.hists.len() * 64);
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, v) in &self.counters {
            put_str(&mut out, name);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.hists.len() as u32).to_le_bytes());
        for (name, s) in &self.hists {
            put_str(&mut out, name);
            out.extend_from_slice(&s.count.to_le_bytes());
            out.extend_from_slice(&s.mean_ns.to_bits().to_le_bytes());
            out.extend_from_slice(&s.p50_ns.to_le_bytes());
            out.extend_from_slice(&s.p95_ns.to_le_bytes());
            out.extend_from_slice(&s.p99_ns.to_le_bytes());
            out.extend_from_slice(&s.max_ns.to_le_bytes());
        }
        out
    }

    /// Decodes a snapshot; `None` on any structural corruption.
    pub fn decode(buf: &[u8]) -> Option<ObsSnapshot> {
        let mut c = Cur { buf, pos: 0 };
        let nc = c.u32()? as usize;
        let mut counters = Vec::with_capacity(nc.min(4096));
        for _ in 0..nc {
            let name = c.str()?;
            counters.push((name, c.u64()?));
        }
        let nh = c.u32()? as usize;
        let mut hists = Vec::with_capacity(nh.min(4096));
        for _ in 0..nh {
            let name = c.str()?;
            let s = LatencySummary {
                count: c.u64()?,
                mean_ns: f64::from_bits(c.u64()?),
                p50_ns: c.u64()?,
                p95_ns: c.u64()?,
                p99_ns: c.u64()?,
                max_ns: c.u64()?,
            };
            hists.push((name, s));
        }
        if c.pos != buf.len() {
            return None;
        }
        Some(ObsSnapshot { counters, hists })
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn hist(&self, name: &str) -> Option<&LatencySummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// A named-metric registry; see the module docs for ownership rules.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    hists: Mutex<BTreeMap<String, HistHandle>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if absent.
    /// All callers asking for the same name share one series.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it if
    /// absent.
    pub fn histogram(&self, name: &str) -> HistHandle {
        self.hists
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Adopts an existing counter handle under `name` (the subsystem keeps
    /// incrementing its own handle; snapshots see the same atomic).
    pub fn register_counter(&self, name: &str, c: &Counter) {
        self.counters.lock().insert(name.to_string(), c.clone());
    }

    /// Adopts an existing histogram handle under `name`.
    pub fn register_histogram(&self, name: &str, h: &HistHandle) {
        self.hists.lock().insert(name.to_string(), h.clone());
    }

    /// Every registered metric at one instant, sorted by name.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            hists: self
                .hists
                .lock()
                .iter()
                .map(|(n, h)| (n.clone(), h.summary()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_series() {
        let r = Registry::new();
        let a = r.counter("x.ops");
        let b = r.counter("x.ops");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("x.ops").get(), 4);
        assert_eq!(a.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn register_adopts_existing_handle() {
        let r = Registry::new();
        let mine = Counter::new();
        mine.add(7);
        r.register_counter("adopted", &mine);
        mine.inc();
        assert_eq!(r.snapshot().counter("adopted"), Some(8));
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.counter("b").add(2);
        let h = r.histogram("lat");
        for i in 1..=100u64 {
            h.record(i * 1000);
        }
        let snap = r.snapshot();
        let decoded = ObsSnapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.counter("b"), Some(2));
        assert_eq!(decoded.hist("lat").unwrap().count, 100);
        assert!(ObsSnapshot::decode(&snap.encode()[1..]).is_none());
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z");
        r.counter("a");
        r.counter("m");
        let names: Vec<_> = r.snapshot().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
