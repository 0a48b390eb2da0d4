//! The per-layer side of a `--trace 1` run: the span ledger built from
//! the traces the program already emits, and the direct probes into each
//! crate's public functions.

use crate::cluster::Cluster;
use crate::run::Metric;
use crate::workloads::{Client, Spec};
use minuet::core::op_tag;
use minuet::dyntx::{DynTx, ObjRef, OBJ_HEADER};
use minuet::obs::{Histogram, SpanKind, SpanRecord, Trace};
use minuet::sinfonia::wal::{Record, Wal};
use minuet::sinfonia::wire::{self, Request, WireShard};
use minuet::sinfonia::{Bytes, ItemRange, LockPolicy, MemNodeId, Minitransaction, SyncMode};
use minuet::workload::{encode_key, OpGenerator, SharedState};
use minuet::Node;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span kinds are small integers; index 0 is unused.
const KINDS: usize = 20;
/// Deepest nesting the self-time pass tracks; deeper spans are folded
/// into this level (the program nests five or six deep).
const MAX_DEPTH: usize = 31;

fn is_server(kind: u8) -> bool {
    (SpanKind::SrvDecode as u8..=SpanKind::SrvEncode as u8).contains(&kind)
        || kind == SpanKind::ReplApply as u8
}

/// Self time per span kind: a span's duration minus the part its child
/// spans cover, summed by kind.
///
/// Spans arrive in completion order with their depth, so a span's
/// children are exactly the not-yet-claimed spans one level deeper that
/// completed before it. Server spans are grafted in blocks (one per
/// reply) with server-relative clocks; each block is resolved on its own
/// and never charged to the client span it arrived under — its time is
/// already inside that exchange's `rtt`.
pub fn self_time_by_kind(spans: &[SpanRecord]) -> [u64; KINDS] {
    let mut out = [0u64; KINDS];
    let mut client = [0u64; MAX_DEPTH + 2];
    let mut server = [0u64; MAX_DEPTH + 2];
    let mut in_server = false;
    for s in spans {
        let srv = is_server(s.kind);
        if srv && !in_server {
            server = [0; MAX_DEPTH + 2];
        }
        in_server = srv;
        let unclaimed = if srv { &mut server } else { &mut client };
        let d = (s.depth as usize).min(MAX_DEPTH);
        let children = std::mem::take(&mut unclaimed[d + 1]);
        unclaimed[d] += s.dur_ns;
        if let Some(slot) = out.get_mut(s.kind as usize) {
            *slot += s.dur_ns.saturating_sub(children);
        }
    }
    out
}

/// The client stages that tile an op end to end (`wire_breakdown`'s
/// top-level set; everything else nests inside them).
const TOP_LEVEL: [SpanKind; 5] = [
    SpanKind::Route,
    SpanKind::Traverse,
    SpanKind::Apply,
    SpanKind::Commit,
    SpanKind::Backoff,
];

struct StageHists {
    n: u64,
    stage: Vec<Histogram>,
    coverage_permille: Histogram,
}

impl Default for StageHists {
    fn default() -> StageHists {
        StageHists {
            n: 0,
            stage: (0..KINDS).map(|_| Histogram::new()).collect(),
            coverage_permille: Histogram::new(),
        }
    }
}

impl StageHists {
    fn p50_us(&self, kind: SpanKind) -> f64 {
        self.stage[kind as usize].percentile(50.0) as f64 / 1e3
    }

    fn coverage(&self) -> f64 {
        self.coverage_permille.percentile(50.0) as f64 / 1e3
    }
}

/// Per-op-kind p50 of every stage's self time over the traced half.
#[derive(Default)]
pub struct SpanLedger {
    last_trace_id: u64,
    get: StageHists,
    put: StageHists,
    all: StageHists,
    spans: u64,
    rtts: u64,
    fetches: u64,
    commits: u64,
    flags_rtts: u64,
    dropped: u64,
}

impl SpanLedger {
    /// Takes the newest trace if it is one this ledger has not seen (an
    /// untraced call, such as a scan, leaves the previous one in place).
    pub fn absorb(&mut self, trace: Option<Trace>) {
        let Some(trace) = trace else { return };
        if trace.trace_id <= self.last_trace_id {
            return;
        }
        self.last_trace_id = trace.trace_id;
        let by_kind = self_time_by_kind(&trace.spans);
        let covered: u64 = TOP_LEVEL.iter().map(|k| trace.kind_total_ns(*k)).sum();
        let permille = covered.saturating_mul(1000) / trace.total_ns.max(1);
        let per_op = match trace.op_tag {
            op_tag::GET => Some(&mut self.get),
            op_tag::PUT => Some(&mut self.put),
            _ => None,
        };
        for h in per_op.into_iter().chain([&mut self.all]) {
            h.n += 1;
            for (hist, ns) in h.stage.iter_mut().zip(by_kind) {
                hist.record(ns);
            }
            h.coverage_permille.record(permille);
        }
        let count =
            |kind: SpanKind| trace.spans.iter().filter(|s| s.kind == kind as u8).count() as u64;
        self.spans += trace.spans.len() as u64;
        self.rtts += count(SpanKind::Rtt);
        self.fetches += count(SpanKind::Fetch);
        // Staging and executing a commit each open a `Commit` span; what
        // is counted is ops that reached commit, once.
        self.commits += (count(SpanKind::Commit) > 0) as u64;
        self.flags_rtts += trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Rtt as u8 && s.tag == wire::tag::FLAGS)
            .count() as u64;
        self.dropped += trace.dropped as u64;
    }

    /// `wire_breakdown`'s assertion, kept: the top-level client stages
    /// must account for each traced op, and membership flags must ride
    /// reply trailers, never a round trip of their own.
    pub fn check_tiling(&self) -> Result<(), String> {
        for (name, h) in [("get", &self.get), ("put", &self.put)] {
            if h.n == 0 {
                continue;
            }
            let c = h.coverage();
            if !(0.72..=1.10).contains(&c) {
                return Err(format!(
                    "span ledger does not account for the {name} op: top-level stages cover \
                     {:.1} % of it at p50 over {} traces (must be 72–110 %)",
                    c * 100.0,
                    h.n
                ));
            }
        }
        if self.flags_rtts > 0 {
            return Err(format!(
                "{} Flags round trips in traced ops: flags must ride reply trailers",
                self.flags_rtts
            ));
        }
        Ok(())
    }

    pub fn metrics(&self, out: &mut Vec<Metric>) {
        use SpanKind::*;
        let (g, p, a) = (&self.get, &self.put, &self.all);
        // The server's write stages are zero for most calls of a mixed
        // workload; they are reported over the puts when there are any.
        let srv = if p.n > 0 { p } else { g };
        out.extend([
            ("core.get.route_us", g.p50_us(Route), "us"),
            ("core.get.traverse_us", g.p50_us(Traverse), "us"),
            ("core.get.commit_us", g.p50_us(Commit), "us"),
            ("core.get.coverage", g.coverage(), "ratio"),
            ("core.put.route_us", p.p50_us(Route), "us"),
            ("core.put.traverse_us", p.p50_us(Traverse), "us"),
            ("core.put.apply_us", p.p50_us(Apply), "us"),
            ("core.put.commit_us", p.p50_us(Commit), "us"),
            ("core.put.backoff_us", p.p50_us(Backoff), "us"),
            ("core.put.coverage", p.coverage(), "ratio"),
            ("dyntx.fetch_us", a.p50_us(Fetch), "us"),
            (
                "dyntx.rts_per_commit",
                ratio(self.rtts.saturating_sub(self.fetches), self.commits),
                "1/commit",
            ),
            ("sinfonia.get.rtt_us", g.p50_us(Rtt), "us"),
            ("sinfonia.get.framing_us", g.p50_us(Framing), "us"),
            ("sinfonia.put.rtt_us", p.p50_us(Rtt), "us"),
            ("sinfonia.put.framing_us", p.p50_us(Framing), "us"),
            ("memnoded.srv_decode_us", srv.p50_us(SrvDecode), "us"),
            ("memnoded.srv_lock_wait_us", srv.p50_us(SrvLockWait), "us"),
            ("memnoded.srv_exec_us", srv.p50_us(SrvExec), "us"),
            ("memnoded.srv_wal_append_us", srv.p50_us(SrvWalAppend), "us"),
            ("memnoded.srv_fsync_us", srv.p50_us(SrvFsync), "us"),
            ("memnoded.srv_encode_us", srv.p50_us(SrvEncode), "us"),
            ("obs.spans_per_op", ratio(self.spans, a.n), "1/op"),
        ]);
    }

    pub fn traced_ops(&self) -> u64 {
        self.all.n
    }

    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

const PROBE_CALLS: usize = 20_000;
const PROBE_TIME: Duration = Duration::from_millis(1_500);

/// Median of up to 20 k samples (or 1.5 s of them). The closure returns
/// the nanoseconds of one sample — `None` for a call that does not count
/// — so it can time only the part that is the probe.
fn probe(mut sample: impl FnMut() -> Result<Option<f64>, String>) -> Result<f64, String> {
    let mut ns = Vec::with_capacity(PROBE_CALLS);
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < PROBE_CALLS && start.elapsed() < PROBE_TIME {
        crate::host::check_interrupt()?;
        calls += 1;
        if let Some(v) = sample()? {
            ns.push(v);
        }
    }
    Ok(crate::stats::median(&mut ns))
}

/// Nanoseconds of one call of `f`, timed `batch` at a time.
fn clock<T>(batch: u32, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / batch as f64
}

fn unavailable(what: &str, e: impl std::fmt::Display) -> String {
    format!("probe {what}: {e}")
}

/// A leaf packed to the split threshold, as `bulk_load` leaves them.
fn full_leaf(spec: &Spec) -> Node {
    let cap = spec.cfg.split_payload_cap();
    let mut leaf = Node::empty_root(0);
    for i in 0.. {
        let key = encode_key(i);
        leaf.leaf_put(key.clone(), vec![0xAB; spec.value_len]);
        if leaf.overflows(cap, usize::MAX) {
            leaf.leaf_remove(&key);
            break;
        }
    }
    leaf
}

/// Timed calls into each crate's public functions on the live cluster,
/// after the windows and the read-back (they write to the tree and to
/// the scratch range past the layout).
pub fn run_probes(
    spec: &Spec,
    cluster: &Cluster,
    client: &mut Client,
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mc = &cluster.mc;
    let sin = &mc.sinfonia;
    let m0 = MemNodeId(0);
    let scratch = cluster.scratch_off;

    // workload: what the generator costs per op.
    let w = spec.ycsb_spec();
    let mut gen = OpGenerator::new(&w, &SharedState::new(&w), seed);
    let next_op = probe(|| Ok(Some(clock(16, || gen.next_op()))))?;
    out.push(("workload.next_op_ns", next_op, "ns"));

    // core: the node codec on one full 4 kB leaf.
    let leaf = full_leaf(spec);
    let raw = leaf.encode();
    out.push((
        "core.node_encode_ns",
        probe(|| Ok(Some(clock(1, || leaf.encode()))))?,
        "ns",
    ));
    out.push((
        "core.node_decode_ns",
        probe(|| Ok(Some(clock(1, || Node::decode(&raw).is_ok()))))?,
        "ns",
    ));

    // core: a get through a proxy that has cached nothing.
    let keys = client.sample_keys(512);
    let mut i = 0usize;
    let cold = probe(|| {
        let mut fresh = mc.proxy();
        i += 1;
        let key = &keys[i % keys.len()];
        let t0 = Instant::now();
        let r = fresh.get(0, key);
        let ns = t0.elapsed().as_nanos() as f64;
        r.map_err(|e| unavailable("core.get_cold_us", e))?;
        Ok(Some(ns))
    })?;
    out.push(("core.get_cold_us", cold / 1e3, "us"));

    // core: an insert that splits a leaf (judged by the proxy's own
    // split counter), through the client's warm proxy.
    let mut id = 1u64 << 40;
    let value = vec![0xCD; spec.value_len];
    let split = probe(|| {
        id += 1;
        let before = client.proxy.stats.splits;
        let t0 = Instant::now();
        let r = client.proxy.put(0, encode_key(id), value.clone());
        let ns = t0.elapsed().as_nanos() as f64;
        r.map_err(|e| unavailable("core.insert_split_us", e))?;
        Ok((client.proxy.stats.splits > before).then_some(ns))
    })?;
    out.push(("core.insert_split_us", split / 1e3, "us"));

    // dyntx: one 4 kB object written and read as a batch of one.
    let obj = ObjRef::new(m0, scratch, 4096 + OBJ_HEADER);
    let payload = Bytes::from(vec![0x5A; 4096]);
    let commit1 = probe(|| {
        let t0 = Instant::now();
        let mut tx = DynTx::new(sin);
        tx.write(obj, payload.clone());
        let r = tx.commit();
        let ns = t0.elapsed().as_nanos() as f64;
        r.map_err(|e| unavailable("dyntx.commit1_us", e))?;
        Ok(Some(ns))
    })?;
    let read4k = probe(|| {
        let t0 = Instant::now();
        let mut tx = DynTx::new(sin);
        let r = tx.read(obj);
        let ns = t0.elapsed().as_nanos() as f64;
        r.map_err(|e| unavailable("dyntx.read4k_us", e))?;
        Ok(Some(ns))
    })?;
    out.push(("dyntx.read4k_us", read4k / 1e3, "us"));
    out.push(("dyntx.commit1_us", commit1 / 1e3, "us"));

    // sinfonia: the minitransaction floors under a get, a fused put and
    // a cross-memnode commit.
    let exec = |m: &Minitransaction, what: &'static str| {
        probe(|| {
            let t0 = Instant::now();
            let r = sin.execute(m);
            let ns = t0.elapsed().as_nanos() as f64;
            match r {
                Ok(o) if o.committed() => Ok(Some(ns)),
                Ok(_) => Err(format!("probe {what}: compare failed")),
                Err(e) => Err(unavailable(what, e)),
            }
        })
    };
    let mut read64 = Minitransaction::new();
    read64.read(ItemRange::new(m0, scratch + 8192, 64));
    let marker = ItemRange::new(m0, scratch + 16_384, 8);
    let mut seed_marker = Minitransaction::new();
    seed_marker.write(marker, b"scorecrd".to_vec());
    sin.execute(&seed_marker)
        .map_err(|e| unavailable("sinfonia.exec_cmpwrite4k_us", e))?;
    let mut cmpwrite = Minitransaction::new();
    cmpwrite.compare(marker, b"scorecrd".to_vec());
    cmpwrite.write(ItemRange::new(m0, scratch + 16_448, 4096), vec![0x11; 4096]);
    let mut two_pc = Minitransaction::new();
    two_pc.write(ItemRange::new(m0, scratch + 24_576, 64), vec![0x22; 64]);
    two_pc.write(
        ItemRange::new(MemNodeId(1), scratch + 24_576, 64),
        vec![0x22; 64],
    );
    out.push((
        "sinfonia.exec_read64_us",
        exec(&read64, "sinfonia.exec_read64_us")? / 1e3,
        "us",
    ));
    out.push((
        "sinfonia.exec_cmpwrite4k_us",
        exec(&cmpwrite, "sinfonia.exec_cmpwrite4k_us")? / 1e3,
        "us",
    ));
    out.push((
        "sinfonia.exec_2pc_us",
        exec(&two_pc, "sinfonia.exec_2pc_us")? / 1e3,
        "us",
    ));

    // sinfonia: the codec on the frame of a fused put.
    let req = Request::ExecSingle {
        txid: 1,
        policy: LockPolicy::AbortOnBusy,
        shard: WireShard {
            compares: vec![(0, scratch, Bytes::from(vec![0u8; 8]))],
            reads: Vec::new(),
            writes: vec![(1, scratch + 64, Bytes::from(vec![0x33; 4096]))],
        },
    };
    let frame = req.encode();
    out.push((
        "sinfonia.frame_encode4k_ns",
        probe(|| Ok(Some(clock(1, || req.encode()))))?,
        "ns",
    ));
    let decode = probe(|| {
        let t0 = Instant::now();
        let decoded = wire::decode_frame(&frame).and_then(|(payload, _)| Request::decode(&payload));
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(decoded).map_err(|e| unavailable("sinfonia.frame_decode4k_ns", e))?;
        Ok(Some(ns))
    })?;
    out.push(("sinfonia.frame_decode4k_ns", decode, "ns"));

    // sinfonia: a standalone log in the same directory as the daemons'.
    let wal = Wal::open(cluster.wal_dir.join("probe.wal"), SyncMode::Sync)
        .map_err(|e| unavailable("sinfonia.wal_append3k_us", e))?;
    let writes = [(0u64, Bytes::from(vec![0x44; 3072]))];
    let mut appends = Vec::new();
    let fsync = probe(|| {
        let t0 = Instant::now();
        let end = wal
            .lock()
            .append(&Record::Apply {
                txid: 1,
                writes: &writes,
            })
            .map_err(|e| unavailable("sinfonia.wal_append3k_us", e))?;
        let t1 = Instant::now();
        wal.wait_durable(end)
            .map_err(|e| unavailable("sinfonia.wal_fsync_us", e))?;
        appends.push((t1 - t0).as_nanos() as f64);
        Ok(Some(t1.elapsed().as_nanos() as f64))
    })?;
    out.push((
        "sinfonia.wal_append3k_us",
        crate::stats::median(&mut appends) / 1e3,
        "us",
    ));
    out.push(("sinfonia.wal_fsync_us", fsync / 1e3, "us"));
    drop(wal);

    // core: one GC sweep. After `htap_scan` the watermark moves to the
    // latest snapshot first, so the copies of older ones are garbage.
    if let Some(sid) = client.latest_snapshot() {
        client
            .proxy
            .set_watermark(0, sid)
            .map_err(|e| unavailable("core.gc.sweep_s", e))?;
    }
    let t0 = Instant::now();
    let sweep = client
        .proxy
        .gc_sweep(0)
        .map_err(|e| unavailable("core.gc.sweep_s", e))?;
    out.push(("core.gc.sweep_s", t0.elapsed().as_secs_f64(), "s"));
    out.push(("core.gc.slots_scanned", sweep.scanned as f64, "count"));
    out.push(("core.gc.slots_freed", sweep.freed as f64, "count"));

    // memnoded: the checkpoint admin RPC, the only way a wire-mode
    // daemon checkpoints today.
    let t0 = Instant::now();
    for id in sin.memnode_ids() {
        sin.node(id)
            .checkpoint()
            .map_err(|e| unavailable("memnoded.checkpoint_s", e))?;
    }
    out.push(("memnoded.checkpoint_s", t0.elapsed().as_secs_f64(), "s"));
    Ok(())
}
