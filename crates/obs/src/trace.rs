//! Request spans: per-operation traces with near-zero cost when off.
//!
//! ## Model
//!
//! A *trace* covers one tree operation. The [`ObsPlane`]'s head-based
//! sampler decides at the start of a top-level operation whether it is
//! traced ([`ObsPlane::op`]); if so, the operation's context
//! ([`crate::ctx`]) holds an open trace and every [`span`] guard dropped
//! on that thread until the op ends records a [`SpanRecord`] (kind,
//! optional RPC tag, depth in the span tree, start offset and duration in
//! nanoseconds). The finished [`Trace`] lands in a bounded drop-oldest
//! buffer on the plane; traces whose total exceeds the configured slow-op
//! threshold additionally land in a separate slow-op buffer (and are
//! rendered to stderr when `MINUET_OBS_LOG_SLOW=1`).
//!
//! ## Propagation
//!
//! Within a process the trace is ambient: the proxy, the dynamic
//! transaction layer, and the in-process memnode all run on the operating
//! thread, so their spans stitch automatically. Across the wire the client
//! reads [`current_ctx`] and wraps the request in a `Traced` envelope; the
//! server runs the request in a fresh context with [`with_server_trace`]
//! and returns its spans in the reply, which the client grafts back into
//! the ambient trace with [`absorb_spans`]. Server span start offsets are
//! relative to the server's own trace start (clocks are not synchronized);
//! durations are directly comparable.
//!
//! ## Sampling invariant
//!
//! An unsampled operation enters and leaves its context scope and
//! allocates nothing; each would-be span costs one thread-local read of
//! the context. Benchmarks hold the hot path to within noise of the
//! pre-tracing build (see BENCHMARKS.md).

use crate::ctx::{with_ctx, OpScope};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on spans per trace: a retry storm cannot grow a trace without
/// bound. Further spans are dropped (the trace notes how many).
pub const MAX_TRACE_SPANS: usize = 512;

/// What a span measures. Client-side kinds cover the proxy/dyntx/transport
/// stack; `Srv*` kinds are recorded on the memnode (in-process or behind
/// the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A whole tree operation (the trace root; implicit in
    /// [`Trace::total_ns`]).
    Op = 1,
    /// Proxy route resolution: tip/catalog lookup plus cached traversal.
    Route = 2,
    /// A dyntx object fetch (one minitransaction round trip).
    Fetch = 3,
    /// Commit-time validation + apply (the commit minitransaction).
    Commit = 4,
    /// An optimistic retry boundary (zero-duration event; `tag` is the
    /// retry cause).
    Retry = 5,
    /// Client-side retry backoff sleep.
    Backoff = 6,
    /// One wire request/response exchange, socket write to decoded reply
    /// (`tag` is the request tag).
    Rtt = 7,
    /// Wire frame encode/decode on the client.
    Framing = 8,
    /// Server-side request decode.
    SrvDecode = 9,
    /// Server-side lock acquisition (queueing + grant).
    SrvLockWait = 10,
    /// Server-side minitransaction execution (compare/read/write apply).
    SrvExec = 11,
    /// Server-side WAL record append.
    SrvWalAppend = 12,
    /// Server-side WAL durability wait (fsync or group-commit wait).
    SrvFsync = 13,
    /// Server-side response encode.
    SrvEncode = 14,
    /// Client-side tree descent: the walk from root to leaf, cache hits
    /// and misses alike (object fetches nest inside).
    Traverse = 15,
    /// Client-side mutation compute: cloning the leaf, applying the
    /// update, and staging the resulting node images (encode + CoW/split
    /// bookkeeping).
    Apply = 16,
    /// Client-side wait for an epoch-batched commit: from enrollment in
    /// the epoch to the group decision landing (the amortized-validation
    /// window).
    EpochWait = 17,
    /// Server-side incorporation of a replicated log-stream chunk.
    ReplApply = 18,
}

impl SpanKind {
    /// Decodes a kind byte.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            1 => SpanKind::Op,
            2 => SpanKind::Route,
            3 => SpanKind::Fetch,
            4 => SpanKind::Commit,
            5 => SpanKind::Retry,
            6 => SpanKind::Backoff,
            7 => SpanKind::Rtt,
            8 => SpanKind::Framing,
            9 => SpanKind::SrvDecode,
            10 => SpanKind::SrvLockWait,
            11 => SpanKind::SrvExec,
            12 => SpanKind::SrvWalAppend,
            13 => SpanKind::SrvFsync,
            14 => SpanKind::SrvEncode,
            15 => SpanKind::Traverse,
            16 => SpanKind::Apply,
            17 => SpanKind::EpochWait,
            18 => SpanKind::ReplApply,
            _ => return None,
        })
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Route => "route",
            SpanKind::Fetch => "fetch",
            SpanKind::Commit => "commit",
            SpanKind::Retry => "retry",
            SpanKind::Backoff => "backoff",
            SpanKind::Rtt => "rtt",
            SpanKind::Framing => "framing",
            SpanKind::SrvDecode => "srv.decode",
            SpanKind::SrvLockWait => "srv.lock_wait",
            SpanKind::SrvExec => "srv.exec",
            SpanKind::SrvWalAppend => "srv.wal_append",
            SpanKind::SrvFsync => "srv.fsync",
            SpanKind::SrvEncode => "srv.encode",
            SpanKind::Traverse => "traverse",
            SpanKind::Apply => "apply",
            SpanKind::EpochWait => "epoch.wait",
            SpanKind::ReplApply => "srv.repl_apply",
        }
    }
}

/// One recorded span. 19 bytes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// [`SpanKind`] as a byte (kept raw so unknown kinds survive mixed
    /// versions in dumps).
    pub kind: u8,
    /// Kind-specific tag: the wire request tag for `Rtt`, the retry cause
    /// for `Retry`, zero otherwise.
    pub tag: u8,
    /// Depth in the span tree (children of the op root are depth 1).
    pub depth: u8,
    /// Start offset from the start of the trace (the client's, or the
    /// server's own), ns.
    pub start_ns: u64,
    /// Duration, ns (zero for events).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Appends the 19-byte wire form.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.kind);
        out.push(self.tag);
        out.push(self.depth);
        out.extend_from_slice(&self.start_ns.to_le_bytes());
        out.extend_from_slice(&self.dur_ns.to_le_bytes());
    }

    /// Decodes one record from `buf[pos..]`, advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<SpanRecord> {
        let [kind, tag, depth] = take(buf, pos)?;
        Some(SpanRecord {
            kind,
            tag,
            depth,
            start_ns: u64::from_le_bytes(take(buf, pos)?),
            dur_ns: u64::from_le_bytes(take(buf, pos)?),
        })
    }

    /// The kind, if known.
    pub fn kind(&self) -> Option<SpanKind> {
        SpanKind::from_u8(self.kind)
    }
}

/// A finished trace: one operation's span tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Sampler-assigned id (carried across the wire for stitching).
    pub trace_id: u64,
    /// Caller-defined root operation tag (tree-op or RPC kind).
    pub op_tag: u8,
    /// End-to-end duration of the operation, ns.
    pub total_ns: u64,
    /// Spans in completion order.
    pub spans: Vec<SpanRecord>,
    /// Spans dropped past [`MAX_TRACE_SPANS`].
    pub dropped: u32,
}

impl Trace {
    /// Serializes the trace.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.spans.len() * 19);
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.push(self.op_tag);
        out.extend_from_slice(&self.total_ns.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for s in &self.spans {
            s.encode_into(&mut out);
        }
        out
    }

    /// Decodes one trace from `buf[pos..]`, advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Trace> {
        let trace_id = u64::from_le_bytes(take(buf, pos)?);
        let [op_tag] = take(buf, pos)?;
        let total_ns = u64::from_le_bytes(take(buf, pos)?);
        let dropped = u32::from_le_bytes(take(buf, pos)?);
        let n = u32::from_le_bytes(take(buf, pos)?) as usize;
        if n > MAX_TRACE_SPANS {
            return None;
        }
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(SpanRecord::decode_from(buf, pos)?);
        }
        Some(Trace {
            trace_id,
            op_tag,
            total_ns,
            spans,
            dropped,
        })
    }

    /// Serializes a list of traces (the `TraceDump` wire payload).
    pub fn encode_many(traces: &[Trace]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(traces.len() as u32).to_le_bytes());
        for t in traces {
            out.extend_from_slice(&t.encode());
        }
        out
    }

    /// Decodes a list of traces; `None` on structural corruption.
    pub fn decode_many(buf: &[u8]) -> Option<Vec<Trace>> {
        let mut pos = 0usize;
        let n = u32::from_le_bytes(take(buf, &mut pos)?) as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(Trace::decode_from(buf, &mut pos)?);
        }
        (pos == buf.len()).then_some(out)
    }

    /// Renders the span tree as indented text (the slow-op log and the
    /// `minuet-stats` dashboard share this).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} op={} total {:.1}µs ({} spans{})",
            self.trace_id,
            self.op_tag,
            self.total_ns as f64 / 1e3,
            self.spans.len(),
            if self.dropped > 0 {
                format!(", {} dropped", self.dropped)
            } else {
                String::new()
            }
        );
        // Spans are stored in completion order; sort by start for reading.
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        for s in spans {
            let name = s.kind().map(SpanKind::name).unwrap_or("?");
            let _ = writeln!(
                out,
                "  {:indent$}{name}{} +{:.1}µs {:.1}µs",
                "",
                if s.tag != 0 {
                    format!("[{:#04x}]", s.tag)
                } else {
                    String::new()
                },
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                indent = (s.depth as usize).saturating_sub(1) * 2,
            );
        }
        out
    }

    /// Sums durations of all spans of `kind`.
    pub fn kind_total_ns(&self, kind: SpanKind) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind as u8)
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// A copy of the ambient trace identity, read by the wire client to build
/// the `Traced` envelope. No global state: the context is only reachable
/// from the thread executing the traced operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// The active trace's id.
    pub trace_id: u64,
    /// Position the next span will take (a per-trace span id).
    pub span_id: u32,
    /// Always true: only a sampled op has a trace to name.
    pub sampled: bool,
}

/// Reads the next `N` bytes of `buf` at `*pos`, advancing it; `None` when
/// fewer remain. The one bounds check of the decoders above.
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let bytes = buf.get(*pos..pos.checked_add(N)?)?.try_into().ok()?;
    *pos += N;
    Some(bytes)
}

/// An open trace: the buffer a sampled operation's spans record into,
/// held by the thread's operation context while the op runs.
pub(crate) struct ThreadTrace {
    trace_id: u64,
    start: Instant,
    depth: u8,
    spans: Vec<SpanRecord>,
    dropped: u32,
    /// A root op's plane and tag, where [`ThreadTrace::close`] records it
    /// (`None` for a server's dispatch, which ships its spans back).
    root: Option<(Arc<ObsPlane>, u8)>,
}

impl ThreadTrace {
    fn new(trace_id: u64, root: Option<(Arc<ObsPlane>, u8)>) -> ThreadTrace {
        ThreadTrace {
            trace_id,
            start: Instant::now(),
            depth: 0,
            spans: Vec::with_capacity(32),
            dropped: 0,
            root,
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Records `rec`, or counts it dropped past [`MAX_TRACE_SPANS`].
    fn push(&mut self, rec: SpanRecord) {
        if self.spans.len() < MAX_TRACE_SPANS {
            self.spans.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Ends the trace: a root op's is stored on its plane.
    pub(crate) fn close(self) {
        if let Some((plane, op_tag)) = &self.root {
            plane.record(Trace {
                trace_id: self.trace_id,
                op_tag: *op_tag,
                total_ns: self.now_ns(),
                spans: self.spans,
                dropped: self.dropped,
            });
        }
    }
}

/// Runs `f` on the thread's open trace, if there is one.
#[inline]
fn traced<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> Option<R> {
    with_ctx(|c| c.trace.as_mut().map(f))
}

/// The ambient trace identity, if this thread is tracing.
pub fn current_ctx() -> Option<TraceCtx> {
    traced(|tt| TraceCtx {
        trace_id: tt.trace_id,
        span_id: tt.spans.len() as u32,
        sampled: true,
    })
}

/// An RAII span. Inert (no allocation, no clock read) when the thread is
/// not tracing.
pub struct SpanGuard {
    armed: Option<SpanStart>,
}

struct SpanStart {
    kind: u8,
    tag: u8,
    depth: u8,
    start: Instant,
    start_ns: u64,
}

/// Opens a span of `kind`; the span closes (and records) when the guard
/// drops.
#[inline]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_tagged(kind, 0)
}

/// Opens a span with a kind-specific tag (e.g. the wire request tag).
#[inline]
pub fn span_tagged(kind: SpanKind, tag: u8) -> SpanGuard {
    let Some((depth, start_ns)) = traced(|tt| {
        tt.depth = tt.depth.saturating_add(1);
        (tt.depth, tt.now_ns())
    }) else {
        return SpanGuard { armed: None };
    };
    SpanGuard {
        armed: Some(SpanStart {
            kind: kind as u8,
            tag,
            depth,
            start: Instant::now(),
            start_ns,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.armed.take() {
            let dur_ns = s.start.elapsed().as_nanos() as u64;
            traced(|tt| {
                tt.depth = tt.depth.saturating_sub(1);
                tt.push(SpanRecord {
                    kind: s.kind,
                    tag: s.tag,
                    depth: s.depth,
                    start_ns: s.start_ns,
                    dur_ns,
                });
            });
        }
    }
}

/// Records a zero-duration event (e.g. a retry boundary with its cause in
/// `tag`).
#[inline]
pub fn event(kind: SpanKind, tag: u8) {
    note(kind, tag, 0);
}

/// Records a span whose duration was measured externally (e.g. a decode
/// that finished before the trace could be armed).
#[inline]
pub fn note(kind: SpanKind, tag: u8, dur_ns: u64) {
    traced(|tt| {
        let rec = SpanRecord {
            kind: kind as u8,
            tag,
            depth: tt.depth + 1,
            start_ns: tt.now_ns().saturating_sub(dur_ns),
            dur_ns,
        };
        tt.push(rec);
    });
}

/// Grafts spans returned by a remote server into the ambient trace,
/// nesting them one level below the current depth. Start offsets are kept
/// server-relative (durations are the comparable quantity).
pub fn absorb_spans(spans: &[SpanRecord]) {
    traced(|tt| {
        let base = tt.depth + 1;
        for s in spans {
            tt.push(SpanRecord {
                depth: base.saturating_add(s.depth),
                ..*s
            });
        }
    });
}

/// Runs `f` for a traced request on a server connection thread, in a
/// fresh operation context holding trace `trace_id`, and returns `f`'s
/// result together with the spans recorded during it. The thread's
/// context is restored even if `f` unwinds.
pub fn with_server_trace<R>(trace_id: u64, f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let _fresh = OpScope::enter(|c| {
        c.in_op = true;
        c.deadline = None;
        Some(ThreadTrace::new(trace_id, None))
    });
    let r = f();
    let spans = with_ctx(|c| c.trace.take()).map_or_else(Vec::new, |tt| tt.spans);
    (r, spans)
}

// ---------------------------------------------------------------------------
// The plane: sampler + bounded trace buffers + registry.
// ---------------------------------------------------------------------------

/// Observability configuration, carried by `ClusterConfig::obs` (client
/// side) and the daemon options (server side).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Head-based sampling rate: trace every Nth operation (`0` = off,
    /// the default; `1` = every op).
    pub sample_every: u64,
    /// Sampled operations slower than this land in the slow-op buffer
    /// (`0` = disabled).
    pub slow_op_ns: u64,
    /// Capacity of the trace and slow-op buffers (drop-oldest).
    pub trace_buffer: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sample_every: 0,
            slow_op_ns: 0,
            trace_buffer: 256,
        }
    }
}

impl ObsConfig {
    /// Tracing every `every`-th operation.
    pub fn sampled(every: u64) -> Self {
        ObsConfig {
            sample_every: every,
            ..Default::default()
        }
    }
}

/// The per-process observability plane: the metric [`crate::Registry`],
/// the head-based trace sampler, and the bounded trace / slow-op buffers.
pub struct ObsPlane {
    /// All registered metrics of this process/cluster.
    pub registry: crate::Registry,
    sample_every: AtomicU64,
    slow_op_ns: AtomicU64,
    cap: usize,
    next_op: AtomicU64,
    next_trace: AtomicU64,
    traces: Mutex<VecDeque<Trace>>,
    slow: Mutex<VecDeque<Trace>>,
}

impl ObsPlane {
    /// A plane with the given config.
    pub fn new(cfg: &ObsConfig) -> Arc<ObsPlane> {
        Arc::new(ObsPlane {
            registry: crate::Registry::new(),
            sample_every: AtomicU64::new(cfg.sample_every),
            slow_op_ns: AtomicU64::new(cfg.slow_op_ns),
            cap: cfg.trace_buffer.max(1),
            next_op: AtomicU64::new(0),
            next_trace: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
        })
    }

    /// A plane with sampling off (the registry still works).
    pub fn disabled() -> Arc<ObsPlane> {
        Self::new(&ObsConfig::default())
    }

    /// Current sampling rate (`0` = off).
    pub fn sampling(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Changes the sampling rate at runtime.
    pub fn set_sampling(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// Changes the slow-op threshold at runtime.
    pub fn set_slow_op_ns(&self, ns: u64) {
        self.slow_op_ns.store(ns, Ordering::Relaxed);
    }

    /// Operation boundary: enters the op's context scope. A top-level op
    /// advances the head-based sampler, and a sampled one is traced until
    /// the scope drops, which stores the finished trace here. A nested op
    /// (e.g. a batch's per-key fallback) joins its enclosing op, sampled
    /// or not.
    pub fn op(self: &Arc<Self>, op_tag: u8) -> OpScope {
        OpScope::enter(|c| {
            if c.in_op {
                return None;
            }
            c.in_op = true;
            let every = self.sample_every.load(Ordering::Relaxed);
            let sampled = |n: u64| n.is_multiple_of(every);
            if every == 0 || !sampled(self.next_op.fetch_add(1, Ordering::Relaxed)) {
                return None;
            }
            let trace_id = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
            Some(ThreadTrace::new(trace_id, Some((self.clone(), op_tag))))
        })
    }

    /// Stores a finished trace (bounded, drop-oldest), mirroring it to the
    /// slow-op buffer when it exceeds the threshold.
    pub fn record(&self, trace: Trace) {
        let slow_at = self.slow_op_ns.load(Ordering::Relaxed);
        if slow_at > 0 && trace.total_ns >= slow_at {
            if std::env::var_os("MINUET_OBS_LOG_SLOW").is_some_and(|v| v == "1") {
                eprintln!("[obs] slow op:\n{}", trace.render());
            }
            let mut s = self.slow.lock();
            if s.len() == self.cap {
                s.pop_front();
            }
            s.push_back(trace.clone());
        }
        let mut t = self.traces.lock();
        if t.len() == self.cap {
            t.pop_front();
        }
        t.push_back(trace);
    }

    /// The most recent `max` traces, newest last.
    pub fn recent(&self, max: usize) -> Vec<Trace> {
        let t = self.traces.lock();
        t.iter().rev().take(max).rev().cloned().collect()
    }

    /// The most recent `max` slow ops, newest last.
    pub fn slow(&self, max: usize) -> Vec<Trace> {
        let s = self.slow.lock();
        s.iter().rev().take(max).rev().cloned().collect()
    }

    /// Number of buffered traces (bounded by the configured capacity).
    pub fn trace_count(&self) -> usize {
        self.traces.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tracing_active;

    #[test]
    fn spans_are_inert_when_off() {
        assert!(!tracing_active());
        let g = span(SpanKind::Fetch);
        assert!(g.armed.is_none());
        drop(g);
        assert!(current_ctx().is_none());
        event(SpanKind::Retry, 1); // no-op, must not panic
    }

    #[test]
    fn sampled_op_collects_span_tree() {
        let plane = ObsPlane::new(&ObsConfig::sampled(1));
        {
            let _op = plane.op(7);
            assert!(tracing_active());
            let ctx = current_ctx().unwrap();
            assert!(ctx.sampled);
            {
                let _route = span(SpanKind::Route);
                let _fetch = span_tagged(SpanKind::Rtt, 0x02);
            }
            event(SpanKind::Retry, 3);
        }
        assert!(!tracing_active());
        let traces = plane.recent(10);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.op_tag, 7);
        assert_eq!(t.spans.len(), 3);
        // Inner Rtt span closed first and is one level deeper.
        assert_eq!(t.spans[0].kind, SpanKind::Rtt as u8);
        assert_eq!(t.spans[0].tag, 0x02);
        assert_eq!(t.spans[0].depth, 2);
        assert_eq!(t.spans[1].kind, SpanKind::Route as u8);
        assert_eq!(t.spans[1].depth, 1);
        assert_eq!(t.spans[2].dur_ns, 0);
    }

    #[test]
    fn sampler_rate_and_nesting() {
        let plane = ObsPlane::new(&ObsConfig::sampled(3));
        let mut sampled = 0;
        for _ in 0..9 {
            let op = plane.op(1);
            if tracing_active() {
                // A nested op on the same thread joins the outer trace.
                drop(plane.op(2));
                assert!(tracing_active());
                sampled += 1;
            }
            drop(op);
        }
        assert_eq!(sampled, 3);
        let tags = |p: &ObsPlane| p.recent(16).iter().map(|t| t.op_tag).collect::<Vec<_>>();
        assert_eq!(tags(&plane), [1, 1, 1]);
        // Under an *unsampled* outer op too: a nested op neither advances
        // the sampler nor becomes a root of its own.
        let plane = ObsPlane::new(&ObsConfig::sampled(2));
        for _ in 0..4 {
            let _outer = plane.op(1);
            let _nested = plane.op(2);
        }
        assert_eq!(tags(&plane), [1, 1]);
        plane.set_sampling(0);
        let _off = plane.op(1);
        assert!(!tracing_active());
    }

    #[test]
    fn buffers_are_bounded() {
        let plane = ObsPlane::new(&ObsConfig {
            sample_every: 1,
            slow_op_ns: 1, // everything is "slow"
            trace_buffer: 4,
        });
        for _ in 0..20 {
            let _op = plane.op(1);
        }
        assert_eq!(plane.trace_count(), 4);
        assert_eq!(plane.slow(100).len(), 4);
    }

    #[test]
    fn span_cap_drops_excess() {
        let plane = ObsPlane::new(&ObsConfig::sampled(1));
        {
            let _op = plane.op(1);
            for _ in 0..(MAX_TRACE_SPANS + 10) {
                event(SpanKind::Retry, 0);
            }
        }
        let t = &plane.recent(1)[0];
        assert_eq!(t.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(t.dropped, 10);
    }

    #[test]
    fn server_trace_collects_and_disarms() {
        let ((), spans) = with_server_trace(42, || {
            let _e = span(SpanKind::SrvExec);
        });
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::SrvExec as u8);
        assert!(!tracing_active());
        // Panic safety: the thread must be disarmed after an unwind.
        let r = std::panic::catch_unwind(|| {
            with_server_trace(43, || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!tracing_active());
    }

    #[test]
    fn absorbed_spans_nest_below_current_depth() {
        let plane = ObsPlane::new(&ObsConfig::sampled(1));
        {
            let _op = plane.op(1);
            let _rtt = span(SpanKind::Rtt);
            absorb_spans(&[SpanRecord {
                kind: SpanKind::SrvExec as u8,
                tag: 0,
                depth: 1,
                start_ns: 5,
                dur_ns: 9,
            }]);
        }
        let t = &plane.recent(1)[0];
        let srv = t
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::SrvExec as u8)
            .unwrap();
        // Rtt guard is depth 1 and open, so absorbed spans start at 2.
        assert_eq!(srv.depth, 3);
        assert_eq!(srv.dur_ns, 9);
    }

    #[test]
    fn trace_roundtrips_and_renders() {
        let t = Trace {
            trace_id: 9,
            op_tag: 2,
            total_ns: 123_456,
            spans: vec![
                SpanRecord {
                    kind: SpanKind::Fetch as u8,
                    tag: 0,
                    depth: 1,
                    start_ns: 10,
                    dur_ns: 100,
                },
                SpanRecord {
                    kind: SpanKind::Rtt as u8,
                    tag: 0x02,
                    depth: 2,
                    start_ns: 20,
                    dur_ns: 80,
                },
            ],
            dropped: 0,
        };
        let buf = Trace::encode_many(&[t.clone(), t.clone()]);
        let back = Trace::decode_many(&buf).expect("decodes");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], t);
        assert!(Trace::decode_many(&buf[..buf.len() - 1]).is_none());
        let txt = t.render();
        assert!(txt.contains("fetch"), "{txt}");
        assert!(txt.contains("rtt[0x02]"), "{txt}");
        assert_eq!(t.kind_total_ns(SpanKind::Rtt), 80);
    }
}
