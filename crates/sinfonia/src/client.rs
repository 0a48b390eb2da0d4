//! The one memnode handle: a connection-pooled client over frames.
//!
//! [`RemoteNode`] is the only way a coordinator reaches a memnode — a
//! [`crate::server::MemNodeServer`], a `memnoded` process, or a memnode in
//! this process ([`RemoteNode::in_process`], whose connections run the
//! server's step on the caller's thread): one request frame of the wire
//! protocol ([`crate::wire`]) out, one reply frame back, over a small pool
//! of blocking connections with per-request timeouts. Its byte counts are
//! those frames'. The cluster stores `Arc<RemoteNode>`, so the stack above
//! runs the same code, statically dispatched, in either mode.
//!
//! Failure model: any transport failure — dial refused, request timeout,
//! torn frame — surfaces as [`Unavailable`], exactly like a crashed
//! memnode, so the execution layer's retry/recovery machinery
//! ([`crate::exec`], `unavailable_retry`) covers network faults without a
//! separate path. After a failure the client enters capped exponential
//! backoff: requests fail fast (no dial) until the backoff window passes,
//! so a dead server costs a bounded number of file descriptors and
//! syscalls, not one dial per retry. Fail-fast rejections do not re-arm
//! the window — only real dial/exchange failures do — so a server that
//! comes back is re-probed within one backoff period even under tight
//! retry loops.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::deadline::OpDeadline;
use crate::lock::TxId;
use crate::memnode::{MemNode, ReplStatus, SingleResult, Unavailable, Vote};
use crate::minitx::LockPolicy;
use crate::recovery::NodeMeta;
use crate::server::{write_frame, LocalConn};
use crate::transport::Transport;
use crate::wal::WalSegment;
use crate::wire::{
    encode_traced_request, split_reply_flags, AdminOp, AdminReply, Endpoint, FrameReader,
    NodeFlags, Request, Response, Stream, WireBatchItem, WireShard, PROTO_VERSION,
};
use minuet_faults as faults;
use minuet_obs::{
    absorb_spans, current_ctx, span, span_tagged, HistHandle, ObsSnapshot, SpanKind, Trace,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the wire transport client.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Per-request read/write timeout; an expired request counts as a
    /// node failure ([`Unavailable`]).
    pub request_timeout: Duration,
    /// Dial timeout for new connections.
    pub connect_timeout: Duration,
    /// Idle connections kept per memnode; extra connections are closed
    /// when returned.
    pub max_idle_conns: usize,
    /// First reconnect backoff delay after a failure.
    pub backoff_base: Duration,
    /// Backoff ceiling: consecutive failures double the delay up to this.
    pub backoff_cap: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            request_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(1),
            max_idle_conns: 4,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

/// Reconnect state: consecutive failures and the fail-fast window.
#[derive(Default)]
struct Backoff {
    failures: u32,
    until: Option<Instant>,
}

/// Client-side cache of the server's [`NodeFlags`], refreshed by the
/// one-byte trailer every v3 reply frame carries and invalidated (epoch
/// bump) whenever the transport fails — so `is_joining`/`is_retiring`
/// checks on the commit hot path are memory reads, not round trips.
#[derive(Default)]
struct FlagsCache {
    /// Invalidation epoch; bumped on transport failure and by
    /// [`RemoteNode::invalidate_cached_flags`].
    epoch: u64,
    /// Epoch at which `flags` was last refreshed; the entry is *fresh*
    /// iff this equals `epoch`, and *stale-but-known* otherwise.
    filled_at: Option<u64>,
    flags: NodeFlags,
}

/// Per-RPC-type histogram handles, cached by request tag so the hot path
/// pays one `HashMap` lookup instead of a registry get-or-create.
#[derive(Clone)]
struct RpcHists {
    lat: HistHandle,
    bytes_out: HistHandle,
    bytes_in: HistHandle,
}

/// Where a handle's memnode is.
enum Peer {
    Socket(Endpoint),
    Local(Arc<MemNode>),
}

impl std::fmt::Display for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Peer::Socket(endpoint) => write!(f, "at {endpoint}"),
            Peer::Local(_) => f.write_str("in this process"),
        }
    }
}

/// A pooled connection: a socket with its inbound frame buffer, or an
/// in-process one, which is handed whole frames.
enum Conn {
    Socket(FrameReader<Stream>),
    Local(LocalConn),
}

impl Conn {
    /// Writes a request frame past the `wire.client.send` failpoint.
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let site = faults::Site::WireClientSend;
        match self {
            Conn::Socket(s) => write_frame(site, s.get_mut(), frame),
            Conn::Local(c) => write_frame(site, c, frame),
        }
    }

    fn read_frame(&mut self) -> io::Result<Bytes> {
        match self {
            Conn::Socket(s) => s.read_frame(),
            Conn::Local(c) => c.read_frame(),
        }
    }

    /// Best effort, as an in-process call has no timeouts to set.
    fn set_timeouts(&self, t: Duration) {
        if let Conn::Socket(s) = self {
            let _ = s.get_ref().set_timeouts(Some(t));
        }
    }
}

/// A memnode handle (see module docs). A call returns [`Unavailable`] when
/// the node is crashed **or unreachable**: to a client the two are one. The
/// data plane is one [`Request`] row per method; everything else is an
/// [`AdminOp`] through [`RemoteNode::admin`], under typed conveniences that
/// each say what they do when the node cannot be reached.
pub struct RemoteNode {
    id: MemNodeId,
    peer: Peer,
    cfg: WireConfig,
    transport: Arc<Transport>,
    idle: Mutex<Vec<Conn>>,
    backoff: Mutex<Backoff>,
    /// Server capacity, cached by every successful `Hello` (a cluster
    /// handshakes each node before use, so bounds checks never dial).
    capacity: AtomicU64,
    /// Per-RPC-type wire histograms (`wire.lat.*`, `wire.bytes_*`).
    hists: Mutex<HashMap<u8, RpcHists>>,
    /// Piggybacked node-flags cache (see [`FlagsCache`]).
    flags_cache: Mutex<FlagsCache>,
}

impl RemoteNode {
    /// Creates a handle. No connection is made until the first request
    /// (use [`RemoteNode::hello`] to validate eagerly).
    pub fn new(
        id: MemNodeId,
        endpoint: Endpoint,
        cfg: WireConfig,
        transport: Arc<Transport>,
    ) -> RemoteNode {
        Self::to(id, Peer::Socket(endpoint), cfg, transport)
    }

    /// A handle to `node`, a memnode in this process: a socket's frames,
    /// each answered by the server's step on the caller's thread.
    pub fn in_process(node: Arc<MemNode>, transport: Arc<Transport>) -> RemoteNode {
        Self::to(node.id, Peer::Local(node), WireConfig::default(), transport)
    }

    fn to(id: MemNodeId, peer: Peer, cfg: WireConfig, transport: Arc<Transport>) -> RemoteNode {
        RemoteNode {
            id,
            peer,
            cfg,
            transport,
            idle: Mutex::new(Vec::new()),
            backoff: Mutex::new(Backoff::default()),
            capacity: AtomicU64::new(0),
            hists: Mutex::new(HashMap::new()),
            flags_cache: Mutex::new(FlagsCache::default()),
        }
    }

    /// Performs the `Hello` handshake, validating protocol version and
    /// node id, and learning (and caching) the server's capacity.
    pub fn hello(&self) -> io::Result<u64> {
        match self.request(&Request::Hello {
            version: PROTO_VERSION,
        }) {
            Ok(Response::Hello {
                version,
                node,
                capacity,
            }) => {
                if version != PROTO_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "protocol version mismatch: server {version}, client {PROTO_VERSION}"
                        ),
                    ));
                }
                if node != self.id.0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "the memnode {} is memnode {node}, expected {}",
                            self.peer, self.id
                        ),
                    ));
                }
                self.capacity.store(capacity, Ordering::Relaxed);
                Ok(capacity)
            }
            Ok(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello response: {other:?}"),
            )),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("memnode {} {} unreachable", self.id, self.peer),
            )),
        }
    }

    /// Consecutive transport failures since the last success (test /
    /// observability hook).
    pub fn consecutive_failures(&self) -> u32 {
        self.backoff.lock().failures
    }

    /// The current reconnect delay implied by the failure count: doubles
    /// from `backoff_base`, capped at `backoff_cap`.
    pub fn backoff_delay(&self) -> Duration {
        let failures = self.backoff.lock().failures;
        Self::delay_for(&self.cfg, failures)
    }

    fn delay_for(cfg: &WireConfig, failures: u32) -> Duration {
        if failures == 0 {
            return Duration::ZERO;
        }
        let exp = (failures - 1).min(16);
        cfg.backoff_base
            .saturating_mul(1u32 << exp)
            .min(cfg.backoff_cap)
    }

    fn dial(&self) -> io::Result<Conn> {
        match &self.peer {
            Peer::Socket(endpoint) => {
                let s = endpoint.dial(self.cfg.connect_timeout)?;
                s.set_timeouts(Some(self.cfg.request_timeout))?;
                Ok(Conn::Socket(FrameReader::new(s)))
            }
            Peer::Local(node) => Ok(Conn::Local(LocalConn::new(node.clone()))),
        }
    }

    /// Bumps one of the `wire.breaker.*` transition counters in the
    /// transport's registry (all cold paths — the healthy hot path never
    /// touches these).
    fn breaker_count(&self, name: &str) {
        self.transport
            .obs
            .registry
            .counter(name)
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Pops an idle connection or dials. Fails fast (without dialing)
    /// while inside the backoff window.
    fn get_conn(&self) -> io::Result<(Conn, bool)> {
        if let Some(s) = self.idle.lock().pop() {
            return Ok((s, true));
        }
        let probing = {
            let b = self.backoff.lock();
            match b.until {
                Some(until) if Instant::now() < until => {
                    drop(b);
                    self.breaker_count("wire.breaker.fail_fast");
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "in reconnect backoff",
                    ));
                }
                // Window passed but not yet cleared by a success: this
                // dial is the half-open probe.
                Some(_) => true,
                None => false,
            }
        };
        if probing {
            self.breaker_count("wire.breaker.half_open");
        }
        Ok((self.dial()?, false))
    }

    fn put_conn(&self, s: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() < self.cfg.max_idle_conns {
            idle.push(s);
        }
        // Else: dropped, closing the socket.
    }

    fn note_success(&self) {
        let mut b = self.backoff.lock();
        if b.failures > 0 {
            self.breaker_count("wire.breaker.close");
        }
        b.failures = 0;
        b.until = None;
    }

    fn note_failure(&self) {
        let mut b = self.backoff.lock();
        if b.failures == 0 {
            self.breaker_count("wire.breaker.open");
        }
        b.failures = b.failures.saturating_add(1);
        b.until = Some(Instant::now() + Self::delay_for(&self.cfg, b.failures));
        // Stale pooled connections are useless after a failure (the server
        // likely died); drop them so recovery starts from fresh dials.
        self.idle.lock().clear();
        // The flag cache can no longer be trusted either: the server may
        // have restarted with different state. Keep the last value as a
        // stale fallback but force the next flag check to re-probe.
        self.invalidate_cached_flags();
    }

    /// Records a piggybacked flag byte, marking the cache fresh for the
    /// current epoch.
    fn observe_flags(&self, f: NodeFlags) {
        let mut c = self.flags_cache.lock();
        c.flags = f;
        c.filled_at = Some(c.epoch);
    }

    /// Fresh cached flags (refreshed this epoch), if any.
    fn fresh_flags(&self) -> Option<NodeFlags> {
        let c = self.flags_cache.lock();
        (c.filled_at == Some(c.epoch)).then_some(c.flags)
    }

    /// Last known flags, fresh or stale — the conservative fallback when
    /// the node is unreachable.
    fn last_known_flags(&self) -> Option<NodeFlags> {
        let c = self.flags_cache.lock();
        c.filled_at.map(|_| c.flags)
    }

    /// Looks up (or creates and caches) the per-RPC-type histograms for
    /// this request's kind in the transport's registry.
    fn rpc_hists(&self, req: &Request) -> RpcHists {
        let tag = req.tag_byte();
        let mut cache = self.hists.lock();
        cache
            .entry(tag)
            .or_insert_with(|| {
                let name = req.kind_name();
                let r = &self.transport.obs.registry;
                RpcHists {
                    lat: r.histogram(&format!("wire.lat.{name}")),
                    bytes_out: r.histogram(&format!("wire.bytes_out.{name}")),
                    bytes_in: r.histogram(&format!("wire.bytes_in.{name}")),
                }
            })
            .clone()
    }

    /// Writes `frame`, reads the reply frame, decodes it. Returns the
    /// response and the inbound frame size (header included).
    fn exchange(&self, conn: &mut Conn, frame: &[u8], req_tag: u8) -> io::Result<(Response, u64)> {
        let payload = {
            let _rtt = span_tagged(SpanKind::Rtt, req_tag);
            conn.send(frame)?;
            if let Some(a) = faults::check_delay(faults::Site::WireClientRecv) {
                match a {
                    faults::Action::Panic => panic!("injected panic at wire.client.recv"),
                    a => return Err(faults::io_error(faults::Site::WireClientRecv, a)),
                }
            }
            conn.read_frame()?
        };
        let bytes_in = (payload.len() + crate::wire::FRAME_HDR) as u64;
        self.transport
            .record_wire_bytes(frame.len() as u64, bytes_in);
        let resp = {
            let _f = span(SpanKind::Framing);
            // Every v3 reply ends with a piggybacked node-flags byte:
            // strip it, refresh the flag cache, decode the rest.
            let (body, flags) = split_reply_flags(&payload)?;
            self.observe_flags(flags);
            Response::decode(&body)?
        };
        Ok((resp, bytes_in))
    }

    /// One request/response exchange. A failure on a *pooled* connection
    /// is retried once on a fresh dial (the pool may hold sockets from
    /// before a server restart); failures on fresh connections surface
    /// immediately.
    ///
    /// When the calling thread is inside a sampled trace, the request is
    /// wrapped in a [`Request::Traced`] envelope and the server-side spans
    /// carried by the [`Response::TracedReply`] are absorbed into the
    /// client's span tree.
    fn request(&self, req: &Request) -> Result<Response, Unavailable> {
        let t0 = Instant::now();
        // An ambient op deadline caps the per-request socket timeout and
        // fails fast once expired — without counting against the breaker
        // (the server did nothing wrong).
        let op = OpDeadline::current();
        if op.expired() {
            return Err(Unavailable(self.id));
        }
        let traced = current_ctx();
        let frame = {
            let _f = span(SpanKind::Framing);
            match &traced {
                Some(ctx) => encode_traced_request(ctx.trace_id, req),
                None => req.encode(),
            }
        };
        let req_tag = req.tag_byte();
        let mut retried = false;
        loop {
            let (mut conn, pooled) = match self.get_conn() {
                Ok(c) => c,
                Err(e) => {
                    // A fail-fast rejection inside the backoff window must
                    // NOT re-arm the window: callers that retry tightly
                    // (the coordinator's unavailable loop) would otherwise
                    // keep the breaker open forever and never re-probe a
                    // server that came back. Only real dial failures count.
                    if e.kind() != io::ErrorKind::WouldBlock {
                        self.note_failure();
                    }
                    return Err(Unavailable(self.id));
                }
            };
            let capped = op.instant().is_some();
            if capped {
                let t = op
                    .cap(self.cfg.request_timeout)
                    .max(Duration::from_millis(1));
                conn.set_timeouts(t);
            }
            match self.exchange(&mut conn, &frame, req_tag) {
                Ok((resp, bytes_in)) => {
                    if capped {
                        // Restore the default before pooling so later
                        // uncapped requests keep their full timeout.
                        conn.set_timeouts(self.cfg.request_timeout);
                    }
                    self.put_conn(conn);
                    self.note_success();
                    let h = self.rpc_hists(req);
                    h.lat.record(t0.elapsed().as_nanos() as u64);
                    h.bytes_out.record(frame.len() as u64);
                    h.bytes_in.record(bytes_in);
                    let resp = match resp {
                        Response::TracedReply { spans, inner } => {
                            absorb_spans(&spans);
                            *inner
                        }
                        other => other,
                    };
                    return Ok(resp);
                }
                // Drop the stale socket and retry, once, on a fresh one.
                Err(_) if pooled && !retried => retried = true,
                Err(_) => {
                    self.note_failure();
                    return Err(Unavailable(self.id));
                }
            }
        }
    }

    /// What a reply this call cannot use comes to: the server's own
    /// `Unavailable`, or — after being logged — unavailability as well, for
    /// a server-side error (bounds violation, I/O failure) and for a reply
    /// of the wrong kind.
    fn unusable(&self, resp: &Response) -> Unavailable {
        match resp {
            Response::Unavailable(id) => return Unavailable(MemNodeId(*id)),
            Response::Error(msg) => eprintln!("memnode {} RPC error: {msg}", self.id),
            other => eprintln!(
                "memnode {} sent a mismatched response: {}",
                self.id,
                other.kind_name()
            ),
        }
        Unavailable(self.id)
    }

    /// Current flags, cache-first: a value refreshed during the current
    /// epoch answers from memory (the hot path — every reply trailer
    /// refreshes it, so no RPC happens while the connection is healthy).
    /// A stale cache triggers one `Flags` RPC; if that fails, the last
    /// known (stale) value is returned, or `None` if the node has never
    /// been reached.
    fn flags(&self) -> Option<NodeFlags> {
        self.fresh_flags()
            .or_else(|| self.probe_flags())
            .or_else(|| self.last_known_flags())
    }

    /// One `Flags` RPC: the node's flags, or `None` when it did not answer.
    fn probe_flags(&self) -> Option<NodeFlags> {
        match self.request(&Request::Flags) {
            Ok(Response::Flags(f)) => Some(f),
            _ => None,
        }
    }
}

/// One exchange whose reply must be the given [`Response`] variant.
macro_rules! call {
    ($node:ident, $req:expr, $reply:pat $(if $guard:expr)? => $out:expr) => {
        match $node.request(&$req) {
            Ok($reply) $(if $guard)? => Ok($out),
            Ok(other) => Err($node.unusable(&other)),
            Err(u) => Err(u),
        }
    };
}

impl RemoteNode {
    /// This node's id.
    pub fn id(&self) -> MemNodeId {
        self.id
    }

    /// Address-space capacity in bytes.
    pub fn capacity(&self) -> u64 {
        match self.capacity.load(Ordering::Relaxed) {
            0 => self.hello().unwrap_or(0),
            cap => cap,
        }
    }

    /// One-phase (collapsed) minitransaction execution.
    pub fn exec_single(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
    ) -> Result<SingleResult, Unavailable> {
        let req = Request::ExecSingle {
            txid,
            policy,
            shard: shard.clone(),
        };
        call!(self, req, Response::Single(s) => s)
    }

    /// Executes a batch of independent minitransactions destined for this
    /// node in one round trip, returning per-member results in order. The
    /// members travel, as they are, in one frame — which is why they
    /// arrive owned.
    pub fn exec_batch(&self, items: Vec<WireBatchItem>) -> Vec<Result<SingleResult, Unavailable>> {
        let n = items.len();
        let req = Request::ExecBatch { items };
        let members = call!(self, req, Response::Batch(m) if m.len() == n => m);
        match members {
            Ok(members) => members
                .into_iter()
                .map(|m| m.map_err(|id| Unavailable(MemNodeId(id))))
                .collect(),
            Err(u) => vec![Err(u); n],
        }
    }

    /// Two-phase prepare: lock, compare, stage. `participants` is the full
    /// participant set, logged for in-doubt resolution.
    pub fn prepare(
        &self,
        txid: TxId,
        shard: &WireShard,
        policy: LockPolicy,
        participants: &[MemNodeId],
    ) -> Result<Vote, Unavailable> {
        let req = Request::Prepare {
            txid,
            policy,
            participants: participants.iter().map(|m| m.0).collect(),
            shard: shard.clone(),
        };
        call!(self, req, Response::Vote(v) => v)
    }

    /// Two-phase commit decision (idempotent for unknown ids).
    pub fn commit(&self, txid: TxId) -> Result<(), Unavailable> {
        call!(self, Request::Commit { txid }, Response::Unit => ())
    }

    /// Two-phase abort decision (idempotent for unknown ids).
    pub fn abort(&self, txid: TxId) -> Result<(), Unavailable> {
        call!(self, Request::Abort { txid }, Response::Unit => ())
    }

    /// Unsynchronized raw read (bootstrap / GC scans).
    pub fn raw_read(&self, off: u64, len: u32) -> Result<Bytes, Unavailable> {
        call!(self, Request::RawRead { off, len }, Response::Data(b) => b)
    }

    /// Raw bootstrap write.
    pub fn raw_write(&self, off: u64, data: Bytes) -> Result<(), Unavailable> {
        call!(self, Request::RawWrite { off, data }, Response::Unit => ())
    }

    /// Reads up to `max` raw framed redo-log bytes from logical offset
    /// `from`, for replication shipping.
    pub fn wal_fetch(&self, from: u64, max: u32) -> Result<WalSegment, Unavailable> {
        call!(
            self,
            Request::ReplFetch { from, max },
            Response::Frames { from, base, tail, bytes } => WalSegment { from, base, tail, bytes }
        )
    }

    /// Incorporates a chunk of a primary's log stream starting at source
    /// offset `from` (see [`MemNode::repl_apply`]); returns the follower's
    /// status after the chunk.
    pub fn repl_apply(&self, from: u64, frames: Bytes) -> Result<ReplStatus, Unavailable> {
        call!(self, Request::ReplApply { from, frames }, Response::ReplStatus(s) => s)
    }

    /// This node's replication status (watermark / applied txid / tail).
    pub fn repl_status(&self) -> Result<ReplStatus, Unavailable> {
        call!(self, Request::ReplStatus, Response::ReplStatus(s) => s)
    }

    /// True if the node is currently crashed (or unreachable).
    pub fn is_crashed(&self) -> bool {
        // An unreachable node is indistinguishable from a crashed one.
        // Unlike joining/retiring, a stale `crashed: false` must never be
        // trusted here — callers probe this exact question ("can I reach
        // it right now?").
        self.fresh_flags()
            .or_else(|| self.probe_flags())
            .is_none_or(|f| f.crashed)
    }

    /// True while the node's elastic join is in progress.
    pub fn is_joining(&self) -> bool {
        // `flags()` already falls back to the last cached value when the
        // node is unreachable, so a network blip cannot flip a joining
        // node to "seeded" and let a commit bind replicated compares to
        // its half-seeded replicas. A node never reached at all is
        // treated as joining: nothing vouches that it is seeded.
        self.flags().is_none_or(|f| f.joining)
    }

    /// True while the node is draining for decommissioning.
    pub fn is_retiring(&self) -> bool {
        self.flags().is_none_or(|f| f.retiring)
    }

    /// Performs one admin operation at the node. The single entry point
    /// for everything off the data plane, and fallible like the rest of
    /// it: an unreachable node answers [`Unavailable`], never a default.
    /// A failure of the operation itself, at a node that was reached,
    /// comes back as `Ok(`[`AdminReply::Error`]`)`.
    pub fn admin(&self, op: AdminOp) -> Result<AdminReply, Unavailable> {
        let resp = self.request(&Request::Admin(op))?;
        resp.into_admin().map_err(|other| self.unusable(&other))
    }

    /// Drops the client-side cache of this node's crashed/joining/retiring
    /// flags, forcing the next check to re-learn them (membership-gate
    /// transitions call this).
    pub fn invalidate_cached_flags(&self) {
        let mut c = self.flags_cache.lock();
        c.epoch = c.epoch.wrapping_add(1);
    }

    /// The memnode behind this handle, when it is in this process.
    pub fn as_local(&self) -> Option<&MemNode> {
        match &self.peer {
            Peer::Local(node) => Some(node),
            Peer::Socket(_) => None,
        }
    }

    // -- Typed conveniences over `admin`. --

    /// Runs `op` and picks the expected reply out of the answer. A failure
    /// the node itself reports ([`AdminReply::Error`]) is logged and, like
    /// a reply of the wrong kind, surfaces as [`Unavailable`]: either way
    /// the caller did not get what it asked this node for.
    fn admin_as<T>(
        &self,
        op: AdminOp,
        pick: impl FnOnce(AdminReply) -> Option<T>,
    ) -> Result<T, Unavailable> {
        match self.admin(op)? {
            AdminReply::Error(msg) => {
                eprintln!("memnode {} admin error: {msg}", self.id);
                Err(Unavailable(self.id))
            }
            reply => pick(reply).ok_or(Unavailable(self.id)),
        }
    }

    /// Sets / clears the joining fence.
    pub fn set_joining(&self, joining: bool) -> Result<(), Unavailable> {
        self.admin_as(AdminOp::SetJoining(joining), ack)
    }

    /// Sets / clears the retiring fence.
    pub fn set_retiring(&self, retiring: bool) -> Result<(), Unavailable> {
        self.admin_as(AdminOp::SetRetiring(retiring), ack)
    }

    /// Injects a crash (volatile state dropped). Best-effort: a node that
    /// cannot be reached is as crashed as this can make it.
    pub fn crash(&self) {
        let _ = self.admin(AdminOp::Crash);
    }

    /// Recovers by replaying the node's image and log. Best-effort: if the
    /// request does not arrive, or the log cannot be replayed, the node
    /// stays crashed, which every later call reports.
    pub fn recover(&self) {
        let _ = self.admin(AdminOp::Recover);
    }

    /// Takes a checkpoint; `Ok(false)` when skipped. `Unavailable` and a
    /// checkpoint that failed at the node are both errors, the latter
    /// with the node's message.
    pub fn checkpoint(&self) -> io::Result<bool> {
        match self.admin(AdminOp::Checkpoint) {
            Ok(AdminReply::Bool(took)) => Ok(took),
            Ok(AdminReply::Error(msg)) => Err(io::Error::other(msg)),
            Ok(other) => Err(io::Error::other(format!(
                "memnode {} answered a checkpoint with {}",
                self.id,
                other.kind_name()
            ))),
            Err(u) => Err(io::Error::new(io::ErrorKind::ConnectionAborted, u)),
        }
    }

    /// Number of currently prepared (in-doubt) transactions: the
    /// `memnode.in_doubt` series of the node's snapshot.
    pub fn in_doubt(&self) -> Result<usize, Unavailable> {
        let n = self.obs_snapshot()?.counter("memnode.in_doubt");
        n.map(|n| n as usize).ok_or(Unavailable(self.id))
    }

    /// Recovery metadata for in-doubt resolution. Fallible on purpose: an
    /// unreachable participant has not "voted no", it has not answered.
    pub fn node_meta(&self) -> Result<NodeMeta, Unavailable> {
        self.admin_as(AdminOp::Meta, |r| match r {
            AdminReply::Meta(m) => Some(m),
            _ => None,
        })
    }

    /// Point-in-time snapshot of every series the node exports
    /// ([`MemNode::obs_snapshot`]: `memnode.*`, `wal.*`, `repl.*`). A node
    /// that cannot be reached, or a snapshot that does not decode, is an
    /// error, never an empty snapshot that would read as zeros.
    pub fn obs_snapshot(&self) -> Result<ObsSnapshot, Unavailable> {
        self.admin_as(AdminOp::ObsSnapshot, |r| match r {
            AdminReply::Obs(b) => ObsSnapshot::decode(&b),
            _ => None,
        })
    }

    /// Recent traces from the node's ring buffer (the slow-op buffer when
    /// `slow`), oldest first. Best-effort: empty when the node cannot be
    /// reached.
    pub fn trace_dump(&self, max: u32, slow: bool) -> Vec<Trace> {
        match self.admin(AdminOp::TraceDump { max, slow }) {
            Ok(AdminReply::Traces(b)) => Trace::decode_many(&b).unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Applies a fault-injection spec inside the node's process
    /// (`minuet_faults::apply_spec` grammar; `"clear"` disarms all).
    /// Returns the number of failpoints armed there afterwards; a spec the
    /// node rejects is an error.
    pub fn apply_faults(&self, spec: &str) -> Result<u32, Unavailable> {
        let spec = spec.to_string();
        self.admin_as(AdminOp::Faults { spec }, |r| match r {
            AdminReply::Faults { armed } => Some(armed),
            _ => None,
        })
    }

    /// Asks the process serving this node to exit cleanly (orchestration
    /// and the CI smoke test). An in-process node only acknowledges it.
    pub fn shutdown_server(&self) -> Result<(), Unavailable> {
        self.admin_as(AdminOp::Shutdown, ack)
    }
}

fn ack(reply: AdminReply) -> Option<()> {
    matches!(reply, AdminReply::Unit).then_some(())
}
