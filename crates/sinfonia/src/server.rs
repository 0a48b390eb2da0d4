//! `memnoded`: serve one in-process [`MemNode`] over the wire protocol.
//!
//! [`MemNodeServer`] owns a listening socket and a bounded
//! thread-per-connection pool. Each connection is a simple synchronous
//! request/response loop: read one frame, decode a [`Request`], dispatch
//! into the memnode, write one [`Response`] frame — the one per-frame
//! step, `serve_frame`, which a `LocalConn` to a memnode in the
//! client's own process runs on the caller's thread. There is no async
//! runtime — the protocol is std-only by design (see `crate::wire`).
//!
//! Robustness rules:
//! - a malformed frame (bad CRC, bad tag, trailing garbage) terminates
//!   *that connection* only; the server keeps serving others;
//! - out-of-bounds requests are answered with [`Response::Error`] before
//!   they reach the memnode, so a buggy or malicious client cannot panic
//!   the server;
//! - a panic inside dispatch is caught, counted
//!   (`memnode.handler_panics`) and answered with [`Response::Error`] —
//!   the daemon never dies from one request, and the bug is not lost.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::memnode::{MemNode, Unavailable};
use crate::wire::{
    encode_response_payload, open_frame, seal_reply, seal_traced_reply, AdminOp, AdminReply,
    Endpoint, FrameReader, Listener, NodeFlags, Request, Response, Stream, PROTO_VERSION,
};
use minuet_faults as faults;
use minuet_obs::{note, span, with_server_trace, SpanKind, Trace};
use parking_lot::{Condvar, Mutex};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Accept-loop and connection-pool tuning for [`MemNodeServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum concurrently served connections; the accept loop blocks
    /// (stops accepting) when the pool is full.
    pub max_connections: usize,
    /// Poll interval of the nonblocking accept loop (it must notice stop
    /// requests without a pending connection).
    pub accept_poll: Duration,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            accept_poll: Duration::from_millis(5),
        }
    }
}

/// Shared server state: stop flag, live-connection registry, pool gauge.
struct Shared {
    node: Arc<MemNode>,
    opts: ServerOptions,
    /// Set to stop accepting; in-flight connections finish their current
    /// request loop and exit on the next read error.
    stop: AtomicBool,
    /// Set by an [`AdminOp::Shutdown`]; [`MemNodeServer::wait`] returns.
    shutdown_requested: AtomicBool,
    /// Active connection count, guarding the bounded pool.
    active: Mutex<usize>,
    pool_cv: Condvar,
    /// Clones of every live connection's stream (keyed by a serial id so
    /// handlers can deregister themselves), letting [`MemNodeServer::kill`]
    /// sever them abruptly (simulating a process death).
    conns: Mutex<Vec<(u64, Stream)>>,
    next_conn_id: AtomicU64,
    wait_cv: Condvar,
}

/// A running memnode server (see module docs). Dropping it shuts the
/// server down gracefully and joins its threads.
pub struct MemNodeServer {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl MemNodeServer {
    /// Binds `endpoint` and starts serving `node`.
    pub fn spawn(
        node: Arc<MemNode>,
        endpoint: &Endpoint,
        opts: ServerOptions,
    ) -> io::Result<MemNodeServer> {
        let listener = endpoint.listen()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            node,
            opts,
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            active: Mutex::new(0),
            pool_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            next_conn_id: AtomicU64::new(0),
            wait_cv: Condvar::new(),
        });
        let accept_shared = shared.clone();
        let accept_thread = thread::Builder::new()
            .name(format!("memnoded-{}", accept_shared.node.id))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(MemNodeServer {
            shared,
            endpoint: endpoint.clone(),
            accept_thread: Some(accept_thread),
        })
    }

    /// The endpoint this server listens on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The served memnode.
    pub fn node(&self) -> &Arc<MemNode> {
        &self.shared.node
    }

    /// Abrupt termination: stop accepting and sever every live connection
    /// mid-stream. Combined with [`MemNode::crash`], this simulates the
    /// daemon process dying (clients observe connection resets, possibly
    /// mid-2PC).
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for (_, c) in self.shared.conns.lock().iter() {
            let _ = c.shutdown();
        }
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Requests the same clean shutdown a client `Shutdown` RPC triggers
    /// (the daemon's SIGTERM path): stop accepting, let in-flight requests
    /// finish, and wake [`MemNodeServer::wait`].
    pub fn request_shutdown(&self) {
        self.shared.shutdown_requested.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wait_cv.notify_all();
    }

    /// True once the server has stopped accepting connections (any of
    /// [`MemNodeServer::shutdown`], [`MemNodeServer::request_shutdown`],
    /// [`MemNodeServer::kill`], or a client `Shutdown` RPC).
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Blocks until a client sends [`AdminOp::Shutdown`] (the daemon
    /// main-thread parking spot).
    pub fn wait(&self) {
        let mut active = self.shared.active.lock();
        while !self.shared.shutdown_requested.load(Ordering::SeqCst) {
            self.shared.wait_cv.wait(&mut active);
        }
    }
}

impl Drop for MemNodeServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake any pool waiters so the accept thread can observe stop.
        self.shared.pool_cv.notify_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Bounded pool: wait for a slot before accepting.
        {
            let mut active = shared.active.lock();
            while *active >= shared.opts.max_connections && !shared.stop.load(Ordering::SeqCst) {
                shared.pool_cv.wait(&mut active);
            }
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            *active += 1;
        }
        let conn = loop {
            if shared.stop.load(Ordering::SeqCst) {
                *shared.active.lock() -= 1;
                return;
            }
            match listener.accept() {
                Ok(s) => break Some(s),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(shared.opts.accept_poll);
                }
                Err(_) => break None,
            }
        };
        let Some(conn) = conn else {
            *shared.active.lock() -= 1;
            continue;
        };
        let conn_shared = shared.clone();
        let spawned = thread::Builder::new()
            .name(format!("memnoded-{}-conn", shared.node.id))
            .spawn(move || serve_conn(conn, conn_shared));
        if spawned.is_err() {
            let mut active = shared.active.lock();
            *active -= 1;
            shared.pool_cv.notify_one();
        }
    }
}

fn serve_conn(conn: Stream, shared: Arc<Shared>) {
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = conn.try_clone() {
        shared.conns.lock().push((conn_id, clone));
    }
    let mut conn = FrameReader::new(conn);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let payload = match conn.read_frame() {
            Ok(p) => p,
            Err(_) => break, // EOF, reset, or a corrupt frame: drop the conn.
        };
        match serve_frame(&shared.node, &payload, conn.get_mut()) {
            Then::Serve => {}
            Then::Close => break,
            Then::Exit => {
                shared.shutdown_requested.store(true, Ordering::SeqCst);
                shared.stop.store(true, Ordering::SeqCst);
                shared.wait_cv.notify_all();
                break;
            }
        }
    }
    shared.conns.lock().retain(|(id, _)| *id != conn_id);
    let mut active = shared.active.lock();
    *active -= 1;
    shared.pool_cv.notify_one();
    shared.wait_cv.notify_all();
}

/// What a connection does after [`serve_frame`].
enum Then {
    /// Read the next request.
    Serve,
    /// Close it: the frame was lost, undecodable, or its reply failed.
    Close,
    /// Close it and stop serving: the memnode acknowledged an
    /// [`AdminOp::Shutdown`].
    Exit,
}

/// The server's one step, whichever connection a request frame's payload
/// came on: decode it, dispatch it (in the client's trace when it came in
/// a [`Request::Traced`] envelope), and write the sealed reply to `out`,
/// with the node's flags sampled *after* dispatch — so a request that
/// mutates them (`SetJoining`, `Crash`, …) reports its own effect. The
/// `wire.server.recv` failpoint loses the frame (no reply) and
/// `wire.server.send` guards the write.
fn serve_frame(node: &Arc<MemNode>, payload: &Bytes, out: &mut impl Write) -> Then {
    if let Some(a) = faults::check_delay(faults::Site::WireServerRecv) {
        match a {
            faults::Action::Panic => panic!("injected panic at wire.server.recv"),
            // Any other action models the inbound frame being lost after
            // arrival.
            _ => return Then::Close,
        }
    }
    let decode_t0 = Instant::now();
    let req = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            let resp = Response::Error(format!("bad request: {e}"));
            let frame = seal_reply(&resp, node_flags(node));
            let _ = write_frame(faults::Site::WireServerSend, out, &frame);
            return Then::Close;
        }
    };
    let decode_ns = decode_t0.elapsed().as_nanos() as u64;
    // The one request the server itself acts on, once the memnode has
    // acknowledged it.
    let asks_exit = |r: &Request| matches!(r, Request::Admin(AdminOp::Shutdown));
    let then = match &req {
        Request::Traced { inner, .. } if asks_exit(inner) => Then::Exit,
        plain if asks_exit(plain) => Then::Exit,
        _ => Then::Serve,
    };
    let frame = if let Request::Traced { trace_id, inner } = req {
        // Traced envelope: dispatch in a fresh operation context that
        // holds the client's trace, so decode/lock/exec/WAL/encode stages
        // stitch onto its span tree, then ship the spans back in the reply
        // frame.
        let op_tag = inner.tag_byte();
        let t0 = Instant::now();
        let ((inner_payload, total_ns), spans) = with_server_trace(trace_id, || {
            note(SpanKind::SrvDecode, 0, decode_ns);
            let resp = dispatch_caught(node, *inner);
            let payload = {
                let _enc = span(SpanKind::SrvEncode);
                encode_response_payload(&resp)
            };
            (payload, t0.elapsed().as_nanos() as u64)
        });
        node.obs.record(Trace {
            trace_id,
            op_tag,
            total_ns,
            spans: spans.clone(),
            dropped: 0,
        });
        seal_traced_reply(&spans, &inner_payload, node_flags(node))
    } else {
        seal_reply(&dispatch_caught(node, req), node_flags(node))
    };
    match write_frame(faults::Site::WireServerSend, out, &frame) {
        Ok(()) => then,
        Err(_) => Then::Close,
    }
}

/// An in-process connection: writing a request frame runs the server's
/// step on the writer's thread and keeps the sealed reply to be read. A
/// write that is not one whole, intact frame (the client writes whole
/// ones) is torn or corrupt, and like a step that closes it, ends it.
pub(crate) struct LocalConn {
    node: Arc<MemNode>,
    reply: Vec<u8>,
    closed: bool,
}

impl LocalConn {
    /// A fresh connection to `node`.
    pub(crate) fn new(node: Arc<MemNode>) -> LocalConn {
        LocalConn {
            node,
            reply: Vec::new(),
            closed: false,
        }
    }

    /// The reply frame's payload, checked as one off a socket but not
    /// copied; the end of the stream if the step kept no reply.
    pub(crate) fn read_frame(&mut self) -> io::Result<Bytes> {
        if self.reply.is_empty() {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(open_frame(std::mem::take(&mut self.reply))?)
    }
}

impl Write for LocalConn {
    fn write(&mut self, frame: &[u8]) -> io::Result<usize> {
        if self.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let then = match open_frame(frame.to_vec()) {
            Ok(payload) => serve_frame(&self.node, &payload, &mut self.reply),
            Err(_) => Then::Close,
        };
        self.closed = !matches!(then, Then::Serve);
        Ok(frame.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The node's current flag byte, piggybacked on every reply frame (v3).
fn node_flags(node: &MemNode) -> NodeFlags {
    NodeFlags {
        crashed: node.is_crashed(),
        joining: node.is_joining(),
        retiring: node.is_retiring(),
    }
}

/// Writes a sealed frame past its failpoint — `wire.client.send` for a
/// request, `wire.server.send` for a reply: `Corrupt` flips a payload
/// byte (the peer fails the CRC), `SeverAfter(n)` writes the first `n`
/// bytes then reports the cut (the writer drops the connection), `Delay`
/// has been slept, anything else loses the frame and reports an error.
pub(crate) fn write_frame(
    site: faults::Site,
    conn: &mut impl Write,
    frame: &[u8],
) -> io::Result<()> {
    match faults::check_delay(site) {
        None => {}
        Some(faults::Action::Panic) => panic!("injected panic at {}", site.name()),
        Some(faults::Action::Corrupt) => {
            let mut bad = frame.to_vec();
            if let Some(b) = bad.last_mut() {
                *b ^= 0x40;
            }
            conn.write_all(&bad)?;
            return conn.flush();
        }
        Some(faults::Action::SeverAfter(n)) => {
            let n = (n as usize).min(frame.len());
            conn.write_all(&frame[..n])?;
            let _ = conn.flush();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected sever at {}", site.name()),
            ));
        }
        Some(a) => return Err(faults::io_error(site, a)),
    }
    conn.write_all(frame)?;
    conn.flush()
}

/// [`dispatch_faulted`] with a panic caught: it is counted
/// (`memnode.handler_panics`, so a test that only sees the resulting
/// `Unavailable` can still tell a handler bug from a fault) and answered
/// with [`Response::Error`].
fn dispatch_caught(node: &Arc<MemNode>, req: Request) -> Response {
    catch_unwind(AssertUnwindSafe(|| dispatch_faulted(node, req))).unwrap_or_else(|_| {
        node.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
        Response::Error("request handler panicked".to_string())
    })
}

/// [`dispatch`] behind the tagged `rpc.dispatch` failpoint: an armed fault
/// matching this request's tag can delay the handler, fail it (the client
/// sees [`Response::Error`] → `Unavailable`), dispatch it *twice* while
/// replying once (an idempotency probe — commit/abort/repl-apply must
/// tolerate redelivery), or panic inside the handler (absorbed by the
/// `catch_unwind` in [`dispatch_caught`], like any handler bug).
fn dispatch_faulted(node: &Arc<MemNode>, req: Request) -> Response {
    match faults::check_tag(faults::Site::RpcDispatch, req.tag_byte()) {
        None => dispatch(node, req),
        Some(faults::Action::Delay(d)) => {
            thread::sleep(d);
            dispatch(node, req)
        }
        Some(faults::Action::Duplicate) => {
            let _first = dispatch(node, req.clone());
            dispatch(node, req)
        }
        Some(faults::Action::Panic) => panic!("injected panic at rpc.dispatch"),
        Some(a) => Response::Error(format!("injected {a:?} at rpc.dispatch")),
    }
}

fn check_extent(node: &MemNode, extent: u64) -> Result<(), String> {
    if extent > node.capacity() {
        return Err(format!(
            "request extent {extent} exceeds capacity {}",
            node.capacity()
        ));
    }
    Ok(())
}

/// Turns a memnode call's outcome into its reply: `ok` builds the success
/// message, a crashed node answers [`Response::Unavailable`].
fn reply<T>(outcome: Result<T, Unavailable>, ok: impl FnOnce(T) -> Response) -> Response {
    match outcome {
        Ok(v) => ok(v),
        Err(u) => Response::Unavailable(u.0 .0),
    }
}

fn dispatch(node: &Arc<MemNode>, req: Request) -> Response {
    match req {
        Request::Hello { version } => {
            if version != PROTO_VERSION {
                return Response::Error(format!(
                    "protocol version mismatch: client {version}, server {PROTO_VERSION}"
                ));
            }
            Response::Hello {
                version: PROTO_VERSION,
                node: node.id.0,
                capacity: node.capacity(),
            }
        }
        Request::ExecSingle {
            txid,
            policy,
            shard,
        } => {
            if let Err(e) = check_extent(node, shard.max_extent()) {
                return Response::Error(e);
            }
            reply(node.exec_single(txid, &shard, policy), Response::Single)
        }
        Request::ExecBatch { items } => {
            for it in &items {
                if let Err(e) = check_extent(node, it.shard.max_extent()) {
                    return Response::Error(e);
                }
            }
            let members = items
                .iter()
                .map(|it| {
                    node.exec_single(it.txid, &it.shard, it.policy)
                        .map_err(|u| u.0 .0)
                })
                .collect();
            Response::Batch(members)
        }
        Request::Prepare {
            txid,
            policy,
            participants,
            shard,
        } => {
            if let Err(e) = check_extent(node, shard.max_extent()) {
                return Response::Error(e);
            }
            let participants: Vec<MemNodeId> = participants.into_iter().map(MemNodeId).collect();
            reply(
                node.prepare(txid, &shard, policy, &participants),
                Response::Vote,
            )
        }
        Request::Commit { txid } => reply(node.commit(txid), |()| Response::Unit),
        Request::Abort { txid } => reply(node.abort(txid), |()| Response::Unit),
        Request::RawRead { off, len } => {
            if let Err(e) = check_extent(node, off.saturating_add(len as u64)) {
                return Response::Error(e);
            }
            reply(node.raw_read(off, len), Response::Data)
        }
        Request::RawWrite { off, data } => {
            if let Err(e) = check_extent(node, off.saturating_add(data.len() as u64)) {
                return Response::Error(e);
            }
            reply(node.raw_write(off, data), |()| Response::Unit)
        }
        Request::Flags => Response::Flags(node_flags(node)),
        // `serve_frame` unwraps the envelope (it opens the server-side
        // trace) and the decoder refuses a nested one, so none reaches
        // here; if one did, its inner request is what it asks.
        Request::Traced { inner, .. } => dispatch(node, *inner),
        Request::ReplFetch { from, max } => {
            reply(node.wal_fetch(from, max), |seg| Response::Frames {
                from: seg.from,
                base: seg.base,
                tail: seg.tail,
                bytes: seg.bytes,
            })
        }
        Request::ReplApply { from, frames } => {
            reply(node.repl_apply(from, &frames), Response::ReplStatus)
        }
        Request::ReplStatus => reply(node.repl_status(), Response::ReplStatus),
        Request::Admin(op) => reply(admin(node, op), Response::Admin),
    }
}

/// The one implementation of every admin operation. It answers in any
/// state — a crashed node still reports its counters and can be told to
/// recover — except for `Meta`: what a crashed node staged is unknown
/// until it recovers, and saying "nothing" would read as a no vote.
fn admin(node: &MemNode, op: AdminOp) -> Result<AdminReply, Unavailable> {
    Ok(match op {
        AdminOp::SetJoining(joining) => {
            node.set_joining(joining);
            AdminReply::Unit
        }
        AdminOp::SetRetiring(retiring) => {
            node.set_retiring(retiring);
            AdminReply::Unit
        }
        AdminOp::Crash => {
            node.crash();
            AdminReply::Unit
        }
        AdminOp::Recover => match node.recover() {
            Ok(()) => AdminReply::Unit,
            Err(e) => AdminReply::Error(format!("recover failed: {e}")),
        },
        AdminOp::Checkpoint => match node.checkpoint() {
            Ok(took) => AdminReply::Bool(took),
            Err(e) => AdminReply::Error(format!("checkpoint failed: {e}")),
        },
        AdminOp::Meta if node.is_crashed() => return Err(Unavailable(node.id)),
        AdminOp::Meta => AdminReply::Meta(node.node_meta()),
        // Exiting is the serving process's business (see `serve_frame`);
        // the memnode only acknowledges.
        AdminOp::Shutdown => AdminReply::Unit,
        AdminOp::ObsSnapshot => AdminReply::Obs(Bytes::from(node.obs_snapshot().encode())),
        AdminOp::TraceDump { max, slow } => {
            let traces = if slow {
                node.obs.slow(max as usize)
            } else {
                node.obs.recent(max as usize)
            };
            AdminReply::Traces(Bytes::from(Trace::encode_many(&traces)))
        }
        AdminOp::Faults { spec } => match faults::apply_spec(&spec) {
            Ok(_) => AdminReply::Faults {
                armed: faults::armed_count(),
            },
            Err(e) => AdminReply::Error(format!("bad faults spec: {e}")),
        },
    })
}
