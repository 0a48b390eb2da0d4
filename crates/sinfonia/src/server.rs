//! `memnoded`: serve one in-process [`MemNode`] over the wire protocol.
//!
//! [`MemNodeServer`] owns a listening socket and a bounded
//! thread-per-connection pool. Each connection is a simple synchronous
//! request/response loop: read one frame, decode a [`Request`], dispatch
//! into the memnode, write one [`Response`] frame. There is no async
//! runtime — the protocol is std-only by design (see `crate::wire`).
//!
//! Robustness rules:
//! - a malformed frame (bad CRC, bad tag, trailing garbage) terminates
//!   *that connection* only; the server keeps serving others;
//! - out-of-bounds requests are answered with [`Response::Error`] before
//!   they reach the memnode, so a buggy or malicious client cannot panic
//!   the server;
//! - a panic inside dispatch is caught and answered with
//!   [`Response::Error`] — the daemon never dies from one request.

use crate::addr::MemNodeId;
use crate::bytes::Bytes;
use crate::memnode::{MemNode, Unavailable};
use crate::rpc::NodeRpc;
use crate::wire::{
    encode_response_payload, seal_reply, seal_traced_reply, AdminOp, Endpoint, FrameReader,
    Listener, NodeFlags, Request, Response, Stream, PROTO_VERSION,
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
        if let Some(a) = faults::check_delay(faults::Site::WireServerRecv) {
            match a {
                faults::Action::Panic => panic!("injected panic at wire.server.recv"),
                // Any other action models the inbound frame being lost
                // after arrival: drop the connection without replying.
                _ => break,
            }
        }
        let decode_t0 = Instant::now();
        let req = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let _ = write_response(
                    conn.get_mut(),
                    &Response::Error(format!("bad request: {e}")),
                    node_flags(&shared.node),
                );
                break;
            }
        };
        let decode_ns = decode_t0.elapsed().as_nanos() as u64;
        // The one request the server itself acts on, once the memnode
        // has acknowledged it.
        let asks_exit = |r: &Request| matches!(r, Request::Admin(AdminOp::Shutdown));
        let is_shutdown = match &req {
            Request::Traced { inner, .. } => asks_exit(inner),
            plain => asks_exit(plain),
        };
        let frame = if let Request::Traced { trace_id, inner } = req {
            // Traced envelope: dispatch in a fresh operation context that
            // holds the client's trace, so decode/lock/exec/WAL/encode
            // stages stitch onto its span tree, then ship the spans back in
            // the reply frame.
            let op_tag = inner.tag_byte();
            let node = shared.node.clone();
            let t0 = Instant::now();
            let ((inner_payload, total_ns), spans) = with_server_trace(trace_id, || {
                note(SpanKind::SrvDecode, 0, decode_ns);
                let resp = catch_unwind(AssertUnwindSafe(|| dispatch_faulted(&node, *inner)))
                    .unwrap_or_else(|_| Response::Error("request handler panicked".to_string()));
                let payload = {
                    let _enc = span(SpanKind::SrvEncode);
                    encode_response_payload(&resp)
                };
                (payload, t0.elapsed().as_nanos() as u64)
            });
            shared.node.obs.record(Trace {
                trace_id,
                op_tag,
                total_ns,
                spans: spans.clone(),
                dropped: 0,
            });
            // Flags are sampled *after* dispatch so a request that mutates
            // them (SetJoining, Crash, …) reports its own effect.
            seal_traced_reply(&spans, &inner_payload, node_flags(&shared.node))
        } else {
            let resp = catch_unwind(AssertUnwindSafe(|| dispatch_faulted(&shared.node, req)))
                .unwrap_or_else(|_| Response::Error("request handler panicked".to_string()));
            seal_reply(&resp, node_flags(&shared.node))
        };
        if write_frame(conn.get_mut(), &frame).is_err() {
            break;
        }
        if is_shutdown {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            shared.stop.store(true, Ordering::SeqCst);
            shared.wait_cv.notify_all();
            break;
        }
    }
    shared.conns.lock().retain(|(id, _)| *id != conn_id);
    let mut active = shared.active.lock();
    *active -= 1;
    shared.pool_cv.notify_one();
    shared.wait_cv.notify_all();
}

fn write_response(conn: &mut Stream, resp: &Response, flags: NodeFlags) -> io::Result<()> {
    write_frame(conn, &seal_reply(resp, flags))
}

/// The node's current flag byte, piggybacked on every reply frame (v3).
fn node_flags(node: &MemNode) -> NodeFlags {
    NodeFlags {
        crashed: node.is_crashed(),
        joining: node.is_joining(),
        retiring: node.is_retiring(),
    }
}

fn write_frame(conn: &mut Stream, frame: &[u8]) -> io::Result<()> {
    // The `wire.server.send` failpoint covers every outbound reply:
    // `Corrupt` flips a payload byte (the client fails the CRC),
    // `SeverAfter(n)` writes a prefix then reports the cut (the caller
    // drops the connection), anything else loses the reply outright.
    match faults::check_delay(faults::Site::WireServerSend) {
        None => {}
        Some(faults::Action::Panic) => panic!("injected panic at wire.server.send"),
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
                "injected sever at wire.server.send",
            ));
        }
        Some(a) => return Err(faults::io_error(faults::Site::WireServerSend, a)),
    }
    conn.write_all(frame)?;
    conn.flush()
}

/// [`dispatch`] behind the tagged `rpc.dispatch` failpoint: an armed fault
/// matching this request's tag can delay the handler, fail it (the client
/// sees [`Response::Error`] → `Unavailable`), dispatch it *twice* while
/// replying once (an idempotency probe — commit/abort/repl-apply must
/// tolerate redelivery), or panic inside the handler (absorbed by the
/// caller's `catch_unwind`, like any handler bug).
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
pub(crate) fn reply<T>(
    outcome: Result<T, Unavailable>,
    ok: impl FnOnce(T) -> Response,
) -> Response {
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
            reply(node.raw_write(off, &data), |()| Response::Unit)
        }
        Request::Flags => Response::Flags(node_flags(node)),
        // Traced envelopes are normally unwrapped in `serve_conn` (which
        // opens the server-side trace); an envelope reaching here — e.g. via the
        // in-process `NodeRpc` path — just dispatches its inner request.
        Request::Traced { inner, .. } => dispatch(node, *inner),
        Request::ReplFetch { from, max } => {
            reply(node.wal_fetch(from, max), |seg| Response::Frames {
                from: seg.from,
                base: seg.base,
                tail: seg.tail,
                bytes: Bytes::from(seg.bytes),
            })
        }
        Request::ReplApply { from, frames } => {
            reply(node.repl_apply(from, &frames), Response::ReplStatus)
        }
        Request::ReplStatus => reply(node.repl_status(), Response::ReplStatus),
        // Every admin operation, whatever it is: the memnode implements
        // them, this only carries the call across.
        Request::Admin(op) => reply(node.admin(op), Response::Admin),
    }
}
