//! Instrumented transport layer.
//!
//! Whichever way a coordinator reaches its memnodes — a frame answered
//! on the caller's thread in-process, a socket exchange in wire mode (see
//! [`crate::client`]) — this module makes the *network cost* of every
//! operation observable: it counts round trips, messages and bytes
//! globally and, through [`minuet_obs::book_net`], in the [`OpNet`]
//! ledger of the calling thread's operation context (read with
//! [`with_op_net`]), and can optionally inject real latency per round
//! trip. Round trips and messages are counted per coordinator phase by
//! [`crate::exec`]; bytes are the frames the node handle
//! ([`crate::client::RemoteNode`]) exchanged — the same frames in both
//! modes.

use minuet_obs::{book_net, Counter, ObsPlane};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use minuet_obs::{with_op_net, OpNet};

/// Cluster-wide transport statistics (registered [`Counter`] handles, see
/// [`NetStats::register`]).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Total round trips (sequential network delays) across all threads.
    pub round_trips: Counter,
    /// Total messages.
    pub messages: Counter,
    /// Total request bytes shipped to memnodes.
    pub bytes_out: Counter,
    /// Total response bytes shipped back.
    pub bytes_in: Counter,
}

impl NetStats {
    /// Registers every counter under `net.*` in `plane`'s registry.
    pub fn register(&self, plane: &ObsPlane) {
        let r = &plane.registry;
        r.register_counter("net.round_trips", &self.round_trips);
        r.register_counter("net.messages", &self.messages);
        r.register_counter("net.bytes_out", &self.bytes_out);
        r.register_counter("net.bytes_in", &self.bytes_in);
    }
}

/// The instrumented transport: every coordinator phase goes through
/// [`Transport::round_trip`].
pub struct Transport {
    /// Global counters.
    pub stats: NetStats,
    /// Injected per-round-trip latency in nanoseconds (0 = off). Runtime
    /// switchable so benchmark preloads can run at memory speed while the
    /// measured phase pays realistic network delays.
    inject_ns: AtomicU64,
    /// The client-side observability plane: samples root operation traces
    /// and owns the registry the transport's counters (and the wire
    /// client's per-RPC histograms) live in. Disabled by default; swap in
    /// a sampling plane with [`Transport::with_obs`].
    pub obs: Arc<ObsPlane>,
}

impl Transport {
    /// Creates a transport, optionally injecting latency per round trip.
    pub fn new(inject_rtt: Option<Duration>) -> Self {
        let obs = ObsPlane::disabled();
        let stats = NetStats::default();
        stats.register(&obs);
        Transport {
            stats,
            inject_ns: AtomicU64::new(inject_rtt.map_or(0, |d| d.as_nanos() as u64)),
            obs,
        }
    }

    /// Replaces the observability plane (builder-style), re-registering
    /// the transport's counters in the new plane's registry.
    pub fn with_obs(mut self, obs: Arc<ObsPlane>) -> Self {
        self.stats.register(&obs);
        self.obs = obs;
        self
    }

    /// Adds frame sizes to the byte counters (global and per-operation),
    /// on the requesting thread. Called by the node handle, once per
    /// exchange, with the frames it wrote and read.
    pub fn record_wire_bytes(&self, bytes_out: u64, bytes_in: u64) {
        self.stats.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.stats.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
        book_net(OpNet {
            bytes_out,
            bytes_in,
            ..OpNet::default()
        });
    }

    /// Enables/disables injected latency at runtime.
    pub fn set_inject(&self, rtt: Option<Duration>) {
        self.inject_ns
            .store(rtt.map_or(0, |d| d.as_nanos() as u64), Ordering::Relaxed);
    }

    /// Currently injected latency.
    pub fn inject(&self) -> Option<Duration> {
        match self.inject_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Records one round trip carrying `fanout` parallel messages, then
    /// optionally injects latency.
    #[inline]
    pub fn round_trip(&self, fanout: usize) {
        self.stats.round_trips.fetch_add(1, Ordering::Relaxed);
        self.stats
            .messages
            .fetch_add(fanout as u64, Ordering::Relaxed);
        book_net(OpNet {
            round_trips: 1,
            messages: fanout as u64,
            ..OpNet::default()
        });
        let ns = self.inject_ns.load(Ordering::Relaxed);
        if ns > 0 {
            std::thread::sleep(Duration::from_nanos(ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Transport::new(None);
        let (_, net) = with_op_net(|| {
            t.round_trip(1);
            t.record_wire_bytes(100, 40);
            t.round_trip(3);
            t.record_wire_bytes(10, 0);
        });
        assert_eq!(
            net,
            OpNet {
                round_trips: 2,
                messages: 4,
                bytes_out: 110,
                bytes_in: 40,
            }
        );
        assert_eq!((t.stats.round_trips.get(), t.stats.messages.get()), (2, 4));
        assert_eq!((t.stats.bytes_out.get(), t.stats.bytes_in.get()), (110, 40));
        assert_eq!(net.bytes_total(), 150);
    }

    #[test]
    fn op_scope_resets() {
        let t = Transport::new(None);
        let (_, a) = with_op_net(|| t.round_trip(1));
        let (_, b) = with_op_net(|| {
            t.round_trip(1);
            t.round_trip(1);
        });
        assert_eq!(a.round_trips, 1);
        assert_eq!(b.round_trips, 2);
        // Windows nest: what an inner window counts, its outer one counts
        // too.
        let (inner, outer) = with_op_net(|| {
            t.round_trip(1);
            with_op_net(|| t.round_trip(1)).1
        });
        assert_eq!(inner.round_trips, 1);
        assert_eq!(outer.round_trips, 2);
    }

    #[test]
    fn wire_mode_counts_real_bytes_only() {
        let t = Transport::new(None);
        let (_, net) = with_op_net(|| {
            // A coordinator phase counts its round trip and messages...
            t.round_trip(2);
            // ...and the socket client the frames it really exchanged.
            t.record_wire_bytes(120, 36);
        });
        assert_eq!(
            net,
            OpNet {
                round_trips: 1,
                messages: 2,
                bytes_out: 120,
                bytes_in: 36,
            }
        );
        assert_eq!((t.stats.bytes_out.get(), t.stats.bytes_in.get()), (120, 36));
    }

    #[test]
    fn injected_rtt_sleeps_per_round_trip_in_both_modes() {
        // One transport serves both modes: it is the same counter either
        // way.
        let d = Duration::from_millis(2);
        let k = 3;
        let t = Transport::new(Some(d));
        assert_eq!(t.inject(), Some(d));
        let start = std::time::Instant::now();
        let (_, net) = with_op_net(|| {
            for _ in 0..k {
                t.round_trip(2);
            }
        });
        // Lower bounds only: a slow host may oversleep, never undersleep.
        assert!(start.elapsed() >= d * k);
        assert_eq!((net.round_trips, net.messages), (k as u64, 2 * k as u64));
        assert_eq!(
            (t.stats.round_trips.get(), t.stats.messages.get()),
            (k as u64, 2 * k as u64)
        );
        t.set_inject(None);
        assert_eq!(t.inject(), None);
    }
}
