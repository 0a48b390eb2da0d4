//! Property tests for the wire protocol: every message type must survive
//! an encode → frame → decode round trip unchanged, and any corruption of
//! a frame — truncation at an arbitrary point, a bit flip at an arbitrary
//! position, a mangled length field — must fail *cleanly* with a protocol
//! error: no panic, no hang, no partial decode. The buffered
//! [`FrameReader`] must hand out the same payloads however the byte
//! stream is fragmented or coalesced, at one `read` per arrived frame.

use minuet::sinfonia::memnode::{SingleResult, Vote};
use minuet::sinfonia::recovery::NodeMeta;
use minuet::sinfonia::wire::{
    decode_frame, FrameReader, NodeFlags, Request, Response, WireBatchItem, WireShard,
};
use minuet::sinfonia::{Bytes, LockPolicy, MemNodeId, NodeStats};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read};
use std::time::Duration;

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(Bytes::from)
}

fn arb_policy() -> impl Strategy<Value = LockPolicy> {
    prop_oneof![
        Just(LockPolicy::AbortOnBusy),
        any::<u32>().prop_map(|n| LockPolicy::Block(Duration::from_nanos(n as u64))),
    ]
}

fn arb_shard() -> impl Strategy<Value = WireShard> {
    (
        proptest::collection::vec((any::<u16>(), any::<u32>(), arb_bytes()), 0..4),
        proptest::collection::vec((any::<u16>(), any::<u32>(), any::<u16>()), 0..4),
        proptest::collection::vec((any::<u16>(), any::<u32>(), arb_bytes()), 0..4),
    )
        .prop_map(|(compares, reads, writes)| WireShard {
            compares: compares
                .into_iter()
                .map(|(i, off, b)| (i as u32, off as u64, b))
                .collect(),
            reads: reads
                .into_iter()
                .map(|(i, off, len)| (i as u32, off as u64, len as u32))
                .collect(),
            writes: writes
                .into_iter()
                .map(|(i, off, b)| (i as u32, off as u64, b))
                .collect(),
        })
}

fn arb_pairs() -> impl Strategy<Value = Vec<(usize, Bytes)>> {
    proptest::collection::vec((any::<u16>(), arb_bytes()), 0..4)
        .prop_map(|v| v.into_iter().map(|(i, b)| (i as usize, b)).collect())
}

fn arb_indices() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(any::<u16>(), 0..6)
        .prop_map(|v| v.into_iter().map(|i| i as usize).collect())
}

fn arb_single() -> impl Strategy<Value = SingleResult> {
    prop_oneof![
        arb_pairs().prop_map(SingleResult::Committed),
        arb_indices().prop_map(SingleResult::BadCompare),
        Just(SingleResult::Busy),
    ]
}

fn arb_vote() -> impl Strategy<Value = Vote> {
    prop_oneof![
        arb_pairs().prop_map(Vote::Ok),
        arb_indices().prop_map(Vote::BadCompare),
        Just(Vote::Busy),
    ]
}

fn arb_meta() -> impl Strategy<Value = NodeMeta> {
    (
        proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u16>(), 0..4)),
            0..4,
        ),
        proptest::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(|(staged, decided)| {
            let mut m = NodeMeta::default();
            let mut staged_map = HashMap::new();
            for (txid, parts) in staged {
                staged_map.insert(
                    txid as u64,
                    parts.into_iter().map(MemNodeId).collect::<Vec<_>>(),
                );
            }
            m.staged = staged_map;
            m.decided = decided
                .into_iter()
                .map(|t| t as u64)
                .collect::<HashSet<_>>();
            m
        })
}

fn arb_stats() -> impl Strategy<Value = NodeStats> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()),
    )
        .prop_map(
            |((a, b, c, d), (e, f, g, h), (i, j, k, durable))| NodeStats {
                single_commits: a as u64,
                prepares: b as u64,
                commits: c as u64,
                aborts: d as u64,
                busy: e as u64,
                read_fastpath: f as u64,
                read_fastpath_misses: g as u64,
                write_fastpath: (c ^ j) as u64,
                write_fastpath_misses: (d ^ k) as u64,
                in_doubt: h as u64,
                wal_appends: i as u64,
                wal_bytes: j as u64,
                wal_fsyncs: k as u64,
                checkpoints: (a ^ e) as u64,
                wal_retained_bytes: (b ^ f) as u64,
                durable,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u16>().prop_map(|version| Request::Hello { version }),
        (any::<u32>(), arb_policy(), arb_shard()).prop_map(|(txid, policy, shard)| {
            Request::ExecSingle {
                txid: txid as u64,
                policy,
                shard,
            }
        }),
        proptest::collection::vec((any::<u32>(), arb_policy(), arb_shard()), 0..3).prop_map(
            |items| Request::ExecBatch {
                items: items
                    .into_iter()
                    .map(|(txid, policy, shard)| WireBatchItem {
                        txid: txid as u64,
                        policy,
                        shard,
                    })
                    .collect(),
            }
        ),
        (
            any::<u32>(),
            arb_policy(),
            proptest::collection::vec(any::<u16>(), 0..5),
            arb_shard()
        )
            .prop_map(|(txid, policy, participants, shard)| Request::Prepare {
                txid: txid as u64,
                policy,
                participants,
                shard,
            }),
        any::<u32>().prop_map(|t| Request::Commit { txid: t as u64 }),
        any::<u32>().prop_map(|t| Request::Abort { txid: t as u64 }),
        (any::<u32>(), any::<u16>()).prop_map(|(off, len)| Request::RawRead {
            off: off as u64,
            len: len as u32,
        }),
        (any::<u32>(), arb_bytes()).prop_map(|(off, data)| Request::RawWrite {
            off: off as u64,
            data,
        }),
        any::<bool>().prop_map(Request::SetJoining),
        any::<bool>().prop_map(Request::SetRetiring),
        Just(Request::Crash),
        Just(Request::Recover),
        Just(Request::Checkpoint),
        Just(Request::Stats),
        Just(Request::Flags),
        Just(Request::Meta),
        proptest::collection::vec((any::<u32>(), any::<u16>()), 0..5).prop_map(|probe| {
            Request::MirrorConsistent {
                probe: probe
                    .into_iter()
                    .map(|(off, len)| (off as u64, len as u32))
                    .collect(),
            }
        }),
        Just(Request::Shutdown),
        (any::<u32>(), any::<bool>()).prop_map(|(epoch, closing)| Request::EpochMark {
            epoch: epoch as u64,
            closing,
        }),
        (any::<u32>(), any::<u16>()).prop_map(|(from, max)| Request::ReplFetch {
            from: from as u64,
            max: max as u32,
        }),
        (any::<u32>(), arb_bytes()).prop_map(|(from, frames)| Request::ReplApply {
            from: from as u64,
            frames,
        }),
        Just(Request::ReplStatus),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|v| Request::Faults {
            spec: v.iter().map(|b| (b'a' + b % 26) as char).collect(),
        }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(version, node, cap)| {
            Response::Hello {
                version,
                node,
                capacity: cap as u64,
            }
        }),
        arb_single().prop_map(Response::Single),
        proptest::collection::vec(
            prop_oneof![arb_single().prop_map(Ok), any::<u16>().prop_map(Err),],
            0..4
        )
        .prop_map(Response::Batch),
        arb_vote().prop_map(Response::Vote),
        Just(Response::Unit),
        arb_bytes().prop_map(Response::Data),
        any::<bool>().prop_map(Response::Bool),
        arb_stats().prop_map(Response::Stats),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(crashed, joining, retiring)| {
            Response::Flags(NodeFlags {
                crashed,
                joining,
                retiring,
            })
        }),
        arb_meta().prop_map(Response::Meta),
        any::<u16>().prop_map(Response::Unavailable),
        proptest::collection::vec(any::<u8>(), 0..24)
            .prop_map(|v| Response::Error(v.iter().map(|b| (b'a' + b % 26) as char).collect())),
        any::<u32>().prop_map(|prev| Response::Epoch(prev as u64)),
        (any::<u32>(), any::<u32>(), any::<u32>(), arb_bytes()).prop_map(
            |(from, base, tail, bytes)| Response::Frames {
                from: from as u64,
                base: base as u64,
                tail: tail as u64,
                bytes,
            }
        ),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(watermark, applied_txid, tail, applies, dup_skips)| {
                Response::ReplStatus {
                    watermark: watermark as u64,
                    applied_txid: applied_txid as u64,
                    tail: tail as u64,
                    applies: applies as u64,
                    dup_skips: dup_skips as u64,
                }
            }),
        any::<u32>().prop_map(|armed| Response::Faults { armed }),
    ]
}

/// Decoding any corrupted frame must return an error, never panic (the
/// closure runs under `catch_unwind` so a panic is reported as a test
/// failure, not an abort).
fn assert_fails_cleanly(frame: &[u8], what: &str) {
    let frame = frame.to_vec();
    let result = std::panic::catch_unwind(move || {
        if let Ok((payload, _)) = decode_frame(&frame) {
            // The frame passed CRC (e.g. corruption beyond the framed
            // length); body decode must still never panic.
            let _ = Request::decode(&payload);
            let _ = Response::decode(&payload);
        }
    });
    assert!(result.is_ok(), "decode panicked on {what}");
}

/// A connection that delivers a scripted sequence of chunks — one chunk
/// (or what fits of it) per `read` call, then EOF — and counts the calls.
struct Scripted {
    chunks: VecDeque<Vec<u8>>,
    reads: usize,
}

impl Scripted {
    /// `stream` cut at the given offsets.
    fn new(stream: &[u8], cuts: &[usize]) -> Scripted {
        let mut chunks = VecDeque::new();
        let mut at = 0;
        for &cut in cuts.iter().chain([&stream.len()]) {
            let cut = cut.clamp(at, stream.len());
            if cut > at {
                chunks.push_back(stream[at..cut].to_vec());
            }
            at = cut;
        }
        Scripted { chunks, reads: 0 }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        let Some(mut chunk) = self.chunks.pop_front() else {
            return Ok(0);
        };
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        if n < chunk.len() {
            self.chunks.push_front(chunk.split_off(n));
        }
        Ok(n)
    }
}

/// A request whose frame is `21 + n` bytes (header 8, tag 1, offset 8,
/// length 4).
fn raw_write(n: usize, salt: u8) -> Request {
    Request::RawWrite {
        off: 4096,
        data: Bytes::from((0..n).map(|i| (i as u8) ^ salt).collect::<Vec<_>>()),
    }
}

/// Reads `frames.len()` frames off `stream` cut at `cuts`, checks each
/// payload against the frame it came from and that the stream then ends
/// cleanly, and returns the `read` calls each frame cost.
fn read_frames_back(frames: &[Vec<u8>], cuts: &[usize]) -> Vec<usize> {
    let stream = frames.concat();
    let mut r = FrameReader::new(Scripted::new(&stream, cuts));
    let mut costs = Vec::new();
    for frame in frames {
        let before = r.get_ref().reads;
        let payload = r.read_frame().expect("whole frame was delivered");
        assert_eq!(
            &payload[..],
            &frame[8..],
            "payload differs from what was sent"
        );
        costs.push(r.get_ref().reads - before);
    }
    let eof = r.read_frame().expect_err("stream is exhausted");
    assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    costs
}

#[test]
fn frame_reader_survives_fragmentation_and_coalescing() {
    let both = [
        raw_write(300, 0x11).encode(),
        raw_write(4096, 0x22).encode(),
    ];
    let [a, b] = &both;
    let total = a.len() + b.len();

    // One byte per call.
    let every_byte: Vec<usize> = (1..total).collect();
    read_frames_back(&both, &every_byte);
    // Header split 3 + 5, payload in a third chunk.
    assert_eq!(read_frames_back(&both[..1], &[3, 8]), [3]);
    // Two frames in one chunk: the second costs no read at all.
    assert_eq!(read_frames_back(&both, &[]), [1, 0]);
    // A frame plus half the next, then the rest.
    assert_eq!(read_frames_back(&both, &[a.len() + b.len() / 2]), [1, 1]);
    // A frame plus three bytes of the next header.
    assert_eq!(read_frames_back(&both, &[a.len() + 3]), [1, 1]);
}

#[test]
fn arrived_frame_costs_exactly_one_read() {
    for n in [0, 7, 78, 4096, 8192 - 21] {
        let frame = raw_write(n, 0x33).encode();
        assert_eq!(frame.len(), 21 + n);
        assert_eq!(read_frames_back(&[frame], &[]), [1], "{n}-byte payload");
    }
    // Larger than the reader's buffer: the tail goes straight into the
    // payload, still without losing or duplicating a byte.
    let big = raw_write(200_000, 0x44).encode();
    let small = raw_write(5, 0x55).encode();
    read_frames_back(&[big.clone(), small.clone()], &[]);
    read_frames_back(&[small, big], &[100_000]);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn frame_reader_is_chunking_invariant(
        reqs in proptest::collection::vec(arb_request(), 1..5),
        cuts in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let frames: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
        let total: usize = frames.iter().map(Vec::len).sum();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c as usize % total).collect();
        cuts.sort_unstable();
        read_frames_back(&frames, &cuts);
    }

    #[test]
    fn request_roundtrip(req in arb_request()) {
        let frame = req.encode();
        let (payload, consumed) = decode_frame(&frame).expect("own frame must parse");
        prop_assert_eq!(consumed, frame.len());
        let back = Request::decode(&payload).expect("own payload must decode");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let frame = resp.encode();
        let (payload, consumed) = decode_frame(&frame).expect("own frame must parse");
        prop_assert_eq!(consumed, frame.len());
        let back = Response::decode(&payload).expect("own payload must decode");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn truncated_request_fails_cleanly(req in arb_request(), cut in any::<u16>()) {
        let frame = req.encode();
        let cut = (cut as usize) % frame.len().max(1);
        prop_assert!(decode_frame(&frame[..cut]).is_err(), "torn frame accepted");
        assert_fails_cleanly(&frame[..cut], "a truncated request");
    }

    #[test]
    fn bitflipped_request_fails_cleanly(req in arb_request(), pos in any::<u32>(), bit in 0u8..8) {
        let mut frame = req.encode();
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        assert_fails_cleanly(&frame, "a bit-flipped request");
    }

    #[test]
    fn bitflipped_response_fails_cleanly(resp in arb_response(), pos in any::<u32>(), bit in 0u8..8) {
        let mut frame = resp.encode();
        let pos = (pos as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        assert_fails_cleanly(&frame, "a bit-flipped response");
    }

    #[test]
    fn random_garbage_fails_cleanly(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        assert_fails_cleanly(&garbage, "random garbage");
    }

    #[test]
    fn mangled_length_fails_cleanly(req in arb_request(), len in any::<u32>()) {
        let mut frame = req.encode();
        frame[..4].copy_from_slice(&len.to_le_bytes());
        assert_fails_cleanly(&frame, "a mangled length field");
    }
}
