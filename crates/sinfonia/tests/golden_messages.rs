//! Golden bytes, table-wide: every message of protocol v4 is the frame it
//! was before the codec was rewritten per field type.
//!
//! Each row of `GOLDEN` was printed by the commit *before* the message
//! tables, the `Wire` trait and the `Request::Admin` / `Response::Admin`
//! grouping landed (one `Request::encode` per request variant, one
//! `seal_reply` per response variant, plus the traced envelopes). The new
//! encoders must reproduce every one bit for bit and the new decoders must
//! read them back — which is what lets `PROTO_VERSION` stay 4 and a daemon
//! of either build serve a client of the other. `golden_formats.rs` keeps
//! pinning the redo log, the checkpoint image and the two hottest frames.

use minuet_sinfonia::memnode::{SingleResult, Vote};
use minuet_sinfonia::recovery::NodeMeta;
use minuet_sinfonia::wire::{
    decode_frame, encode_response_payload, encode_traced_request, seal_reply, seal_traced_reply,
    split_reply_flags, AdminOp, AdminReply, NodeFlags, Request, Response, WireBatchItem, WireShard,
    PROTO_VERSION,
};
use minuet_sinfonia::{Bytes, LockPolicy, MemNodeId, NodeStats, ReplStatus};
use std::collections::HashMap;
use std::time::Duration;

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("req.hello", "030000002176ef9a010400"),
    ("req.exec_single", "5e000000c0d8134502080706050403020100010000000000000040000000000000000300000001020302000000010000000010000000000000640000000200000008000000000000000800000001000000030000000020000000000000050000000909090909"),
    ("req.exec_batch", "7f0000006e2bb574030200000007000000000000000160e3160000000000010000000000000040000000000000000300000001020302000000010000000010000000000000640000000200000008000000000000000800000001000000030000000020000000000000050000000909090909080000000000000000000000000000000000000000"),
    ("req.prepare", "7000000019d1e9fc0409000000000000000160e316000000000003000000000003000700010000000000000040000000000000000300000001020302000000010000000010000000000000640000000200000008000000000000000800000001000000030000000020000000000000050000000909090909"),
    ("req.commit", "09000000294d5e3d050a00000000000000"),
    ("req.abort", "09000000727179c8060b00000000000000"),
    ("req.raw_read", "0d000000f1048fb50700100000000000004d000000"),
    ("req.raw_write", "1100000064f15e7e080c000000000000000400000005060708"),
    ("req.set_joining", "0200000020991ce70901"),
    ("req.set_retiring", "0200000075fa36bb0a00"),
    ("req.crash", "010000000536d0450b"),
    ("req.recover", "01000000a6a3b4db0c"),
    ("req.checkpoint", "010000003093b3ac0d"),
    ("req.stats", "010000008ac2ba350e"),
    ("req.flags", "010000001cf2bd420f"),
    ("req.meta", "01000000e9ffb5cf10"),
    ("req.shutdown", "01000000c59ebb2112"),
    ("req.obs_snapshot", "01000000f03bd8c814"),
    ("req.trace_dump", "06000000192d1f54152000000001"),
    ("req.repl_fetch", "0d000000a5f6726b17001000000000000000020000"),
    ("req.repl_apply", "1700000072fb8fe01880000000000000000a00000003030303030303030303"),
    ("req.repl_status", "010000004d4769b619"),
    ("req.faults", "1a000000be3ea39d1a1500000077616c2e6673796e633d6572723a636f756e743d33"),
    ("req.traced_commit", "12000000e92b4aaf13efbeadde00000000050a00000000000000"),
    ("req.traced_stats", "0a000000d53a3c821305000000000000000e"),
    ("resp.hello", "0e0000009dd4a7708104000300000000400000000006"),
    ("resp.single_committed", "1d00000047fb4e648200020000000100000006000000aaaaaaaaaaaa040000000000000006"),
    ("resp.single_badcmp", "0f00000015c94262820102000000000000000300000006"),
    ("resp.single_busy", "030000004bd1a5c6820206"),
    ("resp.batch", "27000000162e229383030000000000020000000100000006000000aaaaaaaaaaaa0400000000000000010400000206"),
    ("resp.vote_ok", "1d000000de2b2ff58400020000000100000006000000aaaaaaaaaaaa040000000000000006"),
    ("resp.vote_badcmp", "0b000000d97ea5c78401010000000200000006"),
    ("resp.vote_busy", "03000000f9ad28c2840206"),
    ("resp.unit", "02000000c4db4eee8506"),
    ("resp.data", "0b000000f353ce228605000000010203040506"),
    ("resp.bool", "03000000634043eb870106"),
    ("resp.stats", "7b000000f1b87805880100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f000000000000000106"),
    ("resp.flags", "05000000efd610328901000106"),
    ("resp.meta", "38000000294bad528a0200000007000000000000000100000001002a000000000000000200000000000200020000000500000000000000640000000000000006"),
    ("resp.unavailable", "04000000a137f2f68b060006"),
    ("resp.error", "1d0000004523f1fc8c17000000636865636b706f696e74206661696c65643a206e6f706506"),
    ("resp.obs", "090000006d8d67bf8e0300000001020306"),
    ("resp.traces", "0a000000c3ce0b408f040000000000000006"),
    ("resp.frames", "2700000040c0b437914000000000000000000000000000000000040000000000000900000005050505050505050506"),
    ("resp.repl_status", "2a000000b3e6c79492070000000000000009000000000000000b000000000000000d00000000000000020000000000000006"),
    ("resp.faults", "060000001b3393b9930200000006"),
    ("resp.traced_bool", "2e0000009d7f572a8d020000000b00017b00000000000000c8010000000000000d0202e7030000000000000100000000000000870006"),
    ("resp.traced_unit_plain", "2c000000e13a26078d020000000b00017b00000000000000c8010000000000000d0202e703000000000000010000000000000085"),
];

/// The trailer every golden reply was sealed with.
const FLAGS: NodeFlags = NodeFlags {
    crashed: false,
    joining: true,
    retiring: true,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn shard() -> WireShard {
    WireShard {
        compares: vec![(0, 64, Bytes::from(vec![1, 2, 3]))],
        reads: vec![(1, 4096, 100), (2, 8, 8)],
        writes: vec![(3, 8192, Bytes::from(vec![9; 5]))],
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let block = LockPolicy::Block(Duration::from_micros(1500));
    let admin = Request::Admin;
    vec![
        ("req.hello", Request::Hello { version: 4 }),
        (
            "req.exec_single",
            Request::ExecSingle {
                txid: 0x0102030405060708,
                policy: LockPolicy::AbortOnBusy,
                shard: shard(),
            },
        ),
        (
            "req.exec_batch",
            Request::ExecBatch {
                items: vec![
                    WireBatchItem {
                        txid: 7,
                        policy: block,
                        shard: shard(),
                    },
                    WireBatchItem {
                        txid: 8,
                        policy: LockPolicy::AbortOnBusy,
                        shard: WireShard::default(),
                    },
                ],
            },
        ),
        (
            "req.prepare",
            Request::Prepare {
                txid: 9,
                policy: block,
                participants: vec![0, 3, 7],
                shard: shard(),
            },
        ),
        ("req.commit", Request::Commit { txid: 10 }),
        ("req.abort", Request::Abort { txid: 11 }),
        ("req.raw_read", Request::RawRead { off: 4096, len: 77 }),
        (
            "req.raw_write",
            Request::RawWrite {
                off: 12,
                data: Bytes::from(vec![5, 6, 7, 8]),
            },
        ),
        ("req.set_joining", admin(AdminOp::SetJoining(true))),
        ("req.set_retiring", admin(AdminOp::SetRetiring(false))),
        ("req.crash", admin(AdminOp::Crash)),
        ("req.recover", admin(AdminOp::Recover)),
        ("req.checkpoint", admin(AdminOp::Checkpoint)),
        ("req.stats", admin(AdminOp::Stats)),
        ("req.flags", Request::Flags),
        ("req.meta", admin(AdminOp::Meta)),
        ("req.shutdown", admin(AdminOp::Shutdown)),
        ("req.obs_snapshot", admin(AdminOp::ObsSnapshot)),
        (
            "req.trace_dump",
            admin(AdminOp::TraceDump {
                max: 32,
                slow: true,
            }),
        ),
        (
            "req.repl_fetch",
            Request::ReplFetch {
                from: 4096,
                max: 512,
            },
        ),
        (
            "req.repl_apply",
            Request::ReplApply {
                from: 128,
                frames: Bytes::from(vec![3u8; 10]),
            },
        ),
        ("req.repl_status", Request::ReplStatus),
        (
            "req.faults",
            admin(AdminOp::Faults {
                spec: "wal.fsync=err:count=3".into(),
            }),
        ),
        (
            "req.traced_stats",
            Request::Traced {
                trace_id: 5,
                inner: Box::new(admin(AdminOp::Stats)),
            },
        ),
    ]
}

fn stats() -> NodeStats {
    NodeStats {
        single_commits: 1,
        prepares: 2,
        commits: 3,
        aborts: 4,
        busy: 5,
        read_fastpath: 6,
        read_fastpath_misses: 7,
        write_fastpath: 8,
        write_fastpath_misses: 9,
        in_doubt: 10,
        wal_appends: 11,
        wal_bytes: 12,
        wal_fsyncs: 13,
        checkpoints: 14,
        wal_retained_bytes: 15,
        durable: true,
    }
}

fn replies() -> Vec<(&'static str, Response)> {
    let mut meta = NodeMeta::default();
    meta.staged.insert(42, vec![MemNodeId(0), MemNodeId(2)]);
    meta.staged.insert(7, vec![MemNodeId(1)]);
    meta.decided.insert(100);
    meta.decided.insert(5);
    let pairs = vec![(1usize, Bytes::from(vec![0xAA; 6])), (4, Bytes::new())];
    let admin = Response::Admin;
    vec![
        (
            "resp.hello",
            Response::Hello {
                version: 4,
                node: 3,
                capacity: 1 << 30,
            },
        ),
        (
            "resp.single_committed",
            Response::Single(SingleResult::Committed(pairs.clone())),
        ),
        (
            "resp.single_badcmp",
            Response::Single(SingleResult::BadCompare(vec![0, 3])),
        ),
        ("resp.single_busy", Response::Single(SingleResult::Busy)),
        (
            "resp.batch",
            Response::Batch(vec![
                Ok(SingleResult::Committed(pairs.clone())),
                Err(4),
                Ok(SingleResult::Busy),
            ]),
        ),
        ("resp.vote_ok", Response::Vote(Vote::Ok(pairs))),
        (
            "resp.vote_badcmp",
            Response::Vote(Vote::BadCompare(vec![2])),
        ),
        ("resp.vote_busy", Response::Vote(Vote::Busy)),
        ("resp.unit", Response::Unit),
        (
            "resp.data",
            Response::Data(Bytes::from(vec![1, 2, 3, 4, 5])),
        ),
        ("resp.bool", admin(AdminReply::Bool(true))),
        ("resp.stats", admin(AdminReply::Stats(stats()))),
        (
            "resp.flags",
            Response::Flags(NodeFlags {
                crashed: true,
                joining: false,
                retiring: true,
            }),
        ),
        ("resp.meta", admin(AdminReply::Meta(meta))),
        ("resp.unavailable", Response::Unavailable(6)),
        (
            "resp.error",
            Response::Error("checkpoint failed: nope".into()),
        ),
        (
            "resp.obs",
            admin(AdminReply::Obs(Bytes::from(vec![1, 2, 3]))),
        ),
        (
            "resp.traces",
            admin(AdminReply::Traces(Bytes::from(vec![0; 4]))),
        ),
        (
            "resp.frames",
            Response::Frames {
                from: 64,
                base: 0,
                tail: 1024,
                bytes: Bytes::from(vec![5u8; 9]),
            },
        ),
        (
            "resp.repl_status",
            Response::ReplStatus(ReplStatus {
                watermark: 7,
                applied_txid: 9,
                tail: 11,
                applies: 13,
                dup_skips: 2,
            }),
        ),
        ("resp.faults", admin(AdminReply::Faults { armed: 2 })),
    ]
}

fn spans() -> Vec<minuet_obs::SpanRecord> {
    vec![
        minuet_obs::SpanRecord {
            kind: 11,
            tag: 0,
            depth: 1,
            start_ns: 123,
            dur_ns: 456,
        },
        minuet_obs::SpanRecord {
            kind: 13,
            tag: 2,
            depth: 2,
            start_ns: 999,
            dur_ns: 1,
        },
    ]
}

#[test]
fn every_v4_frame_is_byte_identical() {
    assert_eq!(PROTO_VERSION, 4);
    let mut golden: HashMap<&str, &str> = GOLDEN.iter().copied().collect();
    assert_eq!(golden.len(), GOLDEN.len(), "duplicate golden row");

    for (name, req) in requests() {
        let want = golden
            .remove(name)
            .unwrap_or_else(|| panic!("no row {name}"));
        assert_eq!(hex(&req.encode()), want, "{name} moved");
        let (payload, used) = decode_frame(&unhex(want)).expect("golden frame parses");
        assert_eq!(used * 2, want.len());
        assert_eq!(Request::decode(&payload).unwrap(), req, "{name} reads back");
    }
    for (name, resp) in replies() {
        let want = golden
            .remove(name)
            .unwrap_or_else(|| panic!("no row {name}"));
        assert_eq!(hex(&seal_reply(&resp, FLAGS)), want, "{name} moved");
        let (payload, _) = decode_frame(&unhex(want)).expect("golden frame parses");
        let (body, flags) = split_reply_flags(&payload).unwrap();
        assert_eq!(flags, FLAGS);
        assert_eq!(Response::decode(&body).unwrap(), resp, "{name} reads back");
    }

    // The client's unboxed envelope, and both ways of sealing a traced reply.
    let traced = encode_traced_request(0xDEADBEEF, &Request::Commit { txid: 10 });
    assert_eq!(hex(&traced), golden.remove("req.traced_commit").unwrap());
    let inner = encode_response_payload(&Response::Admin(AdminReply::Bool(false)));
    assert_eq!(
        hex(&seal_traced_reply(&spans(), &inner, FLAGS)),
        golden.remove("resp.traced_bool").unwrap()
    );
    let plain = Response::TracedReply {
        spans: spans(),
        inner: Box::new(Response::Unit),
    };
    assert_eq!(
        hex(&plain.encode()),
        golden.remove("resp.traced_unit_plain").unwrap()
    );
    assert!(golden.is_empty(), "rows nothing checked: {golden:?}");
}

/// The admin pair the acceptance criteria name, spelled out: a `Checkpoint`
/// request answered by `Bool`, a `Stats` request answered by `Stats`.
#[test]
fn admin_frames_each_way() {
    let golden: HashMap<&str, &str> = GOLDEN.iter().copied().collect();
    for (op, req_row, reply, reply_row) in [
        (
            AdminOp::Checkpoint,
            "req.checkpoint",
            AdminReply::Bool(true),
            "resp.bool",
        ),
        (
            AdminOp::Stats,
            "req.stats",
            AdminReply::Stats(stats()),
            "resp.stats",
        ),
    ] {
        assert_eq!(hex(&Request::Admin(op).encode()), golden[req_row]);
        let (payload, _) = decode_frame(&unhex(golden[reply_row])).unwrap();
        let (body, _) = split_reply_flags(&payload).unwrap();
        assert_eq!(Response::decode(&body).unwrap().into_admin(), Ok(reply));
    }
}
