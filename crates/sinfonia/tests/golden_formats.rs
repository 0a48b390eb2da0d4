//! Golden bytes: the wire, redo-log and checkpoint formats did not move.
//!
//! Every constant below was captured from the commit *before* the
//! word-at-a-time CRC, the buffered frame reader and the single-buffer
//! log append landed. The encoders must reproduce them bit for bit and
//! the decoders must accept them — the proof that `PROTO_VERSION` stays 4
//! and that old logs and images replay.

use minuet_sinfonia::checkpoint::{decode_image, encode_image};
use minuet_sinfonia::memnode::{PreparedTx, SingleResult};
use minuet_sinfonia::space::PagedSpace;
use minuet_sinfonia::wal::{parse_log, OwnedRecord, Record, Wal};
use minuet_sinfonia::wire::{
    decode_frame, seal_reply, split_reply_flags, NodeFlags, Request, Response, WireShard,
};
use minuet_sinfonia::{Bytes, DurabilityConfig, LockPolicy, MemNodeId, SyncMode};
use std::collections::{HashMap, HashSet};

const EXEC_SINGLE_FRAME: &str = "\
    7700000008420d71020807060504030201000100000000000000400000000000\
    000008000000110e2f4c6d8aabc8010000000100000000100000000000006400\
    00000100000002000000002000000000000029000000223d1c7f5eb998fbda35\
    147756b190f3d22d0c6f4ea988ebca25046746a180e3c2dd3c1f7e59b89bfa";
const SINGLE_REPLY_FRAME: &str = "\
    34000000befc874c8200010000000100000025000000332c0d6e4fa889eacb24\
    056647a081e2c33c1d7e5fb899fadb34157657b091f2d3cc2d0e6f02";
const WAL_APPLY_PREPARE: &str = "\
    57000000f1c32029010700000000000000020000008000000000000000320000\
    00445b7a1938dffe9dbc53721130d7f695b44b6a0928cfee8dac43620120c7e6\
    85a4bb5a79183fdefd9cb352711037d6f594ab00000000000000000000000081\
    0000001198fe8602080000000000000002000000030002000000000000000000\
    000008000000000000008000000000000000b200000000000000020000008000\
    00000000000032000000445b7a1938dffe9dbc53721130d7f695b44b6a0928cf\
    ee8dac43620120c7e685a4bb5a79183fdefd9cb352711037d6f594ab00000000\
    0000000000000000";
const CHECKPOINT_IMAGE: &str = "\
    4d4e55434b505432000010000000000009030000000000000200000000000000\
    07000000000000000900000000000000010000002a0000000000000002000000\
    0200010000000000000000000000080000000000000002000000800000000000\
    000032000000445b7a1938dffe9dbc53721130d7f695b44b6a0928cfee8dac43\
    620120c7e685a4bb5a79183fdefd9cb352711037d6f594ab0000000000000000\
    0000000000000000000000007499aa59";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A payload long enough to cross several 16-byte CRC blocks plus a tail.
fn payload(n: usize, salt: u8) -> Bytes {
    Bytes::from(
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31) ^ salt)
            .collect::<Vec<_>>(),
    )
}

fn exec_single() -> Request {
    Request::ExecSingle {
        txid: 0x0102_0304_0506_0708,
        policy: LockPolicy::AbortOnBusy,
        shard: WireShard {
            compares: vec![(0, 64, payload(8, 0x11))],
            reads: vec![(1, 4096, 100)],
            writes: vec![(2, 8192, payload(41, 0x22))],
        },
    }
}

fn single_reply() -> (Response, NodeFlags) {
    (
        Response::Single(SingleResult::Committed(vec![(1, payload(37, 0x33))])),
        NodeFlags {
            crashed: false,
            joining: true,
            retiring: false,
        },
    )
}

fn log_writes() -> Vec<(u64, Bytes)> {
    vec![(128, payload(50, 0x44)), (0, Bytes::new())]
}

#[test]
fn exec_single_frame_is_byte_identical() {
    let frame = exec_single().encode();
    assert_eq!(hex(&frame), EXEC_SINGLE_FRAME);
    let (body, used) = decode_frame(&frame).expect("golden frame decodes");
    assert_eq!(used, frame.len());
    assert_eq!(Request::decode(&body).unwrap(), exec_single());
}

#[test]
fn single_reply_frame_is_byte_identical() {
    let (resp, flags) = single_reply();
    let frame = seal_reply(&resp, flags);
    assert_eq!(hex(&frame), SINGLE_REPLY_FRAME);
    let (body, _) = decode_frame(&frame).expect("golden reply decodes");
    let (body, got_flags) = split_reply_flags(&body).unwrap();
    assert_eq!(got_flags, flags);
    assert_eq!(Response::decode(&body).unwrap(), resp);
}

#[test]
fn wal_frames_are_byte_identical() {
    let dir = DurabilityConfig::ephemeral("golden", SyncMode::None)
        .dir
        .unwrap();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let writes = log_writes();
    let wal = Wal::open(&path, SyncMode::None).unwrap();
    {
        let mut a = wal.lock();
        a.append(&Record::Apply {
            txid: 7,
            writes: &writes,
        })
        .unwrap();
        a.append(&Record::Prepare {
            txid: 8,
            participants: &[0, 3],
            spans: &[(0, 8), (128, 178)],
            writes: &writes,
        })
        .unwrap();
    }
    drop(wal);
    let log = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&log), WAL_APPLY_PREPARE);
    let (recs, valid) = parse_log(&log);
    assert_eq!(valid, log.len() as u64);
    assert_eq!(
        recs,
        vec![
            OwnedRecord::Apply {
                txid: 7,
                writes: writes.clone(),
            },
            OwnedRecord::Prepare {
                txid: 8,
                participants: vec![0, 3],
                spans: vec![(0, 8), (128, 178)],
                writes,
            },
        ]
    );
}

#[test]
fn checkpoint_image_is_byte_identical() {
    // No resident page (a page is 64 KiB of raw bytes); the decided set,
    // one staged transaction and the CRC trailer carry the format.
    let space = PagedSpace::new(1 << 20);
    let staged: HashMap<u64, PreparedTx> = [(
        42,
        PreparedTx {
            spans: vec![(0, 8)],
            writes: log_writes(),
            participants: vec![MemNodeId(0), MemNodeId(2)],
        },
    )]
    .into_iter()
    .collect();
    let decided: HashSet<u64> = [7, 9].into_iter().collect();
    let image = encode_image(&space, &staged, &decided, 777);
    assert_eq!(hex(&image), CHECKPOINT_IMAGE);
    let img = decode_image(&image).expect("golden image decodes");
    assert_eq!(img.repl_watermark, 777);
    assert_eq!(img.decided, decided);
    assert_eq!(img.staged[&42].writes, log_writes());
}
