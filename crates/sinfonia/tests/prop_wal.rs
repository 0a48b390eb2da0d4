//! Property tests for redo-log robustness: a log whose tail is torn
//! (truncated mid-frame) or corrupted at an arbitrary byte must recover
//! to the state after some *prefix* of the committed transactions —
//! truncating at the last valid record, never panicking.
//!
//! Plus the checksum those frames rest on: [`crc32`], through whichever
//! kernel this build dispatches to, must equal a table-free bitwise
//! CRC-32/IEEE on every input.

use minuet_sinfonia::crc::crc32;
use minuet_sinfonia::{
    ClusterConfig, DurabilityConfig, ItemRange, MemNodeId, Minitransaction, SinfoniaCluster,
    SyncMode,
};
use proptest::prelude::*;

/// Commits `ntx` minitransactions, each writing slot `i` := `i + 1`, then
/// returns the cluster config and wal file path.
fn build_log(ntx: u64) -> (ClusterConfig, std::path::PathBuf, std::path::PathBuf) {
    let durability = DurabilityConfig {
        checkpoint_log_bytes: 0,
        ..DurabilityConfig::ephemeral("prop-wal", SyncMode::Sync)
    };
    let dir = durability.dir.clone().unwrap();
    let cfg = ClusterConfig {
        memnodes: 1,
        capacity_per_node: 1 << 20,
        durability,
        ..Default::default()
    };
    let c = SinfoniaCluster::new(cfg.clone());
    for i in 0..ntx {
        let mut m = Minitransaction::new();
        m.write(
            ItemRange::new(MemNodeId(0), i * 8, 8),
            (i + 1).to_le_bytes().to_vec(),
        );
        assert!(c.execute(&m).unwrap().committed());
    }
    drop(c);
    let wal = minuet_sinfonia::wal::wal_path(&dir, MemNodeId(0));
    (cfg, dir, wal)
}

/// Recovery must succeed and yield exactly the writes of transactions
/// `0..k` for some `k <= ntx` (a clean prefix — no holes, no garbage).
fn assert_prefix_state(cfg: ClusterConfig, ntx: u64) {
    let (c, res) = SinfoniaCluster::restart_from_disk(cfg).expect("recovery must not fail");
    assert_eq!(res.committed + res.aborted, 0);
    let node = c.node(MemNodeId(0));
    let mut seen_zero = false;
    for i in 0..ntx {
        let raw = node.raw_read(i * 8, 8).unwrap();
        let v = u64::from_le_bytes(raw.try_into().unwrap());
        if v == 0 {
            seen_zero = true;
        } else {
            assert!(!seen_zero, "hole before slot {i}: non-prefix recovery");
            assert_eq!(v, i + 1, "slot {i} holds garbage");
        }
    }
}

/// CRC-32/IEEE one bit at a time, straight from the polynomial: shares no
/// table and no loop structure with the implementation under test.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

#[test]
fn crc32_known_vectors() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

/// Every length 0..=80 at every start offset 0..16 of one buffer: all
/// combinations of head alignment, whole 16-byte blocks and tail length.
#[test]
fn crc32_matches_oracle_at_every_alignment() {
    let buf: Vec<u8> = (0..96u32).map(|i| (i * 151 + 7) as u8).collect();
    for start in 0..16 {
        for len in 0..=80 {
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
        }
    }
}

#[test]
fn crc32_single_bit_flip_changes_the_sum() {
    let mut page = vec![0x5Au8; 4096];
    let clean = crc32(&page);
    for pos in [0, 15, 16, 2047, 4080, 4095] {
        for bit in 0..8 {
            page[pos] ^= 1 << bit;
            assert_ne!(crc32(&page), clean, "flip at {pos}.{bit} undetected");
            page[pos] ^= 1 << bit;
        }
    }
    assert_eq!(crc32(&page), clean);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..Default::default() })]

    #[test]
    fn crc32_matches_oracle_on_random_input(
        data in proptest::collection::vec(any::<u8>(), 0..(64 << 10)),
    ) {
        prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
    }

    /// Truncating the log at any byte recovers a clean prefix.
    #[test]
    fn truncated_tail_recovers_prefix(ntx in 3u64..10, cut_pm in 0u64..1000) {
        let (cfg, dir, wal) = build_log(ntx);
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = len * cut_pm / 1000;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        assert_prefix_state(cfg, ntx);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Flipping any single byte recovers a clean prefix (the CRC framing
    /// rejects the damaged record and everything after it).
    #[test]
    fn corrupted_byte_recovers_prefix(ntx in 3u64..10, pos_pm in 0u64..1000) {
        let (cfg, dir, wal) = build_log(ntx);
        let mut buf = std::fs::read(&wal).unwrap();
        let pos = ((buf.len() as u64 - 1) * pos_pm / 1000) as usize;
        buf[pos] ^= 0xA5;
        std::fs::write(&wal, &buf).unwrap();
        assert_prefix_state(cfg, ntx);
        let _ = std::fs::remove_dir_all(dir);
    }
}
