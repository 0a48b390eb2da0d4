//! Checkpoint images of a memnode.
//!
//! A checkpoint captures, at one consistent freeze point of the redo log
//! (see [`crate::wal`]'s locking contract): the resident pages of the
//! [`PagedSpace`], the prepared-but-undecided transaction set, and the set
//! of decided (committed) two-phase transaction ids. After the image is
//! installed in the log's store ([`crate::wal::Wal::install_image`]), the
//! log prefix it covers is dropped, bounding both recovery time and log
//! size.
//!
//! An image is one [`NodeState`] written down: what the fields are, and
//! why the decided set and the replication watermark must ride it, is
//! said once, on that type.

use crate::addr::MemNodeId;
use crate::crc::crc32;
use crate::memnode::PreparedTx;
use crate::space::{PagedSpace, PAGE_SIZE};
use crate::state::NodeState;
use crate::wal::{put_prepared, Cur};
use minuet_faults as faults;
use std::collections::{HashMap, HashSet};
use std::io;

/// Image file magic ("MNUET" checkpoint, format 2 — format 1 plus the
/// replication watermark).
pub const MAGIC: &[u8; 8] = b"MNUCKPT2";

/// Serializes an image of a state frozen, with the log tail it matches,
/// under the log's appender lock. The four arguments are a
/// [`NodeState`]'s fields; the format has no `max_txid`, and a decoded
/// image restarts it from the ids it holds.
pub fn encode_image(
    space: &PagedSpace,
    staged: &HashMap<u64, PreparedTx>,
    decided: &HashSet<u64>,
    repl_watermark: u64,
) -> Vec<u8> {
    let npages = space.resident().count() as u64;
    let mut out = Vec::with_capacity(64 + (npages as usize) * (PAGE_SIZE + 8));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&space.capacity().to_le_bytes());
    out.extend_from_slice(&repl_watermark.to_le_bytes());

    out.extend_from_slice(&(decided.len() as u64).to_le_bytes());
    let mut decided: Vec<u64> = decided.iter().copied().collect();
    decided.sort_unstable();
    for txid in decided {
        out.extend_from_slice(&txid.to_le_bytes());
    }

    out.extend_from_slice(&(staged.len() as u32).to_le_bytes());
    let mut staged: Vec<(&u64, &PreparedTx)> = staged.iter().collect();
    staged.sort_by_key(|(txid, _)| **txid);
    for (txid, tx) in staged {
        out.extend_from_slice(&txid.to_le_bytes());
        let participants = tx.participants.iter().map(|p| p.0);
        put_prepared(&mut out, participants, &tx.spans, &tx.writes);
    }

    out.extend_from_slice(&npages.to_le_bytes());
    for (idx, page) in space.resident() {
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(page);
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserializes an image; `None` on bad magic, CRC mismatch, or any
/// structural corruption.
pub fn decode_image(buf: &[u8]) -> Option<NodeState> {
    if buf.len() < MAGIC.len() + 4 || &buf[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    if crc32(body) != Cur::new(crc_bytes).u32()? {
        return None;
    }
    let mut c = Cur::new(&body[MAGIC.len()..]);

    let capacity = c.u64()?;
    let repl_watermark = c.u64()?;
    let mut space = PagedSpace::new(capacity);

    let ndecided = c.u64()?;
    let mut decided = HashSet::with_capacity(ndecided.min(1 << 20) as usize);
    for _ in 0..ndecided {
        decided.insert(c.u64()?);
    }

    let nstaged = c.u32()?;
    let mut staged = HashMap::with_capacity(nstaged.min(1 << 16) as usize);
    for _ in 0..nstaged {
        let txid = c.u64()?;
        let (participants, spans, writes) = c.prepared()?;
        let participants = participants.into_iter().map(MemNodeId).collect();
        let tx = PreparedTx {
            spans,
            writes,
            participants,
        };
        staged.insert(txid, tx);
    }

    let npages = c.u64()?;
    for _ in 0..npages {
        let idx = c.u64()?;
        let page = c.take(PAGE_SIZE)?;
        let off = idx.checked_mul(PAGE_SIZE as u64)?;
        // The final page of a capacity that is not page-aligned is stored
        // in full (in-memory pages are whole); restore only the
        // in-capacity prefix.
        let len = PAGE_SIZE.min(capacity.checked_sub(off)? as usize);
        space.write(off, &page[..len]).ok()?;
    }
    if !c.finished() {
        return None;
    }
    let max_txid = staged.keys().chain(&decided).copied().max().unwrap_or(0);
    Some(NodeState {
        space,
        staged,
        decided,
        repl_watermark,
        max_txid,
    })
}

/// Installs an image atomically, in two stages whatever the medium:
/// `stage` puts the bytes beside the current image (on disk a synced
/// sibling file), `swap` makes them the image (a rename, then a directory
/// sync). A crash or failure before the swap leaves the previous image
/// intact. The `ckpt.write` failpoint fires in place of the first stage —
/// an injected ENOSPC leaves a torn half-written sibling, as a real one
/// would — and `ckpt.rename` in place of the second.
pub(crate) fn write_atomic(
    bytes: Vec<u8>,
    stage: impl FnOnce(&[u8]) -> io::Result<()>,
    swap: impl FnOnce(Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    if let Some(a) = faults::check_delay(faults::Site::CkptWrite) {
        if a == faults::Action::Panic {
            panic!("injected panic at ckpt.write");
        }
        if a == faults::Action::NoSpace || matches!(a, faults::Action::ShortWrite(_)) {
            let _ = stage(&bytes[..bytes.len() / 2]);
        }
        return Err(faults::io_error(faults::Site::CkptWrite, a));
    }
    stage(&bytes)?;
    if let Some(a) = faults::check_delay(faults::Site::CkptRename) {
        if a == faults::Action::Panic {
            panic!("injected panic at ckpt.rename");
        }
        return Err(faults::io_error(faults::Site::CkptRename, a));
    }
    swap(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_roundtrip() {
        let mut space = PagedSpace::new(4 * PAGE_SIZE as u64);
        space.write(10, b"hello").unwrap();
        space.write(PAGE_SIZE as u64 * 2 + 5, &[7u8; 100]).unwrap();
        let mut staged = HashMap::new();
        staged.insert(
            42u64,
            PreparedTx {
                spans: vec![(0, 8)],
                writes: vec![(0, crate::bytes::Bytes::from(vec![1, 2, 3]))],
                participants: vec![MemNodeId(0), MemNodeId(2)],
            },
        );
        let decided: HashSet<u64> = [7, 9].into_iter().collect();

        let bytes = encode_image(&space, &staged, &decided, 777);
        let img = decode_image(&bytes).expect("decodes");
        assert_eq!(img.repl_watermark, 777);
        assert_eq!(img.space.capacity(), space.capacity());
        assert_eq!(img.space.read(10, 5).unwrap(), b"hello");
        assert_eq!(
            img.space.read(PAGE_SIZE as u64 * 2 + 5, 100).unwrap(),
            vec![7u8; 100]
        );
        assert_eq!(img.space.resident_pages(), 2);
        assert_eq!(img.decided, decided);
        let tx = &img.staged[&42];
        assert_eq!(tx.spans, vec![(0, 8)]);
        assert_eq!(
            tx.writes,
            vec![(0, crate::bytes::Bytes::from(vec![1, 2, 3]))]
        );
        assert_eq!(tx.participants, vec![MemNodeId(0), MemNodeId(2)]);
    }

    #[test]
    fn partial_final_page_roundtrips() {
        // Capacity not a multiple of PAGE_SIZE, with the last (partial)
        // page resident: the image must decode and restore the prefix.
        let capacity = PAGE_SIZE as u64 + 4096;
        let mut space = PagedSpace::new(capacity);
        space.write(capacity - 8, &[9u8; 8]).unwrap();
        let bytes = encode_image(&space, &HashMap::new(), &HashSet::new(), 0);
        let img = decode_image(&bytes).expect("partial final page decodes");
        assert_eq!(img.space.capacity(), capacity);
        assert_eq!(img.space.read(capacity - 8, 8).unwrap(), vec![9u8; 8]);
    }

    #[test]
    fn corrupt_image_rejected() {
        let space = PagedSpace::new(PAGE_SIZE as u64);
        let mut bytes = encode_image(&space, &HashMap::new(), &HashSet::new(), 0);
        assert!(decode_image(&bytes).is_some());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        assert!(decode_image(&bytes).is_none());
        assert!(decode_image(b"short").is_none());
    }

    #[test]
    fn atomic_write_and_load() {
        use crate::wal::{ckpt_path, DurabilityConfig, SyncMode, Wal};
        let cfg = DurabilityConfig::ephemeral("ckpt", SyncMode::None);
        let wal = Wal::durable(&cfg, MemNodeId(0), true).unwrap();
        let load = || crate::recovery::recover_node(&wal, PAGE_SIZE as u64);
        assert!(wal.read_back().unwrap().0.is_none());
        let mut space = PagedSpace::new(PAGE_SIZE as u64);
        space.write(0, b"x").unwrap();
        let bytes = encode_image(&space, &HashMap::new(), &HashSet::new(), 0);
        wal.install_image(bytes, 0).unwrap();
        let img = load().unwrap();
        assert_eq!(img.space.read(0, 1).unwrap(), b"x");
        // Corrupt image on disk is an error, not "absent".
        let path = ckpt_path(cfg.dir.as_deref().unwrap(), MemNodeId(0));
        std::fs::write(&path, b"MNUCKPT2garbage").unwrap();
        assert!(load().is_err());
    }
}
