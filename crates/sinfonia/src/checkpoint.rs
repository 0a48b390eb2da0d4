//! Checkpoint images of a memnode.
//!
//! A checkpoint captures, at one consistent freeze point of the redo log
//! (see [`crate::wal`]'s locking contract): the resident pages of the
//! [`PagedSpace`], the prepared-but-undecided transaction set, and the set
//! of decided (committed) two-phase transaction ids. After the image is
//! durably on disk — written to a sibling file, fsynced, then renamed over
//! the previous image — the log prefix it covers is dropped, bounding both
//! recovery time and log size.
//!
//! An image is one [`NodeState`] written down: what the fields are, and
//! why the decided set and the replication watermark must ride it, is
//! said once, on that type.

use crate::memnode::PreparedTx;
use crate::space::{PagedSpace, PAGE_SIZE};
use crate::state::NodeState;
use crate::wal::{crc32, put_writes, Cur};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

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
        out.extend_from_slice(&(tx.participants.len() as u16).to_le_bytes());
        for p in &tx.participants {
            out.extend_from_slice(&p.0.to_le_bytes());
        }
        out.extend_from_slice(&(tx.spans.len() as u32).to_le_bytes());
        for (a, b) in &tx.spans {
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        put_writes(&mut out, &tx.writes);
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
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
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
        let np = c.u16()? as usize;
        let mut participants = Vec::with_capacity(np);
        for _ in 0..np {
            participants.push(crate::addr::MemNodeId(c.u16()?));
        }
        let ns = c.u32()? as usize;
        let mut spans = Vec::with_capacity(ns.min(1024));
        for _ in 0..ns {
            spans.push((c.u64()?, c.u64()?));
        }
        staged.insert(
            txid,
            PreparedTx {
                spans,
                writes: c.writes()?,
                participants,
            },
        );
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

/// Writes an image atomically: sibling file, fsync, rename, directory
/// fsync. A crash mid-write leaves the previous image intact.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use minuet_faults as faults;
    let tmp = path.with_extension("tmp");
    if let Some(a) = faults::check_delay(faults::Site::CkptWrite) {
        if a == faults::Action::Panic {
            panic!("injected panic at ckpt.write");
        }
        // An injected ENOSPC mid-write leaves a torn sibling behind, as a
        // real one would; the previous image is untouched either way.
        if a == faults::Action::NoSpace || matches!(a, faults::Action::ShortWrite(_)) {
            let half = bytes.len() / 2;
            let _ = File::create(&tmp).and_then(|mut f| f.write_all(&bytes[..half]));
        }
        return Err(faults::io_error(faults::Site::CkptWrite, a));
    }
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    if let Some(a) = faults::check_delay(faults::Site::CkptRename) {
        if a == faults::Action::Panic {
            panic!("injected panic at ckpt.rename");
        }
        return Err(faults::io_error(faults::Site::CkptRename, a));
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads the image at `path`; `Ok(None)` when no checkpoint exists yet.
///
/// A present-but-corrupt image is an error (not silently ignored): the log
/// prefix it covered is gone, so treating it as absent would lose data.
pub fn load(path: &Path) -> io::Result<Option<NodeState>> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    decode_image(&buf).map(Some).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt checkpoint image at {}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::MemNodeId;

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
        let cfg = crate::wal::DurabilityConfig::ephemeral("ckpt", crate::wal::SyncMode::None);
        let dir = cfg.dir.unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.img");
        assert!(load(&path).unwrap().is_none());
        let mut space = PagedSpace::new(PAGE_SIZE as u64);
        space.write(0, b"x").unwrap();
        let bytes = encode_image(&space, &HashMap::new(), &HashSet::new(), 0);
        write_atomic(&path, &bytes).unwrap();
        let img = load(&path).unwrap().expect("present");
        assert_eq!(img.space.read(0, 1).unwrap(), b"x");
        // Corrupt image on disk is an error, not "absent".
        std::fs::write(&path, b"MNUCKPT2garbage").unwrap();
        assert!(load(&path).is_err());
    }
}
