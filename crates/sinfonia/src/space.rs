//! Paged, byte-addressable storage space of a memnode.
//!
//! The space is logically a flat array of `capacity` bytes, all initially
//! zero. Physically it is a vector of lazily-allocated fixed-size pages so
//! that sparse address-space layouts (well-known regions at large offsets)
//! do not consume memory until touched.
//!
//! Pages are reference-counted (`Arc`) and copy-on-write:
//!
//! * [`PagedSpace::read`] returns a [`Bytes`] view into the resident page
//!   when the access stays within one page — the hot-path case, since the
//!   address-space layout never splits an object across pages — so a read
//!   costs one refcount bump instead of an allocation + memcpy.
//! * [`PagedSpace::snapshot_clone`] (the checkpoint freeze) is
//!   O(resident pages) refcount bumps; the next write to a shared page
//!   copies just that page (`Arc::make_mut`).

use crate::bytes::Bytes;
use std::sync::{Arc, OnceLock};

/// Size of one physical page. 64 KiB amortizes allocation cost while keeping
/// sparse layouts cheap.
pub const PAGE_SIZE: usize = 64 * 1024;

/// Reads at or above this size share the resident page zero-copy; smaller
/// reads copy. See [`PagedSpace::read`] for the rationale.
pub const SHARE_MIN: usize = 1024;

/// The shared all-zero page served for reads of never-written ranges.
fn zero_page() -> &'static Arc<Vec<u8>> {
    static ZERO: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    ZERO.get_or_init(|| Arc::new(vec![0u8; PAGE_SIZE]))
}

/// Error returned when an access falls outside the configured capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfBounds {
    /// First byte of the offending access.
    pub off: u64,
    /// Length of the offending access.
    pub len: u32,
    /// Configured capacity of the space.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "address space access [{}, {}) out of bounds (capacity {})",
            self.off,
            self.off.saturating_add(self.len as u64),
            self.capacity
        )
    }
}

impl std::error::Error for OutOfBounds {}

/// A paged byte-addressable storage space.
///
/// All bytes read as zero until written. Reads of never-written pages do not
/// allocate.
pub struct PagedSpace {
    pages: Vec<Option<Arc<Vec<u8>>>>,
    capacity: u64,
}

impl PagedSpace {
    /// Creates a space with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        let npages = capacity.div_ceil(PAGE_SIZE as u64) as usize;
        PagedSpace {
            pages: (0..npages).map(|_| None).collect(),
            capacity,
        }
    }

    /// Configured capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of physical pages currently allocated.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// `[off, off + len)` lies inside a space of `capacity` bytes.
    pub(crate) fn check(capacity: u64, off: u64, len: u32) -> Result<(), OutOfBounds> {
        if off.checked_add(len as u64).is_none_or(|end| end > capacity) {
            return Err(OutOfBounds { off, len, capacity });
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `off`. Large accesses within one page
    /// (node images — the dominant transfer) return a refcounted view of
    /// the resident page: no allocation, no copy. Small reads (metadata:
    /// tips, catalog entries, seqnos) are copied instead — sharing them
    /// would pin the whole 64 KiB page and force a copy-on-write the next
    /// time the very same metadata is updated (classic read-modify-write),
    /// costing far more than the few bytes saved. Cross-page accesses
    /// gather into a copy.
    pub fn read(&self, off: u64, len: u32) -> Result<Bytes, OutOfBounds> {
        Self::check(self.capacity, off, len)?;
        if len == 0 {
            return Ok(Bytes::new());
        }
        let page_idx = (off / PAGE_SIZE as u64) as usize;
        let in_page = (off % PAGE_SIZE as u64) as usize;
        if in_page + len as usize <= PAGE_SIZE {
            let page = match &self.pages[page_idx] {
                Some(p) => p,
                None => zero_page(),
            };
            if len as usize >= SHARE_MIN {
                return Ok(Bytes::shared(page.clone(), in_page, len as usize));
            }
            return Ok(Bytes::from(&page[in_page..in_page + len as usize]));
        }
        let mut out = vec![0u8; len as usize];
        self.read_into(off, &mut out);
        Ok(Bytes::from(out))
    }

    /// Reads into a caller-provided buffer; the access must be in bounds
    /// (checked by the caller via `read`).
    fn read_into(&self, off: u64, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            let pos = off + done as u64;
            let page_idx = (pos / PAGE_SIZE as u64) as usize;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(out.len() - done);
            match &self.pages[page_idx] {
                Some(p) => out[done..done + n].copy_from_slice(&p[in_page..in_page + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Writes `data` starting at `off`, allocating pages as needed. Pages
    /// shared with snapshots or outstanding read views are copied first
    /// (copy-on-write).
    pub fn write(&mut self, off: u64, data: &[u8]) -> Result<(), OutOfBounds> {
        Self::check(self.capacity, off, data.len() as u32)?;
        let mut done = 0usize;
        while done < data.len() {
            let pos = off + done as u64;
            let page_idx = (pos / PAGE_SIZE as u64) as usize;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - done);
            let page = self.pages[page_idx].get_or_insert_with(|| Arc::new(vec![0u8; PAGE_SIZE]));
            Arc::make_mut(page)[in_page..in_page + n].copy_from_slice(&data[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Compares the bytes at `[off, off+expected.len())` against `expected`.
    pub fn compare(&self, off: u64, expected: &[u8]) -> Result<bool, OutOfBounds> {
        Self::check(self.capacity, off, expected.len() as u32)?;
        // Fast path: compare page by page without copying.
        let mut done = 0usize;
        while done < expected.len() {
            let pos = off + done as u64;
            let page_idx = (pos / PAGE_SIZE as u64) as usize;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(expected.len() - done);
            let want = &expected[done..done + n];
            let eq = match &self.pages[page_idx] {
                Some(p) => &p[in_page..in_page + n] == want,
                None => want.iter().all(|&b| b == 0),
            };
            if !eq {
                return Ok(false);
            }
            done += n;
        }
        Ok(true)
    }

    /// Iterates over resident pages as `(page index, page bytes)` — the
    /// checkpoint writer's view of the space.
    pub fn resident(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i as u64, p.as_slice())))
    }

    /// Produces a logical copy of this space (replication, checkpoints).
    /// O(resident pages) refcount bumps; data diverges copy-on-write as
    /// either side subsequently writes.
    pub fn snapshot_clone(&self) -> PagedSpace {
        PagedSpace {
            pages: self.pages.clone(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let s = PagedSpace::new(1 << 20);
        assert_eq!(s.read(12345, 16).unwrap(), vec![0u8; 16]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = PagedSpace::new(1 << 20);
        s.write(100, b"hello world").unwrap();
        assert_eq!(s.read(100, 11).unwrap(), b"hello world"[..]);
        assert_eq!(s.read(99, 13).unwrap().to_vec(), {
            let mut v = vec![0u8];
            v.extend_from_slice(b"hello world");
            v.push(0);
            v
        });
    }

    #[test]
    fn cross_page_write_read() {
        let mut s = PagedSpace::new(4 * PAGE_SIZE as u64);
        let off = PAGE_SIZE as u64 - 7;
        let data: Vec<u8> = (0..40u8).collect();
        s.write(off, &data).unwrap();
        assert_eq!(s.read(off, 40).unwrap(), data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn compare_semantics() {
        let mut s = PagedSpace::new(1 << 20);
        assert!(s.compare(500, &[0, 0, 0]).unwrap());
        s.write(500, &[1, 2, 3]).unwrap();
        assert!(s.compare(500, &[1, 2, 3]).unwrap());
        assert!(!s.compare(500, &[1, 2, 4]).unwrap());
        assert!(!s.compare(499, &[1, 2, 3]).unwrap());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut s = PagedSpace::new(100);
        assert!(s.write(90, &[0u8; 20]).is_err());
        assert!(s.read(101, 1).is_err());
        assert!(s.write(0, &[0u8; 100]).is_ok());
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut s = PagedSpace::new(1 << 20);
        s.write(0, b"abc").unwrap();
        let c = s.snapshot_clone();
        s.write(0, b"xyz").unwrap();
        assert_eq!(c.read(0, 3).unwrap(), b"abc"[..]);
        assert_eq!(s.read(0, 3).unwrap(), b"xyz"[..]);
    }

    #[test]
    fn large_in_page_read_is_zero_copy() {
        let mut s = PagedSpace::new(1 << 20);
        s.write(64, &[5u8; 4096]).unwrap();
        let a = s.read(64, 4096).unwrap();
        let b = s.read(64, 4096).unwrap();
        // Both reads view the same resident page: no allocation per read.
        assert!(Bytes::same_buffer(&a, &b));
        // Unwritten single-page reads share the static zero page.
        let z1 = s.read(1 << 19, 4096).unwrap();
        let z2 = s.read((1 << 19) + 8192, 4096).unwrap();
        assert!(Bytes::same_buffer(&z1, &z2));
        assert_eq!(z1, vec![0u8; 4096]);
    }

    #[test]
    fn small_reads_copy_instead_of_pinning_the_page() {
        // Metadata-sized reads must not share the page: a later write to
        // the same page would otherwise pay a 64 KiB copy-on-write.
        let mut s = PagedSpace::new(1 << 20);
        s.write(0, &[1u8; 64]).unwrap();
        let small = s.read(0, 64).unwrap();
        let big = s.read(0, SHARE_MIN as u32).unwrap();
        assert!(!Bytes::same_buffer(&small, &big));
        assert_eq!(small, vec![1u8; 64]);
    }

    #[test]
    fn write_after_read_leaves_outstanding_views_stable() {
        let mut s = PagedSpace::new(1 << 20);
        s.write(0, b"old").unwrap();
        let view = s.read(0, 3).unwrap();
        s.write(0, b"new").unwrap(); // copy-on-write: `view` is shared
        assert_eq!(view, b"old"[..]);
        assert_eq!(s.read(0, 3).unwrap(), b"new"[..]);
    }
}
