//! `Bytes`: a cheaply clonable, reference-counted byte slice.
//!
//! The zero-copy data plane threads one buffer type through every layer
//! that used to copy payloads: [`crate::space::PagedSpace::read`] returns a
//! slice of the resident page it read from (an `Arc` bump, no allocation),
//! minitransaction write items carry their payload as `Bytes` so staging a
//! prepare or building a redo record never duplicates it, and read results
//! hand the same buffer up to the client. Cloning is a reference-count
//! increment; slicing narrows the view without touching the data.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A reference-counted view into an immutable byte buffer.
///
/// ```
/// use minuet_sinfonia::Bytes;
///
/// let b = Bytes::from(vec![1u8, 2, 3, 4]);
/// let tail = b.slice(2, 2);
/// assert_eq!(&*tail, &[3, 4]);
/// // Clones and slices share the underlying buffer.
/// assert!(Bytes::same_buffer(&b, &tail));
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

fn empty_buf() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

impl Bytes {
    /// An empty slice (no allocation).
    pub fn new() -> Bytes {
        Bytes {
            buf: empty_buf().clone(),
            off: 0,
            len: 0,
        }
    }

    /// Wraps a shared buffer, viewing `[off, off+len)`.
    pub fn shared(buf: Arc<Vec<u8>>, off: usize, len: usize) -> Bytes {
        debug_assert!(off + len <= buf.len());
        Bytes { buf, off, len }
    }

    /// Copies a plain slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// A narrower view of the same buffer (no copy).
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        assert!(off + len <= self.len, "slice out of range");
        Bytes {
            buf: self.buf.clone(),
            off: self.off + off,
            len,
        }
    }

    /// Length of the view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Extracts the bytes as an owned vector (copies).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Length of the whole buffer the view keeps alive.
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// True if both views share one underlying buffer — the zero-copy
    /// tests' witness that no hidden deep copy happened.
    pub fn same_buffer(a: &Bytes, b: &Bytes) -> bool {
        Arc::ptr_eq(&a.buf, &b.buf)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl<const N: usize> TryFrom<Bytes> for [u8; N] {
    type Error = std::array::TryFromSliceError;
    fn try_from(b: Bytes) -> Result<Self, Self::Error> {
        b.as_slice().try_into()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_free_and_shared() {
        let a = Bytes::new();
        let b = Bytes::default();
        assert!(a.is_empty());
        assert!(Bytes::same_buffer(&a, &b));
    }

    #[test]
    fn slice_shares_buffer() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2, 3);
        assert_eq!(&*s, &[2, 3, 4]);
        assert!(Bytes::same_buffer(&b, &s));
        assert_eq!((s.len(), s.buffer_len()), (3, 6));
        let s2 = s.slice(1, 1);
        assert_eq!(&*s2, &[3]);
        assert!(Bytes::same_buffer(&b, &s2));
    }

    #[test]
    fn clone_is_refcount_bump() {
        let b = Bytes::from(vec![7u8; 64]);
        let c = b.clone();
        assert!(Bytes::same_buffer(&b, &c));
        assert_eq!(b, c);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_bounds_checked() {
        Bytes::from(vec![1u8, 2]).slice(1, 2);
    }

    #[test]
    fn equality_against_plain_types() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b, vec![1u8, 2, 3]);
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b, &[1u8, 2, 3][..]);
    }
}
