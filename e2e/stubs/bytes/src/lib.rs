//! Offline stand-in for the part of `bytes` 1.x that the seagull crates
//! use. [`Bytes`] keeps the properties the code relies on: building one
//! from a `Vec<u8>` does not copy, and `clone` / `slice` share the buffer.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// An immutable, reference-counted byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// A buffer over static data; never allocates.
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Bytes held.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A view of `range` sharing this buffer. Panics when out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end,
            "range start must not be greater than end: {begin} <= {end}"
        );
        assert!(end <= len, "range end out of bounds: {end} <= {len}");
        Bytes {
            repr: self.repr.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(data) => &data[self.start..self.end],
            Repr::Shared(data) => &data[self.start..self.end],
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            repr: Repr::Shared(Arc::new(data)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(data: String) -> Bytes {
        Bytes::from(data.into_bytes())
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

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            match b {
                b'\n' => write!(f, "\\n")?,
                b'\r' => write!(f, "\\r")?,
                b'\t' => write!(f, "\\t")?,
                b'\\' | b'"' => write!(f, "\\{}", b as char)?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}
