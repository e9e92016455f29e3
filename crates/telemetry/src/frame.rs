//! The one frame every stored blob wears.
//!
//! ```text
//! [0..4)    magic
//! [4..6)    version u16
//! [6..8)    reserved u16 (= 0)
//! [8..-8)   body
//! [-8..)    checksum64 over all preceding bytes
//! ```
//!
//! All little-endian. [`header`] and [`seal`] write it, [`open`] is the only
//! reader: it hands back the body or says why not, and a format's decoder
//! walks that body with a [`Cursor`]. Three formats wear it:
//!
//! | magic  | version | body                                  | written by                                   |
//! |--------|---------|---------------------------------------|----------------------------------------------|
//! | `SGCB` | 1       | block table, value column             | [`crate::columnar`] (`LoadExtraction`)       |
//! | `SGSS` | 1       | snapshot header, one block per server | `seagull_serve::persist::encode_snapshot`    |
//! | `SGJL` | 2       | one record                            | `DeployRecord::encode`, the fleet checkpoint |
//!
//! A failure to open is one of two kinds ([`FrameError::is_torn`]): the blob
//! is *torn* — a write or read that stopped early, or bytes that rotted; a
//! re-read or the previous epoch is the answer — or it is *foreign*: intact,
//! but another format or a version this build does not read, and nothing
//! should guess at its contents.

use bytes::Bytes;
use std::fmt;

/// Bytes before the body: magic, version, reserved.
pub const HEADER_LEN: usize = 8;
/// Bytes after the body: the checksum.
pub const FOOTER_LEN: usize = 8;

/// Magic of a single-record blob: one deploy-journal segment
/// (`seagull_serve::persist`) or one checkpoint marker (`seagull_core::fleet`).
/// The record is the body.
pub const JOURNAL_MAGIC: [u8; 4] = *b"SGJL";
/// Current `SGJL` version (1 length-prefixed its records; nothing stored one).
pub const JOURNAL_VERSION: u16 = 2;

/// Why [`open`] refused a blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes present do not start the expected magic.
    BadMagic,
    /// Shorter than an empty frame.
    Truncated,
    /// The footer is not the checksum of the bytes before it.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u64,
        /// Checksum of the bytes before it.
        computed: u64,
    },
    /// Intact, but a version this build does not read.
    UnsupportedVersion {
        /// The version the header declares.
        version: u16,
    },
}

impl FrameError {
    /// True for a blob cut short or corrupted, false for one that is intact
    /// but not ours to read.
    pub fn is_torn(&self) -> bool {
        matches!(
            self,
            FrameError::Truncated | FrameError::ChecksumMismatch { .. }
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::Truncated => write!(f, "truncated below an empty frame"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: footer {stored:#018x}, computed {computed:#018x}"
            ),
            FrameError::UnsupportedVersion { version } => {
                write!(f, "unsupported version {version}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The eight bytes that open a frame.
pub fn header(magic: [u8; 4], version: u16) -> [u8; HEADER_LEN] {
    let mut h = [0; HEADER_LEN];
    h[..4].copy_from_slice(&magic);
    h[4..6].copy_from_slice(&version.to_le_bytes());
    h
}

/// Closes `framed` (a header and a body) with the checksum of its bytes.
pub fn seal(framed: Vec<u8>) -> Bytes {
    let sum = checksum64(&framed);
    seal_with(framed, sum)
}

/// [`seal`] for a writer that folded `sum` along while it wrote.
pub fn seal_with(mut framed: Vec<u8>, sum: u64) -> Bytes {
    framed.extend_from_slice(&sum.to_le_bytes());
    Bytes::from(framed)
}

/// True if `blob` starts with all of `magic` (format sniffing).
pub fn has_magic(blob: &[u8], magic: [u8; 4]) -> bool {
    blob.starts_with(&magic)
}

/// The body of a sealed frame. Checks, in order: the magic, on the bytes
/// present (so a prefix of one of our blobs reads as torn, whatever its
/// length); the minimum length; the checksum; the version. The checksum
/// precedes the version so that a flipped version bit is corruption, not a
/// format from the future, and no byte is believed before the checksum holds.
pub fn open(blob: &[u8], magic: [u8; 4], version: u16) -> Result<&[u8], FrameError> {
    let present = blob.len().min(magic.len());
    if blob[..present] != magic[..present] {
        return Err(FrameError::BadMagic);
    }
    if blob.len() < HEADER_LEN + FOOTER_LEN {
        return Err(FrameError::Truncated);
    }
    let (framed, footer) = blob.split_at(blob.len() - FOOTER_LEN);
    let stored = u64::from_le_bytes(footer.try_into().expect("eight bytes"));
    let computed = checksum64(framed);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    let found = u16::from_le_bytes([blob[4], blob[5]]);
    if found != version {
        return Err(FrameError::UnsupportedVersion { version: found });
    }
    Ok(&framed[HEADER_LEN..])
}

/// A read past the end of a [`Cursor`]'s bytes. Behind a checksum that holds
/// this is a forged or mis-encoded length, not a torn write; each format
/// maps it to its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overrun;

/// Bounds-checked little-endian reads off the front of a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor(bytes)
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Overrun> {
        let (taken, rest) = self.0.split_at_checked(n).ok_or(Overrun)?;
        self.0 = rest;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Overrun> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, Overrun> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, Overrun> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `i64`.
    pub fn i64(&mut self) -> Result<i64, Overrun> {
        self.array().map(i64::from_le_bytes)
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }
}

/// FNV-1a's 64-bit offset basis: where a fold of [`fnv_step`] starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step: fold `word` into `h`.
#[inline]
pub fn fnv_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a folded over 8-byte little-endian words (with the tail length mixed
/// into the last word). Order-sensitive and cheap — this is an integrity
/// check against torn/corrupt reads, not an adversarial hash.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    let mut h = checksum64_words(
        chunks
            .by_ref()
            .map(|c| u64::from_le_bytes(c.try_into().expect("eight bytes"))),
    );
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = fnv_step(h, u64::from_le_bytes(last) ^ ((rem.len() as u64) << 56));
    }
    h
}

/// [`checksum64`] of the little-endian bytes of `words`, for a caller that
/// would otherwise serialize them only to hash the buffer.
pub fn checksum64_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(FNV_OFFSET, fnv_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"SGxx";

    fn sealed(body: &[u8]) -> Bytes {
        let mut framed = header(MAGIC, 3).to_vec();
        framed.extend_from_slice(body);
        seal(framed)
    }

    #[test]
    fn open_returns_what_was_sealed() {
        for body in [&b""[..], b"x", b"a record of some length"] {
            let blob = sealed(body);
            assert_eq!(blob.len(), HEADER_LEN + body.len() + FOOTER_LEN);
            assert_eq!(open(&blob, MAGIC, 3), Ok(body));
            assert!(has_magic(&blob, MAGIC));
        }
    }

    /// The check order: magic on the bytes present, length, checksum, and
    /// only then the version.
    #[test]
    fn every_prefix_is_torn_and_every_flip_is_caught() {
        let blob = sealed(b"payload").to_vec();
        for cut in 0..blob.len() {
            let err = open(&blob[..cut], MAGIC, 3).unwrap_err();
            assert!(err.is_torn(), "cut at {cut}: {err}");
            assert_eq!(err == FrameError::Truncated, cut < 16, "cut at {cut}");
        }
        for bit in 0..blob.len() * 8 {
            let mut bad = blob.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = open(&bad, MAGIC, 3).unwrap_err();
            if bit / 8 < MAGIC.len() {
                assert_eq!(err, FrameError::BadMagic, "flip of bit {bit}");
            } else {
                assert!(
                    matches!(err, FrameError::ChecksumMismatch { .. }),
                    "flip of bit {bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn foreign_blobs_are_not_torn() {
        let blob = sealed(b"payload");
        let other = open(&blob, *b"SGyy", 3).unwrap_err();
        assert_eq!(other, FrameError::BadMagic);
        let newer = open(&blob, MAGIC, 4).unwrap_err();
        assert_eq!(newer, FrameError::UnsupportedVersion { version: 3 });
        assert!(!other.is_torn() && !newer.is_torn());
        assert_eq!(open(b"SGy", MAGIC, 3), Err(FrameError::BadMagic));
        assert!(!has_magic(b"SGx", MAGIC));
    }

    #[test]
    fn cursor_reads_in_order_and_never_past_the_end() {
        let mut bytes = 7u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-9i64).to_le_bytes());
        bytes.extend_from_slice(b"abc");
        let mut r = Cursor::new(&bytes);
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.i64(), Ok(-9));
        assert_eq!(r.u32(), Err(Overrun));
        assert_eq!(r.take(usize::MAX), Err(Overrun));
        assert_eq!(r.rest(), b"abc", "a refused read consumes nothing");
        assert_eq!(r.take(3), Ok(&b"abc"[..]));
        assert_eq!(r.take(0), Ok(&b""[..]));
    }

    #[test]
    fn words_and_bytes_agree() {
        let words = [1u64, u64::MAX, 0x0123_4567_89ab_cdef];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(checksum64(&bytes), checksum64_words(words));
        assert_eq!(checksum64(&[]), FNV_OFFSET);
        // The tail's length is mixed in: a zero byte more is another sum.
        assert_ne!(checksum64(&bytes[..9]), checksum64(&bytes[..8]));
        assert_ne!(checksum64(&[0]), checksum64(&[0, 0]));
    }
}
