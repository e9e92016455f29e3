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
//! | `SGCB` | 3       | block table, value column             | [`crate::columnar`] (`LoadExtraction`)       |
//! | `SGSS` | 3       | snapshot header, one block per server | `seagull_serve::persist::encode_snapshot`    |
//! | `SGJL` | 3       | one record                            | `DeployRecord::encode`, the fleet checkpoint |
//!
//! Every version above is sealed with the four-lane [`checksum64`] (`SGCB` 2
//! was the first, 3 added narrow blocks; `SGSS` 3 added each server's gate);
//! a blob an earlier build sealed with the single-chain sum fails the
//! checksum, which [`open`] checks before the version, and reads as torn.
//!
//! A failure to open is one of two kinds ([`FrameError::is_torn`]): the blob
//! is *torn* — a write or read that stopped early, or bytes that rotted; a
//! re-read or the previous epoch is the answer — or it is *foreign*: intact,
//! but another format or a version this build does not read, and nothing
//! should guess at its contents.

use crate::blobstore::Blob;
use std::fmt;

/// Bytes before the body: magic, version, reserved.
pub const HEADER_LEN: usize = 8;
/// Bytes after the body: the checksum.
pub const FOOTER_LEN: usize = 8;

/// Magic of a single-record blob: one deploy-journal segment
/// (`seagull_serve::persist`) or one checkpoint marker (`seagull_core::fleet`).
/// The record is the body.
pub const JOURNAL_MAGIC: [u8; 4] = *b"SGJL";
/// Current `SGJL` version (1 length-prefixed its records, nothing stored one;
/// 2 was sealed with the single-chain checksum and its deploy record held a
/// second checksum of the whole snapshot blob, not its footer).
pub const JOURNAL_VERSION: u16 = 3;

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
pub fn seal(mut framed: Vec<u8>) -> Blob {
    let sum = checksum64(&framed);
    framed.extend_from_slice(&sum.to_le_bytes());
    Blob::from(framed)
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
    let Some(stored) = footer(blob) else {
        return Err(FrameError::Truncated);
    };
    let framed = &blob[..blob.len() - FOOTER_LEN];
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

/// FNV-1a over 8-byte little-endian words, four chains wide. Lane `j` of four,
/// each from [`FNV_OFFSET`], takes word `j` of every 32-byte quad; the four
/// lane states, in lane order, then the 0–3 whole words left over are folded
/// into one more chain from [`FNV_OFFSET`], and a 1–7-byte tail last, as one
/// zero-padded word with its length in the top byte. Four chains hide the
/// multiply's latency; every step is a bijection in its state and in its
/// word, so a single changed word always changes the sum. Order-sensitive
/// and cheap — this is an integrity check against torn/corrupt reads, not an
/// adversarial hash.
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
    let mut words = words.into_iter().fuse();
    let mut lanes = [FNV_OFFSET; 4];
    loop {
        match [words.next(), words.next(), words.next(), words.next()] {
            [Some(a), Some(b), Some(c), Some(d)] => {
                for (lane, w) in lanes.iter_mut().zip([a, b, c, d]) {
                    *lane = fnv_step(*lane, w);
                }
            }
            left => {
                let left = left.into_iter().flatten();
                return lanes.into_iter().chain(left).fold(FNV_OFFSET, fnv_step);
            }
        }
    }
}

/// The checksum a sealed frame carries: its last eight bytes, or `None` for
/// a blob shorter than an empty frame. Read, not verified — [`open`] is what
/// pins the bytes to it.
pub fn footer(blob: &[u8]) -> Option<u64> {
    if blob.len() < HEADER_LEN + FOOTER_LEN {
        return None;
    }
    blob.last_chunk().map(|&footer| u64::from_le_bytes(footer))
}

/// The single-chain FNV-1a every frame was sealed with before the four-lane
/// [`checksum64`]: each word in turn, a short last word zero-padded with its
/// length in the top byte. The reference the wire-byte pins hash bodies with.
#[cfg(test)]
pub(crate) fn checksum64_single_lane(data: &[u8]) -> u64 {
    data.chunks(8).fold(FNV_OFFSET, |h, chunk| {
        let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        fnv_step(h, word ^ (((chunk.len() % 8) as u64) << 56))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"SGxx";

    fn sealed(body: &[u8]) -> Blob {
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

    /// `len` bytes that are neither zero nor a repeating word.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 251) as u8).collect()
    }

    /// The fold, pinned: no quad, one, and past one, with no word, some words
    /// and a tail left over.
    #[test]
    fn four_lane_fold_known_answers() {
        let pinned: [(usize, u64); 9] = [
            (0, 0xf797_3b6e_20c9_7451),
            (1, 0xcc6e_4d21_b650_a5a3),
            (7, 0xc94d_6410_f54a_3ea3),
            (8, 0x024d_6410_f54a_3ea3),
            (31, 0x4989_fe76_6f1e_5e21),
            (32, 0x6965_7cd1_4823_0d21),
            (33, 0x8780_a89d_9390_0d63),
            (40, 0x5a66_ae28_b3a3_0563),
            (1_000, 0x6e3a_7fa7_975b_8d5c),
        ];
        for (len, sum) in pinned {
            assert_eq!(checksum64(&bytes(len)), sum, "{len} bytes");
        }
        // Four lanes are another sum than one chain, empty input included.
        assert_ne!(checksum64(&[]), FNV_OFFSET);
        assert_eq!(checksum64_single_lane(&[]), FNV_OFFSET);
    }

    #[test]
    fn words_and_bytes_agree() {
        let data = bytes(64 * 8);
        for n in 0..=64 {
            let words = data[..n * 8]
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
            assert_eq!(
                checksum64(&data[..n * 8]),
                checksum64_words(words),
                "{n} words"
            );
        }
        // The tail's length is mixed in: a zero byte more is another sum.
        assert_ne!(checksum64(&data[..9]), checksum64(&data[..8]));
        assert_ne!(checksum64(&[0]), checksum64(&[0, 0]));
    }

    /// Every step is a bijection in its state and in its word, so one flipped
    /// bit anywhere — in a lane, a word left over or the tail — moves the sum.
    #[test]
    fn every_single_bit_flip_changes_the_sum() {
        for len in 1..=80 {
            let data = bytes(len);
            let sum = checksum64(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&flipped), sum, "{len} bytes, bit {bit}");
            }
        }
    }

    #[test]
    fn footer_is_the_sealed_checksum() {
        let blob = sealed(b"payload");
        let framed = &blob[..blob.len() - FOOTER_LEN];
        assert_eq!(footer(&blob), Some(checksum64(framed)));
        // Read, not verified: any eight bytes closing a long enough blob.
        assert_eq!(
            footer(&[7; HEADER_LEN + FOOTER_LEN]),
            Some(0x0707_0707_0707_0707)
        );
        assert_eq!(footer(&blob[..HEADER_LEN + FOOTER_LEN - 1]), None);
    }
}
