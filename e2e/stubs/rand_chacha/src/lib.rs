//! Offline stand-in for `rand_chacha` 0.3. The generators emit the ChaCha
//! keystream (64-bit block counter from 0, stream id 0) as little-endian
//! `u32` words in block order, which is what the real crate's four-block
//! buffer yields; `next_u64` takes two consecutive words, low word first.

use rand::{RngCore, SeedableRng};

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

macro_rules! chacha_rng {
    ($name:ident, $double_rounds:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            key: [u32; 8],
            counter: u64,
            block: [u32; 16],
            index: usize,
        }

        impl $name {
            fn refill(&mut self) {
                let mut init = [0u32; 16];
                init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
                init[4..12].copy_from_slice(&self.key);
                init[12] = self.counter as u32;
                init[13] = (self.counter >> 32) as u32;
                let mut s = init;
                for _ in 0..$double_rounds {
                    quarter(&mut s, 0, 4, 8, 12);
                    quarter(&mut s, 1, 5, 9, 13);
                    quarter(&mut s, 2, 6, 10, 14);
                    quarter(&mut s, 3, 7, 11, 15);
                    quarter(&mut s, 0, 5, 10, 15);
                    quarter(&mut s, 1, 6, 11, 12);
                    quarter(&mut s, 2, 7, 8, 13);
                    quarter(&mut s, 3, 4, 9, 14);
                }
                for (out, start) in s.iter_mut().zip(init) {
                    *out = out.wrapping_add(start);
                }
                self.block = s;
                self.counter = self.counter.wrapping_add(1);
                self.index = 0;
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> $name {
                let mut key = [0u32; 8];
                for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
                    *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
                }
                $name {
                    key,
                    counter: 0,
                    block: [0; 16],
                    index: 16,
                }
            }
        }

        impl RngCore for $name {
            fn next_u32(&mut self) -> u32 {
                if self.index == 16 {
                    self.refill();
                }
                let word = self.block[self.index];
                self.index += 1;
                word
            }

            fn next_u64(&mut self) -> u64 {
                let lo = u64::from(self.next_u32());
                let hi = u64::from(self.next_u32());
                (hi << 32) | lo
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 4, "ChaCha with 8 rounds.");
chacha_rng!(ChaCha20Rng, 10, "ChaCha with 20 rounds.");

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.3.2 uses a 32-bit counter and 96-bit nonce; with counter
    /// 0 and an all-zero nonce the layouts coincide, so the all-zero-key
    /// keystream (a published ChaCha20 vector) checks the core.
    #[test]
    fn chacha20_zero_key_first_words() {
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        let expect: [u8; 16] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28,
        ];
        let mut got = Vec::new();
        for _ in 0..4 {
            got.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
        assert_eq!(got, expect);
    }
}
