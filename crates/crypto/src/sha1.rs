//! SHA-1 implemented from scratch (RFC 3174 / FIPS 180-1).
//!
//! PAST uses SHA-1 everywhere an identifier or integrity check is needed:
//! fileIds are the SHA-1 hash of (file name, owner public key, salt),
//! nodeIds are the SHA-1 hash of the node's public key, and file
//! certificates carry a SHA-1 hash of the file content.
//!
//! SHA-1 is cryptographically broken for collision resistance today; it is
//! implemented here because it is what the paper specifies and because the
//! reproduction needs a deterministic 160-bit hash, not production
//! security.

use std::fmt;

use past_id::{FileId, NodeId, FILE_ID_BYTES};

/// A 160-bit SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Interprets the digest as a 160-bit file identifier.
    pub fn to_file_id(self) -> FileId {
        FileId::from_bytes(self.0)
    }

    /// Interprets the 128 most significant bits as a node identifier,
    /// mirroring the paper's quasi-random nodeId assignment (SHA-1 of the
    /// node's public key).
    pub fn to_node_id(self) -> NodeId {
        let mut bytes = [0u8; 16];
        bytes.copy_from_slice(&self.0[..16]);
        NodeId::from_bytes(bytes)
    }

    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

const _: () = assert!(FILE_ID_BYTES == 20, "SHA-1 digest width must match FileId");

/// Streaming SHA-1 hasher.
///
/// # Examples
///
/// ```
/// use past_crypto::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_string(),
///     "a9993e364706816aba3e25717850c26c9cd0d89d"
/// );
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes, so far.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// One-shot convenience for hashing a byte string.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// [`Sha1::update`] through a given block function.
    fn update_with(&mut self, data: &[u8], compress: Compress) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len += tail.len();
    }

    /// [`Sha1::finalize`] through a given block function. The padding
    /// (0x80, zeros, the 64-bit big-endian bit length) is written into
    /// the last buffered block, plus one more block when fewer than 9
    /// bytes of it are left.
    fn finalize_with(mut self, compress: Compress) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A SHA-1 block function: folds one 64-byte block into the state.
type Compress = fn(&mut [u32; 5], &[u8; 64]);

/// The block function this CPU runs: the x86 SHA extensions when it has
/// them, the portable rounds otherwise. Both compute the same function
/// (the tests hold them equal), so the choice moves no digest.
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: the CPU reports the `sha` and `ssse3` features.
        unsafe { sha_ni::compress(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// The 80 rounds of FIPS 180-1, one at a time: the fallback, and the
/// reference the hardware path is tested against.
fn compress_portable(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// SHA-1 on the x86 SHA extensions: `sha1rnds4` runs four rounds,
/// `sha1nexte` derives the next four rounds' E from the previous A, and
/// `sha1msg1` / `sha1msg2` (with one XOR) extend the message schedule
/// four words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::*;

    /// Whether this CPU has the instructions [`compress`] uses.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha") && is_x86_feature_detected!("ssse3")
    }

    /// Folds one block into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must have the `sha` and `ssse3` features ([`available`]).
    // The schedule writes of the last groups are skipped by conditions
    // the compiler folds, but the lint reads them as dead stores.
    #[allow(unused_assignments)]
    #[target_feature(enable = "sha,sse2,ssse3")]
    pub(super) unsafe fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        // Byte-reverses each 16-byte lane: four big-endian words, with
        // word 0 in the high lane where the SHA instructions expect it.
        let be = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
        let abcd_in = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(state.as_ptr().cast()));
        let e_in = _mm_set_epi32(state[4] as i32, 0, 0, 0);

        let mut msg = [_mm_setzero_si128(); 4];
        let mut abcd = abcd_in;
        // `e` feeds a group's four rounds; `next` keeps that group's
        // input A for the next group's E.
        let mut e = e_in;
        // Rounds 4 * group .. 4 * group + 3, with `sha1rnds4`'s round
        // function and constant `func` (one per twenty rounds) as the
        // immediate it requires.
        macro_rules! groups {
            ($func:literal: $($group:literal)*) => {$({
                let i = $group % 4;
                if $group < 4 {
                    let words = _mm_loadu_si128(block.as_ptr().add(16 * i).cast());
                    msg[i] = _mm_shuffle_epi8(words, be);
                }
                e = if $group == 0 {
                    _mm_add_epi32(e, msg[0])
                } else {
                    _mm_sha1nexte_epu32(e, msg[i])
                };
                let next = abcd;
                abcd = _mm_sha1rnds4_epu32::<$func>(abcd, e);
                // W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), four
                // words at a time, for the next three groups.
                if (3..19).contains(&$group) {
                    msg[(i + 1) % 4] = _mm_sha1msg2_epu32(msg[(i + 1) % 4], msg[i]);
                }
                if (2..18).contains(&$group) {
                    msg[(i + 2) % 4] = _mm_xor_si128(msg[(i + 2) % 4], msg[i]);
                }
                if (1..17).contains(&$group) {
                    msg[(i + 3) % 4] = _mm_sha1msg1_epu32(msg[(i + 3) % 4], msg[i]);
                }
                e = next;
            })*};
        }
        groups!(0: 0 1 2 3 4);
        groups!(1: 5 6 7 8 9);
        groups!(2: 10 11 12 13 14);
        groups!(3: 15 16 17 18 19);
        e = _mm_sha1nexte_epu32(e, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);

        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_shuffle_epi32::<0x1B>(abcd));
        let mut lanes = [0u32; 4];
        _mm_storeu_si128(lanes.as_mut_ptr().cast(), e);
        state[4] = lanes[3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: Digest) -> String {
        d.to_string()
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha1::digest(data));
        assert_eq!(
            hex(Sha1::digest(data)),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"
        );
    }

    #[test]
    fn block_boundary_lengths() {
        // Exercise padding around the 55/56/63/64 byte boundaries.
        for n in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0x5a_u8; n];
            let mut h = Sha1::new();
            let mid = n / 2;
            h.update(&data[..mid]);
            h.update(&data[mid..]);
            assert_eq!(h.finalize(), Sha1::digest(&data), "length {n}");
        }
    }

    #[test]
    fn digest_to_ids() {
        let d = Sha1::digest(b"node key");
        let fid = d.to_file_id();
        assert_eq!(fid.as_bytes(), d.as_bytes());
        let nid = d.to_node_id();
        assert_eq!(&nid.to_bytes()[..], &d.as_bytes()[..16]);
    }

    /// The block functions a digest can run on, by name: the portable
    /// rounds always, the SHA extensions when this CPU has them.
    fn paths() -> Vec<(&'static str, Compress)> {
        let portable: (&'static str, Compress) = ("portable", compress_portable);
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            // SAFETY: the CPU reports the features `sha_ni::compress` needs.
            let sha_ni: Compress = |state, block| unsafe { sha_ni::compress(state, block) };
            return vec![portable, ("sha_ni", sha_ni)];
        }
        eprintln!("skipping the SHA-NI leg: this CPU has no SHA extensions");
        vec![portable]
    }

    fn digest_with(data: &[u8], compress: Compress) -> Digest {
        let mut h = Sha1::new();
        h.update_with(data, compress);
        h.finalize_with(compress)
    }

    #[test]
    fn rfc3174_vectors_on_every_path() {
        let vectors: [(&[u8], usize, &str); 5] = [
            (b"abc", 1, "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                1,
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (b"a", 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
            (
                b"0123456701234567012345670123456701234567012345670123456701234567",
                10,
                "dea356a2cddd90c7a7ecedc5ebb563934f460452",
            ),
            (b"", 1, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        ];
        for (name, compress) in paths() {
            for (text, repeat, want) in vectors {
                let got = hex(digest_with(&text.repeat(repeat), compress));
                assert_eq!(got, want, "{name}: {} bytes", text.len() * repeat);
            }
        }
    }

    #[test]
    fn padding_boundaries_on_every_path() {
        // One padding block below 56 bytes in the last block, two from
        // 56 on; 64 and 120 also cross a whole block.
        for (name, compress) in paths() {
            for n in [0usize, 55, 56, 63, 64, 119, 120] {
                let data: Vec<u8> = (0..n as u8).collect();
                let got = digest_with(&data, compress);
                assert_eq!(
                    got,
                    digest_with(&data, compress_portable),
                    "{name}: length {n}"
                );
                assert_eq!(got, Sha1::digest(&data), "{name}: length {n}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_every_path_compresses_like_the_portable_rounds(
            state: [u32; 5],
            block: [u8; 64],
        ) {
            let mut want = state;
            compress_portable(&mut want, &block);
            for (name, compress) in paths() {
                let mut got = state;
                compress(&mut got, &block);
                prop_assert_eq!(got, want, "{}", name);
            }
        }

        #[test]
        fn prop_split_update_equals_oneshot(data: Vec<u8>, split in 0usize..=256) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        #[test]
        fn prop_distinct_inputs_distinct_digests(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            // Not a guarantee in theory, but any failure here would mean a
            // catastrophically broken implementation.
            prop_assert_ne!(Sha1::digest(&a), Sha1::digest(&b));
        }
    }
}
