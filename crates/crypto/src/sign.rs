//! Signature schemes for PAST certificates.
//!
//! The paper assumes each node and each user holds a smartcard with a
//! private/public key pair; certificates (file certificates, reclaim
//! certificates, store receipts, nodeId certificates) are signed and
//! verified with those keys.
//!
//! Two schemes are provided behind one [`KeyPair`]/[`PublicKey`] API:
//!
//! - [`Scheme::Schnorr`]: a real Schnorr-style signature over the
//!   multiplicative group of the field of prime order p = 2^255 − 19,
//!   built on this crate's own [`crate::U256`] arithmetic and SHA-1 hash.
//!   **This instantiation is structurally faithful but NOT secure for
//!   production use**: the full group Z_p^* has composite order, the
//!   arithmetic is not constant time, and SHA-1 is broken. The paper's
//!   security model is out of scope of its evaluation; what matters for
//!   the reproduction is that certificates are issued, routed and checked
//!   end to end with real asymmetric-style math.
//! - [`Scheme::Keyed`]: a fast *simulated* signature (SHA-1 over public
//!   key ‖ message). Within a closed simulation with no adversary, it
//!   exercises the identical certificate plumbing at negligible cost;
//!   the large trace-driven experiments use it so that signing 10^5–10^6
//!   certificates does not dominate run time. It offers no unforgeability.
//!
//! # Examples
//!
//! ```
//! use past_crypto::sign::{KeyPair, Scheme};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let kp = KeyPair::generate(Scheme::Schnorr, &mut rng);
//! let sig = kp.sign(b"file certificate body", &mut rng);
//! assert!(kp.public().verify(b"file certificate body", &sig));
//! assert!(!kp.public().verify(b"tampered body", &sig));
//! ```

use rand::Rng;

use crate::sha1::{Digest, Sha1};
use crate::u256::U256;

/// Group parameters for the Schnorr-style scheme.
pub mod group {
    use crate::u256::U256;

    /// The prime modulus p = 2^255 − 19.
    pub const P: U256 = U256([
        0xffff_ffff_ffff_ffed,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ]);

    /// Exponent modulus: the group order p − 1 = 2^255 − 20.
    pub const ORDER: U256 = U256([
        0xffff_ffff_ffff_ffec,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ]);

    /// Generator g = 2 of a large subgroup of Z_p^*.
    pub const G: U256 = U256([2, 0, 0, 0]);
}

/// Which signature scheme a key pair uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Real Schnorr-style math over Z_p^* (slow, asymmetric).
    Schnorr,
    /// Simulated keyed-hash signature (fast, for closed simulations).
    Keyed,
}

/// A public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PublicKey {
    /// y = g^x mod p.
    Schnorr(U256),
    /// A hash commitment to the secret.
    Keyed(Digest),
}

/// The (e, s) pair of a Schnorr signature, boxed inside [`Signature`]
/// so the common case (a 20-byte keyed tag) does not pay for the
/// 64-byte Schnorr payload: the enum stays 24 bytes, the size of the
/// box a signed certificate points to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SchnorrSig {
    /// Challenge hash reduced into the exponent group.
    pub e: U256,
    /// Response scalar.
    pub s: U256,
}

/// A signature produced by [`KeyPair::sign`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Signature {
    /// Schnorr pair (e, s): e = H(g^k ‖ m), s = k − x·e mod (p−1).
    Schnorr(Box<SchnorrSig>),
    /// Simulated tag H(pubkey ‖ m).
    Keyed(Digest),
}

impl Signature {
    /// Builds a Schnorr signature from its scalars.
    pub fn schnorr(e: U256, s: U256) -> Self {
        Signature::Schnorr(Box::new(SchnorrSig { e, s }))
    }
}

/// An interned public key: one reference-counted allocation shared by
/// every certificate and receipt its key pair issues. A node signs
/// thousands to millions of certificates over a run; embedding the
/// 40-byte [`PublicKey`] enum in each repeats the same bytes everywhere,
/// while the interned handle is pointer-sized and clones by bumping a
/// count. Dereferences to [`PublicKey`], so verification call sites are
/// unchanged.
#[derive(Clone, Debug)]
pub struct OwnerKey(std::sync::Arc<PublicKey>);

impl OwnerKey {
    /// Interns a public key (one allocation; clones share it).
    pub fn new(key: PublicKey) -> Self {
        OwnerKey(std::sync::Arc::new(key))
    }

    /// The underlying public key.
    pub fn key(&self) -> &PublicKey {
        &self.0
    }
}

impl std::ops::Deref for OwnerKey {
    type Target = PublicKey;
    fn deref(&self) -> &PublicKey {
        &self.0
    }
}

impl PartialEq for OwnerKey {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality first: interned keys from the same pair share
        // one allocation, making the common comparison O(1).
        std::sync::Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for OwnerKey {}

impl std::hash::Hash for OwnerKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (*self.0).hash(state)
    }
}

impl From<PublicKey> for OwnerKey {
    fn from(key: PublicKey) -> Self {
        OwnerKey::new(key)
    }
}

/// A private/public key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    scheme: Scheme,
    secret: U256,
    public: PublicKey,
    /// The interned public half, shared by every certificate issued.
    shared: OwnerKey,
}

impl PublicKey {
    /// Serializes the key for hashing into identifiers and certificates.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PublicKey::Schnorr(y) => {
                let mut v = vec![0u8];
                v.extend_from_slice(&y.to_be_bytes());
                v
            }
            PublicKey::Keyed(d) => {
                let mut v = vec![1u8];
                v.extend_from_slice(d.as_bytes());
                v
            }
        }
    }

    /// Feeds [`Self::to_bytes`]'s serialization to `h` without building
    /// it.
    pub fn hash_into(&self, h: &mut Sha1) {
        match self {
            PublicKey::Schnorr(y) => {
                h.update(&[0]);
                h.update(&y.to_be_bytes());
            }
            PublicKey::Keyed(d) => {
                h.update(&[1]);
                h.update(d.as_bytes());
            }
        }
    }

    /// Returns the SHA-1 digest of the serialized key.
    ///
    /// PAST derives nodeIds from this digest ("the nodeId assignment is
    /// quasi-random, e.g. SHA-1 hash of the node's public key").
    pub fn digest(&self) -> Digest {
        let mut h = Sha1::new();
        self.hash_into(&mut h);
        h.finalize()
    }

    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        match (self, sig) {
            (PublicKey::Schnorr(y), Signature::Schnorr(sig)) => {
                let (e, s) = (sig.e, sig.s);
                if e >= group::ORDER || s >= group::ORDER {
                    return false;
                }
                // r' = g^s * y^e mod p; accept iff H(r' ‖ m) == e.
                let gs = group::G.powmod(s, group::P);
                let ye = y.powmod(e, group::P);
                let r = gs.mulmod(ye, group::P);
                challenge(r, message) == e
            }
            (PublicKey::Keyed(_), Signature::Keyed(tag)) => *tag == keyed_tag(self, message),
            _ => false,
        }
    }
}

impl KeyPair {
    /// Generates a fresh key pair for `scheme`.
    pub fn generate<R: Rng + ?Sized>(scheme: Scheme, rng: &mut R) -> Self {
        match scheme {
            Scheme::Schnorr => {
                let x = U256::random_below(rng, group::ORDER);
                let y = group::G.powmod(x, group::P);
                let public = PublicKey::Schnorr(y);
                KeyPair {
                    scheme,
                    secret: x,
                    public,
                    shared: OwnerKey::new(public),
                }
            }
            Scheme::Keyed => {
                let secret = U256([rng.gen(), rng.gen(), rng.gen(), rng.gen()]);
                let public = PublicKey::Keyed(Sha1::digest(&secret.to_be_bytes()));
                KeyPair {
                    scheme,
                    secret,
                    public,
                    shared: OwnerKey::new(public),
                }
            }
        }
    }

    /// Returns the public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Returns the interned public half: every call shares one
    /// allocation, so certificates issued by this pair carry an 8-byte
    /// handle instead of a 40-byte copy of the key.
    pub fn public_shared(&self) -> OwnerKey {
        self.shared.clone()
    }

    /// Returns the scheme this pair uses.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Signs `message`.
    pub fn sign<R: Rng + ?Sized>(&self, message: &[u8], rng: &mut R) -> Signature {
        match self.scheme {
            Scheme::Schnorr => {
                // Standard Schnorr: k random, r = g^k, e = H(r ‖ m),
                // s = k − x·e (mod group order).
                let k = U256::random_below(rng, group::ORDER);
                let r = group::G.powmod(k, group::P);
                let e = challenge(r, message);
                let xe = self.secret.mulmod(e, group::ORDER);
                let s = k.submod(xe, group::ORDER);
                Signature::schnorr(e, s)
            }
            Scheme::Keyed => Signature::Keyed(keyed_tag(&self.public, message)),
        }
    }
}

/// Hash the commitment and message into an exponent-group scalar.
fn challenge(r: U256, message: &[u8]) -> U256 {
    let mut h = Sha1::new();
    h.update(&r.to_be_bytes());
    h.update(message);
    let d = h.finalize();
    // Widen the 160-bit digest to 256 bits by hashing twice with domain
    // separation, then reduce into the exponent group.
    let mut h2 = Sha1::new();
    h2.update(b"widen");
    h2.update(d.as_bytes());
    let d2 = h2.finalize();
    let mut bytes = [0u8; 32];
    bytes[..20].copy_from_slice(d.as_bytes());
    bytes[20..].copy_from_slice(&d2.as_bytes()[..12]);
    U256::from_be_bytes(bytes).reduce_mod(group::ORDER)
}

/// Simulated signature tag: SHA-1(pubkey ‖ message).
fn keyed_tag(public: &PublicKey, message: &[u8]) -> Digest {
    let mut h = Sha1::new();
    public.hash_into(&mut h);
    h.update(message);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn schnorr_sign_verify_roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(Scheme::Schnorr, &mut rng);
        for msg in [&b"hello"[..], b"", b"a much longer message body ..."] {
            let sig = kp.sign(msg, &mut rng);
            assert!(kp.public().verify(msg, &sig));
        }
    }

    #[test]
    fn schnorr_rejects_tampered_message() {
        let mut rng = rng();
        let kp = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let sig = kp.sign(b"original", &mut rng);
        assert!(!kp.public().verify(b"tampered", &sig));
    }

    #[test]
    fn schnorr_rejects_wrong_key() {
        let mut rng = rng();
        let kp1 = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let kp2 = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let sig = kp1.sign(b"msg", &mut rng);
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn schnorr_rejects_out_of_range_scalars() {
        let mut rng = rng();
        let kp = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let bad = Signature::schnorr(group::ORDER, U256::ONE);
        assert!(!kp.public().verify(b"msg", &bad));
    }

    #[test]
    fn keyed_sign_verify_roundtrip() {
        let mut rng = rng();
        let kp = KeyPair::generate(Scheme::Keyed, &mut rng);
        let sig = kp.sign(b"quota receipt", &mut rng);
        assert!(kp.public().verify(b"quota receipt", &sig));
        assert!(!kp.public().verify(b"other", &sig));
    }

    #[test]
    fn keyed_rejects_wrong_key() {
        let mut rng = rng();
        let kp1 = KeyPair::generate(Scheme::Keyed, &mut rng);
        let kp2 = KeyPair::generate(Scheme::Keyed, &mut rng);
        let sig = kp1.sign(b"msg", &mut rng);
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn cross_scheme_signatures_rejected() {
        let mut rng = rng();
        let schnorr = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let keyed = KeyPair::generate(Scheme::Keyed, &mut rng);
        let s_sig = schnorr.sign(b"m", &mut rng);
        let k_sig = keyed.sign(b"m", &mut rng);
        assert!(!schnorr.public().verify(b"m", &k_sig));
        assert!(!keyed.public().verify(b"m", &s_sig));
    }

    #[test]
    fn distinct_keys_distinct_digests() {
        let mut rng = rng();
        let a = KeyPair::generate(Scheme::Keyed, &mut rng);
        let b = KeyPair::generate(Scheme::Keyed, &mut rng);
        assert_ne!(a.public().digest(), b.public().digest());
    }

    #[test]
    fn hashing_a_key_in_place_feeds_its_serialization() {
        let mut rng = rng();
        for scheme in [Scheme::Keyed, Scheme::Schnorr] {
            let key = KeyPair::generate(scheme, &mut rng).public();
            assert_eq!(key.digest(), Sha1::digest(&key.to_bytes()));
        }
    }

    #[test]
    fn signatures_are_randomized_but_both_verify() {
        let mut rng = rng();
        let kp = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let s1 = kp.sign(b"m", &mut rng);
        let s2 = kp.sign(b"m", &mut rng);
        assert_ne!(s1, s2, "Schnorr signatures use fresh nonces");
        assert!(kp.public().verify(b"m", &s1));
        assert!(kp.public().verify(b"m", &s2));
    }
}
