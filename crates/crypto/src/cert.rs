//! File certificates, reclaim certificates and store receipts.
//!
//! PAST's insert protocol (paper §2.2) issues a *file certificate* signed
//! with the owner's private key; it contains the fileId, a SHA-1 hash of
//! the file content, the replication factor k, the salt, and a creation
//! date. Storage nodes verify the certificate before accepting a replica
//! and attach a signed *store receipt* to the acknowledgment. A *reclaim
//! certificate* proves to replica holders that the file's legitimate owner
//! requested reclamation, and *reclaim receipts* let the client credit its
//! quota.


use past_id::FileId;

use crate::sha1::{Digest, Sha1};
use crate::sign::{KeyPair, OwnerKey, PublicKey, Signature};

/// Whether `sig` is `key`'s signature over `bytes`. A blob issued
/// unsigned has no signature and never verifies (fail closed). Every
/// signature checked counts as `crypto.verify` (a no-op unless a
/// `past-obs` recorder is installed); an unsigned blob fails first and
/// is not counted.
fn signed_by(key: &PublicKey, bytes: &[u8], sig: Option<&Signature>) -> bool {
    sig.is_some_and(|sig| {
        past_obs::counter("crypto.verify", 1);
        key.verify(bytes, sig)
    })
}

/// Errors arising from certificate verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CertError {
    /// The signature does not verify under the embedded public key.
    BadSignature,
    /// The fileId does not match SHA-1(name ‖ owner key ‖ salt).
    FileIdMismatch,
    /// The content hash in the certificate differs from the recomputed one.
    ContentMismatch,
    /// The replication factor is zero (no replica would ever exist).
    ZeroReplication,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::BadSignature => write!(f, "certificate signature invalid"),
            CertError::FileIdMismatch => write!(f, "fileId does not match name/owner/salt"),
            CertError::ContentMismatch => write!(f, "content hash mismatch"),
            CertError::ZeroReplication => write!(f, "replication factor is zero"),
        }
    }
}

impl std::error::Error for CertError {}

/// Computes a fileId as the SHA-1 of the file's textual name, the owner's
/// public key and a salt, exactly as §2.2 specifies.
///
/// Re-drawing the salt yields a new, quasi-uniform fileId — the mechanism
/// behind *file diversion* (§3.4).
pub fn compute_file_id(name: &str, owner: &PublicKey, salt: u64) -> FileId {
    let mut h = Sha1::new();
    h.update(name.as_bytes());
    owner.hash_into(&mut h);
    h.update(&salt.to_be_bytes());
    h.finalize().to_file_id()
}

/// A signed file certificate accompanying every insert request.
#[derive(Clone, Debug)]
pub struct FileCertificate {
    /// Identifier derived from (name, owner, salt).
    pub file_id: FileId,
    /// SHA-1 hash of the file content.
    pub content_hash: Digest,
    /// File size in bytes (drives storage-management decisions).
    pub file_size: u64,
    /// Replication factor k.
    pub replicas: u32,
    /// Salt used in the fileId derivation; re-drawn on file diversion.
    pub salt: u64,
    /// Creation date (simulation time).
    pub created_at: u64,
    /// The owner's public key (interned: certificates from one owner
    /// share a single allocation — see [`OwnerKey`]).
    pub owner: OwnerKey,
    /// Owner's signature over all of the above; `None` when issued
    /// unsigned. One pointer either way, so a certificate of a run with
    /// verification off carries no signature bytes.
    pub signature: Option<Box<Signature>>,
}

impl FileCertificate {
    /// Issues a certificate, signing it with `owner`.
    ///
    /// `name` is the file's textual name; the fileId is derived from it
    /// together with the owner key and `salt`.
    #[allow(clippy::too_many_arguments)]
    pub fn issue<R: rand::Rng + ?Sized>(
        owner: &KeyPair,
        name: &str,
        content_hash: Digest,
        file_size: u64,
        replicas: u32,
        salt: u64,
        created_at: u64,
        rng: &mut R,
    ) -> Self {
        let mut cert =
            Self::issue_unsigned(owner, name, content_hash, file_size, replicas, salt, created_at);
        cert.signature = Some(Box::new(owner.sign(&cert.signing_bytes(), rng)));
        cert
    }

    /// Issues a certificate without a signature, skipping the signature
    /// hash. For simulation runs that disable certificate verification:
    /// the fileId and every signed field are identical to
    /// [`FileCertificate::issue`]'s output, nothing there reads the
    /// signature, and [`FileCertificate::verify`] rejects the
    /// certificate should verification ever be turned on (fail closed).
    #[allow(clippy::too_many_arguments)]
    pub fn issue_unsigned(
        owner: &KeyPair,
        name: &str,
        content_hash: Digest,
        file_size: u64,
        replicas: u32,
        salt: u64,
        created_at: u64,
    ) -> Self {
        let file_id = compute_file_id(name, &owner.public(), salt);
        FileCertificate {
            file_id,
            content_hash,
            file_size,
            replicas,
            salt,
            created_at,
            owner: owner.public_shared(),
            signature: None,
        }
    }

    /// Serializes the signed fields.
    fn signing_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(96);
        v.extend_from_slice(b"PAST-FILE-CERT");
        v.extend_from_slice(self.file_id.as_bytes());
        v.extend_from_slice(self.content_hash.as_bytes());
        v.extend_from_slice(&self.file_size.to_be_bytes());
        v.extend_from_slice(&self.replicas.to_be_bytes());
        v.extend_from_slice(&self.salt.to_be_bytes());
        v.extend_from_slice(&self.created_at.to_be_bytes());
        v.extend_from_slice(&self.owner.to_bytes());
        v
    }

    /// Verifies the certificate as a storage node would before accepting a
    /// replica: signature, and optionally the recomputed content hash of
    /// the received bytes.
    pub fn verify(&self, received_content_hash: Option<Digest>) -> Result<(), CertError> {
        if self.replicas == 0 {
            return Err(CertError::ZeroReplication);
        }
        if !signed_by(&self.owner, &self.signing_bytes(), self.signature.as_deref()) {
            return Err(CertError::BadSignature);
        }
        if let Some(h) = received_content_hash {
            if h != self.content_hash {
                return Err(CertError::ContentMismatch);
            }
        }
        Ok(())
    }

    /// Verifies additionally that the fileId matches the (name, owner,
    /// salt) derivation — used by tests and by clients validating their own
    /// certificates.
    pub fn verify_file_id(&self, name: &str) -> Result<(), CertError> {
        if compute_file_id(name, &self.owner, self.salt) != self.file_id {
            return Err(CertError::FileIdMismatch);
        }
        Ok(())
    }
}

/// A signed reclaim certificate (paper §2.2): proves the legitimate owner
/// requested that the file's storage be reclaimed.
#[derive(Clone, Debug)]
pub struct ReclaimCertificate {
    /// The file to reclaim.
    pub file_id: FileId,
    /// Issue date (simulation time).
    pub issued_at: u64,
    /// The owner's public key (interned).
    pub owner: OwnerKey,
    /// Owner's signature; `None` when issued unsigned.
    pub signature: Option<Box<Signature>>,
}

impl ReclaimCertificate {
    /// Issues a reclaim certificate signed by `owner`.
    pub fn issue<R: rand::Rng + ?Sized>(
        owner: &KeyPair,
        file_id: FileId,
        issued_at: u64,
        rng: &mut R,
    ) -> Self {
        let mut cert = Self::issue_unsigned(owner, file_id, issued_at);
        cert.signature = Some(Box::new(owner.sign(&cert.signing_bytes(), rng)));
        cert
    }

    /// Unsigned variant for runs with verification disabled; see
    /// [`FileCertificate::issue_unsigned`].
    pub fn issue_unsigned(owner: &KeyPair, file_id: FileId, issued_at: u64) -> Self {
        ReclaimCertificate {
            file_id,
            issued_at,
            owner: owner.public_shared(),
            signature: None,
        }
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"PAST-RECLAIM-CERT");
        v.extend_from_slice(self.file_id.as_bytes());
        v.extend_from_slice(&self.issued_at.to_be_bytes());
        v.extend_from_slice(&self.owner.to_bytes());
        v
    }

    /// Verifies the signature, and that the certificate's owner matches
    /// the owner recorded in the stored file certificate.
    pub fn verify(&self, stored: &FileCertificate) -> Result<(), CertError> {
        if self.owner != stored.owner {
            return Err(CertError::BadSignature);
        }
        if !signed_by(&self.owner, &self.signing_bytes(), self.signature.as_deref()) {
            return Err(CertError::BadSignature);
        }
        Ok(())
    }
}

/// A store receipt issued by each node accepting a replica; the client
/// verifies k receipts to confirm the requested number of copies exist.
#[derive(Clone, Debug)]
pub struct StoreReceipt {
    /// File the receipt covers.
    pub file_id: FileId,
    /// Public key of the storing node (interned).
    pub storer: OwnerKey,
    /// Whether this copy is held as a diverted replica.
    pub diverted: bool,
    /// Issue time.
    pub issued_at: u64,
    /// Storer's signature; a receipt without one never verifies.
    pub signature: Option<Box<Signature>>,
}

impl StoreReceipt {
    /// Issues a receipt signed by the storing node's key.
    pub fn issue<R: rand::Rng + ?Sized>(
        storer: &KeyPair,
        file_id: FileId,
        diverted: bool,
        issued_at: u64,
        rng: &mut R,
    ) -> Self {
        let mut receipt = StoreReceipt {
            file_id,
            storer: storer.public_shared(),
            diverted,
            issued_at,
            signature: None,
        };
        receipt.signature = Some(Box::new(storer.sign(&receipt.signing_bytes(), rng)));
        receipt
    }

    fn signing_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(b"PAST-STORE-RECEIPT");
        v.extend_from_slice(self.file_id.as_bytes());
        v.extend_from_slice(&self.storer.to_bytes());
        v.push(self.diverted as u8);
        v.extend_from_slice(&self.issued_at.to_be_bytes());
        v
    }

    /// Verifies the receipt's signature.
    pub fn verify(&self) -> Result<(), CertError> {
        if signed_by(&self.storer, &self.signing_bytes(), self.signature.as_deref()) {
            Ok(())
        } else {
            Err(CertError::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::Scheme;
    use rand::{rngs::StdRng, SeedableRng};

    /// A signed field's name and an edit of it; the key is another
    /// party's, for the fields that name one.
    type Tamper<T> = (&'static str, fn(&mut T, &KeyPair));

    fn setup() -> (StdRng, KeyPair) {
        let mut rng = StdRng::seed_from_u64(7);
        let kp = KeyPair::generate(Scheme::Keyed, &mut rng);
        (rng, kp)
    }

    #[test]
    fn file_certificate_roundtrip() {
        let (mut rng, owner) = setup();
        let content = Sha1::digest(b"file body");
        let cert = FileCertificate::issue(&owner, "report.pdf", content, 4096, 5, 1, 100, &mut rng);
        assert!(cert.verify(Some(content)).is_ok());
        assert!(cert.verify(None).is_ok());
        assert!(cert.verify_file_id("report.pdf").is_ok());
    }

    #[test]
    fn unsigned_issue_matches_signed_fields_and_fails_closed() {
        let (mut rng, owner) = setup();
        let content = Sha1::digest(b"file body");
        let signed =
            FileCertificate::issue(&owner, "report.pdf", content, 4096, 5, 1, 100, &mut rng);
        let unsigned = FileCertificate::issue_unsigned(&owner, "report.pdf", content, 4096, 5, 1, 100);
        // Every signed field — including the derived fileId — is
        // identical; only the signature differs.
        assert_eq!(unsigned.file_id, signed.file_id);
        assert_eq!(unsigned.signing_bytes(), signed.signing_bytes());
        // And an unsigned certificate never passes verification.
        assert!(unsigned.verify(Some(content)).is_err());

        let mut receipt = StoreReceipt::issue(&owner, signed.file_id, true, 100, &mut rng);
        assert!(receipt.verify().is_ok());
        receipt.signature = None;
        assert!(receipt.verify().is_err());
    }

    #[test]
    fn file_certificate_detects_content_tamper() {
        let (mut rng, owner) = setup();
        let content = Sha1::digest(b"file body");
        let cert = FileCertificate::issue(&owner, "f", content, 10, 5, 1, 0, &mut rng);
        let other = Sha1::digest(b"other body");
        assert_eq!(cert.verify(Some(other)), Err(CertError::ContentMismatch));
    }

    #[test]
    fn file_certificate_detects_field_tamper() {
        let (mut rng, owner) = setup();
        let other = KeyPair::generate(Scheme::Keyed, &mut rng);
        let content = Sha1::digest(b"x");
        let cert = FileCertificate::issue(&owner, "f", content, 10, 5, 1, 0, &mut rng);
        let tampers: [Tamper<FileCertificate>; 7] = [
            ("file_id", |c, _| {
                c.file_id = compute_file_id("g", &c.owner, c.salt)
            }),
            ("content_hash", |c, _| c.content_hash = Sha1::digest(b"y")),
            ("file_size", |c, _| c.file_size = 999_999),
            ("replicas", |c, _| c.replicas = 6),
            ("salt", |c, _| c.salt = 2),
            ("created_at", |c, _| c.created_at = 1),
            ("owner", |c, k| c.owner = k.public_shared()),
        ];
        for (field, tamper) in tampers {
            let mut t = cert.clone();
            tamper(&mut t, &other);
            assert_eq!(t.verify(None), Err(CertError::BadSignature), "{field}");
        }
    }

    #[test]
    fn file_id_changes_with_salt() {
        let (_, owner) = setup();
        let id1 = compute_file_id("f", &owner.public(), 1);
        let id2 = compute_file_id("f", &owner.public(), 2);
        assert_ne!(id1, id2, "re-salting must divert the file elsewhere");
    }

    #[test]
    fn file_id_mismatch_detected() {
        let (mut rng, owner) = setup();
        let content = Sha1::digest(b"x");
        let cert = FileCertificate::issue(&owner, "f", content, 10, 5, 1, 0, &mut rng);
        assert_eq!(
            cert.verify_file_id("other-name"),
            Err(CertError::FileIdMismatch)
        );
    }

    #[test]
    fn zero_replication_rejected() {
        let (mut rng, owner) = setup();
        let content = Sha1::digest(b"x");
        let cert = FileCertificate::issue(&owner, "f", content, 10, 0, 1, 0, &mut rng);
        assert_eq!(cert.verify(None), Err(CertError::ZeroReplication));
    }

    #[test]
    fn reclaim_requires_matching_owner() {
        let mut rng = StdRng::seed_from_u64(8);
        let owner = KeyPair::generate(Scheme::Keyed, &mut rng);
        let thief = KeyPair::generate(Scheme::Keyed, &mut rng);
        let content = Sha1::digest(b"x");
        let file = FileCertificate::issue(&owner, "f", content, 10, 5, 1, 0, &mut rng);
        let good = ReclaimCertificate::issue(&owner, file.file_id, 5, &mut rng);
        assert!(good.verify(&file).is_ok());
        let bad = ReclaimCertificate::issue(&thief, file.file_id, 5, &mut rng);
        // The thief's signature under the owner's name: the owner
        // matches the stored certificate, the signature does not.
        let mut forged = bad.clone();
        forged.owner = owner.public_shared();
        let mut file_id = good.clone();
        file_id.file_id = compute_file_id("g", &owner.public(), 1);
        let mut issued_at = good.clone();
        issued_at.issued_at = 6;
        for (case, t) in [
            ("thief", bad),
            ("forged owner", forged),
            ("file_id", file_id),
            ("issued_at", issued_at),
        ] {
            assert_eq!(t.verify(&file), Err(CertError::BadSignature), "{case}");
        }
    }

    #[test]
    fn store_receipt_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let node = KeyPair::generate(Scheme::Keyed, &mut rng);
        let other = KeyPair::generate(Scheme::Keyed, &mut rng);
        let fid = compute_file_id("f", &node.public(), 0);
        let r = StoreReceipt::issue(&node, fid, true, 77, &mut rng);
        assert!(r.verify().is_ok());
        let tampers: [Tamper<StoreReceipt>; 4] = [
            ("file_id", |r, k| {
                r.file_id = compute_file_id("g", &k.public(), 0)
            }),
            ("storer", |r, k| r.storer = k.public_shared()),
            ("diverted", |r, _| r.diverted = false),
            ("issued_at", |r, _| r.issued_at = 78),
        ];
        for (field, tamper) in tampers {
            let mut t = r.clone();
            tamper(&mut t, &other);
            assert_eq!(t.verify(), Err(CertError::BadSignature), "{field}");
        }
    }

    #[test]
    fn schnorr_certificates_also_verify() {
        let mut rng = StdRng::seed_from_u64(10);
        let owner = KeyPair::generate(Scheme::Schnorr, &mut rng);
        let content = Sha1::digest(b"body");
        let cert = FileCertificate::issue(&owner, "f", content, 10, 5, 3, 0, &mut rng);
        assert!(cert.verify(Some(content)).is_ok());
        let mut tampered = cert.clone();
        tampered.replicas = 6;
        assert_eq!(tampered.verify(None), Err(CertError::BadSignature));
    }
}
