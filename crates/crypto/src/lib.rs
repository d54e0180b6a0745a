//! Cryptographic substrate for the PAST reproduction.
//!
//! This crate implements, from scratch, everything the PAST paper's
//! security machinery (§2.2–§2.3) relies on:
//!
//! - [`Sha1`]: SHA-1 (RFC 3174) — PAST derives fileIds and nodeIds from
//!   SHA-1 and uses it for content integrity hashes.
//! - [`U256`]: fixed-width 256-bit integer arithmetic supporting the
//!   signature scheme.
//! - [`sign`]: a Schnorr-style signature over Z_p^* (p = 2^255 − 19) plus
//!   a fast *simulated* keyed-hash scheme used by the large trace-driven
//!   experiments (see the module docs for the security caveats — neither
//!   instantiation is production crypto, by design of the reproduction).
//! - [`cert`]: file certificates, reclaim certificates and store receipts,
//!   each checked by its one `verify` (counted as `crypto.verify`).
//! - [`audit`]: challenge-response possession proofs (SHA-1 over
//!   file ‖ nonce) for sampled storage audits.
//! - [`smartcard`]: the smartcard model — issuer-certified key pairs,
//!   tamper-proof nodeId derivation, per-card storage quotas.
//! - [`quota`]: the quota ledger that keeps storage demand below supply.

pub mod audit;
pub mod cert;
pub mod quota;
mod sha1;
pub mod sign;
pub mod smartcard;
mod u256;

pub use audit::{audit_nonce, possession_proof, verify_possession};
pub use cert::{compute_file_id, CertError, FileCertificate, ReclaimCertificate, StoreReceipt};
pub use quota::{QuotaError, QuotaLedger};
pub use sha1::{Digest, Sha1};
pub use sign::{KeyPair, OwnerKey, PublicKey, Scheme, SchnorrSig, Signature};
pub use smartcard::{derive_node_id, CardIssuer, NodeIdCertificate, Smartcard};
pub use u256::U256;

/// A file certificate shared by reference count. Certificates are
/// immutable once issued, so messages, stores and pointer tables pass
/// them as `Arc`: fanning a replica out to k holders or forwarding a
/// message along k hops bumps a counter instead of deep-copying the
/// owner key, signature and hashes at every step.
pub type SharedFileCert = std::sync::Arc<FileCertificate>;
/// A reclaim certificate shared by reference count.
pub type SharedReclaimCert = std::sync::Arc<ReclaimCertificate>;
/// A store receipt shared by reference count.
pub type SharedReceipt = std::sync::Arc<StoreReceipt>;
