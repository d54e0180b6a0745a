//! The certificate is the key: every per-file table is a set of records
//! found by the `file_id` of the certificate each record holds.
//!
//! The paper's file table (§3) has one entry per replica, pointer or
//! cached copy, and each entry names a certificate whose first field *is*
//! the file's id. A map keyed by a second copy of that id spends 20 bytes
//! (24 with padding) per bucket to find a record that could have been
//! hashed by its own contents: a primary replica's bucket is then one
//! `Arc`, 8 bytes instead of 32.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

use past_crypto::FileCertificate;
use past_id::{FileId, IdHashSet};

/// A per-file table. `get(&file_id)`, `contains`, `take` and `replace`
/// work as on a map keyed by [`FileId`], and since [`ByCert`] feeds the
/// hasher exactly what a `FileId` key would, buckets land — and iterate —
/// where that map's did.
pub(crate) type FileTable<R> = IdHashSet<ByCert<R>>;

/// A record hashed and compared by its certificate's `file_id` alone: two
/// records for one file are the same entry, whatever else differs.
#[derive(Debug)]
pub(crate) struct ByCert<R>(pub(crate) R);

impl<R: AsRef<FileCertificate>> ByCert<R> {
    fn id(&self) -> &FileId {
        &self.0.as_ref().file_id
    }

    /// The `(file, record)` pair a map keyed by `FileId` would yield.
    pub(crate) fn entry(&self) -> (&FileId, &R) {
        (self.id(), &self.0)
    }
}

impl<R: AsRef<FileCertificate>> Borrow<FileId> for ByCert<R> {
    fn borrow(&self) -> &FileId {
        self.id()
    }
}

impl<R: AsRef<FileCertificate>> Hash for ByCert<R> {
    fn hash<S: Hasher>(&self, state: &mut S) {
        self.id().hash(state)
    }
}

impl<R: AsRef<FileCertificate>> PartialEq for ByCert<R> {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl<R: AsRef<FileCertificate>> Eq for ByCert<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::{KeyPair, Scheme, Sha1, SharedFileCert};
    use past_id::IdHasher;
    use rand::{rngs::StdRng, SeedableRng};
    use std::mem::size_of;

    #[test]
    fn a_primary_bucket_is_one_pointer_wide() {
        assert_eq!(size_of::<ByCert<SharedFileCert>>(), size_of::<usize>());
    }

    #[test]
    fn hashes_as_the_file_id_it_holds() {
        let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(1));
        let c = SharedFileCert::new(FileCertificate::issue_unsigned(
            &owner,
            "a",
            Sha1::digest(b"a"),
            10,
            1,
            0,
            0,
        ));
        let (mut by_cert, mut by_id) = (IdHasher::default(), IdHasher::default());
        ByCert(c.clone()).hash(&mut by_cert);
        c.file_id.hash(&mut by_id);
        assert_eq!(by_cert.finish(), by_id.finish());
    }
}
