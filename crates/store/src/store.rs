//! The per-node storage manager (paper §3).
//!
//! Each PAST node contributes an advertised amount of disk space. That
//! space holds, in priority order:
//!
//! 1. **primary replicas** — files for which this node is one of the `k`
//!    numerically closest nodes;
//! 2. **diverted replicas** — files stored here on behalf of a leaf-set
//!    neighbor that could not accommodate them (replica diversion, §3.3);
//! 3. **cached copies** — everything left over is a disk cache that can
//!    be evicted at any time (§4).
//!
//! Besides replicas, the node's *file table* records diversion pointers:
//! if node A diverts a replica to node B, A keeps a pointer A→B, and the
//! node C with the k+1-th closest nodeId keeps a backup pointer C→B so
//! that A's failure does not orphan the replica. Each is one record
//! ([`Pointer`], [`BackupPointer`]) that carries the file's certificate,
//! so a pointer without the certificate needed to re-create its replica
//! cannot be represented — and the certificate is what every table is
//! keyed by (see [`crate::table`]), so no record stores the file's id a
//! second time.
//!
//! Nor does a record store a whole node: the holders, backup locations,
//! owners and diverting nodes it names are 4-byte handles into the
//! store's peer table, where each distinct node is kept once. A
//! diversion record is then 16 bytes, the certificate pointer and two
//! handles. Reads hand back views ([`ReplicaRef`], [`PointerRef`],
//! [`BackupPointerRef`]) that carry the nodes themselves.

use std::num::NonZeroU32;

use past_crypto::{FileCertificate, SharedFileCert};
use past_id::FileId;

use crate::cache::{Cache, CachePolicyKind};
use crate::table::{ByCert, FileTable};

/// Storage-management thresholds (paper §3.3.1).
#[derive(Clone, Copy, Debug)]
pub struct StorePolicy {
    /// Acceptance threshold for primary replicas: reject file D at node N
    /// when `size(D)/free(N) > t_pri`.
    pub t_pri: f64,
    /// Acceptance threshold for diverted replicas (`t_div < t_pri`, so
    /// nodes keep room for their own primaries).
    pub t_div: f64,
    /// Cache admission fraction `c`: a routed-through file is cached if
    /// smaller than `c` × the node's current cache size (the unused
    /// portion of its storage).
    pub cache_fraction: f64,
}

impl Default for StorePolicy {
    fn default() -> Self {
        // The paper's recommended operating point.
        StorePolicy {
            t_pri: 0.1,
            t_div: 0.05,
            cache_fraction: 1.0,
        }
    }
}

impl StorePolicy {
    /// The §5.1 baseline with replica/file diversion effectively disabled
    /// (t_pri = 1 accepts anything that fits; t_div = 0 rejects all
    /// diverted replicas).
    pub fn no_diversion() -> Self {
        StorePolicy {
            t_pri: 1.0,
            t_div: 0.0,
            cache_fraction: 1.0,
        }
    }
}

/// Why a replica was refused.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StoreError {
    /// `size/free > threshold` — the §3.3.1 acceptance policy.
    OverThreshold {
        /// File size in bytes.
        size: u64,
        /// Remaining free space at the node.
        free: u64,
    },
    /// The file is already stored here in some role.
    Duplicate,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OverThreshold { size, free } => {
                write!(f, "file of {size} B rejected with {free} B free")
            }
            StoreError::Duplicate => write!(f, "file already stored"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A replica held on this node's disk, returned **by value** when it is
/// removed (reclaim, migration, invariant maintenance).
///
/// In-table storage is packed more tightly: a primary replica is its
/// certificate alone (its `diverted_from` is always `None`), and a
/// diverted replica carries the diverting node inline. Borrowed access
/// goes through [`ReplicaRef`], which reconstitutes the uniform view.
#[derive(Clone, Debug)]
pub struct StoredReplica<H> {
    /// The file's certificate (carries size, owner, content hash),
    /// shared by reference count with the message that delivered it.
    pub cert: SharedFileCert,
    /// For diverted replicas: the node that diverted the file here.
    pub diverted_from: Option<H>,
}

impl<H> StoredReplica<H> {
    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.cert.file_size
    }
}

/// Borrowed view of a replica held on this node (primary or diverted).
///
/// At 10M-file scale the replica tables dominate resident memory, so the
/// primary table stores only the Arc'd certificate (an 8-byte bucket);
/// this view carries the role information (`diverted_from`) that the
/// packed representation keeps out of the table.
#[derive(Debug)]
pub struct ReplicaRef<'a, H> {
    /// The file's certificate.
    pub cert: &'a SharedFileCert,
    /// For diverted replicas: the node that diverted the file here.
    pub diverted_from: Option<H>,
}

impl<H> ReplicaRef<'_, H> {
    /// File size in bytes.
    pub fn size(&self) -> u64 {
        self.cert.file_size
    }
}

/// An A→B diversion pointer: this node is responsible for the file, the
/// replica lives at `holder` (§3.3). Returned by value when the pointer
/// is removed; [`PointerRef`] is the borrowed view.
#[derive(Clone, Debug)]
pub struct Pointer<H> {
    /// Node B, which stores the diverted replica.
    pub holder: H,
    /// The file's certificate, needed to re-create the replica when B
    /// fails.
    pub cert: SharedFileCert,
    /// Node C, the k+1-th closest, if a backup pointer was installed
    /// there; whoever retires this pointer tells C to drop its backup.
    pub backup_at: Option<H>,
}

/// Borrowed view of an A→B pointer installed here (see [`Pointer`]).
#[derive(Clone, Copy, Debug)]
pub struct PointerRef<'a, H> {
    /// Node B, which stores the diverted replica.
    pub holder: H,
    /// The file's certificate.
    pub cert: &'a SharedFileCert,
    /// Node C, if a backup pointer was installed there.
    pub backup_at: Option<H>,
}

/// A C→B backup pointer, held by the k+1-th closest node on behalf of
/// the diverting node `owner`. Returned by value when the backup is
/// removed; [`BackupPointerRef`] is the borrowed view.
#[derive(Clone, Debug)]
pub struct BackupPointer<H> {
    /// Node B, which stores the diverted replica.
    pub holder: H,
    /// The file's certificate; it becomes the regular pointer's when the
    /// backup is promoted.
    pub cert: SharedFileCert,
    /// Node A, which installed the backup: it is promoted only when
    /// *that* node fails.
    pub owner: H,
}

/// Borrowed view of a backup pointer installed here (see
/// [`BackupPointer`]).
#[derive(Clone, Copy, Debug)]
pub struct BackupPointerRef<'a, H> {
    /// Node B, which stores the diverted replica.
    pub holder: H,
    /// The file's certificate.
    pub cert: &'a SharedFileCert,
    /// Node A, which installed the backup.
    pub owner: H,
}

/// A node named by a record of this store: its position in the store's
/// [`PeerTable`], plus one, so an `Option<Peer>` is four bytes too.
#[derive(Clone, Copy, Debug)]
struct Peer(NonZeroU32);

/// Every node the store's records name — holders, backup locations,
/// owners and diverting nodes — each kept once. The table never shrinks,
/// so a [`Peer`] handed out stays valid for the store's life, and its
/// length is at most the number of distinct nodes ever handed in: the
/// leaf-set neighbours a node diverts to and from, tens in a trace
/// replay, and at most the overlay's size under churn.
#[derive(Debug)]
struct PeerTable<H>(Vec<H>);

impl<H: Copy + Eq> PeerTable<H> {
    /// The handle of `node`, appending it on first sight. A scan: the
    /// table holds a few dozen nodes.
    fn intern(&mut self, node: H) -> Peer {
        let at = match self.0.iter().position(|&n| n == node) {
            Some(at) => at,
            None => {
                self.0.push(node);
                self.0.len() - 1
            }
        };
        let handle = u32::try_from(at + 1).ok().and_then(NonZeroU32::new);
        Peer(handle.expect("peer table outgrew u32"))
    }

    /// The node behind a handle this table handed out.
    fn get(&self, peer: Peer) -> H {
        self.0[peer.0.get() as usize - 1]
    }
}

/// In-table entry for a diverted replica: the certificate plus the node
/// that diverted the file here (needed when the diverter fails).
#[derive(Clone, Debug)]
struct DivertedEntry {
    cert: SharedFileCert,
    from: Peer,
}

/// In-table [`Pointer`].
#[derive(Clone, Debug)]
struct PointerEntry {
    cert: SharedFileCert,
    holder: Peer,
    backup_at: Option<Peer>,
}

/// In-table [`BackupPointer`].
#[derive(Clone, Debug)]
struct BackupEntry {
    cert: SharedFileCert,
    holder: Peer,
    owner: Peer,
}

impl DivertedEntry {
    fn view<'a, H: Copy + Eq>(&'a self, peers: &PeerTable<H>) -> ReplicaRef<'a, H> {
        ReplicaRef {
            cert: &self.cert,
            diverted_from: Some(peers.get(self.from)),
        }
    }
}

impl PointerEntry {
    fn view<'a, H: Copy + Eq>(&'a self, peers: &PeerTable<H>) -> PointerRef<'a, H> {
        PointerRef {
            holder: peers.get(self.holder),
            cert: &self.cert,
            backup_at: self.backup_at.map(|at| peers.get(at)),
        }
    }
}

impl BackupEntry {
    fn view<'a, H: Copy + Eq>(&'a self, peers: &PeerTable<H>) -> BackupPointerRef<'a, H> {
        BackupPointerRef {
            holder: peers.get(self.holder),
            cert: &self.cert,
            owner: peers.get(self.owner),
        }
    }
}

impl AsRef<FileCertificate> for DivertedEntry {
    fn as_ref(&self) -> &FileCertificate {
        &self.cert
    }
}

impl AsRef<FileCertificate> for PointerEntry {
    fn as_ref(&self) -> &FileCertificate {
        &self.cert
    }
}

impl AsRef<FileCertificate> for BackupEntry {
    fn as_ref(&self) -> &FileCertificate {
        &self.cert
    }
}

/// How a lookup resolves against this node's storage.
#[derive(Clone, Debug, PartialEq)]
pub enum Resolution<H: Copy> {
    /// Stored here as a primary replica.
    Primary,
    /// Stored here as a diverted replica (held for another node).
    DivertedHere,
    /// This node is responsible, but the replica lives at `holder`
    /// (one extra hop — the diversion lookup overhead the paper counts).
    Pointer(H),
    /// Present only in the disk cache.
    Cached,
    /// Unknown here.
    Miss,
}

/// The storage manager of one PAST node.
///
/// `H` identifies remote replica holders (the PAST layer instantiates it
/// with its node-entry type). Two `H`s that compare equal are one node
/// to the store.
#[derive(Debug)]
pub struct NodeStore<H: Copy + Eq> {
    capacity: u64,
    policy: StorePolicy,
    /// Primary replicas: the record is the certificate alone (an 8-byte
    /// bucket) — a primary's `diverted_from` is always `None`.
    primaries: FileTable<SharedFileCert>,
    diverted: FileTable<DivertedEntry>,
    /// A→B pointers: this node is responsible, B holds the replica.
    pointers: FileTable<PointerEntry>,
    /// C→B backup pointers installed on the k+1-th closest node.
    backup_pointers: FileTable<BackupEntry>,
    /// The nodes the three tables above name, by handle.
    peers: PeerTable<H>,
    replica_used: u64,
    cache: Cache,
    rejected_inserts: u64,
}

impl<H: Copy + Eq> NodeStore<H> {
    /// Bytes of one diverted replica's record (a bucket of its table).
    pub const DIVERTED_RECORD_BYTES: usize = std::mem::size_of::<ByCert<DivertedEntry>>();
    /// Bytes of one [`Pointer`]'s record.
    pub const POINTER_RECORD_BYTES: usize = std::mem::size_of::<ByCert<PointerEntry>>();
    /// Bytes of one [`BackupPointer`]'s record.
    pub const BACKUP_RECORD_BYTES: usize = std::mem::size_of::<ByCert<BackupEntry>>();

    /// Creates a store advertising `capacity` bytes.
    pub fn new(capacity: u64, policy: StorePolicy, cache_policy: CachePolicyKind) -> Self {
        NodeStore {
            capacity,
            policy,
            primaries: FileTable::default(),
            diverted: FileTable::default(),
            pointers: FileTable::default(),
            backup_pointers: FileTable::default(),
            peers: PeerTable(Vec::new()),
            replica_used: 0,
            cache: Cache::new(cache_policy),
            rejected_inserts: 0,
        }
    }

    /// Advertised capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The active policy thresholds.
    pub fn policy(&self) -> StorePolicy {
        self.policy
    }

    /// Bytes consumed by replicas (primaries + diverted held here).
    /// Cached copies do not count: they occupy the unused portion.
    pub fn replica_used(&self) -> u64 {
        self.replica_used
    }

    /// Free space as seen by the acceptance policy (capacity minus
    /// replica bytes; cache contents are evictable and do not reduce it).
    pub fn free(&self) -> u64 {
        self.capacity - self.replica_used
    }

    /// Current cache size in the paper's sense: the portion of storage
    /// not used by replicas.
    pub fn cache_budget(&self) -> u64 {
        self.free()
    }

    /// Storage utilization of this node in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 1.0;
        }
        self.replica_used as f64 / self.capacity as f64
    }

    /// Number of primary replicas held.
    pub fn primary_count(&self) -> usize {
        self.primaries.len()
    }

    /// Number of diverted replicas held for other nodes.
    pub fn diverted_count(&self) -> usize {
        self.diverted.len()
    }

    /// Number of diversion pointers installed (A→B entries).
    pub fn pointer_count(&self) -> usize {
        self.pointers.len()
    }

    /// Distinct nodes this store's records have named since it was
    /// created: the length of its peer table, which never shrinks.
    pub fn peer_count(&self) -> usize {
        self.peers.0.len()
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Replicas this node refused so far.
    pub fn rejected_inserts(&self) -> u64 {
        self.rejected_inserts
    }

    /// The §3.3.1 acceptance test for a primary replica:
    /// `size/free > t_pri` rejects.
    pub fn accepts_primary(&self, size: u64) -> bool {
        accepts(size, self.free(), self.policy.t_pri)
    }

    /// The acceptance test for a diverted replica (`t_div`).
    pub fn accepts_diverted(&self, size: u64) -> bool {
        accepts(size, self.free(), self.policy.t_div)
    }

    /// Stores a primary replica, evicting cached files if needed.
    pub fn store_primary(&mut self, cert: SharedFileCert) -> Result<(), StoreError> {
        self.store_replica(cert, None, /* primary */ true)
    }

    /// Stores a diverted replica on behalf of `from`.
    pub fn store_diverted(&mut self, cert: SharedFileCert, from: H) -> Result<(), StoreError> {
        self.store_replica(cert, Some(from), false)
    }

    fn store_replica(
        &mut self,
        cert: SharedFileCert,
        from: Option<H>,
        primary: bool,
    ) -> Result<(), StoreError> {
        let id = cert.file_id;
        if self.holds_replica(id) {
            return Err(StoreError::Duplicate);
        }
        let size = cert.file_size;
        let ok = if primary {
            self.accepts_primary(size)
        } else {
            self.accepts_diverted(size)
        };
        if !ok {
            self.rejected_inserts += 1;
            past_obs::counter("store.replica.reject", 1);
            return Err(StoreError::OverThreshold {
                size,
                free: self.free(),
            });
        }
        // Replicas displace cached copies ("when a node stores a new
        // primary or redirected replica, it typically evicts one or more
        // cached files").
        self.cache.remove(id);
        self.replica_used += size;
        self.cache.shrink_to(self.cache_budget());
        if primary {
            past_obs::counter("store.replica.primary", 1);
            self.primaries.insert(ByCert(cert));
        } else {
            past_obs::counter("store.replica.diverted", 1);
            let from = self.peers.intern(from.expect("diverted replica carries its source"));
            self.diverted.insert(ByCert(DivertedEntry { cert, from }));
        }
        Ok(())
    }

    /// Removes a replica in any role (reclaim, migration, invariant
    /// maintenance). Returns it if present.
    pub fn remove_replica(&mut self, id: FileId) -> Option<StoredReplica<H>> {
        let replica = match self.primaries.take(&id) {
            Some(ByCert(cert)) => StoredReplica {
                cert,
                diverted_from: None,
            },
            None => {
                let ByCert(entry) = self.diverted.take(&id)?;
                StoredReplica {
                    cert: entry.cert,
                    diverted_from: Some(self.peers.get(entry.from)),
                }
            }
        };
        self.replica_used -= replica.size();
        Some(replica)
    }

    /// Installs an A→B diversion pointer, replacing any earlier one for
    /// the file. No backup location is recorded until
    /// [`Self::set_pointer_backup`] names one.
    /// `cert` must be `id`'s certificate: the record is filed under the
    /// certificate's id.
    pub fn install_pointer(&mut self, id: FileId, holder: H, cert: SharedFileCert) {
        debug_assert_eq!(id, cert.file_id, "pointer installed under another file's certificate");
        let holder = self.peers.intern(holder);
        let pointer = PointerEntry { cert, holder, backup_at: None };
        self.pointers.replace(ByCert(pointer));
    }

    /// Records that node `at` holds the backup of this node's pointer
    /// for `id`. No-op without a pointer.
    pub fn set_pointer_backup(&mut self, id: FileId, at: H) {
        // A set hands out no `&mut`; `replace` rewrites the record in
        // the bucket it already occupies.
        if let Some(ByCert(p)) = self.pointers.get(&id) {
            let pointer = PointerEntry { backup_at: Some(self.peers.intern(at)), ..p.clone() };
            self.pointers.replace(ByCert(pointer));
        }
    }

    /// Installs a C→B backup pointer (on the k+1-th closest node) on
    /// behalf of the diverting node `owner`. `cert` must be `id`'s
    /// certificate, as for [`Self::install_pointer`].
    pub fn install_backup_pointer(&mut self, id: FileId, holder: H, cert: SharedFileCert, owner: H) {
        debug_assert_eq!(id, cert.file_id, "pointer installed under another file's certificate");
        let (holder, owner) = (self.peers.intern(holder), self.peers.intern(owner));
        self.backup_pointers
            .replace(ByCert(BackupEntry { cert, holder, owner }));
    }

    /// Removes a diversion pointer. Returns the whole record, so the
    /// caller holds the certificate and the backup location it must
    /// notify.
    pub fn remove_pointer(&mut self, id: FileId) -> Option<Pointer<H>> {
        let ByCert(p) = self.pointers.take(&id)?;
        Some(Pointer {
            holder: self.peers.get(p.holder),
            backup_at: p.backup_at.map(|at| self.peers.get(at)),
            cert: p.cert,
        })
    }

    /// Removes a backup pointer. Returns the whole record if present.
    pub fn remove_backup_pointer(&mut self, id: FileId) -> Option<BackupPointer<H>> {
        let ByCert(b) = self.backup_pointers.take(&id)?;
        Some(BackupPointer {
            holder: self.peers.get(b.holder),
            owner: self.peers.get(b.owner),
            cert: b.cert,
        })
    }

    /// The backup pointers currently installed.
    pub fn backup_pointers(&self) -> impl Iterator<Item = (&FileId, BackupPointerRef<'_, H>)> {
        self.backup_pointers
            .iter()
            .map(|ByCert(b)| (&b.cert.file_id, b.view(&self.peers)))
    }

    /// The A→B pointers currently installed.
    pub fn pointers(&self) -> impl Iterator<Item = (&FileId, PointerRef<'_, H>)> {
        self.pointers
            .iter()
            .map(|ByCert(p)| (&p.cert.file_id, p.view(&self.peers)))
    }

    /// The diversion pointer for `id`, if any.
    pub fn pointer(&self, id: FileId) -> Option<PointerRef<'_, H>> {
        self.pointers.get(&id).map(|ByCert(p)| p.view(&self.peers))
    }

    /// The backup pointer for `id`, if any.
    pub fn backup_pointer(&self, id: FileId) -> Option<BackupPointerRef<'_, H>> {
        self.backup_pointers
            .get(&id)
            .map(|ByCert(b)| b.view(&self.peers))
    }

    /// The certificate this node keeps for `id` in any role: replica,
    /// cached copy, pointer, then backup pointer.
    pub fn certificate(&self, id: FileId) -> Option<&SharedFileCert> {
        self.replica(id)
            .map(|r| r.cert)
            .or_else(|| self.cache.cert(id))
            .or_else(|| self.pointer(id).map(|p| p.cert))
            .or_else(|| self.backup_pointer(id).map(|b| b.cert))
    }

    /// Resolves a lookup against replicas, pointers, then the cache.
    /// Probing the cache updates its hit statistics only when the file is
    /// found nowhere else.
    pub fn resolve(&mut self, id: FileId) -> Resolution<H> {
        if self.primaries.contains(&id) {
            return Resolution::Primary;
        }
        if self.diverted.contains(&id) {
            return Resolution::DivertedHere;
        }
        if let Some(p) = self.pointer(id) {
            return Resolution::Pointer(p.holder);
        }
        if self.cache.probe(id).is_some() {
            return Resolution::Cached;
        }
        Resolution::Miss
    }

    /// Returns a borrowed view of the stored replica (primary or
    /// diverted) if present.
    pub fn replica(&self, id: FileId) -> Option<ReplicaRef<'_, H>> {
        if let Some(ByCert(cert)) = self.primaries.get(&id) {
            return Some(ReplicaRef {
                cert,
                diverted_from: None,
            });
        }
        self.diverted.get(&id).map(|ByCert(e)| e.view(&self.peers))
    }

    /// Iterates over primary replicas as `(file, certificate)` — a
    /// primary's `diverted_from` is `None` by construction.
    pub fn primaries(&self) -> impl Iterator<Item = (&FileId, &SharedFileCert)> {
        self.primaries.iter().map(ByCert::entry)
    }

    /// Iterates over diverted replicas held here.
    pub fn diverted_here(&self) -> impl Iterator<Item = (&FileId, ReplicaRef<'_, H>)> {
        self.diverted
            .iter()
            .map(|ByCert(e)| (&e.cert.file_id, e.view(&self.peers)))
    }

    /// Whether this node holds a replica of `id` (primary or diverted).
    pub fn holds_replica(&self, id: FileId) -> bool {
        self.primaries.contains(&id) || self.diverted.contains(&id)
    }

    /// The §4 cache admission + insertion path for a file routed through
    /// this node. Returns `true` if the file was cached.
    pub fn cache_file(&mut self, cert: &SharedFileCert) -> bool {
        // With caching disabled nothing below can succeed; skip the
        // replica probes this would otherwise cost on every forward hop.
        if self.cache.kind() == CachePolicyKind::None {
            return false;
        }
        if self.holds_replica(cert.file_id) {
            return false;
        }
        let budget = self.cache_budget();
        let admit = (cert.file_size as f64) < self.policy.cache_fraction * budget as f64;
        if !admit {
            return false;
        }
        self.cache.insert(cert, budget)
    }

    /// Probes the cache alone (used by lookups hitting intermediate
    /// nodes). Returns `true` on a cache hit.
    pub fn cache_probe(&mut self, id: FileId) -> bool {
        self.cache.probe(id).is_some()
    }
}

/// The shared acceptance rule: reject when `size/free > t`.
fn accepts(size: u64, free: u64, t: f64) -> bool {
    if size > free {
        return false;
    }
    (size as f64) <= t * (free as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_crypto::{FileCertificate, KeyPair, Scheme, Sha1};
    use rand::{rngs::StdRng, SeedableRng};

    type Store = NodeStore<u32>;

    fn cert(name: &str, size: u64) -> SharedFileCert {
        let mut rng = StdRng::seed_from_u64(1);
        let owner = KeyPair::generate(Scheme::Keyed, &mut rng);
        SharedFileCert::new(FileCertificate::issue(
            &owner,
            name,
            Sha1::digest(name.as_bytes()),
            size,
            5,
            0,
            0,
            &mut rng,
        ))
    }

    fn store(capacity: u64) -> Store {
        NodeStore::new(
            capacity,
            StorePolicy::default(),
            CachePolicyKind::GreedyDualSize,
        )
    }

    #[test]
    fn primary_store_and_resolve() {
        let mut s = store(10_000);
        let c = cert("a", 500);
        let id = c.file_id;
        s.store_primary(c).unwrap();
        assert_eq!(s.resolve(id), Resolution::Primary);
        assert_eq!(s.replica_used(), 500);
        assert_eq!(s.free(), 9_500);
        assert_eq!(s.primary_count(), 1);
    }

    #[test]
    fn a_primary_costs_under_twenty_table_bytes() {
        // Counted, not measured: what the primaries table has allocated
        // after 10,000 replicas, as buckets plus hashbrown's one control
        // byte each. Keyed by a separate `FileId` the bucket was 32 B
        // and this came to ~54 B per replica.
        let mut s = store(1 << 40);
        for i in 0..10_000 {
            s.store_primary(cert(&format!("f{i}"), 1)).unwrap();
        }
        let buckets = (s.primaries.capacity() * 8 / 7).next_power_of_two();
        let bucket = std::mem::size_of::<ByCert<SharedFileCert>>();
        assert!(buckets * (bucket + 1) <= 20 * s.primary_count());
    }

    #[test]
    fn threshold_rejects_large_files() {
        let mut s = store(10_000);
        // t_pri = 0.1 → largest acceptable primary is 1000 bytes.
        assert!(s.store_primary(cert("big", 1_001)).is_err());
        assert!(s.store_primary(cert("ok", 1_000)).is_ok());
        assert_eq!(s.rejected_inserts(), 1);
    }

    #[test]
    fn diverted_threshold_stricter() {
        let mut s = store(10_000);
        // t_div = 0.05 → largest acceptable diverted replica is 500 bytes.
        assert!(s.store_diverted(cert("big", 501), 7).is_err());
        assert!(s.store_diverted(cert("ok", 500), 7).is_ok());
        assert_eq!(s.diverted_count(), 1);
        let id = s.diverted_here().next().unwrap().0;
        assert_eq!(s.replica(*id).unwrap().diverted_from, Some(7));
    }

    #[test]
    fn threshold_tightens_as_node_fills() {
        let mut s = store(10_000);
        // Fill with many small files; acceptable size shrinks with free().
        let mut stored = 0u64;
        let mut i = 0;
        loop {
            let c = cert(&format!("f{i}"), 300);
            i += 1;
            match s.store_primary(c) {
                Ok(()) => stored += 300,
                Err(_) => break,
            }
        }
        assert_eq!(s.replica_used(), stored);
        // Rejection happened once free() < 3000 (300/free > 0.1).
        assert!(s.free() < 3_000);
        // Smaller files still accepted.
        assert!(s.store_primary(cert("small", 10)).is_ok());
    }

    #[test]
    fn duplicate_rejected() {
        let mut s = store(10_000);
        let c = cert("a", 100);
        s.store_primary(c.clone()).unwrap();
        assert_eq!(s.store_primary(c.clone()), Err(StoreError::Duplicate));
        assert_eq!(s.store_diverted(c, 3), Err(StoreError::Duplicate));
    }

    #[test]
    fn zero_byte_files_always_accepted() {
        // The NLANR trace has 0-byte files; 0/free = 0 <= t.
        let mut s = store(100);
        assert!(s.store_primary(cert("empty", 0)).is_ok());
    }

    #[test]
    fn remove_replica_frees_space() {
        let mut s = store(10_000);
        let c = cert("a", 400);
        let id = c.file_id;
        s.store_primary(c).unwrap();
        let r = s.remove_replica(id).unwrap();
        assert_eq!(r.size(), 400);
        assert_eq!(s.replica_used(), 0);
        assert!(s.remove_replica(id).is_none());
        assert_eq!(s.resolve(id), Resolution::Miss);
    }

    #[test]
    fn pointers_resolve_with_holder() {
        let mut s = store(10_000);
        let c = cert("a", 100);
        let id = c.file_id;
        // A re-install is a new record: no backup location carries over.
        s.install_pointer(id, 41, c.clone());
        s.set_pointer_backup(id, 40);
        s.install_pointer(id, 42, c.clone());
        assert_eq!(s.pointer(id).unwrap().backup_at, None);
        s.set_pointer_backup(id, 43);
        assert_eq!(s.resolve(id), Resolution::Pointer(42));
        // Retiring the pointer hands back everything the caller needs:
        // the holder, the certificate and where the backup lives.
        let p = s.remove_pointer(id).unwrap();
        assert_eq!((p.holder, p.backup_at), (42, Some(43)));
        assert!(std::sync::Arc::ptr_eq(&p.cert, &c));
        assert_eq!(s.resolve(id), Resolution::Miss);
    }

    #[test]
    fn backup_pointers_tracked_separately() {
        let mut s = store(10_000);
        let c = cert("a", 100);
        s.install_backup_pointer(c.file_id, 9, c.clone(), 3);
        // Backup pointers don't serve lookups (C only guards against A's
        // failure); resolution is a miss.
        assert_eq!(s.resolve(c.file_id), Resolution::Miss);
        let b = s.remove_backup_pointer(c.file_id).unwrap();
        assert_eq!((b.holder, b.owner), (9, 3));
    }

    #[test]
    fn certificate_answers_for_every_role() {
        let mut s = store(10_000);
        let (r, c, p, b) = (cert("r", 100), cert("c", 100), cert("p", 100), cert("b", 100));
        s.store_primary(r.clone()).unwrap();
        assert!(s.cache_file(&c));
        s.install_pointer(p.file_id, 1, p.clone());
        s.install_backup_pointer(b.file_id, 1, b.clone(), 2);
        for held in [&r, &c, &p, &b] {
            let got = s.certificate(held.file_id).expect("certificate kept");
            assert!(std::sync::Arc::ptr_eq(got, held));
        }
        assert!(s.certificate(cert("unknown", 1).file_id).is_none());
        // The certificate goes with its record.
        s.remove_backup_pointer(b.file_id);
        assert!(s.certificate(b.file_id).is_none());
    }

    #[test]
    fn cache_file_respects_fraction() {
        let mut s = NodeStore::<u32>::new(
            1_000,
            StorePolicy {
                cache_fraction: 0.5,
                ..Default::default()
            },
            CachePolicyKind::GreedyDualSize,
        );
        // Budget (free) = 1000; fraction 0.5 → only files < 500 cached.
        assert!(!s.cache_file(&cert("big", 600)));
        assert!(s.cache_file(&cert("small", 400)));
    }

    #[test]
    fn replicas_evict_cached_copies() {
        let mut s = store(1_000);
        assert!(s.cache_file(&cert("cached", 900)));
        assert_eq!(s.cache().used(), 900);
        // A replica claims the space; the cache must shrink.
        s.store_primary(cert("replica", 100)).unwrap();
        assert!(s.cache().used() <= s.cache_budget());
    }

    #[test]
    fn stored_replica_never_double_cached() {
        let mut s = store(10_000);
        let c = cert("a", 100);
        let id = c.file_id;
        assert!(s.cache_file(&c));
        s.store_primary(c.clone()).unwrap();
        // Promotion removed the cached copy.
        assert!(!s.cache().contains(id));
        // And a held replica is not re-admitted to the cache.
        assert!(!s.cache_file(&c));
    }

    #[test]
    fn cached_cert_lives_and_dies_with_the_cache_entry() {
        let mut s = store(10_000);
        let (a, b) = (cert("a", 8_500), cert("b", 800));
        assert!(s.cache_file(&a) && s.cache_file(&b));
        assert!(std::sync::Arc::ptr_eq(s.cache().cert(a.file_id).unwrap(), &a));
        // A replica shrinks the cache budget to 9000: the bigger file is
        // the GD-S victim and its certificate goes with it.
        s.store_primary(cert("replica", 1_000)).unwrap();
        assert!(s.cache().cert(a.file_id).is_none());
        assert!(s.cache().cert(b.file_id).is_some());
        // Promotion to a replica drops the cached copy's certificate too.
        s.store_primary(b.clone()).unwrap();
        assert!(s.cache().cert(b.file_id).is_none());
        assert_eq!(s.cache().len(), 0);
    }

    #[test]
    fn resolve_prefers_replica_over_cache() {
        let mut s = store(10_000);
        let c = cert("a", 100);
        let id = c.file_id;
        s.store_primary(c).unwrap();
        assert_eq!(s.resolve(id), Resolution::Primary);
    }

    #[test]
    fn utilization_and_cache_budget_track_replicas() {
        let mut s = store(1_000);
        assert_eq!(s.utilization(), 0.0);
        s.store_primary(cert("a", 100)).unwrap();
        assert!((s.utilization() - 0.1).abs() < 1e-9);
        assert_eq!(s.cache_budget(), 900);
    }

    #[test]
    fn no_diversion_policy_behaves_like_baseline() {
        let mut s = NodeStore::<u32>::new(
            1_000,
            StorePolicy::no_diversion(),
            CachePolicyKind::None,
        );
        // t_pri = 1.0: anything that fits is accepted.
        assert!(s.store_primary(cert("a", 1_000)).is_ok());
        // t_div = 0.0: every diverted replica is rejected.
        let mut s2 = NodeStore::<u32>::new(1_000, StorePolicy::no_diversion(), CachePolicyKind::None);
        assert!(s2.store_diverted(cert("b", 1), 1).is_err());
    }
}
