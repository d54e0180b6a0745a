//! Hand-computed eviction scenarios for the cache replacement
//! policies, plus a check that hit accounting is mirrored one-for-one
//! into the `past-obs` metrics registry.
//!
//! The GD-S walkthrough tracks the paper's weight rule
//! `H_d = L + c(d)/s(d)` (unit cost) by hand, so each expected victim
//! below is derived from the arithmetic in the comments, not from
//! running the code.

use past_crypto::{FileCertificate, KeyPair, Scheme, Sha1, SharedFileCert};
use past_id::FileId;
use past_obs::{self, Recorder};
use past_store::{Cache, CachePolicyKind};
use rand::{rngs::StdRng, SeedableRng};

fn fid(v: u32) -> FileId {
    let mut bytes = [0u8; 20];
    bytes[..4].copy_from_slice(&v.to_be_bytes());
    FileId::from_bytes(bytes)
}

/// A certificate for file `fid(v)` of `size` bytes. The cache reads
/// nothing else of it, so the rest is filler.
fn cert(v: u32, size: u64) -> SharedFileCert {
    let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(1));
    SharedFileCert::new(FileCertificate {
        file_id: fid(v),
        ..FileCertificate::issue_unsigned(&owner, "f", Sha1::digest(b""), size, 1, 0, 0)
    })
}

/// Which of `ids` the cache holds. An insert's victims are the files
/// that drop out of this between two calls.
fn held(c: &Cache, ids: &[u32]) -> Vec<u32> {
    ids.iter().copied().filter(|v| c.contains(fid(*v))).collect()
}

const A: u32 = 1;
const B: u32 = 2;
const C: u32 = 3;
const D: u32 = 4;

/// Budget 1000. Weights below are H = L + 1/size.
///
/// | step         | L      | weights after step                  | used |
/// |--------------|--------|-------------------------------------|------|
/// | insert A 500 | 0      | A=0.002                             | 500  |
/// | insert B 250 | 0      | A=0.002  B=0.004                    | 750  |
/// | insert C 400 | 0.002  | B=0.004  C=0.0045   (A evicted)     | 650  |
/// | probe  B     | 0.002  | B=0.006  C=0.0045                   | 650  |
/// | insert D 600 | 0.0045 | B=0.006  D=0.00617  (C evicted)     | 850  |
///
/// A is the first victim (lowest H = 0.002); after probing B its weight
/// rises above C's, so C — not B — is the second victim even though B
/// was inserted earlier.
#[test]
fn gds_hand_computed_weights() {
    let mut c = Cache::new(CachePolicyKind::GreedyDualSize);

    assert!(c.insert(&cert(A, 500), 1000));
    assert!(c.insert(&cert(B, 250), 1000));
    assert_eq!(held(&c, &[A, B]), [A, B]);
    assert_eq!(c.used(), 750);

    assert!(c.insert(&cert(C, 400), 1000));
    assert_eq!(held(&c, &[A, B, C]), [B, C], "A has the lowest weight 0.002");
    assert_eq!(c.used(), 650);

    assert_eq!(c.probe(fid(B)), Some(250), "B re-weighted to 0.006");

    assert!(c.insert(&cert(D, 600), 1000));
    assert_eq!(
        held(&c, &[A, B, C, D]),
        [B, D],
        "C (0.0045) now below B (0.006)"
    );
    assert_eq!(c.used(), 850);

    // (hits, misses, insertions, evictions)
    assert_eq!(c.probe(fid(A)), None, "A was evicted");
    assert_eq!(c.stats(), (1, 1, 4, 2));
}

/// Budget 300 with 100-byte files: pure recency order decides.
///
/// insert 1,2,3 → order (oldest first) 1,2,3
/// probe 1      → order 2,3,1
/// insert 4     → evicts 2; order 3,1,4
/// probe 3      → order 1,4,3
/// insert 5     → evicts 1; order 4,3,5
#[test]
fn lru_hand_computed_recency() {
    let mut c = Cache::new(CachePolicyKind::Lru);
    for id in [1u32, 2, 3] {
        assert!(c.insert(&cert(id, 100), 300));
    }
    assert_eq!(held(&c, &[1, 2, 3]), [1, 2, 3]);
    assert_eq!(c.probe(fid(1)), Some(100));
    assert!(c.insert(&cert(4, 100), 300));
    assert_eq!(held(&c, &[1, 2, 3, 4]), [1, 3, 4], "2 evicted");
    assert_eq!(c.probe(fid(3)), Some(100));
    assert!(c.insert(&cert(5, 100), 300));
    assert_eq!(held(&c, &[1, 2, 3, 4, 5]), [3, 4, 5], "1 evicted");
    assert_eq!(c.stats(), (2, 0, 5, 2));
}

/// The same GD-S scenario with a recorder installed: every stats()
/// increment must land in the matching `store.cache.*.gds` counter.
#[test]
fn gds_hit_accounting_matches_obs_counters() {
    past_obs::install(Recorder::new());

    let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
    c.insert(&cert(A, 500), 1000);
    c.insert(&cert(B, 250), 1000);
    c.insert(&cert(C, 400), 1000); // evicts A
    c.probe(fid(B)); // hit
    c.insert(&cert(D, 600), 1000); // evicts C
    c.probe(fid(A)); // miss

    let rec = past_obs::uninstall().expect("recorder installed above");
    let (hits, misses, inserts, evictions) = c.stats();
    let m = rec.metrics();
    assert_eq!(m.counter_value("store.cache.hit.gds"), hits);
    assert_eq!(m.counter_value("store.cache.miss.gds"), misses);
    assert_eq!(m.counter_value("store.cache.insert.gds"), inserts);
    assert_eq!(m.counter_value("store.cache.evict.gds"), evictions);
    // Nothing leaked into another policy's counters.
    assert_eq!(m.counter_value("store.cache.hit.lru"), 0);
    assert_eq!(m.counter_value("store.cache.evict.lru"), 0);
}

/// Same check for LRU, including shrink_to-driven evictions.
#[test]
fn lru_hit_accounting_matches_obs_counters() {
    past_obs::install(Recorder::new());

    let mut c = Cache::new(CachePolicyKind::Lru);
    for id in 0..5u32 {
        c.insert(&cert(id, 100), 1000);
    }
    c.probe(fid(0)); // hit
    c.probe(fid(99)); // miss
    c.shrink_to(250);
    assert_eq!(held(&c, &[0, 1, 2, 3, 4]), [0, 4], "1, 2, 3 least recent");

    let rec = past_obs::uninstall().expect("recorder installed above");
    let (hits, misses, inserts, evictions) = c.stats();
    let m = rec.metrics();
    assert_eq!(m.counter_value("store.cache.hit.lru"), hits);
    assert_eq!(m.counter_value("store.cache.miss.lru"), misses);
    assert_eq!(m.counter_value("store.cache.insert.lru"), inserts);
    assert_eq!(m.counter_value("store.cache.evict.lru"), evictions);
    assert_eq!(evictions, 3);
}

/// With no recorder installed, cache bookkeeping still works and the
/// obs hooks are inert (stats unaffected).
#[test]
fn counters_noop_without_recorder() {
    assert!(!past_obs::is_enabled());
    let mut c = Cache::new(CachePolicyKind::GreedyDualSize);
    c.insert(&cert(A, 100), 1000);
    assert_eq!(c.probe(fid(A)), Some(100));
    assert_eq!(c.stats(), (1, 0, 1, 0));
}
