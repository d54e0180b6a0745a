//! Model check of the file table: `NodeStore` driven through random
//! operation sequences against plain `BTreeMap<FileId, _>`s, one per
//! role. Every answer, the byte accounting and the keys each iterator
//! yields must agree after every step.
//!
//! Each file comes with a *twin*: a second certificate that shares the
//! `file_id` and nothing else. The tables find records by the id inside
//! the certificate, so a twin must be the same file to them, as it was
//! when the id was a separate map key.
//!
//! The nodes a record names come from a pool in which some entries share
//! an id and some an address: the store keeps them as handles into its
//! peer table, and every view must still hand back the very entry that
//! went in.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use past_crypto::{FileCertificate, KeyPair, Scheme, Sha1, SharedFileCert};
use past_id::FileId;
use past_store::{CachePolicyKind, NodeStore, Resolution, StoreError, StorePolicy};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

const CAPACITY: u64 = 20_000;
const FILES: usize = 24;

/// A remote node as the PAST layer names one: an id and an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Node {
    id: u64,
    addr: u32,
}

/// 24 distinct nodes, 20 that reuse one of their ids at a new address
/// (a node that rejoined elsewhere) and 20 that reuse one of their
/// addresses under a new id (a new node on a recycled address).
fn pool() -> Vec<Node> {
    let base = (0..24).map(|i| Node { id: 1_000 + i, addr: i as u32 });
    let moved = (0..20).map(|i| Node { id: 1_000 + i, addr: 100 + i as u32 });
    let renamed = (0..20).map(|i| Node { id: 2_000 + i, addr: i as u32 });
    base.chain(moved).chain(renamed).collect()
}

/// `FILES` certificates and their twins (other owner, content hash,
/// size, replication factor, salt and date; same `file_id`).
fn files() -> Vec<[SharedFileCert; 2]> {
    let owner = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(1));
    let other = KeyPair::generate(Scheme::Keyed, &mut StdRng::seed_from_u64(2));
    (0..FILES as u64)
        .map(|v| {
            // Sizes straddle both thresholds of a 20,000-byte node
            // (t_pri admits 2,000 B when empty, t_div 1,000 B).
            let name = format!("f{v}");
            let cert = FileCertificate::issue_unsigned(
                &owner,
                &name,
                Sha1::digest(name.as_bytes()),
                (v * 211) % 2_300,
                5,
                0,
                0,
            );
            let twin = FileCertificate {
                file_id: cert.file_id,
                ..FileCertificate::issue_unsigned(
                    &other,
                    "twin",
                    Sha1::digest(b"twin"),
                    (v * 97) % 1_100 + 1,
                    3,
                    v + 1,
                    7,
                )
            };
            [SharedFileCert::new(cert), SharedFileCert::new(twin)]
        })
        .collect()
}

/// The reference: one ordered map per role and the §3.3.1 acceptance
/// rule written out.
#[derive(Default)]
struct Model {
    primaries: BTreeMap<FileId, SharedFileCert>,
    diverted: BTreeMap<FileId, (SharedFileCert, Node)>,
    pointers: BTreeMap<FileId, (Node, SharedFileCert, Option<Node>)>,
    backups: BTreeMap<FileId, (Node, SharedFileCert, Node)>,
    used: u64,
    /// Every node handed to the store, whether or not a record kept it.
    handed: BTreeSet<Node>,
}

impl Model {
    fn holds(&self, id: FileId) -> bool {
        self.primaries.contains_key(&id) || self.diverted.contains_key(&id)
    }

    fn store(&mut self, cert: &SharedFileCert, from: Option<Node>) -> Result<(), StoreError> {
        self.handed.extend(from);
        if self.holds(cert.file_id) {
            return Err(StoreError::Duplicate);
        }
        let policy = StorePolicy::default();
        let t = if from.is_some() {
            policy.t_div
        } else {
            policy.t_pri
        };
        let (size, free) = (cert.file_size, CAPACITY - self.used);
        if size > free || size as f64 > t * free as f64 {
            return Err(StoreError::OverThreshold { size, free });
        }
        self.used += size;
        match from {
            Some(from) => {
                self.diverted.insert(cert.file_id, (cert.clone(), from));
            }
            None => {
                self.primaries.insert(cert.file_id, cert.clone());
            }
        }
        Ok(())
    }
}

/// The address of the certificate a lookup handed back, for comparing
/// *which* certificate of a file and its twin a table kept.
fn addr(cert: Option<&SharedFileCert>) -> Option<*const FileCertificate> {
    cert.map(Arc::as_ptr)
}

proptest! {
    #[test]
    fn store_agrees_with_a_btreemap_model(
        ops in prop::collection::vec(any::<(u8, u8, u8)>(), 0..400),
        lru: bool,
    ) {
        let (files, pool) = (files(), pool());
        let kind = if lru { CachePolicyKind::Lru } else { CachePolicyKind::GreedyDualSize };
        let mut s: NodeStore<Node> = NodeStore::new(CAPACITY, StorePolicy::default(), kind);
        let mut m = Model::default();
        for (op, pick, arg) in ops {
            let pair = &files[pick as usize % FILES];
            // The low bit of `arg` picks the certificate or its twin,
            // the rest names a remote node and the one after it.
            let at = arg as usize / 2;
            let cert = &pair[arg as usize % 2];
            let (node, next) = (pool[at % pool.len()], pool[(at + 1) % pool.len()]);
            let id = cert.file_id;
            match op % 12 {
                0 => prop_assert_eq!(s.store_primary(cert.clone()), m.store(cert, None)),
                1 => prop_assert_eq!(s.store_diverted(cert.clone(), node), m.store(cert, Some(node))),
                2 => {
                    m.handed.insert(node);
                    s.install_pointer(id, node, cert.clone());
                    m.pointers.insert(id, (node, cert.clone(), None));
                }
                3 => {
                    m.handed.insert(node);
                    s.set_pointer_backup(id, node);
                    if let Some(p) = m.pointers.get_mut(&id) {
                        p.2 = Some(node);
                    }
                }
                4 => {
                    m.handed.extend([node, next]);
                    s.install_backup_pointer(id, node, cert.clone(), next);
                    m.backups.insert(id, (node, cert.clone(), next));
                }
                5 => {
                    let got = s.remove_replica(id);
                    let want = match m.primaries.remove(&id) {
                        Some(c) => Some((c, None)),
                        None => m.diverted.remove(&id).map(|(c, from)| (c, Some(from))),
                    };
                    if let Some((c, _)) = &want {
                        m.used -= c.file_size;
                    }
                    prop_assert_eq!(
                        got.as_ref().map(|r| (addr(Some(&r.cert)), r.diverted_from)),
                        want.as_ref().map(|(c, from)| (addr(Some(c)), *from))
                    );
                }
                6 => {
                    let got = s.remove_pointer(id);
                    let want = m.pointers.remove(&id);
                    prop_assert_eq!(
                        got.as_ref().map(|p| (p.holder, addr(Some(&p.cert)), p.backup_at)),
                        want.as_ref().map(|(h, c, b)| (*h, addr(Some(c)), *b))
                    );
                }
                7 => {
                    let got = s.remove_backup_pointer(id);
                    let want = m.backups.remove(&id);
                    prop_assert_eq!(
                        got.as_ref().map(|b| (b.holder, addr(Some(&b.cert)), b.owner)),
                        want.as_ref().map(|(h, c, o)| (*h, addr(Some(c)), *o))
                    );
                }
                8 => {
                    let want = if m.primaries.contains_key(&id) {
                        Resolution::Primary
                    } else if m.diverted.contains_key(&id) {
                        Resolution::DivertedHere
                    } else if let Some((holder, ..)) = m.pointers.get(&id) {
                        Resolution::Pointer(*holder)
                    } else if s.cache().contains(id) {
                        Resolution::Cached
                    } else {
                        Resolution::Miss
                    };
                    prop_assert_eq!(s.resolve(id), want);
                }
                9 => {
                    // Replica, cached copy, pointer, then backup.
                    let want = addr(m.primaries.get(&id))
                        .or(addr(m.diverted.get(&id).map(|(c, _)| c)))
                        .or(addr(s.cache().cert(id)))
                        .or(addr(m.pointers.get(&id).map(|(_, c, _)| c)))
                        .or(addr(m.backups.get(&id).map(|(_, c, _)| c)));
                    prop_assert_eq!(addr(s.certificate(id)), want);
                }
                _ => {
                    // The cache has a model of its own (`cache.rs`);
                    // here it must stay disjoint from the replicas and
                    // inside the space they leave. A cached file is only
                    // ever re-offered under its own size.
                    let cert = &pair[0];
                    let cached = s.cache_file(cert);
                    prop_assert!(!(cached && m.holds(id)), "a held replica was cached");
                    prop_assert_eq!(cached, s.cache().contains(id));
                }
            }
            prop_assert_eq!(s.replica_used(), m.used);
            prop_assert_eq!(s.free(), CAPACITY - m.used);
            prop_assert!(s.cache().used() <= s.cache_budget());
            prop_assert_eq!(
                (s.primary_count(), s.diverted_count(), s.pointer_count()),
                (m.primaries.len(), m.diverted.len(), m.pointers.len())
            );
            prop_assert!(
                s.peer_count() <= m.handed.len(),
                "{} peers kept for {} distinct nodes handed in",
                s.peer_count(),
                m.handed.len()
            );
            // Each iterator yields the model's keys, each key beside the
            // record the model holds for it.
            let mut primaries: Vec<_> = s.primaries().map(|(id, c)| (*id, addr(Some(c)))).collect();
            primaries.sort();
            let want: Vec<_> = m.primaries.iter().map(|(id, c)| (*id, addr(Some(c)))).collect();
            prop_assert_eq!(primaries, want);
            let mut diverted: Vec<_> = s
                .diverted_here()
                .map(|(id, r)| (*id, addr(Some(r.cert)), r.diverted_from))
                .collect();
            diverted.sort();
            let want: Vec<_> =
                m.diverted.iter().map(|(id, (c, from))| (*id, addr(Some(c)), Some(*from))).collect();
            prop_assert_eq!(diverted, want);
            let mut pointers: Vec<_> = s
                .pointers()
                .map(|(id, p)| (*id, p.holder, addr(Some(p.cert)), p.backup_at))
                .collect();
            pointers.sort();
            let want: Vec<_> =
                m.pointers.iter().map(|(id, (h, c, b))| (*id, *h, addr(Some(c)), *b)).collect();
            prop_assert_eq!(pointers, want);
            let mut backups: Vec<_> = s
                .backup_pointers()
                .map(|(id, b)| (*id, b.holder, addr(Some(b.cert)), b.owner))
                .collect();
            backups.sort();
            let want: Vec<_> =
                m.backups.iter().map(|(id, (h, c, o))| (*id, *h, addr(Some(c)), *o)).collect();
            prop_assert_eq!(backups, want);
            for pair in &files {
                let id = pair[0].file_id;
                prop_assert_eq!(s.holds_replica(id), m.holds(id));
                prop_assert!(!(s.cache().contains(id) && m.holds(id)), "cached beside its replica");
                prop_assert_eq!(
                    s.pointer(id).map(|p| (p.holder, addr(Some(p.cert)), p.backup_at)),
                    m.pointers.get(&id).map(|(h, c, b)| (*h, addr(Some(c)), *b))
                );
                prop_assert_eq!(
                    s.backup_pointer(id).map(|b| (b.holder, addr(Some(b.cert)), b.owner)),
                    m.backups.get(&id).map(|(h, c, o)| (*h, addr(Some(c)), *o))
                );
                prop_assert_eq!(
                    s.replica(id).and_then(|r| r.diverted_from),
                    m.diverted.get(&id).map(|(_, from)| *from)
                );
                prop_assert_eq!(
                    addr(s.replica(id).map(|r| r.cert)),
                    addr(m.primaries.get(&id).or(m.diverted.get(&id).map(|(c, _)| c)))
                );
            }
        }
    }
}
