//! Layer drives: the benchmark calls one layer's public functions on
//! inputs taken from the same seeded workload and times them in
//! batches. Each drive reports nanoseconds per call as a median over
//! the batches, with the highest percentile that has ten batches beyond
//! it. `count × median ns ÷ replay_s` is then the layer's estimated
//! share of a replay (`<layer>.est_share`).
//!
//! A drive times a tight loop over warm data, so it understates what
//! the same calls cost inside a replay, where other layers evict its
//! working set between calls. The estimated shares are therefore lower
//! bounds, and `core.residual_share` an upper bound.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use past_crypto::{compute_file_id, FileCertificate, KeyPair, Scheme, Sha1, SharedFileCert};
use past_id::NodeId;
use past_net::{Addr, Ctx, EuclideanTopology, Protocol, ShardedSim, Simulator};
use past_pastry::{NodeEntry, PastryState};
use past_store::{CachePolicyKind, NodeStore, StorePolicy};
use past_workload::Workload as TraceSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{per_layer_unit, Metric};
use crate::spans::Tracer;
use crate::workloads::{trace_config, Seeds};

/// Files a drive takes from the workload's trace.
const DRIVE_FILES: usize = 4096;

/// What the drives are fed: the workload's own files and node ids.
pub struct DriveInput {
    /// Unique files of the workload's trace.
    pub files: usize,
    /// Timed batches per drive, after one discarded warm-up batch.
    pub batches: usize,
    pub seeds: Seeds,
    /// The overlay's node identities.
    pub entries: Vec<NodeEntry>,
    /// The overlay's Pastry configuration.
    pub pastry: past_pastry::PastryConfig,
}

/// Runs `batch` once to warm up, then `batches` timed times. Returns
/// nanoseconds per item for each batch.
fn time_batches(batches: usize, items: usize, mut batch: impl FnMut()) -> Vec<f64> {
    batch();
    (0..batches)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect()
}

/// Every layer drive, each inside a `drive.<layer>.<fn>` span.
pub fn run_drives(input: &DriveInput, tracer: &mut Tracer) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(input.seeds.overlay);
    let owner = KeyPair::generate(Scheme::Keyed, &mut rng);
    let tcfg = trace_config(input.files);
    let trace = tcfg.generate();
    let n = DRIVE_FILES.min(trace.unique_files());
    let names: Vec<String> = (0..n as u32).map(|i| trace.file_name(i)).collect();
    let certs: Vec<SharedFileCert> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Arc::new(FileCertificate::issue_unsigned(
                &owner,
                name,
                Sha1::digest(name.as_bytes()),
                trace.file_size(i as u32),
                5,
                0,
                0,
            ))
        })
        .collect();
    let keys: Vec<NodeId> = certs.iter().map(|c| c.file_id.as_key()).collect();
    let ids: Vec<NodeId> = input.entries.iter().map(|e| e.id).collect();
    let mut out = Vec::new();
    // One drive: `batch` timed inside a `drive.<layer>.<fn>` span and
    // reported per item as the per-layer metric `name`.
    let mut drive = |span: &str, name: &str, items: usize, batch: &mut dyn FnMut()| {
        let unit = per_layer_unit(name);
        let mut samples = tracer.span(span, |_| time_batches(input.batches, items, batch));
        if unit == "us" {
            samples.iter_mut().for_each(|ns| *ns /= 1000.0);
        }
        out.push(Metric::of_samples(name, unit, &samples));
    };

    // workload: drain the lazy op stream, as the open-loop replay does.
    let stream = tcfg.stream();
    drive(
        "drive.workload.stream_ops",
        "workload.stream_ns_per_op",
        stream.op_count(),
        &mut || {
            black_box(stream.ops().count());
        },
    );

    // id: the two primitives every routing decision is made of, each
    // key against 64 node ids.
    let near = &ids[..ids.len().min(64)];
    drive(
        "drive.id.shared_prefix_digits",
        "id.prefix_ns",
        keys.len() * near.len(),
        &mut || {
            let mut sum = 0u32;
            for &k in &keys {
                for &id in near {
                    sum = sum.wrapping_add(black_box(id).shared_prefix_digits(k, 4));
                }
            }
            black_box(sum);
        },
    );
    drive(
        "drive.id.ring_distance",
        "id.ring_distance_ns",
        keys.len() * near.len(),
        &mut || {
            let mut sum = 0u128;
            for &k in &keys {
                for &id in near {
                    sum = sum.wrapping_add(black_box(id).ring_distance(k));
                }
            }
            black_box(sum);
        },
    );

    // pastry: one node's state fed every node id of the overlay.
    let mut state = PastryState::new(input.entries[0], &input.pastry);
    for e in &input.entries[1..] {
        state.on_node_seen(*e, rng.gen::<f64>());
    }
    drive(
        "drive.pastry.next_hop",
        "pastry.next_hop_ns",
        keys.len(),
        &mut || {
            for &k in &keys {
                black_box(state.next_hop(black_box(k), false, 0.9, None));
            }
        },
    );
    drive(
        "drive.pastry.replica_candidates",
        "pastry.replica_candidates_ns",
        keys.len(),
        &mut || {
            for &k in &keys {
                black_box(state.replica_candidates(black_box(k), 5));
            }
        },
    );

    // store: the workload's size distribution against one node's disk.
    let bytes: u64 = certs.iter().map(|c| c.file_size).sum();
    let new_store = |capacity: u64| {
        NodeStore::<u32>::new(
            capacity,
            StorePolicy::default(),
            CachePolicyKind::GreedyDualSize,
        )
    };
    drive(
        "drive.store.store_primary",
        "store.store_primary_ns",
        certs.len(),
        &mut || {
            // A fresh disk with room for everything the t_pri threshold
            // lets through; the heavy tail is refused, as in a replay.
            let mut store = new_store(bytes * 4);
            for c in &certs {
                let _ = black_box(store.store_primary(Arc::clone(c)));
            }
        },
    );
    // A cache budget of a quarter of the working set, so GD-S evicts
    // on most insertions.
    let mut store = new_store(bytes / 4);
    drive(
        "drive.store.cache_file",
        "store.cache_file_ns",
        certs.len(),
        &mut || {
            for c in &certs {
                black_box(store.cache_file(c));
            }
        },
    );
    drive(
        "drive.store.cache_probe",
        "store.cache_probe_ns",
        certs.len(),
        &mut || {
            for c in &certs {
                black_box(store.cache_probe(c.file_id));
            }
        },
    );

    // crypto: fileId hashing, and signatures over a certificate-sized
    // message.
    let public = owner.public();
    drive(
        "drive.crypto.compute_file_id",
        "crypto.file_id_ns",
        names.len(),
        &mut || {
            for name in &names {
                black_box(compute_file_id(name, &public, 0));
            }
        },
    );
    let message = [0x5au8; 120];
    drive(
        "drive.crypto.keyed_sign",
        "crypto.keyed_sign_ns",
        n,
        &mut || {
            for _ in 0..n {
                black_box(owner.sign(black_box(&message), &mut rng));
            }
        },
    );
    let sig = owner.sign(&message, &mut rng);
    drive(
        "drive.crypto.keyed_verify",
        "crypto.keyed_verify_ns",
        n,
        &mut || {
            for _ in 0..n {
                black_box(public.verify(black_box(&message), &sig));
            }
        },
    );
    let schnorr = KeyPair::generate(Scheme::Schnorr, &mut rng);
    let schnorr_public = schnorr.public();
    let schnorr_sig = schnorr.sign(&message, &mut rng);
    drive(
        "drive.crypto.schnorr_verify",
        "crypto.schnorr_verify_us",
        2,
        &mut || {
            for _ in 0..2 {
                assert!(black_box(
                    schnorr_public.verify(black_box(&message), &schnorr_sig)
                ));
            }
        },
    );

    // obs: one counter increment with a recorder installed.
    past_obs::install(past_obs::Recorder::new());
    drive("drive.obs.counter", "obs.counter_ns", n, &mut || {
        for _ in 0..n {
            past_obs::counter(black_box("bench.drive"), 1);
        }
    });
    past_obs::uninstall();

    // net: both engines with no application on top. One batch sends a
    // token from every node and runs the network dry.
    let nodes = input.entries.len() as u32;
    let seed = input.seeds.overlay;
    let topology = || {
        Box::new(EuclideanTopology::random(
            nodes as usize,
            &mut StdRng::seed_from_u64(seed),
        ))
    };
    macro_rules! token_drive {
        ($span:expr, $name:expr, $sim:expr) => {{
            let mut sim = $sim;
            for i in 0..nodes {
                sim.add_node(Addr(i), TokenNode { nodes });
            }
            sim.run_until_idle();
            drive($span, $name, (nodes * TOKEN_HOPS) as usize, &mut || {
                for i in 0..nodes {
                    sim.invoke(Addr(i), |_, ctx| {
                        ctx.send(Addr((i + 1) % nodes), TOKEN_HOPS - 1)
                    });
                }
                sim.run_until_idle();
            });
        }};
    }
    token_drive!(
        "drive.net.simulator",
        "net.bare_ns_per_event",
        Simulator::new(topology(), seed)
    );
    token_drive!(
        "drive.net.sharded_sim_1",
        "net.bare_ns_per_event_s1",
        ShardedSim::new(topology(), seed, 1)
    );
    token_drive!(
        "drive.net.sharded_sim_4",
        "net.bare_ns_per_event_s4",
        ShardedSim::new(topology(), seed, 4)
    );
    out
}

/// Hops each token makes before it is dropped.
const TOKEN_HOPS: u32 = 100;

/// The bare-engine protocol: a node that receives a token passes it to
/// a node drawn from its own random stream, until the token's hop
/// count runs out. One token per node is in flight, so the event heap
/// is as deep as the overlay is large. No application logic at all:
/// what remains is the engine's cost per event.
struct TokenNode {
    nodes: u32,
}

impl Protocol for TokenNode {
    type Msg = u32;
    type Upcall = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32, ()>, _from: Addr, hops_left: u32) {
        if hops_left > 0 {
            let next = Addr(ctx.rng().gen_range(0..self.nodes));
            ctx.send(next, hops_left - 1);
        }
    }
}
