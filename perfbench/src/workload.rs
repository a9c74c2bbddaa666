//! The three workloads: their sizes, the system each one builds, and the
//! call schedule each one replays.
//!
//! Everything here is a pure function of the workload and the seed. The
//! schedule is generated before the timed phase, so the program receives
//! only its inputs.

use std::collections::BTreeSet;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scdn_alloc::replication::AdaptiveRebalance;
use scdn_core::system::{AvailabilityConfig, RebalanceStrategy};
use scdn_core::{Scdn, ScdnConfig};
use scdn_graph::generators::barabasi_albert;
use scdn_graph::{Graph, GraphDelta, NodeId};
use scdn_net::failure::FailureModel;
use scdn_sim::engine::SimTime;
use scdn_sim::workload::{
    generate_churn, generate_requests, interleave_churn, ChurnConfig, ChurnOp, Request,
    StreamEvent, WorkloadConfig,
};
use scdn_social::author::{Author, AuthorId, Institution, InstitutionId, Region};
use scdn_social::corpus::Corpus;
use scdn_social::trustgraph::{TrustFilter, TrustSubgraph};
use scdn_storage::coding::CodingConfig;
use scdn_storage::integrity::Checksum;
use scdn_storage::object::DatasetId;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Read-heavy serving with opportunistic caching.
    Serve,
    /// Collaboration-graph churn under load.
    Churn,
    /// Write-heavy erasure-coded storage.
    Ingest,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Serve, Kind::Churn, Kind::Ingest];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Serve => "serve",
            Kind::Churn => "churn",
            Kind::Ingest => "ingest",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Sizes of one workload run. A run replays `epochs` epochs; what one
/// epoch holds depends on the workload (see [`schedule`]).
#[derive(Clone, Debug)]
pub struct Params {
    /// Which workload.
    pub kind: Kind,
    /// Members of the BA(m = 3) social graph.
    pub nodes: usize,
    /// Datasets published during set-up.
    pub datasets: usize,
    /// Bytes per dataset.
    pub dataset_bytes: usize,
    /// Segment size of the S-CDN.
    pub segment_bytes: usize,
    /// Target replica count per dataset.
    pub replicas: usize,
    /// Requests per `request_batch` call; on `ingest`, the
    /// `request_coded` calls per epoch.
    pub batch: usize,
    /// Request calls per epoch (`serve`, `churn`).
    pub batches_per_epoch: usize,
    /// Epochs in the timed phase.
    pub epochs: usize,
    /// Datasets published (and replicated) per epoch.
    pub publishes_per_epoch: usize,
    /// Bytes of each dataset published during the timed phase.
    pub publish_bytes: usize,
    /// Mean structural churn events per epoch (`churn` only).
    pub churn_per_epoch: usize,
    /// Times the set-up is repeated to report its median.
    pub setup_repeats: usize,
}

/// Epochs per second of `--seconds`: the epoch counts are calibrated so a
/// 20-second run of the timed phase takes roughly 20 s on a 2-CPU host,
/// and the amount of work stays a pure function of the arguments. On
/// `ingest` each repair regenerates one block of every dataset published
/// so far, so its run time grows faster than `--seconds`.
fn epochs_per_second(kind: Kind) -> f64 {
    match kind {
        Kind::Serve => 1.3,
        Kind::Churn => 2.4,
        Kind::Ingest => 1.0,
    }
}

impl Params {
    /// Full-size parameters for a run of about `seconds`.
    pub fn full(kind: Kind, seconds: u32) -> Params {
        let epochs = ((seconds as f64 * epochs_per_second(kind)).round() as usize).max(1);
        match kind {
            Kind::Serve => Params {
                kind,
                nodes: 20_000,
                datasets: 100,
                dataset_bytes: 16 << 10,
                segment_bytes: 16 << 10,
                replicas: 10,
                batch: 64,
                batches_per_epoch: 8,
                epochs,
                publishes_per_epoch: 1,
                publish_bytes: 16 << 10,
                churn_per_epoch: 0,
                setup_repeats: 7,
            },
            Kind::Churn => Params {
                kind,
                nodes: 10_000,
                datasets: 100,
                dataset_bytes: 64 << 10,
                segment_bytes: 16 << 10,
                replicas: 2,
                batch: 64,
                batches_per_epoch: 4,
                epochs,
                publishes_per_epoch: 1,
                publish_bytes: 64 << 10,
                churn_per_epoch: 8,
                setup_repeats: 15,
            },
            Kind::Ingest => Params {
                kind,
                nodes: 10_000,
                datasets: 2,
                dataset_bytes: 1 << 20,
                segment_bytes: 256 << 10,
                replicas: 3,
                batch: 8,
                batches_per_epoch: 1,
                epochs,
                publishes_per_epoch: 1,
                publish_bytes: 1 << 20,
                churn_per_epoch: 0,
                setup_repeats: 15,
            },
        }
    }

    /// A tiny instance of the same workload, for the benchmark's tests.
    pub fn tiny(kind: Kind) -> Params {
        let mut p = Params::full(kind, 1);
        p.nodes = 400;
        p.datasets = p.datasets.min(12);
        p.dataset_bytes = p.dataset_bytes.min(64 << 10);
        p.publish_bytes = p.publish_bytes.min(64 << 10);
        p.segment_bytes = p.segment_bytes.min(16 << 10);
        p.batch = p.batch.min(16);
        p.epochs = 24;
        p.setup_repeats = 1;
        p
    }

    /// The S-CDN configuration of this workload.
    pub fn config(&self, seed: u64) -> ScdnConfig {
        let mut cfg = ScdnConfig {
            segment_size: self.segment_bytes,
            replicas_per_dataset: self.replicas,
            transfer_concurrency: 2,
            seed,
            ..ScdnConfig::default()
        };
        match self.kind {
            Kind::Serve => {
                cfg.availability = AvailabilityConfig::Periodic {
                    period_ms: 600_000,
                    duty: 0.8,
                };
                cfg.failure = FailureModel {
                    loss_prob: 0.02,
                    seed: seed ^ 0x1055,
                    ..FailureModel::default()
                };
                cfg.opportunistic_caching = true;
            }
            Kind::Churn => {}
            Kind::Ingest => {
                cfg.coding = CodingConfig::Rs { k: 4, m: 2 };
                // A coded dataset's catalog entry lists only its owner, so
                // under the static strategy `maintain` never plans one and
                // only `repair` regenerates lost blocks. A floor of two
                // makes every `maintain` cycle plan each coded dataset, and
                // the plan regenerates whatever blocks are missing.
                cfg.rebalance = RebalanceStrategy::Adaptive(AdaptiveRebalance {
                    min_replicas: 2,
                    ..AdaptiveRebalance::default()
                });
                cfg.repo_capacity = 256 << 20;
            }
        }
        cfg
    }
}

/// A dozen research regions, so topology latencies are not trivial. Each
/// holds [`CAMPUSES`] institutions scattered around it by the seed, so
/// simulated latencies take many values and vary with the seed. Members
/// are assigned to institutions by id, so the BA graph's hubs (its oldest
/// members, which host most replicas) sit in the same regions for every
/// seed and simulated response times stay comparable across seeds.
const SITES: [(Region, f64, f64); 12] = [
    (Region::NorthAmerica, 42.28, -83.74),
    (Region::NorthAmerica, 41.88, -87.63),
    (Region::NorthAmerica, 32.72, -117.16),
    (Region::NorthAmerica, 49.26, -123.11),
    (Region::SouthAmerica, -23.55, -46.63),
    (Region::Europe, 52.37, 4.90),
    (Region::Europe, 46.20, 6.14),
    (Region::Europe, 52.23, 21.01),
    (Region::Asia, 35.68, 139.69),
    (Region::Asia, 1.35, 103.82),
    (Region::Africa, -33.92, 18.42),
    (Region::Oceania, -37.81, 144.96),
];

/// Institutions per research region.
const CAMPUSES: usize = 16;

/// Deterministic pseudo-random content (SplitMix64 stream).
pub fn content(len: usize, seed: u64) -> Bytes {
    let mut state = seed;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// A dataset the benchmark published, with what it needs to check
/// deliveries.
pub struct Published {
    /// Catalog id.
    pub id: DatasetId,
    /// Length of the published bytes.
    pub len: u64,
    /// Checksum of the published bytes.
    pub checksum: Checksum,
}

/// A built system plus the benchmark's own view of it.
pub struct System {
    /// The system under test.
    pub scdn: Scdn,
    /// Every dataset published so far, in publication order.
    pub datasets: Vec<Published>,
    /// Members that own a dataset (never departed).
    pub owners: BTreeSet<NodeId>,
    /// Members departed so far.
    pub departed: BTreeSet<NodeId>,
    /// The benchmark's mirror of the social graph at the end of set-up.
    pub mirror: Graph,
    /// The run's seed (also the S-CDN's master seed).
    pub seed: u64,
}

/// Wall time of each set-up phase, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Social graph generation.
    pub graph_ms: f64,
    /// `Scdn::build` (membership, repositories, overlay).
    pub build_ms: f64,
    /// Initial publish + replicate and the ranking warm-up.
    pub publish_ms: f64,
}

impl SetupTimes {
    /// The whole set-up, seconds.
    pub fn total_s(&self) -> f64 {
        (self.graph_ms + self.build_ms + self.publish_ms) / 1e3
    }
}

/// Seed-derived stream for one purpose, so the inputs stay independent.
fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose
}

/// A member that may publish: one from the younger half of the BA graph.
/// Owners are never departed, and the oldest members are the hubs that
/// placement puts replicas on; keeping owners off them lets every repair
/// cycle depart the hub its replicas at risk share.
fn draw_owner(p: &Params, rng: &mut StdRng) -> NodeId {
    NodeId(rng.gen_range(p.nodes as u32 / 2..p.nodes as u32))
}

/// Owners of the initial datasets: distinct members drawn from the seed.
fn initial_owners(p: &Params, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x0a));
    let mut picked = BTreeSet::new();
    let mut out = Vec::with_capacity(p.datasets);
    while out.len() < p.datasets {
        let v = draw_owner(p, &mut rng);
        if picked.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Build the system: graph, membership, initial datasets, ranking warm-up.
pub fn setup(p: &Params, seed: u64) -> Result<(System, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let graph = barabasi_albert(p.nodes, 3, sub_seed(seed, 0x67));
    times.graph_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x15));
    let authors: Vec<AuthorId> = (0..p.nodes as u32).map(AuthorId).collect();
    let institutions: Vec<Institution> = (0..SITES.len() * CAMPUSES)
        .map(|i| {
            let (region, lat, lon) = SITES[i / CAMPUSES];
            Institution {
                id: InstitutionId(i as u32),
                name: format!("campus-{i}"),
                region,
                lat: lat + rng.gen_range(-1.5..1.5),
                lon: lon + rng.gen_range(-1.5..1.5),
            }
        })
        .collect();
    let members: Vec<Author> = authors
        .iter()
        .map(|&a| Author {
            id: a,
            name: format!("member-{}", a.0),
            institution: InstitutionId(a.0 % institutions.len() as u32),
        })
        .collect();
    let corpus = Corpus::new(members, institutions, Vec::new()).map_err(|e| format!("{e:?}"))?;
    let sub = TrustSubgraph::from_parts(TrustFilter::Baseline, graph.clone(), authors);
    let scdn = Scdn::build(&sub, &corpus, p.config(seed));
    times.build_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut sys = System {
        scdn,
        datasets: Vec::new(),
        owners: BTreeSet::new(),
        departed: BTreeSet::new(),
        mirror: graph,
        seed,
    };
    for (d, owner) in initial_owners(p, seed).into_iter().enumerate() {
        let bytes = content(p.dataset_bytes, sub_seed(seed, 0xd000 + d as u64));
        crate::run::publish(&mut sys, &mut None, owner, &bytes)?;
    }
    sys.scdn.warm_placement_ranking();
    times.publish_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((sys, times))
}

/// One call, or group of calls, of the timed phase.
pub enum Step {
    /// Requests arriving by `at`: one `request_batch` call. The `usize`
    /// indexes [`System::datasets`].
    Requests {
        /// Arrival time of the batch; the clock is advanced to it.
        at: SimTime,
        /// `(requester, dataset index)` in submission order.
        reqs: Vec<(NodeId, usize)>,
    },
    /// One `apply_graph_delta` call.
    Delta {
        /// The ops.
        delta: GraphDelta,
        /// Churn ops it carries (a `Leave` expands to several edge ops
        /// but counts as one churn op).
        ops: usize,
        /// `false` for a weight-only reinforcement delta.
        structural: bool,
    },
    /// One `maintain()` cycle.
    Maintain,
    /// One `publish` + `replicate` of new content from `owner`.
    Publish {
        /// Publishing member.
        owner: NodeId,
        /// The bytes.
        content: Bytes,
    },
    /// Depart one current non-owner host (the one whose departure forces
    /// the most repair), then `tick` one second.
    Depart,
    /// One `repair()` cycle.
    Repair,
    /// One `request_coded` call for dataset `dataset` (an index into
    /// [`System::datasets`]) from a fresh member next to one of its block
    /// hosts: collaborators of the members holding the data. The member
    /// depends on where repair has moved the blocks, so `pick` selects it
    /// among the candidates when the read is issued.
    CodedRead {
        /// Index into [`System::datasets`].
        dataset: usize,
        /// Seeded choice among the candidate requesters.
        pick: u64,
    },
}

/// Append one churn op to `delta`, mirroring it on `mirror` (which stays
/// current so `Leave` expands to the member's live ties).
fn append_op(delta: &mut GraphDelta, op: &ChurnOp, mirror: &mut Graph) {
    match op {
        ChurnOp::AddEdge { a, b, weight } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.add_edge(a, b, *weight);
            mirror.add_edge(a, b, *weight);
        }
        ChurnOp::RemoveEdge { a, b } => {
            let (a, b) = (NodeId(*a as u32), NodeId(*b as u32));
            delta.remove_edge(a, b);
            mirror.remove_edge(a, b);
        }
        ChurnOp::Leave { node } => {
            let v = NodeId(*node as u32);
            let ties: Vec<NodeId> = mirror.neighbors(v).iter().map(|e| e.to).collect();
            for t in ties {
                delta.remove_edge(v, t);
                mirror.remove_edge(v, t);
            }
        }
        ChurnOp::Join { node, peers } => {
            let v = NodeId(*node as u32);
            for &q in peers {
                delta.add_edge(v, NodeId(q as u32), 1);
                mirror.add_edge(v, NodeId(q as u32), 1);
            }
        }
    }
}

/// Members whose ties one reinforcement delta bumps.
const REINFORCED: usize = 8;

/// A weight-only delta bumping up to three existing ties of each of the
/// first [`REINFORCED`] members at or after `start` that have any:
/// recurring coauthorship, the delta class that cannot change a
/// shortest-path distance. Each member counts as one churn op.
fn reinforcement(mirror: &mut Graph, start: u32) -> (GraphDelta, usize) {
    let n = mirror.node_count() as u32;
    let mut delta = GraphDelta::new();
    let mut members = 0;
    for i in 0..n {
        let v = NodeId((start + i) % n);
        let ties: Vec<NodeId> = mirror.neighbors(v).iter().take(3).map(|e| e.to).collect();
        if ties.is_empty() {
            continue;
        }
        for t in ties {
            delta.add_edge(v, t, 1);
            mirror.add_edge(v, t, 1);
        }
        members += 1;
        if members == REINFORCED {
            break;
        }
    }
    (delta, members)
}

/// The timed phase's call schedule and the mirror graph it ends on.
pub struct Schedule {
    /// Steps in call order.
    pub steps: Vec<Step>,
    /// The social graph after every delta of `steps`.
    pub mirror: Graph,
}

/// Requests of the timed phase for `serve` and `churn`: Poisson arrivals
/// 50 ms apart on average, Zipf(0.9) popularity over the initial
/// datasets, Zipf(0.6) activity over a seeded permutation of the members
/// (so activity is independent of BA node age, hence of degree).
fn request_stream(p: &Params, seed: u64) -> Vec<Request> {
    let mut reqs = generate_requests(&WorkloadConfig {
        seed: sub_seed(seed, 0x5e),
        users: p.nodes,
        datasets: p.datasets,
        popularity_exponent: 0.9,
        activity_exponent: 0.6,
        mean_interarrival_ms: 50.0,
        count: p.epochs * p.batches_per_epoch * p.batch,
    });
    let mut perm: Vec<usize> = (0..p.nodes).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 0x9e)));
    for r in &mut reqs {
        r.user = perm[r.user];
    }
    reqs
}

/// Generate the timed phase of workload `p` at `seed`. `mirror` is the
/// social graph at the end of set-up.
pub fn schedule(p: &Params, seed: u64, mirror: &Graph) -> Schedule {
    let mut mirror = mirror.clone();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5c));
    let mut steps = Vec::new();
    let members = p.nodes as u32;
    let owners: BTreeSet<NodeId> = initial_owners(p, seed).into_iter().collect();
    let new_owner = |rng: &mut StdRng| loop {
        let v = draw_owner(p, rng);
        if !owners.contains(&v) {
            return v;
        }
    };
    let mut publish_seq = 0u64;
    let mut publish = |steps: &mut Vec<Step>, rng: &mut StdRng| {
        for _ in 0..p.publishes_per_epoch {
            let owner = new_owner(rng);
            publish_seq += 1;
            let bytes = content(p.publish_bytes, sub_seed(seed, 0xe000 + publish_seq));
            steps.push(Step::Publish {
                owner,
                content: bytes,
            });
        }
    };
    match p.kind {
        Kind::Serve => {
            let reqs = request_stream(p, seed);
            let mut chunks = reqs.chunks(p.batch);
            for _ in 0..p.epochs {
                for chunk in chunks.by_ref().take(p.batches_per_epoch) {
                    steps.push(Step::Requests {
                        at: chunk.last().expect("non-empty chunk").at,
                        reqs: chunk
                            .iter()
                            .map(|r| (NodeId(r.user as u32), r.dataset))
                            .collect(),
                    });
                }
                let (delta, ops) = reinforcement(&mut mirror, rng.gen_range(0..members));
                steps.push(Step::Delta {
                    delta,
                    ops,
                    structural: false,
                });
                steps.push(Step::Maintain);
                publish(&mut steps, &mut rng);
                steps.push(Step::Depart);
                steps.push(Step::Repair);
            }
        }
        Kind::Churn => {
            let requests = request_stream(p, seed);
            let span_ms = requests.last().map_or(1, |r| r.at.as_millis()).max(1) as f64;
            let count = p.epochs * p.churn_per_epoch;
            let churn = generate_churn(&ChurnConfig {
                seed: sub_seed(seed, 0xc1),
                users: p.nodes,
                mean_interarrival_ms: span_ms / count.max(1) as f64,
                count,
                ..ChurnConfig::default()
            });
            let mut pending = GraphDelta::new();
            let mut pending_ops = 0;
            let mut batch: Vec<(NodeId, usize)> = Vec::with_capacity(p.batch);
            let mut batches = 0;
            let mut epoch = 0;
            for ev in interleave_churn(&requests, &churn) {
                match ev {
                    StreamEvent::Churn(c) => {
                        append_op(&mut pending, &c.op, &mut mirror);
                        pending_ops += 1;
                    }
                    StreamEvent::Request(r) => {
                        batch.push((NodeId(r.user as u32), r.dataset));
                        if batch.len() < p.batch {
                            continue;
                        }
                        steps.push(Step::Requests {
                            at: r.at,
                            reqs: std::mem::take(&mut batch),
                        });
                        batches += 1;
                        if batches % p.batches_per_epoch != 0 {
                            continue;
                        }
                        if !pending.is_empty() {
                            steps.push(Step::Delta {
                                delta: std::mem::take(&mut pending),
                                ops: std::mem::take(&mut pending_ops),
                                structural: true,
                            });
                        }
                        if epoch % 4 == 3 {
                            let (delta, ops) =
                                reinforcement(&mut mirror, rng.gen_range(0..members));
                            steps.push(Step::Delta {
                                delta,
                                ops,
                                structural: false,
                            });
                        }
                        steps.push(Step::Maintain);
                        publish(&mut steps, &mut rng);
                        steps.push(Step::Depart);
                        steps.push(Step::Repair);
                        epoch += 1;
                    }
                }
            }
            // Churn that landed after the last request still applies.
            if !pending.is_empty() {
                steps.push(Step::Delta {
                    delta: pending,
                    ops: pending_ops,
                    structural: true,
                });
            }
        }
        Kind::Ingest => {
            for epoch in 0..p.epochs {
                publish(&mut steps, &mut rng);
                steps.push(Step::Depart);
                steps.push(Step::Maintain);
                steps.push(Step::Depart);
                steps.push(Step::Repair);
                // Reads go to the datasets published so far, newest first.
                let available = p.datasets + (epoch + 1) * p.publishes_per_epoch;
                for i in 0..p.batch {
                    steps.push(Step::CodedRead {
                        dataset: available - 1 - i % available,
                        pick: rng.gen(),
                    });
                }
                let (delta, ops) = reinforcement(&mut mirror, rng.gen_range(0..members));
                steps.push(Step::Delta {
                    delta,
                    ops,
                    structural: false,
                });
            }
        }
    }
    Schedule { steps, mirror }
}
