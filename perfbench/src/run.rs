//! The timed phase: replay a schedule through the public `Scdn` API as a
//! closed loop with one client, check every output, and (when traced)
//! attribute wall time and counter movement to the calls into each layer.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::Instant;

use bytes::Bytes;
use scdn_core::system::RequestOutcome;
use scdn_core::{Scdn, ScdnError};
use scdn_graph::{CsrGraph, NodeId, TraversalScratch};
use scdn_storage::coding::{decode_blocks, encode_blocks};
use scdn_storage::integrity::Checksum;
use scdn_storage::object::{DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::Partition;

use crate::workload::{Params, Published, Schedule, Step, System};

/// The public `Scdn` calls the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `request_batch`
    RequestBatch,
    /// `request_coded`
    RequestCoded,
    /// `maintain`
    Maintain,
    /// `repair`
    Repair,
    /// `publish`
    Publish,
    /// `replicate`
    Replicate,
    /// `apply_graph_delta`
    ApplyGraphDelta,
    /// `tick`
    Tick,
    /// `depart`
    Depart,
}

impl Call {
    /// Every call, in report order.
    pub const ALL: [Call; 9] = [
        Call::RequestBatch,
        Call::RequestCoded,
        Call::Maintain,
        Call::Repair,
        Call::Publish,
        Call::Replicate,
        Call::ApplyGraphDelta,
        Call::Tick,
        Call::Depart,
    ];

    /// The method name.
    pub fn name(self) -> &'static str {
        match self {
            Call::RequestBatch => "request_batch",
            Call::RequestCoded => "request_coded",
            Call::Maintain => "maintain",
            Call::Repair => "repair",
            Call::Publish => "publish",
            Call::Replicate => "replicate",
            Call::ApplyGraphDelta => "apply_graph_delta",
            Call::Tick => "tick",
            Call::Depart => "depart",
        }
    }
}

/// Registry counters read around every traced span: the same counters
/// `Scdn::observability_snapshot` exports, read through their handles so
/// a span costs two atomic sums per counter instead of a snapshot.
pub const COUNTERS: [&str; 24] = [
    "core.batch.replans",
    "core.batch.snapshot_reuse",
    "core.maintain.planned",
    "core.maintain.committed",
    "core.maintain.replanned",
    "core.maintain.ranking_cache_hit",
    "core.maintain.ranking_cache_miss",
    "core.graph.delta_nodes_touched",
    "core.graph.delta_bytes_copied",
    "core.graph.delta_chunks_shared",
    "alloc.ranking.cache.retained",
    "alloc.ranking.cache.evicted",
    "alloc.resolve.cache.hit",
    "alloc.resolve.cache.miss",
    "alloc.resolve.cache.evict",
    "alloc.resolve.cache.retained",
    "alloc.resolve.ok",
    "alloc.resolve.failed",
    "net.attempts.delivered",
    "net.attempts.lost",
    "net.attempts.corrupted",
    "storage.cache.insertions",
    "storage.cache.evictions",
    "storage.cache.rejections",
];

/// Index of a counter in [`COUNTERS`].
pub fn counter_index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|&c| c == name)
        .unwrap_or_else(|| panic!("{name} is not a traced counter"))
}

/// Per-layer attribution of one traced run: spans around every call plus
/// side-effect-free replays of single layers' public functions.
#[derive(Default)]
pub struct Tracer {
    counters: Vec<scdn_obs::Counter>,
    /// Busy ms and call count per [`Call`].
    pub busy_ms: [f64; Call::ALL.len()],
    /// Calls per [`Call`].
    pub calls: [u64; Call::ALL.len()],
    /// Counter deltas per [`Call`], indexed like [`COUNTERS`].
    pub deltas: Vec<[u64; COUNTERS.len()]>,
    /// `AllocationServer::snapshot()` replays, µs each.
    pub snapshot_us: Vec<f64>,
    /// `TraversalScratch::bfs_to_targets` replays, µs each.
    pub bfs_us: Vec<f64>,
    /// Full-ranking `place_csr` replays after structural deltas: total ms.
    pub rank_ms: f64,
    /// Number of ranking replays.
    pub ranks: u64,
    /// `CsrGraph::apply_delta` replays on the pre-delta snapshot: total ms.
    pub csr_apply_ms: f64,
    /// Deltas applied, and CSR bytes they copied.
    pub deltas_applied: u64,
    /// CSR column bytes copied by the applied deltas.
    pub csr_bytes_copied: u64,
    /// `encode_blocks` replays: total ms and MiB.
    pub encode: (f64, f64),
    /// `decode_blocks` replays (any-k subsets with parity): ms and MiB.
    pub decode: (f64, f64),
    /// `Checksum::of` replays: ms and MiB.
    pub checksum: (f64, f64),
    /// Simulated bytes moved by `repair()`.
    pub repair_bytes: u64,
    /// Replica and block bytes lost to the departures `repair()` healed.
    pub lost_bytes: u64,
    /// Bytes lost to departures since the last `maintain` or `repair`.
    unhealed_bytes: u64,
    /// Wall time spent in replays, excluded from the traced `run_s`.
    pub replay_s: f64,
    scratch: TraversalScratch,
}

impl Tracer {
    /// A tracer reading `scdn`'s registry counters.
    pub fn new(scdn: &Scdn) -> Tracer {
        Tracer {
            counters: COUNTERS
                .iter()
                .map(|n| scdn.registry().counter(n))
                .collect(),
            deltas: vec![[0; COUNTERS.len()]; Call::ALL.len()],
            ..Tracer::default()
        }
    }

    fn read(&self) -> [u64; COUNTERS.len()] {
        std::array::from_fn(|i| self.counters[i].get())
    }

    /// Sum of a counter's deltas over spans of `calls`.
    pub fn delta(&self, name: &str, calls: &[Call]) -> u64 {
        let i = counter_index(name);
        calls.iter().map(|&c| self.deltas[c as usize][i]).sum()
    }

    /// Sum of a counter's deltas over every span.
    pub fn total(&self, name: &str) -> u64 {
        self.delta(name, &Call::ALL)
    }

    /// Run `f`, charging its wall time to `replay_s`.
    fn replay<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.replay_s += t.elapsed().as_secs_f64();
        out
    }
}

/// What one timed phase measured.
#[derive(Default)]
pub struct Tally {
    /// Wall time of the timed phase, s: output checks, requester
    /// selection and replays excluded.
    pub run_s: f64,
    /// Wall time of the timed phase spent in the benchmark's own checks
    /// and requester selection, s.
    pub own_s: f64,
    /// Wall time of each request call, ms.
    pub request_call_ms: Vec<f64>,
    /// Wall time inside request calls, s.
    pub request_wall_s: f64,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests served.
    pub served: u64,
    /// Served by a replica within one social hop.
    pub hits: u64,
    /// Bytes delivered to requesters.
    pub bytes_served: u64,
    /// Simulated delivery time of each served request, ms.
    pub response_ms: Vec<f64>,
    /// Wall time of each `maintain()` cycle, ms.
    pub maintain_ms: Vec<f64>,
    /// Wall time of each `repair()` cycle, ms.
    pub repair_ms: Vec<f64>,
    /// Churn ops applied, and wall s inside `apply_graph_delta`.
    pub churn_ops: u64,
    /// Wall s inside `apply_graph_delta`.
    pub churn_wall_s: f64,
    /// Bytes published during the phase, and wall s inside `publish` +
    /// `replicate`.
    pub ingest_bytes: u64,
    /// Wall s inside `publish` + `replicate` during the phase.
    pub ingest_wall_s: f64,
    /// Requests from a requester seen earlier in the run.
    pub repeat_requests: u64,
    /// Requests for the run's ten most requested datasets.
    pub top10_requests: u64,
    /// Structural deltas applied.
    pub structural_deltas: u64,
    /// Weight-only deltas applied.
    pub weight_deltas: u64,
    /// Deltas after which the placement ranking was evicted.
    pub evicting_deltas: u64,
    /// Content bytes requested through `request_coded`.
    pub coded_bytes: u64,
    /// Requests skipped because the requester had departed.
    pub skipped: u64,
    /// Every failed output check.
    pub failures: Vec<String>,
}

/// Time one call; with a tracer, also charge its span and counter deltas.
fn timed<T>(
    scdn: &mut Scdn,
    tracer: &mut Option<&mut Tracer>,
    call: Call,
    f: impl FnOnce(&mut Scdn) -> T,
) -> (T, f64) {
    let before = tracer.as_ref().map(|t| t.read());
    let start = Instant::now();
    let out = f(scdn);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let (Some(t), Some(before)) = (tracer.as_mut(), before) {
        let after = t.read();
        let c = call as usize;
        t.busy_ms[c] += ms;
        t.calls[c] += 1;
        for (d, (a, b)) in t.deltas[c].iter_mut().zip(after.iter().zip(before)) {
            *d += a - b;
        }
    }
    (out, ms)
}

/// Check one request outcome against what was published.
fn check_outcome(
    scdn: &Scdn,
    node: NodeId,
    ds: &Published,
    outcome: &RequestOutcome,
    coded: bool,
    failures: &mut Vec<String>,
) {
    if outcome.served_by == node {
        // Self-service: the requester already held a copy.
        if outcome.bytes != 0 {
            failures.push(format!("{node:?} self-served {:?} with bytes", ds.id));
        }
    } else if !coded && outcome.bytes != ds.len {
        failures.push(format!(
            "{:?} delivered {} bytes to {node:?}, published {}",
            ds.id, outcome.bytes, ds.len
        ));
    }
    if coded {
        match reassemble(scdn, node, ds) {
            Ok(bytes) if bytes.len() as u64 == ds.len && ds.checksum.verify(&bytes) => {}
            Ok(bytes) => failures.push(format!(
                "{:?} at {node:?} reassembles to {} bytes unlike the published content",
                ds.id,
                bytes.len()
            )),
            Err(e) => failures.push(format!("{:?} at {node:?}: {e}", ds.id)),
        }
    }
}

/// Re-read the requester's copy of a dataset through its repository
/// (`fetch` verifies each segment's checksum).
fn reassemble(scdn: &Scdn, node: NodeId, ds: &Published) -> Result<Vec<u8>, ScdnError> {
    let repo = scdn.repo(node)?;
    let segments = scdn.allocation().segments_of(ds.id)?;
    let mut out = Vec::with_capacity(ds.len as usize);
    for ordinal in 0..segments {
        let seg = repo
            .fetch(
                Partition::User,
                SegmentId {
                    dataset: ds.id,
                    ordinal,
                },
            )
            .map_err(ScdnError::Repo)?;
        out.extend_from_slice(&seg.data);
    }
    Ok(out)
}

/// Hosts of a dataset: whole-replica hosts and coded block hosts.
fn hosts_of(scdn: &Scdn, ds: &Published) -> Vec<NodeId> {
    let mut hosts = scdn.replicas_of(ds.id).unwrap_or_default();
    if let Ok(inv) = scdn.allocation().coded_inventory(ds.id) {
        hosts.extend(inv.into_iter().map(|(n, _)| n));
    }
    hosts
}

/// Replica and block bytes `node` holds for the catalog (what departing it
/// loses).
fn held_bytes(scdn: &Scdn, datasets: &[Published], node: NodeId) -> u64 {
    let mut bytes = 0;
    for ds in datasets {
        if let Ok(Some(spec)) = scdn.allocation().coding_of(ds.id) {
            let inv = scdn.allocation().coded_inventory(ds.id).unwrap_or_default();
            for (host, blocks) in inv {
                if host == node {
                    bytes += blocks.len() as u64 * spec.block_len() as u64;
                }
            }
        } else if scdn.replicas_of(ds.id).unwrap_or_default().contains(&node) {
            bytes += ds.len;
        }
    }
    bytes
}

/// One `publish` + `replicate` of `content` from `owner`, recorded in
/// `sys`. Returns the dataset and the wall ms of both calls.
pub fn publish(
    sys: &mut System,
    tracer: &mut Option<&mut Tracer>,
    owner: NodeId,
    content: &Bytes,
) -> Result<(DatasetId, f64), String> {
    let name = format!("ds-{}", sys.datasets.len());
    let (id, publish_ms) = timed(&mut sys.scdn, tracer, Call::Publish, |s| {
        s.publish(owner, &name, content.clone(), Sensitivity::Public, None)
    });
    let id = id.map_err(|e| format!("publish {name}: {e}"))?;
    let (replicated, replicate_ms) =
        timed(&mut sys.scdn, tracer, Call::Replicate, |s| s.replicate(id));
    replicated.map_err(|e| format!("replicate {name}: {e}"))?;
    sys.owners.insert(owner);
    sys.datasets.push(Published {
        id,
        len: content.len() as u64,
        checksum: Checksum::of(content),
    });
    Ok((id, publish_ms + replicate_ms))
}

/// The fresh member that issues a coded read of `ds`: a neighbor of one of
/// its current block hosts that has not requested before, holds no block,
/// owns no dataset and has not departed; `pick` chooses among them. With
/// no such neighbor, the next fresh member after `pick` reads instead.
fn coded_reader(sys: &System, ds: &Published, pick: u64, seen: &HashSet<NodeId>) -> NodeId {
    let scdn = &sys.scdn;
    let hosts: BTreeSet<NodeId> = hosts_of(scdn, ds).into_iter().collect();
    let fresh = |v: &NodeId| {
        !seen.contains(v)
            && !hosts.contains(v)
            && !sys.owners.contains(v)
            && !sys.departed.contains(v)
    };
    let candidates: BTreeSet<NodeId> = hosts
        .iter()
        .filter(|h| !sys.departed.contains(h))
        .flat_map(|&h| scdn.social_csr().neighbor_ids(h).iter().map(|&u| NodeId(u)))
        .filter(fresh)
        .collect();
    if !candidates.is_empty() {
        let i = (pick % candidates.len() as u64) as usize;
        return *candidates.iter().nth(i).expect("index within candidates");
    }
    let n = scdn.member_count() as u64;
    (0..n)
        .map(|k| NodeId(((pick + k) % n) as u32))
        .find(fresh)
        .expect("a fresh member remains")
}

/// The member whose departure forces the most repair: the unprotected
/// host holding a copy of the most datasets that sit at the configured
/// replica count (a coded dataset always does: every lost block is
/// regenerated). Ties go to the lowest id. Departing the host that the
/// replicas at risk share, rather than whichever host a rule happens to
/// name, keeps every repair cycle of a run the same kind of work.
fn repair_victim(sys: &System, protected: &BTreeSet<NodeId>, replicas: usize) -> Option<NodeId> {
    let scdn = &sys.scdn;
    let mut load: BTreeMap<NodeId, usize> = BTreeMap::new();
    for ds in &sys.datasets {
        let coded = scdn.allocation().coding_of(ds.id).ok().flatten().is_some();
        if !coded && scdn.replicas_of(ds.id).unwrap_or_default().len() > replicas {
            continue;
        }
        for h in hosts_of(scdn, ds) {
            if !protected.contains(&h) && !sys.departed.contains(&h) {
                *load.entry(h).or_default() += 1;
            }
        }
    }
    load.into_iter()
        .max_by_key(|&(v, n)| (n, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
}

/// Replay the schedule. `protected` members (every dataset owner) are
/// never departed.
pub fn run(
    sys: &mut System,
    sched: &Schedule,
    p: &Params,
    protected: &BTreeSet<NodeId>,
    mut tracer: Option<&mut Tracer>,
) -> Tally {
    let mut t = Tally::default();
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut per_dataset: HashMap<usize, u64> = HashMap::new();
    let (placement, sys_seed) = (p.config(sys.seed).placement, sys.seed);
    let start = Instant::now();
    for step in &sched.steps {
        match step {
            Step::Requests { at, reqs } => {
                let scheduled = reqs.len();
                let reqs: Vec<(NodeId, usize)> = reqs
                    .iter()
                    .copied()
                    .filter(|(v, _)| !sys.departed.contains(v))
                    .collect();
                t.skipped += (scheduled - reqs.len()) as u64;
                if reqs.is_empty() {
                    continue;
                }
                let now = sys.scdn.now();
                if *at > now {
                    let ms = at.as_millis() - now.as_millis();
                    timed(&mut sys.scdn, &mut tracer, Call::Tick, |s| s.tick(ms));
                }
                for &(v, d) in &reqs {
                    if !seen.insert(v) {
                        t.repeat_requests += 1;
                    }
                    *per_dataset.entry(d).or_default() += 1;
                }
                let ids: Vec<_> = reqs.iter().map(|&(v, d)| (v, sys.datasets[d].id)).collect();
                if let Some(tr) = tracer.as_deref_mut() {
                    let scdn = &sys.scdn;
                    tr.replay(|tr| {
                        let s = Instant::now();
                        let snap = scdn.allocation().snapshot();
                        tr.snapshot_us.push(s.elapsed().as_secs_f64() * 1e6);
                        drop(snap);
                        for &(v, id) in &ids {
                            let targets = scdn.replicas_of(id).unwrap_or_default();
                            let s = Instant::now();
                            tr.scratch
                                .bfs_to_targets(scdn.social_csr(), v, &targets, u32::MAX);
                            tr.bfs_us.push(s.elapsed().as_secs_f64() * 1e6);
                        }
                    });
                }
                let (outcomes, ms) = timed(&mut sys.scdn, &mut tracer, Call::RequestBatch, |s| {
                    s.request_batch(&ids)
                });
                t.request_call_ms.push(ms);
                t.request_wall_s += ms / 1e3;
                let own = Instant::now();
                for (&(v, d), o) in reqs.iter().zip(&outcomes) {
                    t.attempted += 1;
                    if let Ok(o) = o {
                        t.served += 1;
                        t.hits += u64::from(o.social_hit);
                        t.bytes_served += o.bytes;
                        t.response_ms.push(o.response_ms);
                        check_outcome(&sys.scdn, v, &sys.datasets[d], o, false, &mut t.failures);
                    }
                }
                t.own_s += own.elapsed().as_secs_f64();
            }
            Step::CodedRead { dataset, pick } => {
                let own = Instant::now();
                let ds = &sys.datasets[*dataset];
                let v = coded_reader(sys, ds, *pick, &seen);
                t.own_s += own.elapsed().as_secs_f64();
                seen.insert(v);
                *per_dataset.entry(*dataset).or_default() += 1;
                let (id, ds_len) = (ds.id, ds.len);
                let (o, ms) = timed(&mut sys.scdn, &mut tracer, Call::RequestCoded, |s| {
                    s.request_coded(v, id)
                });
                t.request_call_ms.push(ms);
                t.request_wall_s += ms / 1e3;
                t.attempted += 1;
                t.coded_bytes += ds_len;
                if let Ok(o) = o {
                    t.served += 1;
                    t.hits += u64::from(o.social_hit);
                    t.bytes_served += o.bytes;
                    t.response_ms.push(o.response_ms);
                    let own = Instant::now();
                    let ds = &sys.datasets[*dataset];
                    check_outcome(&sys.scdn, v, ds, &o, true, &mut t.failures);
                    t.own_s += own.elapsed().as_secs_f64();
                }
            }
            Step::Delta {
                delta,
                ops,
                structural,
            } => {
                let pre: Option<CsrGraph> = tracer.as_ref().map(|_| sys.scdn.social_csr().clone());
                let (stats, ms) = timed(&mut sys.scdn, &mut tracer, Call::ApplyGraphDelta, |s| {
                    s.apply_graph_delta(delta)
                });
                let stats = match stats {
                    Ok(s) => s,
                    Err(e) => {
                        t.failures.push(format!("apply_graph_delta: {e}"));
                        continue;
                    }
                };
                t.churn_ops += *ops as u64;
                t.churn_wall_s += ms / 1e3;
                if *structural {
                    t.structural_deltas += 1;
                } else {
                    t.weight_deltas += 1;
                }
                t.evicting_deltas += u64::from(stats.ranking_evicted > 0);
                if let (Some(tr), Some(pre)) = (tracer.as_deref_mut(), pre) {
                    let scdn = &sys.scdn;
                    tr.deltas_applied += 1;
                    tr.csr_bytes_copied += stats.bytes_copied;
                    tr.replay(|tr| {
                        let s = Instant::now();
                        let replayed = pre.apply_delta(delta);
                        tr.csr_apply_ms += s.elapsed().as_secs_f64() * 1e3;
                        drop(replayed);
                        if *structural {
                            let csr = scdn.social_csr();
                            let s = Instant::now();
                            let order = placement.place_csr(csr, csr.node_count(), sys_seed);
                            tr.rank_ms += s.elapsed().as_secs_f64() * 1e3;
                            tr.ranks += 1;
                            drop(order);
                        }
                    });
                }
            }
            Step::Maintain => {
                let (_, ms) = timed(&mut sys.scdn, &mut tracer, Call::Maintain, |s| s.maintain());
                t.maintain_ms.push(ms);
                // A departure that `maintain` healed is not `repair`'s.
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.unhealed_bytes = 0;
                }
            }
            Step::Publish { owner, content } => {
                let (id, ms) = match publish(sys, &mut tracer, *owner, content) {
                    Ok(done) => done,
                    Err(e) => {
                        t.failures.push(e);
                        continue;
                    }
                };
                t.ingest_bytes += content.len() as u64;
                t.ingest_wall_s += ms / 1e3;
                if let Some(tr) = tracer.as_deref_mut() {
                    let spec = sys.scdn.allocation().coding_of(id).ok().flatten();
                    let failures = &mut t.failures;
                    tr.replay(|tr| {
                        let mib = content.len() as f64 / (1 << 20) as f64;
                        let s = Instant::now();
                        std::hint::black_box(Checksum::of(content));
                        tr.checksum.0 += s.elapsed().as_secs_f64() * 1e3;
                        tr.checksum.1 += mib;
                        let Some(spec) = spec else { return };
                        let s = Instant::now();
                        let blocks: Vec<Segment> = encode_blocks(&spec, id, content);
                        tr.encode.0 += s.elapsed().as_secs_f64() * 1e3;
                        tr.encode.1 += mib;
                        // Any k blocks that include parity: drop m consecutive
                        // blocks from a position that varies with the
                        // dataset, never exactly the m parity blocks.
                        let (k, n) = (spec.k as usize, blocks.len());
                        let start = match id.0 as usize % n {
                            r if r == k => 0,
                            r => r,
                        };
                        let subset: Vec<Segment> = (spec.m as usize..n)
                            .map(|i| blocks[(start + i) % n].clone())
                            .collect();
                        let s = Instant::now();
                        let decoded = decode_blocks(&spec, &subset);
                        tr.decode.0 += s.elapsed().as_secs_f64() * 1e3;
                        tr.decode.1 += mib;
                        if decoded.as_deref() != Ok(&content[..]) {
                            failures.push(format!("decode replay of {id:?} differs"));
                        }
                    });
                }
            }
            Step::Depart => {
                let own = Instant::now();
                let victim = repair_victim(sys, protected, p.replicas);
                t.own_s += own.elapsed().as_secs_f64();
                if let Some(v) = victim {
                    if let Some(tr) = tracer.as_deref_mut() {
                        let (scdn, datasets) = (&sys.scdn, &sys.datasets);
                        let lost = tr.replay(|_| held_bytes(scdn, datasets, v));
                        tr.unhealed_bytes += lost;
                    }
                    let (r, _) = timed(&mut sys.scdn, &mut tracer, Call::Depart, |s| s.depart(v));
                    if let Err(e) = r {
                        t.failures.push(format!("depart {v:?}: {e}"));
                    }
                    sys.departed.insert(v);
                }
                timed(&mut sys.scdn, &mut tracer, Call::Tick, |s| s.tick(1_000));
            }
            Step::Repair => {
                let bytes0 = sys.scdn.cdn_metrics.bytes_transferred;
                let (_, ms) = timed(&mut sys.scdn, &mut tracer, Call::Repair, |s| s.repair());
                t.repair_ms.push(ms);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.repair_bytes += sys.scdn.cdn_metrics.bytes_transferred - bytes0;
                    tr.lost_bytes += std::mem::take(&mut tr.unhealed_bytes);
                }
            }
        }
    }
    let replay_s = tracer.as_ref().map_or(0.0, |tr| tr.replay_s);
    t.run_s = start.elapsed().as_secs_f64() - replay_s - t.own_s;
    let mut counts: Vec<u64> = per_dataset.into_values().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    t.top10_requests = counts.iter().take(10).sum();
    t
}

/// End-of-run checks on the system state.
pub fn final_checks(sys: &System, sched: &Schedule, failures: &mut Vec<String>) {
    for ds in &sys.datasets {
        for h in hosts_of(&sys.scdn, ds) {
            if sys.departed.contains(&h) {
                failures.push(format!("{:?} still lists departed host {h:?}", ds.id));
            }
        }
    }
    if sys.scdn.social_csr() != &CsrGraph::from(&sched.mirror) {
        failures.push("final social_csr() differs from the mirror graph".into());
    }
}
