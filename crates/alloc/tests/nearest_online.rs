//! Nearest-online resolution against full-BFS oracles.
//!
//! The resolve kernel (`TraversalScratch::bfs_nearest`) stops once the
//! level of the nearest online replica is complete, and the hop cache
//! keeps only what that traversal learned: the replicas inside its ball
//! plus the ball's radius. These properties pin both layers:
//!
//! * the kernel, through `select_replica_csr`, selects exactly what the
//!   adjacency `select_replica` oracle selects under every hop budget,
//!   and reports exactly the nodes within its radius;
//! * a slot filled under one online mask and read under another either
//!   answers (and then equals a cold resolve) or refills — and it
//!   answers exactly when its ball decides the selection.

use proptest::prelude::*;
use scdn_alloc::discovery::{select_replica, select_replica_csr, Candidate, Selection};
use scdn_alloc::server::{AllocationServer, RepositoryInfo};
use scdn_graph::generators::{barabasi_albert, erdos_renyi};
use scdn_graph::traversal::bfs_distances;
use scdn_graph::{CsrGraph, Graph, NodeId, TraversalScratch};
use scdn_social::author::AuthorId;
use scdn_storage::object::DatasetId;

const BUDGETS: [u32; 4] = [0, 1, 2, u32::MAX];

/// BA, ER, or two disjoint BA components.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0u32..3, 8usize..40, 1usize..4, any::<u64>()).prop_map(|(kind, n, m, seed)| match kind {
        0 => barabasi_albert(n, m, seed),
        1 => erdos_renyi(n, 0.02 + 0.04 * m as f64, seed),
        _ => {
            let (a, b) = (
                barabasi_albert(n / 2, m, seed),
                barabasi_albert(n - n / 2, 1, !seed),
            );
            let off = a.node_count() as u32;
            Graph::from_edges(
                n,
                a.edges()
                    .map(|(x, y, w)| (x.0, y.0, w))
                    .chain(b.edges().map(|(x, y, w)| (x.0 + off, y.0 + off, w))),
            )
        }
    })
}

/// A graph, a replica list (duplicates and out-of-range ids included;
/// the requester is appended by the test), requesters (one out of range
/// at most), and online masks as bitsets over node ids.
fn arb_case() -> impl Strategy<Value = (Graph, Vec<u32>, Vec<u32>, Vec<u64>)> {
    arb_graph().prop_flat_map(|g| {
        let n = g.node_count() as u32;
        (
            Just(g),
            proptest::collection::vec(0..n + 2, 1..8),
            proptest::collection::vec(0..n + 1, 1..4),
            proptest::collection::vec(any::<u64>(), 1..5),
        )
    })
}

fn online_in(mask: u64) -> impl Fn(NodeId) -> bool + Copy {
    move |v: NodeId| (mask >> (v.0 % 64)) & 1 == 1
}

/// Latencies and availabilities from tiny value sets, so hop ties are
/// broken by every later ranking leg.
fn candidates(replicas: &[u32], online: impl Fn(NodeId) -> bool) -> Vec<Candidate> {
    replicas
        .iter()
        .map(|&r| Candidate {
            node: NodeId(r),
            online: online(NodeId(r)),
            latency_ms: (r % 3) as f64,
            availability: (r % 2) as f64 / 2.0,
        })
        .collect()
}

/// The full-BFS oracle under a hop budget: replicas beyond the budget
/// rank socially unreachable. If some online replica is within budget the
/// winner is among those, where every hop is exact; otherwise every hop
/// is `None` and an edgeless graph ranks them the same way.
fn budgeted_oracle(
    g: &Graph,
    requester: NodeId,
    cands: &[Candidate],
    budget: u32,
) -> Option<Selection> {
    let dist = bfs_distances(g, requester);
    let within: Vec<Candidate> = cands
        .iter()
        .copied()
        .filter(|c| matches!(dist.get(c.node.index()), Some(Some(d)) if *d <= budget))
        .filter(|c| c.online)
        .collect();
    if within.is_empty() {
        select_replica(&Graph::new(0), requester, cands)
    } else {
        select_replica(g, requester, &within)
    }
}

fn server_for(g: &Graph, replicas: &[u32]) -> AllocationServer {
    let srv = AllocationServer::new();
    srv.register_repositories(g.nodes().map(|v| RepositoryInfo {
        node: v,
        owner: AuthorId(v.0),
        capacity: 1 << 30,
        availability: (v.0 % 2) as f64 / 2.0,
    }));
    srv.register_dataset(DatasetId(0), 1, NodeId(replicas[0]))
        .expect("registers");
    for &r in &replicas[1..] {
        let _ = srv.add_replica(DatasetId(0), NodeId(r));
    }
    srv
}

proptest! {
    /// Kernel ≡ oracle for every budget, and the kernel reports exactly
    /// the ball of its radius: `Some(d)` iff the node is `d <= radius`
    /// hops away.
    #[test]
    fn nearest_online_kernel_matches_full_bfs_oracle((g, replicas, requesters, masks) in arb_case()) {
        let csr = CsrGraph::from(&g);
        let mut scratch = TraversalScratch::new();
        for &q in &requesters {
            let req = NodeId(q);
            let dist = bfs_distances(&g, req);
            let mut reps = replicas.clone();
            reps.push(q);
            for &mask in &masks {
                let online = online_in(mask);
                let cands = candidates(&reps, online);
                for budget in BUDGETS {
                    let want = budgeted_oracle(&g, req, &cands, budget);
                    let got = select_replica_csr(&csr, req, &cands, &mut scratch, budget);
                    prop_assert_eq!(got, want, "req {} mask {:#x} budget {}", q, mask, budget);

                    let online_reps = reps.iter().map(|&r| NodeId(r)).filter(|&r| online(r));
                    let reach = scratch.bfs_nearest(&csr, req, online_reps, budget);
                    prop_assert!(reach.radius <= budget || reach.radius == u32::MAX);
                    prop_assert!(reach.dequeued <= g.node_count());
                    for v in g.nodes() {
                        let ball = dist.get(v.index()).copied().flatten().filter(|&d| d <= reach.radius);
                        prop_assert_eq!(
                            scratch.target_hops(v), ball,
                            "req {} budget {} radius {} node {:?}", q, budget, reach.radius, v
                        );
                    }
                }
            }
        }
    }

    /// A slot filled under one online mask and read under others: every
    /// warm selection equals a cold resolve, and the cache hits exactly
    /// when the slot holds an online replica's hops or its traversal
    /// exhausted the component.
    #[test]
    fn slots_answer_other_masks_only_when_their_ball_decides((g, replicas, requesters, masks) in arb_case()) {
        let csr = CsrGraph::from(&g);
        let n = g.node_count() as u32;
        let replicas: Vec<u32> = replicas.iter().map(|&r| r % n).collect();
        let warm = server_for(&g, &replicas);
        let cold = server_for(&g, &replicas);
        cold.set_resolve_cache_capacity(0);
        let latency = |v: NodeId| (v.0 % 3) as f64;
        for &q in &requesters {
            let req = NodeId(q % n);
            for &mask in masks.iter().chain(masks.iter().rev()) {
                let online = online_in(mask);
                let current = warm.replicas_of(DatasetId(0)).expect("known");
                let predicted_hit = warm.cached_hops(DatasetId(0), req).is_some_and(|slot| {
                    slot.radius == u32::MAX
                        || slot.hops.iter().zip(&current).any(|(h, &r)| h.is_some() && online(r))
                });
                let hits = warm.metrics().cache_hits.get();
                let got = warm.resolve_csr(DatasetId(0), req, &csr, online, latency);
                let want = cold.resolve_csr(DatasetId(0), req, &csr, online, latency);
                prop_assert_eq!(&got, &want, "req {:?} mask {:#x}", req, mask);
                prop_assert_eq!(
                    warm.metrics().cache_hits.get() == hits + 1, predicted_hit,
                    "req {:?} mask {:#x}: hit rule", req, mask
                );
            }
        }
    }
}
