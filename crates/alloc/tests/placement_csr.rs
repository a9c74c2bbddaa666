//! Property tests: every `PlacementAlgorithm` must pick *identical*
//! replicas on the adjacency-list and frozen-CSR backends — same nodes,
//! same order, for every k and seed. This is what lets `place_csr` replace
//! `place` on the hot path without changing a single experiment result.

use proptest::prelude::*;
use scdn_alloc::placement::{
    place_community_degree, place_community_degree_csr, PlacementAlgorithm,
};
use scdn_graph::generators::{barabasi_albert, complete, erdos_renyi};
use scdn_graph::{CsrGraph, Graph};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..6), 0..80)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

proptest! {
    #[test]
    fn all_algorithms_place_identically_on_both_backends(
        g in arb_graph(),
        k in 1usize..12,
        seed in 0u64..50,
    ) {
        let csr = CsrGraph::from(&g);
        for alg in PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain(PlacementAlgorithm::EXTENDED_SET)
        {
            prop_assert_eq!(
                alg.place(&g, k, seed),
                alg.place_csr(&csr, k, seed),
                "{:?} diverged (k={}, seed={})",
                alg,
                k,
                seed
            );
        }
    }
}

/// One graph of the community-degree kernel's families: BA and ER
/// random graphs, stars (one hub excludes everything else, forcing the
/// fallback after one pick), cliques (every pick excludes all others),
/// and a disconnected union of a BA graph, an ER graph and isolated
/// nodes. `a` and `b` size the graph, `p` is the ER edge probability.
fn family_graph(family: u8, a: usize, b: usize, p: f64, seed: u64) -> Graph {
    match family {
        0 => {
            let m = 1 + b % 3;
            barabasi_albert(a + m + 1, m, seed)
        }
        1 => erdos_renyi(a, p, seed),
        2 => Graph::from_edges(a, (1..a as u32).map(|leaf| (0, leaf, 1))),
        3 => complete(a.min(20)),
        _ => {
            let left = barabasi_albert(a + 2, 2, seed);
            let right = erdos_renyi(b, p, seed ^ 0x5eed);
            let shift = left.node_count() as u32;
            let edges: Vec<(u32, u32, u32)> = left
                .edges()
                .map(|(u, v, w)| (u.0, v.0, w))
                .chain(right.edges().map(|(u, v, w)| (u.0 + shift, v.0 + shift, w)))
                .collect();
            Graph::from_edges(left.node_count() + b + seed as usize % 6, edges)
        }
    }
}

proptest! {
    /// The cursor-based CSR kernel picks exactly what the rescanning
    /// adjacency oracle picks, at every `k` that matters: none, one, a
    /// partial placement, the full ranking (`k = n`, what the ranking
    /// cache memoizes), and an over-ask (`k > n`).
    #[test]
    fn community_degree_kernel_matches_adjacency_oracle(
        family in 0u8..5,
        a in 1usize..60,
        b in 1usize..25,
        p in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let g = family_graph(family, a, b, p, seed);
        let csr = CsrGraph::from(&g);
        let n = g.node_count();
        for k in [0, 1, n / 2, n, n + 3] {
            let oracle = place_community_degree(&g, k);
            prop_assert_eq!(
                &oracle,
                &place_community_degree_csr(&csr, k),
                "diverged at n={} k={}",
                n,
                k
            );
            prop_assert_eq!(oracle.len(), k.min(n), "short placement at k={}", k);
        }
    }
}
