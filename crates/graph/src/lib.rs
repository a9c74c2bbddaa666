//! # scdn-graph — graph substrate for the Social CDN
//!
//! This crate provides the graph machinery that every other S-CDN component
//! builds on: a compact undirected weighted graph, traversal primitives
//! (BFS, ego networks, eccentricity), connected components, clustering and
//! centrality metrics (including a parallel Brandes betweenness), community
//! detection, random-graph generators, covering heuristics used by the
//! My3-style availability placement, and DOT export for topology figures.
//!
//! The S-CDN paper (Chard et al., SC 2012) uses coauthorship graphs as its
//! social fabric; those graphs are built by `scdn-social` on top of the
//! [`Graph`] type defined here.
//!
//! ## Quick example
//!
//! ```
//! use scdn_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1), 1);
//! g.add_edge(NodeId(1), NodeId(2), 2);
//! g.add_edge(NodeId(2), NodeId(3), 1);
//! assert_eq!(g.degree(NodeId(1)), 2);
//! let dist = scdn_graph::traversal::bfs_distances(&g, NodeId(0));
//! assert_eq!(dist[3], Some(3));
//! ```

pub mod articulation;
pub mod centrality;
pub mod community;
pub mod components;
pub mod cover;
pub mod csr;
pub mod delta;
pub mod dot;
pub mod generators;
pub mod graph;
pub mod kcore;
pub mod metrics;
pub mod pagerank;
pub mod parallel;
pub mod shortest_path;
pub mod traversal;
pub mod union_find;

pub use csr::{CowStats, CsrGraph, NearestReach, TraversalScratch, DEFAULT_CHUNK_ROWS};
pub use delta::{DeltaOp, DeltaSummary, GraphDelta};
pub use graph::{EdgeRef, Graph, NodeId};
pub use union_find::UnionFind;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::centrality::{betweenness, betweenness_parallel, closeness, degree_centrality};
    pub use crate::community::{label_propagation, modularity};
    pub use crate::components::{connected_components, largest_component, ComponentLabels};
    pub use crate::csr::{CsrGraph, TraversalScratch};
    pub use crate::graph::{Graph, NodeId};
    pub use crate::metrics::{global_clustering_coefficient, local_clustering_coefficient};
    pub use crate::traversal::{bfs_distances, ego_network, max_span};
}
