//! Property test: the pipelined `maintain` / `repair` cycles are
//! bit-identical to their serial oracles (`maintain_serial` /
//! `repair_serial`).
//!
//! Two identically built systems run the same random schedule — demand
//! bursts (requests that feed the replication policy's windows),
//! periodic churn (offline hosts), a lossy transfer fabric, and optional
//! mid-run departures — then interleave maintenance and repair cycles.
//! One system drives the serial loops, the other the plan/commit
//! pipeline. Per-cycle change counts, replica sets, catalog-entry
//! versions, clocks, and full metric snapshots (hosting-request and
//! exchange records included) must match exactly.
//!
//! The only counters excluded from the comparison are diagnostics that
//! legitimately differ between the two execution strategies: the
//! resolve-cache statistics (`alloc.resolve.cache.*`), the request-batch
//! counters (`core.batch.*`), and the maintenance-pipeline counters
//! themselves (`core.maintain.*` — the serial oracles never plan).

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_alloc::replication::{AdaptiveRebalance, CycleStats, DatasetStats, RebalancePolicy};
use scdn_core::system::{AvailabilityConfig, RebalanceStrategy, Scdn, ScdnConfig};
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::object::{DatasetId, Sensitivity};

fn community() -> &'static (SyntheticDblp, TrustSubgraph) {
    static CELL: OnceLock<(SyntheticDblp, TrustSubgraph)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut params = CaseStudyParams::default();
        params.level2_prob = 0.35;
        params.level3_prob = 0.0;
        params.mega_pub_authors = 0;
        params.rng_seed = 91;
        let c = generate(&params);
        let sub = build_trust_subgraph(
            &c.corpus,
            c.seed_author,
            3,
            2009..=2010,
            TrustFilter::Baseline,
        )
        .expect("seed present");
        (c, sub)
    })
}

/// A freshly built system plus its published datasets. Deterministic:
/// two calls produce bit-identical systems. `catalog_shards` varies how
/// datasets share catalog shards: a 1-shard catalog republishes every
/// dataset's shard on every commit (the request pipeline's stamps all
/// collide), while 16 shards spread the datasets out (0 = server
/// default); maintenance tokens are per entry, so neither may change an
/// outcome. `rebalance` selects the maintenance policy: the equivalence
/// holds for any `RebalancePolicy` impl, so the proptest sweeps both.
/// `repo_capacity` in the tens of KiB makes candidates run out of quota
/// mid-walk (each dataset is 7 KiB), exercising the quota windows.
fn build_system(
    catalog_shards: usize,
    rebalance: RebalanceStrategy,
    repo_capacity: u64,
    availability: AvailabilityConfig,
) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity,
        replicas_per_dataset: 2,
        rebalance,
        availability,
        failure: FailureModel {
            loss_prob: 0.2,
            corruption_prob: 0.1,
            seed: 23,
            ..FailureModel::default()
        },
        opportunistic_caching: true,
        transfer_concurrency: 2,
        catalog_shards,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for i in 0..4u32 {
        let id = scdn
            .publish(
                NodeId(i),
                &format!("maint-{i}"),
                Bytes::from(vec![i as u8 + 1; 7 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        let _ = scdn.replicate(id);
        datasets.push(id);
    }
    (scdn, datasets)
}

/// One schedule step: advance the clock, issue a demand burst, maybe
/// depart a member, then run a maintenance or repair cycle.
type Op = (u16, Vec<(u8, u8)>, bool, (bool, u8));

/// Drive a system through the schedule; `serial` selects the oracle
/// loops, otherwise the plan/commit pipeline. Returns the per-cycle
/// change counts.
fn drive(scdn: &mut Scdn, datasets: &[DatasetId], ops: &[Op], serial: bool) -> Vec<usize> {
    let members = scdn.member_count() as u32;
    let mut changes = Vec::new();
    for (dt, burst, repair, depart) in ops {
        scdn.tick(u64::from(*dt));
        for &(n, d) in burst {
            let _ = scdn.request(
                NodeId(u32::from(n) % members),
                datasets[usize::from(d) % datasets.len()],
            );
        }
        if depart.0 {
            let _ = scdn.depart(NodeId(u32::from(depart.1) % members));
        }
        changes.push(match (repair, serial) {
            (true, true) => scdn.repair_serial(),
            (true, false) => scdn.repair(),
            (false, true) => scdn.maintain_serial(),
            (false, false) => scdn.maintain(),
        });
    }
    changes
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and pipelined execution.
fn comparable_snapshot(scdn: &Scdn) -> String {
    scdn_obs::to_json(&scdn.observability_snapshot())
        .lines()
        .filter(|l| {
            !l.contains("alloc.resolve.cache.")
                && !l.contains("core.batch.")
                && !l.contains("core.maintain.")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Catalog state: replica set and version token per dataset.
fn catalog_state(scdn: &Scdn, datasets: &[DatasetId]) -> Vec<(Vec<NodeId>, Option<u64>)> {
    datasets
        .iter()
        .map(|&d| {
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
            )
        })
        .collect()
}

/// Run the schedule on two identically built systems, one through the
/// serial oracles and one through the plan/commit pipeline, and require
/// identical change counts, clocks, catalogs and metric snapshots.
fn assert_pipeline_matches_serial(
    ops: &[Op],
    shards: usize,
    adaptive: bool,
    capacity: u64,
    availability: AvailabilityConfig,
) {
    let rebalance = if adaptive {
        // A tight budget (datasets × replicas_per_dataset) so the
        // adaptive policy actually reclaims replicas from cold
        // datasets mid-schedule.
        RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(8))
    } else {
        RebalanceStrategy::Static
    };
    let (mut serial, datasets) = build_system(shards, rebalance, capacity, availability);
    let (mut piped, datasets_b) = build_system(shards, rebalance, capacity, availability);
    assert_eq!(&datasets, &datasets_b, "builds are deterministic");

    let serial_changes = drive(&mut serial, &datasets, ops, true);
    let piped_changes = drive(&mut piped, &datasets, ops, false);

    assert_eq!(
        serial_changes, piped_changes,
        "per-cycle change counts diverge"
    );
    assert_eq!(serial.now(), piped.now(), "clocks diverge");
    assert_eq!(
        catalog_state(&serial, &datasets),
        catalog_state(&piped, &datasets),
        "replica sets / catalog versions diverge"
    );
    assert_eq!(
        comparable_snapshot(&serial),
        comparable_snapshot(&piped),
        "metric snapshots diverge"
    );
}

proptest! {
    #[test]
    fn pipelined_maintenance_matches_serial_loop(
        ops in proptest::collection::vec(
            (
                0u16..6_000,
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..7),
                any::<bool>(),
                (any::<bool>(), any::<u8>()),
            ),
            1..5,
        ),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 16][i]),
        adaptive in any::<bool>(),
        capacity in (0usize..3).prop_map(|i| [4u64 << 20, 12 << 10, 24 << 10][i]),
    ) {
        let churn = AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.5,
        };
        assert_pipeline_matches_serial(&ops, shards, adaptive, capacity, churn);
    }

    /// The same property on an always-on fabric, where the clock never
    /// invalidates a plan: every replan is decided by the entry versions
    /// and quota windows alone. (Its tight capacities start at 15 KiB:
    /// here an owner can receive a replica before it publishes its own
    /// 7 KiB dataset.)
    #[test]
    fn pipelined_always_on_maintenance_matches_serial_loop(
        ops in proptest::collection::vec(
            (
                0u16..6_000,
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..7),
                any::<bool>(),
                (any::<bool>(), any::<u8>()),
            ),
            1..5,
        ),
        shards in (0usize..3).prop_map(|i| [1usize, 2, 16][i]),
        adaptive in any::<bool>(),
        capacity in (0usize..3).prop_map(|i| [4u64 << 20, 15 << 10, 20 << 10][i]),
    ) {
        assert_pipeline_matches_serial(&ops, shards, adaptive, capacity, AvailabilityConfig::AlwaysOn);
    }
}

/// Regression for the under-provisioned candidate walk: the old
/// `replicate` truncated the placement ranking at `want + current + 4`
/// candidates, so when churn left most top-ranked hosts offline a
/// dataset silently stayed under target even though plenty of online
/// hosts sat deeper in the ranking. The walk now extends until the
/// target is met or candidates are exhausted.
#[test]
fn replication_walks_past_offline_ranking_prefix() {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        // Mostly-offline fabric: ~15% of hosts up at any instant. The
        // long period keeps onlineness stable while transfer time
        // accrues during the walk.
        availability: AvailabilityConfig::Periodic {
            period_ms: 1_000_000,
            duty: 0.15,
        },
        failure: FailureModel::default(),
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "deep-walk",
            Bytes::from(vec![7u8; 6 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publish succeeds");
    scdn.tick(2_500);
    let online: Vec<NodeId> = (0..scdn.member_count() as u32)
        .map(NodeId)
        .filter(|&n| n != owner && scdn.is_online(n))
        .collect();
    let want = 6.min(online.len());
    assert!(
        want >= 4,
        "fixture needs a handful of online hosts (got {})",
        online.len()
    );
    // `publish` seeds the catalog with the owner as first replica.
    let current = scdn.replicas_of(id).expect("dataset exists").len();
    let added = scdn.replicate_to(id, want).expect("replication succeeds");
    assert_eq!(
        added.len(),
        want - current,
        "walk must extend past the offline ranking prefix to reach target"
    );
    assert_eq!(scdn.replicas_of(id).expect("dataset exists").len(), want);
    for &n in &added {
        assert!(online.contains(&n), "only online hosts accept replicas");
    }
}

/// The memoized placement ranking is computed once per graph and reused
/// by every later replication or repair cycle while the graph stands
/// still.
#[test]
fn repeated_cycles_hit_the_ranking_cache() {
    let (mut scdn, datasets) = build_system(
        0,
        RebalanceStrategy::Static,
        4 << 20,
        AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.5,
        },
    );
    let hits = |s: &Scdn| {
        s.registry()
            .counter("core.maintain.ranking_cache_hit")
            .get()
    };
    let misses = |s: &Scdn| {
        s.registry()
            .counter("core.maintain.ranking_cache_miss")
            .get()
    };
    // Building replicated four datasets against one frozen graph: the
    // ordering was computed exactly once and sliced three more times.
    assert_eq!(misses(&scdn), 1, "one full ranking per graph");
    assert_eq!(hits(&scdn), 3, "later datasets reuse the memoized order");
    // Knock a replica out and repair: the cycle ranks again — from cache.
    let victim = scdn.replicas_of(datasets[0]).expect("dataset exists")[0];
    let _ = scdn.depart(victim);
    scdn.tick(500);
    let before = hits(&scdn);
    let repaired = scdn.repair();
    assert!(repaired > 0, "departure left something to repair");
    assert!(hits(&scdn) > before, "repair cycle reuses the ranking");
    assert_eq!(misses(&scdn), 1, "graph unchanged, nothing recomputed");
}

/// An always-on, lossless system over the shared community: every
/// plan's outcome depends only on the catalog and on quotas, so each
/// replan below has exactly one possible cause.
fn build_always_on(repo_capacity: u64) -> Scdn {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity,
        replicas_per_dataset: 2,
        ..Default::default()
    };
    Scdn::build(sub, &c.corpus, config)
}

/// The full placement ranking and owners drawn from its tail, so no
/// owner competes with the top-ranked hub.
fn ranking_and_owners(scdn: &Scdn, owners: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    let csr = scdn.social_csr();
    let ranked = PlacementAlgorithm::CommunityNodeDegree.place_csr(csr, csr.node_count(), 0);
    let tail = ranked.iter().rev().take(owners).copied().collect();
    (ranked, tail)
}

/// Publish `bytes` bytes owned by `owner` without replicating them.
fn publish_unreplicated(scdn: &mut Scdn, owner: NodeId, name: &str, bytes: usize) -> DatasetId {
    scdn.publish(
        owner,
        name,
        Bytes::from(vec![7u8; bytes]),
        Sensitivity::Public,
        None,
    )
    .expect("publish succeeds")
}

/// `core.maintain.replanned` and its `{entry, quota, clock}` split.
fn replans(scdn: &Scdn) -> [u64; 4] {
    ["", "_entry", "_quota", "_clock"].map(|cause| {
        scdn.registry()
            .counter(&format!("core.maintain.replanned{cause}"))
            .get()
    })
}

/// The twin systems ended in the same state.
fn assert_twins_agree(serial: &Scdn, piped: &Scdn, datasets: &[DatasetId]) {
    assert_eq!(serial.now(), piped.now(), "clocks diverge");
    assert_eq!(
        catalog_state(serial, datasets),
        catalog_state(piped, datasets),
        "replica sets / catalog versions diverge"
    );
    assert_eq!(
        comparable_snapshot(serial),
        comparable_snapshot(piped),
        "metric snapshots diverge"
    );
}

/// Every dataset's first candidate is the same top-ranked hub. Each
/// commit changes the hub's `used()` and republishes catalog shards,
/// but neither touches another dataset's entry version, and with ample
/// quota every later plan's window still holds: all plans commit.
#[test]
fn many_datasets_grow_onto_one_hub_without_replanning() {
    let build = || {
        let mut scdn = build_always_on(4 << 20);
        let (ranked, owners) = ranking_and_owners(&scdn, 8);
        let datasets: Vec<DatasetId> = owners
            .iter()
            .enumerate()
            .map(|(i, &o)| publish_unreplicated(&mut scdn, o, &format!("hub-{i}"), 7 << 10))
            .collect();
        (scdn, datasets, ranked[0])
    };
    let (mut serial, datasets, hub) = build();
    let (mut piped, _, _) = build();
    let serial_changes = serial.repair_serial();
    let piped_changes = piped.repair();
    assert_eq!(serial_changes, piped_changes);
    assert_eq!(piped_changes, datasets.len(), "one new replica per dataset");
    for &d in &datasets {
        assert!(piped.replicas_of(d).expect("dataset exists").contains(&hub));
    }
    assert_twins_agree(&serial, &piped, &datasets);
    assert_eq!(replans(&piped), [0; 4], "every plan commits");
    assert_eq!(
        piped.registry().counter("core.maintain.committed").get(),
        datasets.len() as u64
    );
}

/// Two datasets plan onto the same empty 16 KiB hub; the second's quota
/// window is `[0, 16 KiB − b]`. When the first commit leaves the hub
/// exactly at that edge, the second plan still holds and commits. One
/// byte more and the second dataset would overflow the hub, so its plan
/// must replay live — as a quota replan — and land on the next
/// candidate, exactly as the serial loop does.
#[test]
fn earlier_commit_pushing_quota_out_of_window_replans() {
    let cap = 16 << 10;
    let b = 7 << 10;
    for (a, replans_expected) in [(cap - b, 0), (cap - b + 1, 1)] {
        let build = || {
            let mut scdn = build_always_on(cap as u64);
            let (ranked, owners) = ranking_and_owners(&scdn, 2);
            let datasets = vec![
                publish_unreplicated(&mut scdn, owners[0], "first", a),
                publish_unreplicated(&mut scdn, owners[1], "second", b),
            ];
            (scdn, datasets, ranked[0])
        };
        let (mut serial, datasets, hub) = build();
        let (mut piped, _, _) = build();
        assert_eq!(serial.repair_serial(), piped.repair());
        assert_twins_agree(&serial, &piped, &datasets);
        let n = replans_expected;
        assert_eq!(replans(&piped), [n, 0, n, 0], "first dataset {a} bytes");
        let second_on_hub = piped
            .replicas_of(datasets[1])
            .expect("dataset exists")
            .contains(&hub);
        assert_eq!(second_on_hub, n == 0, "first dataset {a} bytes");
    }
}

/// Maintenance policy keyed on dataset size: one-segment datasets shrink
/// to their owner's copy, larger ones grow to two replicas.
struct ShrinkSmallGrowLarge;

impl RebalancePolicy for ShrinkSmallGrowLarge {
    fn target(&self, dataset: &DatasetStats, _cycle: &CycleStats) -> usize {
        if dataset.segments == 1 {
            1
        } else {
            2
        }
    }
}

/// The hub holds a small dataset's replica, so at plan time the large
/// dataset overflows the hub's quota on its last segment and plans onto
/// the next candidate. The small dataset's shrink commits first and
/// frees the hub, moving its `used()` below the large plan's window: the
/// large plan must replay live and land on the hub, as the serial loop
/// does.
#[test]
fn shrink_freeing_quota_flips_a_failed_plan() {
    let build = || {
        let mut scdn = build_always_on(8 << 10);
        let (ranked, owners) = ranking_and_owners(&scdn, 2);
        let small = publish_unreplicated(&mut scdn, owners[0], "small", 2 << 10);
        scdn.replicate(small).expect("replication succeeds");
        let large = publish_unreplicated(&mut scdn, owners[1], "large", 7 << 10);
        (scdn, vec![small, large], ranked[0])
    };
    let (mut serial, datasets, hub) = build();
    let (mut piped, _, _) = build();
    assert_eq!(
        piped.replicas_of(datasets[0]).expect("dataset exists"),
        [ranking_and_owners(&piped, 2).1[0], hub],
        "fixture: the small dataset's replica sits on the hub"
    );
    let serial_changes = serial.maintain_serial_with(&ShrinkSmallGrowLarge);
    let piped_changes = piped.maintain_with(&ShrinkSmallGrowLarge);
    assert_eq!(serial_changes, piped_changes);
    assert_eq!(piped_changes, 2, "one shed, one added");
    assert_twins_agree(&serial, &piped, &datasets);
    assert_eq!(
        replans(&piped),
        [1, 0, 1, 0],
        "the large plan replans on quota"
    );
    assert!(piped
        .replicas_of(datasets[1])
        .expect("dataset exists")
        .contains(&hub));
}
