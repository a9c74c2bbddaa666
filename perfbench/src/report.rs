//! Metric catalog, metric computation, and the report lines.
//!
//! `BENCHMARK.json` lists the same metrics; a test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::run::{Call, Tally, Tracer};
use crate::stats::{summarize, Summary};
use crate::workload::SetupTimes;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str, &str); 15] = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("request_call_p50_ms", "ms", "lower"),
    ("request_call_tail_ms", "ms", "lower"),
    ("served_frac", "ratio", "higher"),
    ("response_p50_ms", "sim_ms", "lower"),
    ("response_tail_ms", "sim_ms", "lower"),
    ("maintain_p50_ms", "ms", "lower"),
    ("maintain_tail_ms", "ms", "lower"),
    ("churn_ops_per_s", "1/s", "higher"),
    ("ingest_mib_per_s", "MiB/s", "higher"),
    ("repair_p50_ms", "ms", "lower"),
    ("repair_tail_ms", "ms", "lower"),
];

/// Per-layer metrics of the traced run: `(name, unit, better, what it
/// should move)`. The last column is the prediction a later change is
/// held to: which end-to-end metric, on which workload, this layer's
/// number should move.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 81] = [
    ("core.request_batch.busy_ms", "ms", "lower", "requests_per_s, request_call_* on serve, churn"),
    ("core.request_batch.calls", "count", "lower", "-"),
    ("core.request_batch.unattributed_ms", "ms", "lower", "request_call_* on serve, churn"),
    ("core.request_coded.busy_ms", "ms", "lower", "requests_per_s, request_call_* on ingest"),
    ("core.request_coded.calls", "count", "lower", "-"),
    ("core.request_coded.unattributed_ms", "ms", "lower", "request_call_* on ingest"),
    ("core.maintain.busy_ms", "ms", "lower", "maintain_* on all"),
    ("core.maintain.calls", "count", "lower", "-"),
    ("core.maintain.unattributed_ms", "ms", "lower", "maintain_* on all"),
    ("core.repair.busy_ms", "ms", "lower", "repair_* on all"),
    ("core.repair.calls", "count", "lower", "-"),
    ("core.publish.busy_ms", "ms", "lower", "ingest_mib_per_s on all"),
    ("core.publish.calls", "count", "lower", "-"),
    ("core.publish.unattributed_ms", "ms", "lower", "ingest_mib_per_s on all"),
    ("core.replicate.busy_ms", "ms", "lower", "ingest_mib_per_s on all"),
    ("core.replicate.calls", "count", "lower", "-"),
    ("core.replicate.unattributed_ms", "ms", "lower", "ingest_mib_per_s on ingest"),
    ("core.apply_graph_delta.busy_ms", "ms", "lower", "churn_ops_per_s on all"),
    ("core.apply_graph_delta.calls", "count", "lower", "-"),
    ("core.apply_graph_delta.unattributed_ms", "ms", "lower", "churn_ops_per_s on churn"),
    ("core.tick.busy_ms", "ms", "lower", "run_s on all"),
    ("core.tick.calls", "count", "lower", "-"),
    ("core.depart.busy_ms", "ms", "lower", "run_s on all"),
    ("core.depart.calls", "count", "lower", "-"),
    ("core.batch.replans", "count", "lower", "request_call_* on serve"),
    ("core.batch.replan_frac", "ratio", "lower", "request_call_* on serve"),
    ("core.batch.snapshot_reuse", "count", "higher", "request_call_* on serve, churn"),
    ("core.maintain.planned", "count", "lower", "maintain_* on churn"),
    ("core.maintain.committed", "count", "lower", "maintain_* on churn"),
    ("core.maintain.replanned", "count", "lower", "maintain_* on churn"),
    ("core.maintain.ranking_cache_hit", "count", "higher", "maintain_* on churn"),
    ("core.maintain.ranking_cache_miss", "count", "lower", "maintain_* on churn"),
    ("core.graph.delta_nodes_touched", "count", "lower", "churn_ops_per_s on churn"),
    ("core.graph.delta_bytes_copied", "bytes", "lower", "churn_ops_per_s on churn"),
    ("core.graph.delta_chunks_shared", "count", "higher", "churn_ops_per_s on churn"),
    ("alloc.placement.rank_ms", "ms", "lower", "maintain_* on churn; near zero on serve, ingest"),
    ("alloc.placement.ranks", "count", "lower", "maintain_* on churn; zero on serve, ingest"),
    ("alloc.ranking.hit_frac", "ratio", "higher", "maintain_* on churn"),
    ("alloc.ranking.cache.retained", "count", "higher", "maintain_* on churn"),
    ("alloc.ranking.cache.evicted", "count", "lower", "maintain_* on churn; zero on serve, ingest"),
    ("alloc.resolve.cache.hit_frac", "ratio", "higher", "request_call_* on serve"),
    ("alloc.resolve.cache.evict", "count", "lower", "request_call_* on serve, churn"),
    ("alloc.resolve.cache.retained", "count", "higher", "request_call_* on churn"),
    ("alloc.snapshot_us", "us", "lower", "request_call_* on serve"),
    ("alloc.resolve.ok", "count", "higher", "served_frac on all"),
    ("alloc.resolve.failed", "count", "lower", "served_frac on serve"),
    ("graph.csr.apply_delta_ms", "ms", "lower", "churn_ops_per_s on churn"),
    ("graph.csr.bytes_copied_per_delta", "bytes", "lower", "churn_ops_per_s on churn"),
    ("graph.bfs_to_targets_us", "us", "lower", "request_call_* on serve"),
    ("net.transfer.attempts", "count", "lower", "response_tail_ms on serve"),
    ("net.attempts.delivered", "count", "higher", "response_* on all"),
    ("net.attempts.lost", "count", "lower", "response_tail_ms on serve"),
    ("net.attempts.corrupted", "count", "lower", "response_tail_ms on serve"),
    ("net.retry_frac", "ratio", "lower", "response_tail_ms on serve"),
    ("net.repair_amplification", "ratio", "lower", "repair_* on ingest"),
    ("storage.coding.encode_ms_per_mib", "ms/MiB", "lower", "ingest_mib_per_s on ingest"),
    ("storage.coding.decode_ms_per_mib", "ms/MiB", "lower", "requests_per_s on ingest"),
    ("storage.checksum_ms_per_mib", "ms/MiB", "lower", "ingest_mib_per_s, requests_per_s on ingest"),
    ("storage.cache.insertions", "count", "lower", "request_call_* on serve"),
    ("storage.cache.evictions", "count", "lower", "request_call_* on serve"),
    ("storage.cache.rejections", "count", "lower", "request_call_* on serve"),
    ("setup.graph_ms", "ms", "lower", "setup_s on all"),
    ("setup.build_ms", "ms", "lower", "setup_s on all"),
    ("setup.publish_ms", "ms", "lower", "setup_s on all"),
    ("setup.workload_gen_ms", "ms", "lower", "none: outside setup_s and run_s"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing"),
    ("trace.coverage_frac", "ratio", "higher", "none: share of run_s the layer replays explain"),
    ("trace.run_s", "s", "lower", "none: traced run_s, replays excluded"),
    ("trace.untraced_run_s", "s", "lower", "none: run_s of the untraced pass"),
    ("core.hit_frac", "ratio", "higher", "none: user-visible, too seed-dependent to bound"),
    ("workload.requests", "count", "higher", "none: sample size"),
    ("workload.repeat_requester_frac", "ratio", "higher", "property: resolve-cache reuse"),
    ("workload.top10_frac", "ratio", "higher", "property: replica and cache reuse"),
    ("workload.bytes_per_request", "bytes", "higher", "property: data-plane weight"),
    ("workload.structural_delta_frac", "ratio", "lower", "property: ranking recompute"),
    ("workload.ranking_evict_frac", "ratio", "lower", "property: ranking recompute"),
    ("workload.skipped_requests", "count", "lower", "none: requests of departed members"),
    ("workload.maintain_cycles", "count", "higher", "none: sample size"),
    ("workload.repair_cycles", "count", "higher", "none: sample size"),
    ("workload.deltas", "count", "higher", "none: sample size"),
    ("workload.request_calls", "count", "higher", "none: sample size"),
];

/// Unit of a metric from either catalog.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Summary of a timing sample, or NaNs when it is empty (a finite-value
/// check then rejects the run).
fn summary(samples: &[f64]) -> Summary {
    summarize(samples).unwrap_or(Summary {
        n: 0,
        median: f64::NAN,
        tail: f64::NAN,
        tail_pct: f64::NAN,
    })
}

/// Every end-to-end metric of an untraced run.
pub fn end_to_end(t: &Tally, setup_s: f64, peak_rss_mib: f64) -> BTreeMap<&'static str, f64> {
    let call = summary(&t.request_call_ms);
    let resp = summary(&t.response_ms);
    let maint = summary(&t.maintain_ms);
    let rep = summary(&t.repair_ms);
    let nan_if_zero = |den: f64, v: f64| if den > 0.0 { v } else { f64::NAN };
    BTreeMap::from([
        ("setup_s", setup_s),
        ("run_s", t.run_s),
        ("peak_rss_mib", peak_rss_mib),
        (
            "requests_per_s",
            nan_if_zero(t.request_wall_s, t.attempted as f64 / t.request_wall_s),
        ),
        ("request_call_p50_ms", call.median),
        ("request_call_tail_ms", call.tail),
        (
            "served_frac",
            nan_if_zero(t.attempted as f64, t.served as f64 / t.attempted as f64),
        ),
        ("response_p50_ms", resp.median),
        ("response_tail_ms", resp.tail),
        ("maintain_p50_ms", maint.median),
        ("maintain_tail_ms", maint.tail),
        (
            "churn_ops_per_s",
            nan_if_zero(t.churn_wall_s, t.churn_ops as f64 / t.churn_wall_s),
        ),
        (
            "ingest_mib_per_s",
            nan_if_zero(
                t.ingest_wall_s,
                t.ingest_bytes as f64 / (1 << 20) as f64 / t.ingest_wall_s,
            ),
        ),
        ("repair_p50_ms", rep.median),
        ("repair_tail_ms", rep.tail),
    ])
}

/// Shares of the workload's input properties a later claim may depend on.
pub fn properties(t: &Tally) -> BTreeMap<&'static str, f64> {
    let deltas = (t.structural_deltas + t.weight_deltas) as f64;
    BTreeMap::from([
        ("core.hit_frac", ratio(t.hits as f64, t.served as f64)),
        ("workload.requests", t.attempted as f64),
        (
            "workload.repeat_requester_frac",
            ratio(t.repeat_requests as f64, t.attempted as f64),
        ),
        (
            "workload.top10_frac",
            ratio(t.top10_requests as f64, t.attempted as f64),
        ),
        (
            "workload.bytes_per_request",
            ratio(t.bytes_served as f64, t.attempted as f64),
        ),
        (
            "workload.structural_delta_frac",
            ratio(t.structural_deltas as f64, deltas),
        ),
        (
            "workload.ranking_evict_frac",
            ratio(t.evicting_deltas as f64, deltas),
        ),
        ("workload.skipped_requests", t.skipped as f64),
        ("workload.maintain_cycles", t.maintain_ms.len() as f64),
        ("workload.repair_cycles", t.repair_ms.len() as f64),
        ("workload.deltas", deltas),
        ("workload.request_calls", t.request_call_ms.len() as f64),
    ])
}

/// Inputs of the per-layer report besides the tracer.
pub struct LayerInputs<'a> {
    /// The traced run.
    pub traced: &'a Tally,
    /// `run_s` of the untraced run of the same schedule.
    pub untraced_run_s: f64,
    /// Median set-up phase times.
    pub setup: SetupTimes,
    /// Median wall ms of schedule generation.
    pub workload_gen_ms: f64,
    /// MiB fetched by `request_coded` calls.
    pub coded_mib: f64,
    /// MiB published during the traced run.
    pub published_mib: f64,
}

/// Every per-layer metric of a traced run.
pub fn per_layer(tr: &Tracer, inp: &LayerInputs) -> BTreeMap<&'static str, f64> {
    let t = inp.traced;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let busy = |c: Call| tr.busy_ms[c as usize];
    for c in Call::ALL {
        let name = |suffix: &str| -> &'static str {
            let full = format!("core.{}.{suffix}", c.name());
            PER_LAYER
                .iter()
                .find(|e| e.0 == full)
                .map(|e| e.0)
                .unwrap_or_else(|| panic!("{full} is not in PER_LAYER"))
        };
        m.insert(name("busy_ms"), busy(c));
        m.insert(name("calls"), tr.calls[c as usize] as f64);
    }
    let per_mib = |(ms, mib): (f64, f64)| ratio(ms, mib);
    // Busy time of each call that the layer replays explain.
    let us_to_ms = |us: &[f64]| us.iter().sum::<f64>() / 1e3;
    let explained = [
        (
            "core.request_batch.unattributed_ms",
            Call::RequestBatch,
            us_to_ms(&tr.snapshot_us) + us_to_ms(&tr.bfs_us),
        ),
        (
            "core.request_coded.unattributed_ms",
            Call::RequestCoded,
            per_mib(tr.decode) * inp.coded_mib,
        ),
        ("core.maintain.unattributed_ms", Call::Maintain, tr.rank_ms),
        (
            "core.publish.unattributed_ms",
            Call::Publish,
            per_mib(tr.checksum) * inp.published_mib,
        ),
        (
            "core.replicate.unattributed_ms",
            Call::Replicate,
            tr.encode.0,
        ),
        (
            "core.apply_graph_delta.unattributed_ms",
            Call::ApplyGraphDelta,
            tr.csr_apply_ms,
        ),
    ];
    for (name, call, ms) in explained {
        m.insert(name, busy(call) - ms);
    }
    let explained_ms: f64 = explained.iter().map(|e| e.2).sum();
    let rb = [Call::RequestBatch];
    let mt = [Call::Maintain];
    let gd = [Call::ApplyGraphDelta];
    let batched_requests = tr.delta("core.batch.snapshot_reuse", &rb) + tr.calls[0];
    m.insert(
        "core.batch.replans",
        tr.delta("core.batch.replans", &rb) as f64,
    );
    m.insert(
        "core.batch.replan_frac",
        ratio(
            tr.delta("core.batch.replans", &rb) as f64,
            batched_requests as f64,
        ),
    );
    m.insert(
        "core.batch.snapshot_reuse",
        tr.delta("core.batch.snapshot_reuse", &rb) as f64,
    );
    for name in [
        "core.maintain.planned",
        "core.maintain.committed",
        "core.maintain.replanned",
        "core.maintain.ranking_cache_hit",
        "core.maintain.ranking_cache_miss",
    ] {
        m.insert(name, tr.delta(name, &mt) as f64);
    }
    for name in [
        "core.graph.delta_nodes_touched",
        "core.graph.delta_bytes_copied",
        "core.graph.delta_chunks_shared",
    ] {
        m.insert(name, tr.delta(name, &gd) as f64);
    }
    m.insert("alloc.placement.rank_ms", tr.rank_ms);
    m.insert("alloc.placement.ranks", tr.ranks as f64);
    let (rh, rm) = (
        tr.total("core.maintain.ranking_cache_hit") as f64,
        tr.total("core.maintain.ranking_cache_miss") as f64,
    );
    m.insert("alloc.ranking.hit_frac", ratio(rh, rh + rm));
    let (ch, cm) = (
        tr.total("alloc.resolve.cache.hit") as f64,
        tr.total("alloc.resolve.cache.miss") as f64,
    );
    m.insert("alloc.resolve.cache.hit_frac", ratio(ch, ch + cm));
    for name in [
        "alloc.ranking.cache.retained",
        "alloc.ranking.cache.evicted",
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
    ] {
        m.insert(name, tr.total(name) as f64);
    }
    m.insert(
        "alloc.snapshot_us",
        summarize(&tr.snapshot_us).map_or(0.0, |s| s.median),
    );
    m.insert(
        "graph.csr.apply_delta_ms",
        ratio(tr.csr_apply_ms, tr.deltas_applied as f64),
    );
    m.insert(
        "graph.csr.bytes_copied_per_delta",
        ratio(tr.csr_bytes_copied as f64, tr.deltas_applied as f64),
    );
    m.insert(
        "graph.bfs_to_targets_us",
        summarize(&tr.bfs_us).map_or(0.0, |s| s.median),
    );
    let delivered = tr.total("net.attempts.delivered") as f64;
    let attempts = delivered
        + tr.total("net.attempts.lost") as f64
        + tr.total("net.attempts.corrupted") as f64;
    m.insert("net.transfer.attempts", attempts);
    m.insert("net.retry_frac", ratio(attempts - delivered, attempts));
    m.insert(
        "net.repair_amplification",
        ratio(tr.repair_bytes as f64, tr.lost_bytes as f64),
    );
    m.insert("storage.coding.encode_ms_per_mib", per_mib(tr.encode));
    m.insert("storage.coding.decode_ms_per_mib", per_mib(tr.decode));
    m.insert("storage.checksum_ms_per_mib", per_mib(tr.checksum));
    m.insert("setup.graph_ms", inp.setup.graph_ms);
    m.insert("setup.build_ms", inp.setup.build_ms);
    m.insert("setup.publish_ms", inp.setup.publish_ms);
    m.insert("setup.workload_gen_ms", inp.workload_gen_ms);
    m.insert(
        "trace.overhead_frac",
        ratio(t.run_s, inp.untraced_run_s) - 1.0,
    );
    m.insert("trace.coverage_frac", ratio(explained_ms / 1e3, t.run_s));
    m.insert("trace.run_s", t.run_s);
    m.insert("trace.untraced_run_s", inp.untraced_run_s);
    m.extend(properties(t));
    m
}

/// Escape a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`null` otherwise).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// each metric's value and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
    order: &[&str],
) -> String {
    let body: Vec<String> = order
        .iter()
        .map(|&name| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(metrics[name]),
                json_str(unit_of(name).expect("catalogued metric"))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalog in code and the one in `BENCHMARK.json` name the same
    /// metrics, in the same order, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let json = include_str!("../../BENCHMARK.json");
        let entries = |section: &str| -> Vec<(String, String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.split('{')
                .skip(1)
                .map(|e| {
                    let field = |k: &str| {
                        let at = e.find(&format!("\"{k}\"")).expect("field present");
                        let rest = &e[at + k.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value") + 1..];
                        rest[..rest.find('"').expect("value ends")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(entries("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b, _)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(entries("per_layer"), layer);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        names.extend(PER_LAYER.iter().map(|e| e.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
