//! End-to-end benchmark of the S-CDN.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|churn|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! One process builds an S-CDN in-process and replays one workload through
//! the public `Scdn` API as a closed loop with a single client: a call is
//! issued, the benchmark waits for it, then issues the next. The workload
//! is generated from `--seed` before the timed phase; its size scales with
//! `--seconds`. Every output is checked; a run that fails a check prints
//! no metrics and exits non-zero.
//!
//! The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced run (plus an untraced run of the same schedule to
//! price the tracing). The line before it is a report with the hardware,
//! provenance, sample counts and tail percentiles.

mod report;
mod run;
mod stats;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use report::{json_num, json_str};
use run::{Tally, Tracer};
use scdn_graph::NodeId;
use workload::{Kind, Params, Schedule, SetupTimes, Step};

/// Command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u32 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the repository the benchmark was built
/// from, read from its `.git` directory when the benchmark runs (a value
/// fixed at build time would go stale when only the measured crates
/// change). `unknown` outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => read(&git.join(name))
            .map(|h| h.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
            }),
    };
    match hash {
        Some(h) if h.len() >= 12 && h.chars().all(|c| c.is_ascii_hexdigit()) => h[..12].to_string(),
        _ => "unknown".to_string(),
    }
}

fn median(xs: &[f64]) -> f64 {
    stats::summarize(xs).map_or(f64::NAN, |s| s.median)
}

/// Members the run must never depart: every dataset owner, including
/// those that publish later in the schedule.
fn protected(sched: &Schedule, owners: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    let mut out = owners.clone();
    for step in &sched.steps {
        if let Step::Publish { owner, .. } = step {
            out.insert(*owner);
        }
    }
    out
}

/// Everything one invocation measured.
pub struct Measured {
    /// All output checks passed.
    pub correct: bool,
    /// Every failed check.
    pub failures: Vec<String>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests not served.
    pub failed: u64,
    /// The metrics to print (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// `(name, samples, tail percentile)` of each timing.
    pub samples: Vec<(&'static str, usize, f64)>,
    /// Workload-property shares of the untraced run.
    pub properties: BTreeMap<&'static str, f64>,
}

fn sample_info(t: &Tally) -> Vec<(&'static str, usize, f64)> {
    [
        ("request_call_ms", &t.request_call_ms),
        ("response_ms", &t.response_ms),
        ("maintain_ms", &t.maintain_ms),
        ("repair_ms", &t.repair_ms),
    ]
    .into_iter()
    .map(|(name, xs)| {
        let s = stats::summarize(xs);
        (name, xs.len(), s.map_or(f64::NAN, |s| s.tail_pct))
    })
    .collect()
}

/// Build, run and check one workload.
pub fn measure(p: &Params, seed: u64, trace: bool) -> Result<Measured, String> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    // The last set-up is the one that runs; earlier ones are dropped
    // before the next starts, so set-ups do not stack in memory.
    for _ in 1..p.setup_repeats.max(1) {
        setups.push(workload::setup(p, seed)?.1);
    }
    let (mut sys, times) = workload::setup(p, seed)?;
    setups.push(times);
    let setup_s = median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());

    let gen_start = Instant::now();
    let sched = workload::schedule(p, seed, &sys.mirror);
    let workload_gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let guard = protected(&sched, &sys.owners);

    let mut failures = Vec::new();
    let mut tally = run::run(&mut sys, &sched, p, &guard, None);
    run::final_checks(&sys, &sched, &mut tally.failures);
    failures.append(&mut tally.failures);
    drop(sys);

    let samples = sample_info(&tally);
    let properties = report::properties(&tally);
    let (attempted, failed) = (tally.attempted, tally.attempted - tally.served);
    let metrics = if trace {
        let (mut sys, _) = workload::setup(p, seed)?;
        let mut tracer = Tracer::new(&sys.scdn);
        let mut traced = run::run(&mut sys, &sched, p, &guard, Some(&mut tracer));
        run::final_checks(&sys, &sched, &mut traced.failures);
        failures.append(&mut traced.failures);
        let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
        let setup = SetupTimes {
            graph_ms: median(&setups.iter().map(|s| s.graph_ms).collect::<Vec<_>>()),
            build_ms: median(&setups.iter().map(|s| s.build_ms).collect::<Vec<_>>()),
            publish_ms: median(&setups.iter().map(|s| s.publish_ms).collect::<Vec<_>>()),
        };
        report::per_layer(
            &tracer,
            &report::LayerInputs {
                traced: &traced,
                untraced_run_s: tally.run_s,
                setup,
                workload_gen_ms,
                coded_mib: mib(traced.coded_bytes),
                published_mib: mib(traced.ingest_bytes),
            },
        )
    } else {
        report::end_to_end(&tally, setup_s, peak_rss_mib())
    };
    for (name, v) in &metrics {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
    }
    Ok(Measured {
        correct: failures.is_empty(),
        failures,
        attempted,
        failed,
        metrics,
        samples,
        properties,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload serve|churn|ingest --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Planning workers: one CPU is left to the benchmark's own thread and
    // the host. On a 2-CPU host shared with other tenants, two workers made
    // per-call times swing by a quarter between identical runs; one held
    // them within a few percent. The report records both numbers.
    let workers = nproc.saturating_sub(1).max(1);
    scdn_graph::parallel::set_worker_limit(workers);
    let p = Params::full(args.kind, args.seconds);
    let m = match measure(&p, args.seed, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !m.correct {
        for f in m.failures.iter().take(20) {
            eprintln!("perfbench: check failed: {f}");
        }
        eprintln!(
            "perfbench: {} checks failed; no metrics reported",
            m.failures.len()
        );
        return ExitCode::FAILURE;
    }
    let samples: Vec<String> = m
        .samples
        .iter()
        .map(|(name, n, pct)| {
            format!(
                "{}: {{\"n\": {n}, \"tail_percentile\": {}}}",
                json_str(name),
                json_num(*pct)
            )
        })
        .collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"nproc\": {nproc}, \"worker_limit\": {}, \"cpu_model\": {}, \"rustc\": {}, \
         \"git_commit\": {}, \"samples\": {{{}}}, \"properties\": {{{}}}}}}}",
        json_str(args.kind.name()),
        args.seed,
        args.seconds,
        args.trace,
        scdn_graph::parallel::worker_limit(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit()),
        samples.join(", "),
        m.properties
            .iter()
            .map(|(name, v)| format!("{}: {}", json_str(name), json_num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let order: Vec<&str> = if args.trace {
        report::PER_LAYER.iter().map(|e| e.0).collect()
    } else {
        report::END_TO_END.iter().map(|e| e.0).collect()
    };
    println!(
        "{}",
        report::result_line(m.correct, m.attempted, m.failed, &m.metrics, &order)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_tiny(kind: Kind, trace: bool) {
        let p = Params::tiny(kind);
        let m = measure(&p, 3, trace).expect("tiny run builds");
        assert!(m.correct, "{:?}", m.failures);
        assert!(m.attempted > 0);
        let catalog: Vec<&str> = if trace {
            report::PER_LAYER.iter().map(|e| e.0).collect()
        } else {
            report::END_TO_END.iter().map(|e| e.0).collect()
        };
        let got: Vec<&str> = m.metrics.keys().copied().collect();
        let mut want = catalog.clone();
        want.sort_unstable();
        assert_eq!(got, want, "exactly the catalogued metrics");
        for name in catalog {
            let v = m.metrics[name];
            assert!(v.is_finite(), "{name} = {v}");
            assert!(report::unit_of(name).is_some_and(|u| !u.is_empty()));
            if !trace {
                assert!(v > 0.0, "end-to-end {name} must not be zero");
            }
        }
        let line = report::result_line(m.correct, m.attempted, m.failed, &m.metrics, &{
            let mut v: Vec<&str> = m.metrics.keys().copied().collect();
            v.sort_unstable();
            v
        });
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    }

    #[test]
    fn tiny_serve_reports_every_metric() {
        check_tiny(Kind::Serve, false);
        check_tiny(Kind::Serve, true);
    }

    #[test]
    fn tiny_churn_reports_every_metric() {
        check_tiny(Kind::Churn, false);
        check_tiny(Kind::Churn, true);
    }

    #[test]
    fn tiny_ingest_reports_every_metric() {
        check_tiny(Kind::Ingest, false);
        check_tiny(Kind::Ingest, true);
    }

    #[test]
    fn same_seed_same_inputs() {
        for kind in Kind::ALL {
            let p = Params::tiny(kind);
            let (sys, _) = workload::setup(&p, 5).unwrap();
            let fingerprint = |seed| {
                let sched = workload::schedule(&p, seed, &sys.mirror);
                let steps: Vec<String> = sched
                    .steps
                    .iter()
                    .map(|s| match s {
                        Step::Requests { at, reqs } => format!("r{at:?}{reqs:?}"),
                        Step::Delta {
                            ops, structural, ..
                        } => format!("d{ops}{structural}"),
                        Step::Maintain => "m".into(),
                        Step::Publish { owner, content } => {
                            format!(
                                "p{owner:?}{}",
                                scdn_storage::integrity::Checksum::of(content).fnv
                            )
                        }
                        Step::Depart => "x".into(),
                        Step::Repair => "y".into(),
                        Step::CodedRead { dataset, pick } => format!("c{dataset}/{pick}"),
                    })
                    .collect();
                (steps, sched.mirror.edge_count())
            };
            assert_eq!(fingerprint(5), fingerprint(5), "{kind:?}");
            assert_ne!(fingerprint(5).0, fingerprint(6).0, "{kind:?}");
        }
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload serve --seed 1 --seconds 5 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload serve --seed x").is_err());
        assert!(parse("--workload serve --seed 1 --trace 2").is_err());
        assert!(parse("--workload serve --seed 1 --seconds 0").is_err());
        assert!(parse("--workload serve --seed").is_err());
    }
}
