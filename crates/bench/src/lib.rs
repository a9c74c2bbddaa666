//! # scdn-bench — experiment harness shared code
//!
//! The experiment binaries (`table1`, `fig2`, `fig3`, `fig3_extended`,
//! `metrics_report`, `partitioning`, `availability`) regenerate the
//! paper's tables and figures; this library holds the shared setup so
//! every binary runs on the *same* synthetic corpus.

use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::SyntheticDblp;

/// The canonical corpus every experiment uses (fixed RNG seed).
pub fn paper_corpus() -> SyntheticDblp {
    generate(&CaseStudyParams::default())
}

/// Replica counts swept in Fig. 3.
pub const REPLICA_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Runs averaged per configuration (paper: "run 100 times").
pub const RUNS: usize = 100;

/// Render a numeric table row with a fixed-width label.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<24}");
    for v in values {
        s.push_str(&format!(" {v:6.2}"));
    }
    s
}

/// The host a report was measured on, as a JSON object: the detected
/// parallelism and the CPU model from `/proc/cpuinfo` (`"unknown"` where
/// that file is absent).
pub fn hardware_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{ \"parallelism\": {parallelism}, \"cpu_model\": \"{cpu_model}\" }}")
}

/// Parse a `--threads 1,2,4` / `--threads=1,2,4` flag into a
/// worker-count sweep for the throughput-style benches. Returns `None`
/// when the flag is absent; panics on a malformed count so a typo'd CI
/// invocation fails loudly instead of silently benching the default.
pub fn parse_threads(args: &[String]) -> Option<Vec<usize>> {
    let spec = args.iter().enumerate().find_map(|(i, a)| {
        a.strip_prefix("--threads=")
            .map(str::to_string)
            .or_else(|| {
                (a == "--threads")
                    .then(|| args.get(i + 1).cloned())
                    .flatten()
            })
    })?;
    let counts: Vec<usize> = spec
        .split(',')
        .map(|s| {
            let n = s.trim().parse().expect("--threads takes positive integers");
            assert!(n > 0, "--threads counts must be >= 1");
            n
        })
        .collect();
    assert!(!counts.is_empty(), "--threads takes at least one count");
    Some(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_stable() {
        let a = paper_corpus();
        let b = paper_corpus();
        assert_eq!(a.corpus.author_count(), b.corpus.author_count());
        assert_eq!(a.corpus.publication_count(), b.corpus.publication_count());
    }

    #[test]
    fn row_formats() {
        let s = row("Random", &[1.0, 2.5]);
        assert!(s.starts_with("Random"));
        assert!(s.contains("1.00"));
        assert!(s.contains("2.50"));
    }

    #[test]
    fn threads_flag_parses_both_forms() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&strs(&[])), None);
        assert_eq!(parse_threads(&strs(&["--smoke"])), None);
        assert_eq!(
            parse_threads(&strs(&["--threads", "1,2,4"])),
            Some(vec![1, 2, 4])
        );
        assert_eq!(parse_threads(&strs(&["--threads=8"])), Some(vec![8]));
    }
}
