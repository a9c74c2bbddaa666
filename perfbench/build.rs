//! Records the toolchain for the report's provenance block (`unknown` if
//! `rustc --version` fails). A toolchain change rebuilds the package, so
//! the value never goes stale. The git commit is read at run time instead,
//! in `main.rs`.

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        capture(&rustc, &["--version"])
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
