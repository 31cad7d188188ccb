//! `simcxl-report`: regenerates every table and figure of the paper.
//!
//! ```text
//! simcxl-report [table1|fig12|fig13|fig14|fig15|fig16|fig17|fig18|
//!                calibration|headline|shapes|ablation_hierarchy|
//!                ablation_prefetch|ext_offload|hotpath|scenarios|faults|
//!                rebalance|all]
//!               [--json] [--quick] [--summary] [--github]
//!               [--check-determinism] [--expect-mode=full|quick]
//! ```
//!
//! Any other `--` flag, or an unknown report name, exits 2.
//!
//! The bench suites (`hotpath`, `scenarios`, `faults`, `rebalance`;
//! see [`simcxl_bench::suite::SUITES`]) run their workload and print
//! the report; with `--json` they also write `BENCH_<suite>.json` (see
//! README for the schemas). `faults` and `rebalance` assert their
//! degradation and convergence gates before writing. `--quick` selects
//! the reduced CI smoke workload. Two read-only modes operate on the
//! already-written report of one suite, or of every suite under `all`,
//! instead of re-running anything (both exit 2 if a file is unreadable):
//!
//! * `--summary` prints each report's top-level members (what CI logs
//!   instead of ad-hoc JSON digging). With `--github` it prints a
//!   GitHub-flavored markdown digest instead — the table CI appends to
//!   `$GITHUB_STEP_SUMMARY`.
//! * `--check-determinism` parses each report strictly and verifies
//!   its pinned checksums for the report's mode, exiting 1 on any
//!   drift or malformed field — the gating determinism canaries of the
//!   CI perf jobs (`hotpath` pins the wave-driven `stress` checksum
//!   *and* the dense upfront-batch `stress_upfront` checksum; the other
//!   suites pin all three of their case checksums). `all
//!   --check-determinism` is the consolidated CI gate: every failing
//!   suite is listed rather than stopping at the first.
//!   `--expect-mode=quick` additionally fails (exit 1) unless the file
//!   records that mode: CI uses it to prove the checked file was
//!   written by *this run's* quick bench rather than falling back to
//!   the committed full-mode file when the smoke step died early.

use simcxl_bench::suite::{self, SUITES};

/// The paper's tables, figures and ablations, in the order `all`
/// prints them.
const FIGURES: [(&str, fn()); 14] = [
    ("table1", simcxl_bench::table1),
    ("fig12", || simcxl_bench::fig12(200)),
    ("fig13", || simcxl_bench::fig13(100)),
    ("fig14", simcxl_bench::fig14),
    ("fig15", simcxl_bench::fig15),
    ("fig16", simcxl_bench::fig16),
    ("fig17", || simcxl_bench::fig17(2048)),
    ("fig18", || simcxl_bench::fig18(0)),
    ("calibration", || simcxl_bench::calibration(100)),
    ("headline", || simcxl_bench::headline(100)),
    ("shapes", simcxl_bench::bench_shapes),
    ("ablation_hierarchy", simcxl_bench::ablation_hierarchy),
    ("ablation_prefetch", simcxl_bench::ablation_prefetch),
    ("ext_offload", simcxl_bench::ext_offload),
];

/// Every flag `simcxl-report` accepts, besides `--expect-mode=<mode>`.
const FLAGS: [&str; 5] = [
    "--json",
    "--quick",
    "--summary",
    "--github",
    "--check-determinism",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A mistyped flag must not silently fall back to a default: CI's
    // determinism gate would pass without checking what it claims to.
    if let Some(bad) = args.iter().find(|a| {
        a.starts_with("--") && !FLAGS.contains(&a.as_str()) && !a.starts_with("--expect-mode=")
    }) {
        eprintln!(
            "unknown flag {bad}; accepted: {} --expect-mode=<mode>",
            FLAGS.join(" ")
        );
        std::process::exit(2);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let arg = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());
    let (summary, check) = (flag("--summary"), flag("--check-determinism"));
    if summary || check {
        let suites: Vec<&suite::Suite> = match suite::find(&arg) {
            Some(s) => vec![s],
            None if arg == "all" => SUITES.iter().collect(),
            None => {
                eprintln!(
                    "--summary/--check-determinism apply to the hotpath, scenarios, faults, \
                     and rebalance reports (or `all` for every suite at once)"
                );
                std::process::exit(2);
            }
        };
        let expect = args.iter().find_map(|a| a.strip_prefix("--expect-mode="));
        // `all` aggregates: every suite is read and checked, every
        // failure reported, and the exit code reflects the union — a
        // drift in one suite must not mask a drift in another.
        let mut failures: Vec<String> = Vec::new();
        for suite in suites {
            let path = suite.path();
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
            if summary {
                let digest = if flag("--github") {
                    suite.github_summary(&text)
                } else {
                    suite.summary(&text)
                };
                match digest {
                    Ok(out) => print!("{out}"),
                    Err(e) => {
                        eprintln!("cannot summarize {}: {e}", path.display());
                        std::process::exit(2);
                    }
                }
            }
            if check {
                match suite.check_determinism(&text, expect) {
                    Ok(msg) => println!("determinism ok [{}]: {msg}", suite.name),
                    Err(e) => failures.push(e),
                }
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("determinism check FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    if let Some(suite) = suite::find(&arg) {
        let quick = flag("--quick");
        let out = if flag("--json") {
            suite
                .write(quick)
                .unwrap_or_else(|e| panic!("writing {} failed: {e}", suite.path().display()))
        } else {
            suite.report(quick).render()
        };
        println!("{out}");
        return;
    }
    let figures: Vec<_> = FIGURES
        .iter()
        .filter(|(name, _)| arg == "all" || *name == arg)
        .collect();
    if figures.is_empty() {
        eprintln!("unknown report: {arg}");
        std::process::exit(2);
    }
    for (_, print) in figures {
        print();
        println!();
    }
}
