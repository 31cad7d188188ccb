//! End-to-end checks of the `simcxl-report` command line: flags outside
//! the accepted set are rejected, and the ablation tables print.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simcxl-report"))
        .args(args)
        .output()
        .expect("simcxl-report runs")
}

#[test]
fn unknown_flags_exit_2_and_list_the_accepted_ones() {
    for args in [
        &["all", "--check-determinism", "--expect_mode=quick"][..],
        &["table1", "--bogus"][..],
    ] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--check-determinism --expect-mode=<mode>"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn unknown_report_exits_2() {
    assert_eq!(report(&["fig99"]).status.code(), Some(2));
}

#[test]
fn ablations_print_their_tables() {
    for (name, header) in [
        ("ablation_hierarchy", "== Ablation: hierarchical coherence"),
        ("ablation_prefetch", "== Ablation: RPC prefetcher gain"),
        ("ext_offload", "== Extension: KV-store / graph offload"),
    ] {
        let out = report(&[name]);
        assert!(out.status.success(), "{name}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(header), "{name}: {stdout}");
    }
}
