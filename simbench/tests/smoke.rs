//! The benchmark's own checks, at smoke size: every workload prints every
//! named metric with its unit, untraced and traced; a wrong recorded
//! digest is reported as failed operations; `BENCHMARK.json` names the
//! same workloads and metrics as the code.

use simbench::report::{MetricDef, END_TO_END, PER_LAYER};
use simbench::{run, Config, Size, Workload, DEFAULT_SEED};

fn smoke(workload: Workload, trace: bool) -> simbench::report::Report {
    run(&Config::new(workload, DEFAULT_SEED, 0.0, trace, Size::Tiny))
}

fn assert_prints(defs: &[MetricDef], report: &simbench::report::Report, workload: Workload) {
    let text = report.text();
    let json = report.json();
    for d in defs {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(d.name))
            .unwrap_or_else(|| panic!("{}: {} not printed", workload.name(), d.name));
        assert!(
            line.split_whitespace().nth(2) == Some(d.unit),
            "{}: {} printed without its unit {}: {line}",
            workload.name(),
            d.name,
            d.unit
        );
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", d.name))
                && json.contains(&format!("\"unit\": \"{}\"", d.unit)),
            "{}: {} missing from the JSON line",
            workload.name(),
            d.name
        );
    }
    assert!(text.contains("error_rate"), "error_rate not printed");
}

#[test]
fn every_workload_prints_every_metric_at_smoke_size() {
    for w in Workload::ALL {
        let plain = smoke(w, false);
        assert!(plain.correct(), "{}: {}", w.name(), plain.text());
        assert_eq!(plain.error_rate(), 0.0);
        assert_eq!(plain.metrics.len(), END_TO_END.len());
        assert_prints(END_TO_END, &plain, w);
        for (d, v) in &plain.metrics {
            assert!(
                *v > 0.0,
                "{}: end-to-end metric {} is {v}",
                w.name(),
                d.name
            );
        }

        let traced = smoke(w, true);
        assert!(traced.correct(), "{}: {}", w.name(), traced.text());
        assert_eq!(traced.metrics.len(), PER_LAYER.len());
        assert_prints(PER_LAYER, &traced, w);
        let coverage = traced
            .metrics
            .iter()
            .find(|(d, _)| d.name == "trace.span_coverage")
            .expect("coverage reported")
            .1;
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name()
        );
    }
}

#[test]
fn wrong_recorded_digest_counts_as_failed_ops() {
    let mut cfg = Config::new(Workload::WaveMix, DEFAULT_SEED, 0.0, false, Size::Tiny);
    cfg.expected_digest = Some(0xdead_beef);
    let r = run(&cfg);
    assert!(!r.correct());
    assert!(r.attempted > 0);
    assert_eq!(
        r.failed, r.attempted,
        "every op of a mismatching repetition fails"
    );
    assert!(r.json().starts_with("{\"correct\": false"));
    assert!((r.error_rate() - 1.0).abs() < 1e-12);
}

#[test]
fn recorded_digests_apply_only_to_full_size() {
    assert!(simbench::recorded_digest(Workload::PaperApps, DEFAULT_SEED, Size::Full).is_some());
    assert!(
        simbench::recorded_digest(Workload::PaperApps, simbench::HELDOUT_SEED, Size::Full)
            .is_some()
    );
    assert!(simbench::recorded_digest(Workload::PaperApps, DEFAULT_SEED, Size::Tiny).is_none());
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                d.name, d.unit
            )),
            "{} ({}) not listed in BENCHMARK.json",
            d.name,
            d.unit
        );
    }
    let listed = json.matches("\"unit\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists extra metrics"
    );
}
