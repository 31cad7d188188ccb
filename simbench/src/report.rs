//! Metric names, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("events_per_s", "1/s"),
    m("requests_per_s", "1/s"),
    m("window_us_p50", "us"),
    m("window_us_p95", "us"),
    m("sim_us_per_s", "us/s"),
    m("peak_rss_mb", "MB"),
    m("calib_mape_pct", "%"),
    m("heldout_mape_pct", "%"),
    m("fidelity_max_err_pct", "%"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). A metric
/// whose layer the workload does not reach reads 0 and is marked
/// "not exercised" in the text output.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.queue_push_ns", "ns"),
    m("sim.queue_pop_ns", "ns"),
    m("sim.events", "count"),
    m("coherence.issue_ns", "ns"),
    m("coherence.run_ns_per_event", "ns"),
    m("coherence.events_per_run_call", "count"),
    m("coherence.events_per_request", "count"),
    m("coherence.fast_path_rate", "ratio"),
    m("coherence.busy_hit_rate", "ratio"),
    m("coherence.pending_depth_mean", "count"),
    m("coherence.replay_chain_mean", "count"),
    m("coherence.snoop_fanout_mean", "count"),
    m("coherence.mshr_occupancy_mean", "count"),
    m("coherence.llc_hit_rate", "ratio"),
    m("coherence.mem_fetch_rate", "ratio"),
    m("coherence.snoops_per_request", "count"),
    m("coherence.cache_hit_rate", "ratio"),
    m("coherence.home_for_ns", "ns"),
    m("coherence.build_s", "s"),
    m("coherence.verify_s", "s"),
    m("mem.dram_access_ns", "ns"),
    m("mem.dram_row_hit_rate", "ratio"),
    m("workloads.scenario_s", "s"),
    m("workloads.ns_per_access", "ns"),
    m("workloads.peak_live", "count"),
    m("workloads.capped", "count"),
    m("workloads.ramp_p50_ns", "ns"),
    m("workloads.ramp_p99_ns", "ns"),
    m("workloads.steady_p50_ns", "ns"),
    m("workloads.steady_p99_ns", "ns"),
    m("workloads.burst_p50_ns", "ns"),
    m("workloads.burst_p99_ns", "ns"),
    m("workloads.slab_ns", "ns"),
    m("core.access_ns", "ns"),
    m("core.kernel_launch_s", "s"),
    m("core.demote_ns", "ns"),
    m("os.minor_faults", "count"),
    m("cxl.atc_hit_rate", "ratio"),
    m("os.access_ns", "ns"),
    m("os.page_walk_ns", "ns"),
    m("cxl.atc_translate_ns", "ns"),
    m("pcie.dma_sweep_s", "s"),
    m("nic.rao_s", "s"),
    m("nic.rpc_s", "s"),
    m("core.fig12_s", "s"),
    m("core.calibration_s", "s"),
    m("proto.encode_ns", "ns"),
    m("proto.decode_ns", "ns"),
    m("trace.span_coverage", "ratio"),
    m("trace.overhead_s", "s"),
    m("host.hw_threads", "count"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `q` (0..=100) of `v` (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail percentile reported as `window_us_p95`: 95 when at least ten
/// samples lie beyond it, otherwise the highest percentile that still
/// has ten samples beyond it, and the median when there are too few
/// samples for a tail above it. The p99 of host windows is set by the
/// shared host's millisecond stalls and moved by 0.18 (quartile spread
/// over median) between runs of one build; the p95 moved by 0.07.
pub fn tail_q(n: usize) -> f64 {
    if n >= 200 {
        95.0
    } else if n > 20 {
        (100.0 * (n - 10) as f64 / n as f64).floor()
    } else {
        50.0
    }
}

/// Everything one benchmark invocation prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Header lines (workload, seed, host, notes).
    pub notes: Vec<String>,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed (see the README for what counts).
    pub failed: u64,
    /// Reported metrics in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Per-layer metric names this workload actually measured.
    pub exercised: Vec<&'static str>,
}

impl Report {
    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Fills `defs` from `values`; metrics absent from `values` read 0.
    pub fn set_metrics(&mut self, defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) {
        self.metrics = defs
            .iter()
            .map(|d| (*d, values.get(d.name).copied().unwrap_or(0.0)))
            .collect();
        self.exercised = defs
            .iter()
            .filter(|d| values.contains_key(d.name))
            .map(|d| d.name)
            .collect();
    }

    /// Human-readable lines: notes, every metric with its unit, checks.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for (d, v) in &self.metrics {
            let tag = if self.exercised.contains(&d.name) {
                ""
            } else {
                "  (not exercised by this workload)"
            };
            let _ = writeln!(out, "{:32} {:>16.6} {}{tag}", d.name, v, d.unit);
        }
        let _ = writeln!(
            out,
            "{:32} {:>16.6} ratio  (failed {} of {} attempted ops)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The machine-readable last line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(5000), 95.0);
        assert_eq!(tail_q(200), 95.0);
        assert_eq!(tail_q(100), 90.0);
        assert_eq!(tail_q(8), 50.0);
        assert_eq!(tail_q(11), 50.0);
        for n in 1..5000 {
            let beyond = n as f64 * (1.0 - tail_q(n) / 100.0);
            assert!(n <= 20 || beyond >= 10.0 - 1e-9, "n={n}");
            assert!(tail_q(n) >= 50.0, "n={n}: the tail is below the median");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
