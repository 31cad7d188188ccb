//! End-to-end and per-layer benchmark of the SimCXL simulator.
//!
//! The benchmark makes every input from a seed before the timed section,
//! calls only the simulator's public APIs, checks every output, and
//! prints one JSON result line. See `README.md` in this directory for
//! the workloads, the metrics and what each layer metric should move.
//!
//! Each run repeats one fixed unit of work per workload until the
//! requested number of seconds has passed. Every repetition builds a
//! fresh system, so every modelled cache starts empty.

pub mod fidelity;
pub mod gen;
pub mod hostspeed;
pub mod layers;
pub mod paper;
pub mod report;
pub mod scenario;
pub mod stress;
pub mod trace;

use fidelity::FigureData;
use hostspeed::{Probe, NOMINAL_S};
use report::{median, percentile, tail_q, Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Agg, Tracer};

/// The seed the recorded completion digests belong to.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while tuning the simulator; a claimed gain must
/// also hold on it. Its digests are recorded too.
pub const HELDOUT_SEED: u64 = 7;

/// Repetitions each kind of run makes at least, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;
/// `setup_s` samples per run, at least. An untraced run takes one after
/// every repetition, so the samples span the whole run like the
/// repetitions do, and tops up to this count at the end. Each sample is
/// the mean over a batch of set-ups lasting at least [`SETUP_BATCH`], so
/// set-ups of a few µs are timed as steadily as ones of a few ms.
const SETUP_SAMPLES: usize = 15;
const SETUP_BATCH: Duration = Duration::from_millis(2);
/// Host-speed probing after each repetition lasts at least this share
/// of the repetition's own time (and at least one probe).
const PROBE_SHARE: f64 = 0.05;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stress op mix in waves of 256 requests over 4 µs.
    WaveMix,
    /// The same op mix issued up front, drained in fixed windows.
    DenseBurst,
    /// `ramp_then_burst` through `CohetSystem::run_scenario`.
    ScenarioBurst,
    /// The programming model (AXPY) and the paper's figures.
    PaperApps,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WaveMix,
        Workload::DenseBurst,
        Workload::ScenarioBurst,
        Workload::PaperApps,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WaveMix => "wave_mix",
            Workload::DenseBurst => "dense_burst",
            Workload::ScenarioBurst => "scenario_burst",
            Workload::PaperApps => "paper_apps",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: `Full` is what the benchmark measures; `Tiny` is a
/// seconds-long smoke size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// Smoke-test size.
    Tiny,
}

/// Completion digests recorded at `Size::Full` for the default and the
/// held-out seed. A repetition whose digest differs counts all of its
/// operations as failed.
const RECORDED: &[(Workload, u64, u64)] = &[
    (Workload::WaveMix, DEFAULT_SEED, 0x310b_a509_35c9_b2b9),
    (Workload::WaveMix, HELDOUT_SEED, 0x2e1f_0965_6667_c358),
    (Workload::DenseBurst, DEFAULT_SEED, 0x03c9_15c6_e9c1_3a43),
    (Workload::DenseBurst, HELDOUT_SEED, 0x2c95_e24b_94b7_b25e),
    (Workload::ScenarioBurst, DEFAULT_SEED, 0x3ae7_4d31_9956_9c1f),
    (Workload::ScenarioBurst, HELDOUT_SEED, 0x1ffe_42dc_8627_4778),
    (Workload::PaperApps, DEFAULT_SEED, 0xc324_1a5d_3d15_ca33),
    (Workload::PaperApps, HELDOUT_SEED, 0x4d8f_4f36_f654_fd0c),
];

/// The recorded digest for `(workload, seed)` at `size`, if any.
pub fn recorded_digest(workload: Workload, seed: u64, size: Size) -> Option<u64> {
    if size != Size::Full {
        return None;
    }
    RECORDED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep repeating the unit of work.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
    /// Digest every repetition must reproduce; when `None`, every
    /// repetition must reproduce the first one's.
    pub expected_digest: Option<u64>,
}

impl Config {
    /// Settings with the recorded digest for `(workload, seed, size)`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool, size: Size) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            size,
            expected_digest: recorded_digest(workload, seed, size),
        }
    }
}

/// What one repetition of a workload's unit of work produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds of the timed section.
    pub run_s: f64,
    /// Host seconds the event and request rates are taken over.
    pub rate_s: f64,
    /// Host seconds spent building the system or engine in set-up.
    pub build_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check inside the workload.
    pub failed: u64,
    /// Order-sensitive digest of the completion stream.
    pub digest: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Memory requests completed.
    pub requests: u64,
    /// Simulated µs advanced.
    pub sim_us: f64,
    /// Host µs per simulation window.
    pub windows_us: Vec<f64>,
    /// Simulated statistics and layer counters (identical on every
    /// repetition of one seed).
    pub counters: Vec<(&'static str, f64)>,
    /// Figure results, when the unit of work runs the figures.
    pub figures: Option<FigureData>,
}

/// A workload's unit of work.
pub trait Unit {
    /// Generated inputs plus the built system.
    type Input;
    /// One-line reason this workload is in the benchmark.
    fn why(&self) -> &'static str;
    /// Makes the inputs from `seed` and builds the system (untimed
    /// except as `setup_s`).
    fn setup(&self, seed: u64) -> Self::Input;
    /// Runs the timed section and checks its outputs.
    fn run(&self, input: Self::Input, tr: &mut Tracer) -> Rep;
    /// Replays this workload's inputs through isolated layer APIs.
    fn replays(&self, seed: u64, last: &Rep) -> Vec<(&'static str, f64)>;
}

/// Folds one value into an order-sensitive digest.
pub fn fold(acc: u64, v: u64) -> u64 {
    acc.rotate_left(7).wrapping_add(v)
}

/// Host peak resident set, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Host hardware threads.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `cfg` and returns its report.
pub fn run(cfg: &Config) -> Report {
    match cfg.workload {
        Workload::WaveMix => measure(&stress::Stress::wave(cfg.size), cfg),
        Workload::DenseBurst => measure(&stress::Stress::dense(cfg.size), cfg),
        Workload::ScenarioBurst => measure(&scenario::Scenario::new(cfg.size), cfg),
        Workload::PaperApps => measure(&paper::Paper::new(cfg.size), cfg),
    }
}

fn fingerprint(rep: &Rep) -> (u64, u64, u64, u64, Vec<(&'static str, u64)>) {
    (
        rep.digest,
        rep.events,
        rep.requests,
        rep.sim_us.to_bits(),
        rep.counters
            .iter()
            .map(|&(n, v)| (n, v.to_bits()))
            .collect(),
    )
}

/// Host seconds per set-up, averaged over a batch of at least
/// [`SETUP_BATCH`].
fn setup_sample<U: Unit>(unit: &U, seed: u64) -> f64 {
    let mut built = Vec::new();
    let t = Instant::now();
    while built.is_empty() || t.elapsed() < SETUP_BATCH {
        built.push(unit.setup(seed));
    }
    t.elapsed().as_secs_f64() / built.len() as f64
}

fn measure<U: Unit>(unit: &U, cfg: &Config) -> Report {
    let started = Instant::now();
    let mut peak_rss = 0.0;
    let mut plain: Vec<Rep> = Vec::new();
    // Host-speed probe, allocated after the warm-up, its median time
    // after every repetition, and the scale of each untraced repetition
    // (see `hostspeed`).
    let mut probe: Option<Probe> = None;
    let mut probe_s: Vec<f64> = Vec::new();
    let mut scale: Vec<f64> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut aggs: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let mut coverage = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut reference = None;
    let mut expected = cfg.expected_digest;
    loop {
        let warmup = probe.is_none();
        let traced_rep = !warmup && cfg.trace && traced.len() < plain.len();
        let input = unit.setup(cfg.seed);
        let mut tr = Tracer::new(traced_rep);
        let rep = unit.run(input, &mut tr);
        attempted += rep.attempted;
        failed += rep.failed;
        // A digest that differs from the recorded one, or simulated
        // statistics that differ between repetitions of one seed, fail
        // every operation of the repetition.
        let fp = fingerprint(&rep);
        let want = *expected.get_or_insert(rep.digest);
        let same = reference.get_or_insert_with(|| fp.clone()) == &fp;
        if rep.digest != want || !same {
            failed += rep.attempted - rep.failed;
        }
        if warmup {
            // The first repetition warms the host up: it is checked but
            // not timed. The simulator's own peak memory (one set-up plus
            // one repetition) is read after it, before the probe's array
            // and the benchmark's samples exist.
            assert!(tr.spans().is_empty(), "an untraced run recorded spans");
            peak_rss = peak_rss_mb();
            let mut p = Probe::new();
            probe_s.push(p.sample(PROBE_SHARE * rep.run_s));
            probe = Some(p);
            continue;
        }
        let before = probe_s[probe_s.len() - 1];
        let after = probe
            .as_mut()
            .expect("probe allocated after the warm-up")
            .sample(PROBE_SHARE * rep.run_s);
        probe_s.push(after);
        if traced_rep {
            for (name, a) in tr.aggregate() {
                let e = aggs.entry(name).or_default();
                e.count += a.count;
                e.total_ns += a.total_ns;
            }
            coverage.push(tr.coverage("bench.run"));
            traced.push(rep);
        } else {
            assert!(tr.spans().is_empty(), "an untraced run recorded spans");
            plain.push(rep);
            scale.push(NOMINAL_S / (before * after).sqrt());
            if !cfg.trace {
                setup_s.push(setup_sample(unit, cfg.seed) * scale[scale.len() - 1]);
            }
        }
        let enough = plain.len() >= MIN_REPS && (!cfg.trace || traced.len() >= MIN_REPS);
        if enough && started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let last = plain.last().expect("at least one repetition");
    let mut windows: Vec<f64> = plain
        .iter()
        .zip(&scale)
        .flat_map(|(r, k)| r.windows_us.iter().map(move |w| w * k))
        .collect();
    // Sorted once, so each percentile below sorts a sorted copy.
    windows.sort_by(f64::total_cmp);
    let q = tail_q(windows.len());
    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let scaled_run_s: Vec<f64> = run_s.iter().zip(&scale).map(|(t, k)| t * k).collect();
    let per_s = |f: fn(&Rep) -> f64| {
        let v: Vec<f64> = plain
            .iter()
            .zip(&scale)
            .map(|(r, k)| f(r) / (r.rate_s * k))
            .collect();
        median(&v)
    };
    let figures = last.figures.clone().unwrap_or_else(FigureData::measure);
    let fid = figures.fidelity();

    let mut report = Report {
        notes: vec![
            format!("workload {} — {}", cfg.workload.name(), unit.why()),
            format!(
                "seed {} (default {DEFAULT_SEED}, held-out {HELDOUT_SEED}); digest {:#018x}, {}",
                cfg.seed,
                last.digest,
                match cfg.expected_digest {
                    Some(_) => "checked against the recorded digest",
                    None => "no recorded digest for this seed: checked across repetitions",
                }
            ),
            format!(
                "hw_threads {}; build profile {}; one thread, no parallel executor",
                hw_threads(),
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
            ),
            "modelled caches start empty in every repetition (cold start); \
             the first repetition only warms the host up and is checked, not timed"
                .into(),
            format!(
                "{} untraced + {} traced timed repetitions after the warm-up, {} windows \
                 (tail reported as p{q})",
                plain.len(),
                traced.len(),
                windows.len()
            ),
            format!(
                "scaled window_us p90 {:.3} p95 {:.3} p98 {:.3} p99 {:.3}",
                percentile(&windows, 90.0),
                percentile(&windows, 95.0),
                percentile(&windows, 98.0),
                percentile(&windows, 99.0)
            ),
            format!(
                "unscaled run_s per repetition: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
                percentile(&run_s, 0.0),
                percentile(&run_s, 25.0),
                median(&run_s),
                percentile(&run_s, 75.0),
                percentile(&run_s, 100.0)
            ),
            format!(
                "host speed: probe min {:.3} median {:.3} max {:.3} ms (nominal {:.3} ms); \
                 end-to-end host times are scaled by nominal / probe around each repetition \
                 (scale median {:.4}, scaled run_s median {:.6})",
                percentile(&probe_s, 0.0) * 1e3,
                median(&probe_s) * 1e3,
                percentile(&probe_s, 100.0) * 1e3,
                NOMINAL_S * 1e3,
                median(&scale),
                median(&scaled_run_s)
            ),
            format!(
                "headlines: bandwidth {:.2}x (paper {}x), latency reduction {:.3} (paper {})",
                fid.bw_headline,
                cohet::profile::reference::HEADLINE_BW_RATIO,
                fid.lat_headline,
                cohet::profile::reference::HEADLINE_LATENCY_REDUCTION
            ),
        ],
        attempted,
        failed,
        metrics: Vec::new(),
        exercised: Vec::new(),
    };

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !cfg.trace {
        let k = median(&scale);
        while setup_s.len() < SETUP_SAMPLES {
            setup_s.push(setup_sample(unit, cfg.seed) * k);
        }
        v.insert("setup_s", median(&setup_s));
        v.insert("run_s", median(&scaled_run_s));
        v.insert("events_per_s", per_s(|r| r.events as f64));
        v.insert("requests_per_s", per_s(|r| r.requests as f64));
        v.insert("window_us_p50", median(&windows));
        v.insert("window_us_p95", percentile(&windows, q));
        v.insert("sim_us_per_s", per_s(|r| r.sim_us));
        v.insert("peak_rss_mb", peak_rss);
        v.insert("calib_mape_pct", fid.calib_mape_pct);
        v.insert("heldout_mape_pct", fid.heldout_mape_pct);
        v.insert("fidelity_max_err_pct", fid.max_err_pct);
        report.set_metrics(END_TO_END, &v);
        return report;
    }

    let last = traced.last().expect("at least one traced repetition");
    let reps = traced.len() as f64;
    v.extend(last.counters.iter().copied());
    v.insert("sim.events", last.events as f64);
    v.insert(
        "coherence.build_s",
        median(&traced.iter().map(|r| r.build_s).collect::<Vec<_>>()),
    );
    let events = last.events as f64 * reps;
    for (name, a) in &aggs {
        let mean_s = a.mean_ns() / 1e9;
        match *name {
            "coherence.issue" => {
                v.insert("coherence.issue_ns", a.mean_ns());
            }
            "coherence.run" => {
                v.insert("coherence.run_ns_per_event", a.total_ns as f64 / events);
                v.insert("coherence.events_per_run_call", events / a.count as f64);
            }
            "coherence.verify" => {
                v.insert("coherence.verify_s", mean_s);
            }
            "workloads.scenario" => {
                v.insert("workloads.scenario_s", mean_s);
                v.insert(
                    "workloads.ns_per_access",
                    a.total_ns as f64 / (last.requests as f64 * reps),
                );
            }
            "core.access" => {
                v.insert("core.access_ns", a.mean_ns());
            }
            "core.demote" => {
                v.insert("core.demote_ns", a.mean_ns());
            }
            "core.kernel_launch" | "pcie.dma_sweep" | "nic.rao" | "nic.rpc" | "core.fig12"
            | "core.calibration" => {
                let key = PER_LAYER
                    .iter()
                    .find(|d| d.name.strip_suffix("_s") == Some(name))
                    .expect("span has a per-layer metric")
                    .name;
                v.insert(key, mean_s);
            }
            _ => {}
        }
    }
    v.extend(unit.replays(cfg.seed, last));
    v.insert("trace.span_coverage", median(&coverage));
    let traced_s: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    v.insert("trace.overhead_s", median(&traced_s) - median(&run_s));
    v.insert("host.hw_threads", hw_threads() as f64);
    report.set_metrics(PER_LAYER, &v);
    report
}
