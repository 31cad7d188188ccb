//! `wave_mix` and `dense_burst`: the stress op mix on a four-home line
//! interleave, driven two ways.
//!
//! * Waves: 256 requests spread over 4 µs, then one `run_until` to the
//!   end of the window. About 3 MSHRs stay live; the event loop and the
//!   home agents' fast path do most of the work.
//! * Dense: every request issued up front about 1 ns apart, then drained
//!   by `run_until` in fixed simulated windows. About 48 MSHRs stay live,
//!   with busy hits, replay chains and a deep event queue.

use crate::gen::{Op, STRESS_MIX};
use crate::trace::Tracer;
use crate::{fold, layers, Rep, Size, Unit};
use sim_core::Tick;
use simcxl_coherence::{AgentId, CacheConfig, Completion, ProtocolEngine, Topology};
use simcxl_mem::{AddrRange, DramConfig, DramKind, MemoryInterface, PhysAddr};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Requests per wave.
const WAVE: usize = 256;
/// Simulated length of one wave, ps.
const WAVE_PS: u64 = 4_000_000;
/// Simulated length of one dense drain window, ps. Short enough that
/// the one slow window per repetition (the first drain after 200k
/// upfront issues) stays well under 1% of windows, so the tail is not
/// bimodal.
const DENSE_WINDOW_PS: u64 = 500_000;
/// Home agents the directory is interleaved over.
const HOMES: usize = 4;

/// One of the two stress workloads.
#[derive(Debug, Clone, Copy)]
pub struct Stress {
    dense: bool,
    requests: usize,
}

impl Stress {
    /// `wave_mix`.
    pub fn wave(size: Size) -> Self {
        Stress {
            dense: false,
            requests: requests(size),
        }
    }

    /// `dense_burst`.
    pub fn dense(size: Size) -> Self {
        Stress {
            dense: true,
            requests: requests(size),
        }
    }

    fn ops(&self, seed: u64) -> Vec<Op> {
        if self.dense {
            STRESS_MIX.upfront(seed, self.requests)
        } else {
            STRESS_MIX.waves(seed, self.requests, WAVE_PS)
        }
    }

    /// Absolute issue tick of every op, ps (waves start every 4 µs when
    /// the engine keeps up, which is the replay's approximation).
    fn ticks(&self, ops: &[Op]) -> Vec<u64> {
        ops.iter()
            .enumerate()
            .map(|(i, o)| {
                if self.dense {
                    o.at_ps
                } else {
                    (i / WAVE) as u64 * WAVE_PS + o.at_ps
                }
            })
            .collect()
    }
}

fn requests(size: Size) -> usize {
    match size {
        Size::Full => 200_000,
        Size::Tiny => 2_000,
    }
}

/// Four 1 GiB DDR5 NUMA ranges with distinct extra latencies, a 4-home
/// line interleave, and eight deliberately small caches so capacity
/// evictions keep the writeback tables busy.
fn build_engine() -> (ProtocolEngine, Vec<AgentId>) {
    let mut mi = MemoryInterface::new();
    for node in 0..4u64 {
        mi.add_memory(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            DramConfig::preset(DramKind::Ddr5_4400),
            Tick::ZERO,
        );
    }
    let mut eng = ProtocolEngine::builder()
        .memory(mi)
        .topology(Topology::line_interleaved(HOMES))
        .build();
    for node in 1..4u64 {
        eng.add_numa_extra(
            AddrRange::new(PhysAddr::new(node << 30), 1 << 30),
            Tick::from_ns(40 * node),
        );
    }
    let agents = (0..STRESS_MIX.caches)
        .map(|i| {
            eng.add_cache(if i % 2 == 0 {
                CacheConfig {
                    size_bytes: 16 * 1024,
                    ways: 8,
                    ..CacheConfig::cpu_l1()
                }
            } else {
                CacheConfig {
                    size_bytes: 32 * 1024,
                    ..CacheConfig::hmc_128k()
                }
            })
        })
        .collect();
    (eng, agents)
}

/// Generated ops plus the freshly built engine.
pub struct StressInput {
    ops: Vec<Op>,
    eng: ProtocolEngine,
    agents: Vec<AgentId>,
    build_s: f64,
}

struct Drain {
    completions: u64,
    digest: u64,
    windows_us: Vec<f64>,
}

impl Drain {
    fn absorb(&mut self, comps: Vec<Completion>) {
        for c in comps {
            self.completions += 1;
            self.digest = fold(self.digest, c.value ^ c.done.as_ps() ^ c.addr.raw());
        }
    }

    /// One fixed-length simulation window: `run_until(t)`, timed.
    fn window(&mut self, eng: &mut ProtocolEngine, tr: &mut Tracer, t: Tick) {
        let w = Instant::now();
        let comps = tr.span("coherence.run", || eng.run_until(t));
        self.windows_us.push(w.elapsed().as_secs_f64() * 1e6);
        self.absorb(comps);
    }
}

impl Unit for Stress {
    type Input = StressInput;

    fn why(&self) -> &'static str {
        if self.dense {
            "all requests up front: ~48 live MSHRs, busy hits, replay chains, deep event queue"
        } else {
            "waves of 256 requests: ~3 live MSHRs, event loop and home fast path dominate"
        }
    }

    fn setup(&self, seed: u64) -> StressInput {
        let ops = self.ops(seed);
        let t = Instant::now();
        let (eng, agents) = build_engine();
        StressInput {
            ops,
            eng,
            agents,
            build_s: t.elapsed().as_secs_f64(),
        }
    }

    fn run(&self, input: StressInput, tr: &mut Tracer) -> Rep {
        let StressInput {
            ops,
            mut eng,
            agents,
            build_s,
        } = input;
        let n = ops.len() as u64;
        let mut d = Drain {
            completions: 0,
            digest: 0,
            windows_us: Vec::new(),
        };
        let start = Instant::now();
        let root = tr.begin("bench.run");
        if self.dense {
            for o in &ops {
                let at = Tick::from_ps(o.at_ps);
                tr.span("coherence.issue", || {
                    eng.issue(agents[o.agent], o.op, o.addr, at)
                });
            }
            let mut t = Tick::from_ps(DENSE_WINDOW_PS);
            while d.completions < n && !eng.is_quiescent() {
                d.window(&mut eng, tr, t);
                t += Tick::from_ps(DENSE_WINDOW_PS);
            }
        } else {
            for wave in ops.chunks(WAVE) {
                let base = eng.now();
                for o in wave {
                    let at = base + Tick::from_ps(o.at_ps);
                    tr.span("coherence.issue", || {
                        eng.issue(agents[o.agent], o.op, o.addr, at)
                    });
                }
                d.window(&mut eng, tr, base + Tick::from_ps(WAVE_PS));
            }
        }
        let tail = tr.span("coherence.run", || eng.run_to_quiescence());
        d.absorb(tail);
        tr.end(root);
        let run_s = start.elapsed().as_secs_f64();

        let verify = tr.begin("coherence.verify");
        let invariants_ok = catch_unwind(AssertUnwindSafe(|| eng.verify_invariants())).is_ok();
        tr.end(verify);
        let failed = n.saturating_sub(d.completions) + u64::from(!invariants_ok);

        let p = eng.profile();
        let home = eng.home_stats_view().total();
        let (mut hits, mut misses) = (0u64, 0u64);
        for &a in &agents {
            let s = eng.cache_stats(a);
            hits += s.hits;
            misses += s.misses;
        }
        let hr = home.requests.max(1) as f64;
        Rep {
            run_s,
            rate_s: run_s,
            build_s,
            attempted: n,
            failed,
            digest: d.digest,
            events: eng.events_dispatched(),
            requests: d.completions,
            sim_us: eng.now().as_us_f64(),
            windows_us: d.windows_us,
            counters: vec![
                (
                    "coherence.events_per_request",
                    eng.events_dispatched() as f64 / n as f64,
                ),
                ("coherence.fast_path_rate", p.fast_path_rate()),
                ("coherence.busy_hit_rate", p.busy_hit_rate()),
                ("coherence.pending_depth_mean", p.pending_depth.mean()),
                ("coherence.replay_chain_mean", p.replay_chain.mean()),
                ("coherence.snoop_fanout_mean", p.snoop_fanout.mean()),
                ("coherence.mshr_occupancy_mean", p.mshr_occupancy.mean()),
                ("coherence.llc_hit_rate", home.llc_hits as f64 / hr),
                ("coherence.mem_fetch_rate", home.mem_fetches as f64 / hr),
                (
                    "coherence.snoops_per_request",
                    home.snoops_sent as f64 / n as f64,
                ),
                (
                    "coherence.cache_hit_rate",
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
            ],
            figures: None,
        }
    }

    fn replays(&self, seed: u64, _last: &Rep) -> Vec<(&'static str, f64)> {
        let ops = self.ops(seed);
        let addrs: Vec<PhysAddr> = ops.iter().map(|o| o.addr).collect();
        let ticks = self.ticks(&ops);
        let depth = if self.dense { ops.len() } else { WAVE };
        let (push, pop) = layers::queue(&ticks, depth);
        let (dram_ns, row_hits) = layers::dram(&addrs, &ticks);
        let (os_ns, walk_ns) = layers::os(&addrs);
        vec![
            ("sim.queue_push_ns", push),
            ("sim.queue_pop_ns", pop),
            (
                "coherence.home_for_ns",
                layers::home_for(&Topology::line_interleaved(HOMES), &addrs),
            ),
            ("mem.dram_access_ns", dram_ns),
            ("mem.dram_row_hit_rate", row_hits),
            ("os.access_ns", os_ns),
            ("os.page_walk_ns", walk_ns),
            ("cxl.atc_translate_ns", layers::atc(&addrs)),
        ]
    }
}
