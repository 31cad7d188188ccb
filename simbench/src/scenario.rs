//! `scenario_burst`: the `ramp_then_burst` scenario (open loop, 1.2M
//! logical clients, about 21.8k live sessions at the spike) through
//! `CohetSystem::run_scenario` on a 4-way 4 KiB interleave. The only
//! workload where the scenario executor, the session slab and the
//! topology builder do real work.

use crate::gen::Rng;
use crate::trace::Tracer;
use crate::{layers, Rep, Size, Unit};
use cohet::{CohetSystem, TopologySpec};
use simcxl_coherence::Topology;
use simcxl_mem::PhysAddr;
use simcxl_workloads::kvstore::slot_addr;
use simcxl_workloads::scenario::{ramp_then_burst, ScenarioSpec};
use std::time::Instant;

const HOMES: usize = 4;
const STRIDE: u64 = 4096;

/// The scenario workload.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    clients: u64,
}

impl Scenario {
    /// `scenario_burst` at `size`.
    pub fn new(size: Size) -> Self {
        Scenario {
            clients: match size {
                Size::Full => 1_200_000,
                Size::Tiny => 3_000,
            },
        }
    }
}

impl Unit for Scenario {
    type Input = (CohetSystem, ScenarioSpec, f64);

    fn why(&self) -> &'static str {
        "open-loop ramp then burst: scenario executor, session slab and topology builder at work"
    }

    fn setup(&self, seed: u64) -> Self::Input {
        let spec = ramp_then_burst(self.clients, seed);
        let t = Instant::now();
        let sys = CohetSystem::builder()
            .topology(TopologySpec::Interleaved {
                homes: HOMES,
                stride: STRIDE,
            })
            .build();
        (sys, spec, t.elapsed().as_secs_f64())
    }

    fn run(&self, (sys, spec, build_s): Self::Input, tr: &mut Tracer) -> Rep {
        let start = Instant::now();
        let root = tr.begin("bench.run");
        let out = tr.span("workloads.scenario", || sys.run_scenario(&spec));
        tr.end(root);
        let run_s = start.elapsed().as_secs_f64();
        let unfinished = spec.clients.saturating_sub(out.completed + out.capped);
        let mut counters = vec![
            (
                "coherence.events_per_request",
                out.events as f64 / out.accesses.max(1) as f64,
            ),
            ("workloads.peak_live", out.peak_live as f64),
            ("workloads.capped", out.capped as f64),
        ];
        for p in &out.phases {
            for (suffix, v) in [("p50", p.p50_ns), ("p99", p.p99_ns)] {
                let name = format!("workloads.{}_{suffix}_ns", p.name);
                if let Some(d) = crate::report::PER_LAYER.iter().find(|d| d.name == name) {
                    counters.push((d.name, v));
                }
            }
        }
        Rep {
            run_s,
            rate_s: run_s,
            build_s,
            attempted: spec.clients,
            failed: out.capped + unfinished,
            digest: out.checksum,
            events: out.events,
            requests: out.accesses,
            sim_us: out.elapsed.as_us_f64(),
            windows_us: vec![run_s * 1e6],
            counters,
            figures: None,
        }
    }

    fn replays(&self, seed: u64, last: &Rep) -> Vec<(&'static str, f64)> {
        // The executor draws its keys internally; replay a uniform key
        // stream of the same length over the same table and time span.
        let spec = ramp_then_burst(self.clients, seed);
        let mut rng = Rng::new(seed);
        let n = last.requests as usize;
        let addrs: Vec<PhysAddr> = (0..n)
            .map(|_| slot_addr(PhysAddr::new(0), rng.below(spec.keys), spec.buckets))
            .collect();
        let span_ps = spec.total_duration().as_ps();
        let ticks: Vec<u64> = (0..n as u64)
            .map(|i| i * (span_ps / n.max(1) as u64))
            .collect();
        let live = last
            .counters
            .iter()
            .find(|c| c.0 == "workloads.peak_live")
            .map_or(1, |c| c.1 as usize);
        let (push, pop) = layers::queue(&ticks, live);
        let (dram_ns, row_hits) = layers::dram(&addrs, &ticks);
        let (os_ns, walk_ns) = layers::os(&addrs);
        vec![
            ("sim.queue_push_ns", push),
            ("sim.queue_pop_ns", pop),
            (
                "coherence.home_for_ns",
                layers::home_for(&Topology::interleaved(HOMES, STRIDE), &addrs),
            ),
            ("mem.dram_access_ns", dram_ns),
            ("mem.dram_row_hit_rate", row_hits),
            ("os.access_ns", os_ns),
            ("os.page_walk_ns", walk_ns),
            ("cxl.atc_translate_ns", layers::atc(&addrs)),
            ("workloads.slab_ns", layers::slab(live, spec.clients)),
        ]
    }
}
