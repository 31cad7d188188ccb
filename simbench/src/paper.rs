//! `paper_apps`: the paper's programming model and figures.
//!
//! One unit of work: CPU `malloc` and initialisation of X and Y, an XPU
//! AXPY kernel through ATS, CPU readback (checked bit-exact against
//! `axpy::golden`), `demote_to_expander` of Y's pages, then Figs.
//! 12/13/15/16/17/18 at fixed trial counts. It is the only workload that
//! reaches cohet-os, cxl, pcie, nic and proto, and the only one that
//! runs the engine at queue depth 1. Fidelity is measured on its figures.

use crate::fidelity::{self, FigureData};
use crate::gen::Rng;
use crate::trace::Tracer;
use crate::{fold, layers, Rep, Size, Unit};
use cohet::experiments;
use cohet::{CohetProcess, CohetSystem, DeviceProfile};
use simcxl_coherence::Topology;
use simcxl_mem::PhysAddr;
use simcxl_workloads::axpy;
use std::time::Instant;

/// The paper-apps workload.
#[derive(Debug, Clone, Copy)]
pub struct Paper {
    /// AXPY elements.
    n: u64,
    /// CircusTent ops per Fig. 17 pattern.
    rao_ops: usize,
    /// Messages per Fig. 18 bench (0 = all).
    rpc_limit: usize,
}

impl Paper {
    /// `paper_apps` at `size`.
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => Paper {
                n: 32_768,
                rao_ops: 384,
                rpc_limit: 0,
            },
            Size::Tiny => Paper {
                n: 64,
                rao_ops: 32,
                rpc_limit: 4,
            },
        }
    }
}

/// Generated AXPY inputs plus the spawned process.
pub struct PaperInput {
    proc: CohetProcess,
    a: f64,
    x: Vec<f64>,
    y: Vec<f64>,
    build_s: f64,
}

/// Finite, exactly representable values, so the golden result is a
/// single well-defined rounding per element.
fn value(rng: &mut Rng) -> f64 {
    (rng.below(1 << 20) as f64 - (1 << 19) as f64) / 1024.0
}

const PAGE: u64 = 4096;

impl Unit for Paper {
    type Input = PaperInput;

    fn why(&self) -> &'static str {
        "AXPY through ATS, demotion, Figs. 12-18: cohet-os, cxl, pcie, nic, proto; fidelity"
    }

    fn setup(&self, seed: u64) -> PaperInput {
        let mut rng = Rng::new(seed);
        let a = value(&mut rng);
        let x = (0..self.n).map(|_| value(&mut rng)).collect();
        let y = (0..self.n).map(|_| value(&mut rng)).collect();
        let t = Instant::now();
        let proc = CohetSystem::builder()
            .expander_memory(64 << 20)
            .build()
            .spawn_process();
        PaperInput {
            proc,
            a,
            x,
            y,
            build_s: t.elapsed().as_secs_f64(),
        }
    }

    fn run(&self, input: PaperInput, tr: &mut Tracer) -> Rep {
        let PaperInput {
            mut proc,
            a,
            x,
            y,
            build_s,
        } = input;
        let n = self.n;
        let mut golden = y.clone();
        axpy::golden(a, &x, &mut golden);
        let mut failed = 0u64;
        let mut digest = 0u64;
        let mut windows_us = Vec::with_capacity(3 * n as usize);
        let fpga = DeviceProfile::fpga_400mhz();

        let start = Instant::now();
        let root = tr.begin("bench.run");
        // One CPU access is one simulation window at queue depth 1.
        let mut access = |proc: &mut CohetProcess, tr: &mut Tracer, va, store: Option<u64>| {
            let w = Instant::now();
            let r = tr.span("core.access", || match store {
                Some(v) => proc.write_u64(va, v).map(|()| v),
                None => proc.read_u64(va),
            });
            windows_us.push(w.elapsed().as_secs_f64() * 1e6);
            r
        };
        let (xp, yp) = match (proc.malloc(n * 8), proc.malloc(n * 8)) {
            (Ok(xp), Ok(yp)) => (xp, yp),
            _ => panic!("malloc of {} bytes failed", n * 8),
        };
        for i in 0..n {
            let ok_x = access(&mut proc, tr, xp + i * 8, Some(x[i as usize].to_bits())).is_ok();
            let ok_y = access(&mut proc, tr, yp + i * 8, Some(y[i as usize].to_bits())).is_ok();
            failed += u64::from(!ok_x) + u64::from(!ok_y);
        }
        let launch = tr.span("core.kernel_launch", || {
            proc.launch_kernel(0, n, move |ctx, i| {
                let xv = ctx.load(xp + i * 8)?;
                let yv = ctx.load(yp + i * 8)?;
                ctx.store(yp + i * 8, axpy::step_bits(a, xv, yv))
            })
        });
        failed += u64::from(launch.is_err());
        for i in 0..n {
            match access(&mut proc, tr, yp + i * 8, None) {
                Ok(bits) if bits == golden[i as usize].to_bits() => digest = fold(digest, bits),
                _ => failed += 1,
            }
        }
        for page in 0..(n * 8).div_ceil(PAGE) {
            match tr.span("core.demote", || proc.demote_to_expander(yp + page * PAGE)) {
                Ok(t) => digest = fold(digest, t.as_ps()),
                Err(_) => failed += 1,
            }
        }
        let proc_s = start.elapsed().as_secs_f64();

        let fig12 = tr.span("core.fig12", || {
            fidelity::medians(experiments::fig12(&fpga, fidelity::FIG12_TRIALS))
        });
        let (calib, fig13, fig15) = tr.span("core.calibration", || {
            (
                experiments::calibration_points(fidelity::CALIB_TRIALS),
                experiments::fig13(&fpga, fidelity::CALIB_TRIALS),
                experiments::fig15(&fpga),
            )
        });
        let sweep = tr.span("pcie.dma_sweep", || experiments::dma_sweep(&fpga));
        let rao = tr.span("nic.rao", || experiments::fig17(&fpga, self.rao_ops));
        let rpc = tr.span("nic.rpc", || experiments::fig18(self.rpc_limit));
        tr.end(root);
        let run_s = start.elapsed().as_secs_f64();

        let figures = FigureData {
            calib,
            fig12_medians: fig12,
            fig13,
            fig15,
        };
        let mut values = figures.values();
        values.extend(sweep.iter().flat_map(|&(_, lat, bw)| [lat, bw]));
        values.extend(rao.iter().map(|r| r.1));
        for r in &rpc {
            values.push(r.deser_rpcnic_us);
            values.push(r.deser_cxl_us);
            values.extend(r.ser_us);
        }
        for v in values {
            digest = fold(digest, v.to_bits());
        }
        digest = fold(digest, proc.elapsed().as_ps());

        let eng = proc.engine();
        let p = eng.profile();
        let home = eng.home_stats_view().total();
        let (hits, misses) = proc.atc_stats(0);
        let requests = 6 * n; // 2n CPU stores, 2n XPU loads + n stores, n CPU loads
        let hr = home.requests.max(1) as f64;
        Rep {
            run_s,
            rate_s: proc_s,
            build_s,
            attempted: requests + (n * 8).div_ceil(PAGE),
            failed,
            digest,
            events: eng.events_dispatched(),
            requests,
            sim_us: proc.elapsed().as_us_f64(),
            windows_us,
            counters: vec![
                (
                    "coherence.events_per_request",
                    eng.events_dispatched() as f64 / requests as f64,
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
                    home.snoops_sent as f64 / requests as f64,
                ),
                ("os.minor_faults", proc.os_stats().minor_faults as f64),
                (
                    "cxl.atc_hit_rate",
                    hits as f64 / (hits + misses).max(1) as f64,
                ),
            ],
            figures: Some(figures),
        }
    }

    fn replays(&self, seed: u64, last: &Rep) -> Vec<(&'static str, f64)> {
        // The access stream in virtual-offset form: X then Y written,
        // X and Y read by the kernel, Y read back; one request at a time,
        // spaced by the run's mean simulated time per access.
        let n = self.n;
        let y0 = (n * 8).next_multiple_of(PAGE);
        let mut addrs = Vec::with_capacity(6 * n as usize);
        addrs.extend((0..n).flat_map(|i| [i * 8, y0 + i * 8]));
        addrs.extend((0..n).flat_map(|i| [i * 8, y0 + i * 8, y0 + i * 8]));
        addrs.extend((0..n).map(|i| y0 + i * 8));
        let addrs: Vec<PhysAddr> = addrs.into_iter().map(PhysAddr::new).collect();
        let gap_ps = (last.sim_us * 1e6 / last.requests.max(1) as f64) as u64;
        let ticks: Vec<u64> = (0..addrs.len() as u64).map(|i| i * gap_ps).collect();
        let (push, pop) = layers::queue(&ticks, 1);
        let (dram_ns, row_hits) = layers::dram(&addrs, &ticks);
        let (os_ns, walk_ns) = layers::os(&addrs);
        let (enc, dec, mismatches) = layers::proto(seed);
        if mismatches > 0 {
            eprintln!("warning: {mismatches} genbench messages did not round-trip");
        }
        vec![
            ("sim.queue_push_ns", push),
            ("sim.queue_pop_ns", pop),
            (
                "coherence.home_for_ns",
                layers::home_for(&Topology::single(), &addrs),
            ),
            ("mem.dram_access_ns", dram_ns),
            ("mem.dram_row_hit_rate", row_hits),
            ("os.access_ns", os_ns),
            ("os.page_walk_ns", walk_ns),
            ("cxl.atc_translate_ns", layers::atc(&addrs)),
            ("proto.encode_ns", enc),
            ("proto.decode_ns", dec),
        ]
    }
}
