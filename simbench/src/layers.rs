//! Isolated replays: a workload's own input stream pushed through one
//! layer's public API with nothing else running, timed per call.
//!
//! Each replay repeats until it has run for at least [`MIN_NS`], so short
//! streams still give a stable per-call cost.

use cohet_os::{AccessKind, Accessor, NodeId, NodeKind, NumaTopology, Process};
use protowire::{decode, encode, genbench, BenchId};
use sim_core::{EventQueue, Tick};
use simcxl_coherence::Topology;
use simcxl_cxl::{Atc, AtcConfig, IommuConfig};
use simcxl_mem::{AddrRange, DramConfig, DramKind, DramModel, PhysAddr};
use simcxl_workloads::scenario::{Session, SessionSlab, State};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum host time per replay.
const MIN_NS: u128 = 20_000_000;

/// Repeats `pass` (which reports how many calls it made and the ns they
/// took) until [`MIN_NS`] has elapsed; returns ns per call.
fn per_call(mut pass: impl FnMut() -> (u64, Duration)) -> f64 {
    let (mut calls, mut ns) = (0u64, 0u128);
    let start = Instant::now();
    while start.elapsed().as_nanos() < MIN_NS || calls == 0 {
        let (c, d) = pass();
        calls += c;
        ns += d.as_nanos();
    }
    ns as f64 / calls.max(1) as f64
}

/// `EventQueue` push and pop cost, ns each, with the queue filled to
/// `depth` events at a time in the stream's tick order.
pub fn queue(ticks_ps: &[u64], depth: usize) -> (f64, f64) {
    let depth = depth.max(1);
    let mut pop_calls = 0u64;
    let mut pop_ns = 0u128;
    let push = per_call(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut push_d = Duration::ZERO;
        for batch in ticks_ps.chunks(depth) {
            let t = Instant::now();
            for &ps in batch {
                q.push(Tick::from_ps(ps), ps);
            }
            push_d += t.elapsed();
            let t = Instant::now();
            while let Some(e) = q.pop() {
                black_box(e);
            }
            pop_ns += t.elapsed().as_nanos();
            pop_calls += batch.len() as u64;
        }
        (ticks_ps.len() as u64, push_d)
    });
    (push, pop_ns as f64 / pop_calls.max(1) as f64)
}

/// `Topology::home_for` cost, ns.
pub fn home_for(topo: &Topology, addrs: &[PhysAddr]) -> f64 {
    per_call(|| {
        let t = Instant::now();
        for &a in addrs {
            black_box(topo.home_for(black_box(a)));
        }
        (addrs.len() as u64, t.elapsed())
    })
}

/// `DramModel::read` cost, ns, and the row-hit rate of the stream on one
/// DDR5 channel set.
pub fn dram(addrs: &[PhysAddr], ticks_ps: &[u64]) -> (f64, f64) {
    let mut rate = 0.0;
    let ns = per_call(|| {
        let mut d = DramModel::new(DramConfig::preset(DramKind::Ddr5_4400));
        let t = Instant::now();
        for (&a, &ps) in addrs.iter().zip(ticks_ps) {
            black_box(d.read(Tick::from_ps(ps), a, 64));
        }
        let el = t.elapsed();
        rate = d.row_hits() as f64 / d.reads().max(1) as f64;
        (addrs.len() as u64, el)
    });
    (ns, rate)
}

/// Maps each distinct 4 KiB page of `addrs` to consecutive virtual pages
/// from `base`, keeping the offset within the page.
fn virtualize(addrs: &[PhysAddr], base: u64) -> (Vec<u64>, u64) {
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let vas = addrs
        .iter()
        .map(|a| {
            let next = pages.len() as u64;
            let vpage = *pages.entry(a.raw() >> 12).or_insert(next);
            base + (vpage << 12) + (a.raw() & 0xfff)
        })
        .collect();
    (vas, pages.len() as u64)
}

/// `Process::access` (first touches included) and `PageTable::walk`
/// cost, ns each, over the stream's pages mapped into one allocation.
pub fn os(addrs: &[PhysAddr]) -> (f64, f64) {
    let (offsets, pages) = virtualize(addrs, 0);
    let bytes = (pages + 1) << 12;
    let build = || {
        let mut topo = NumaTopology::new(4096);
        topo.add_node(
            NodeKind::Cpu,
            AddrRange::new(PhysAddr::new(0), bytes.next_power_of_two()),
        );
        let mut p = Process::new(topo);
        let base = p.malloc(bytes).expect("replay allocation fits");
        (p, base)
    };
    let access = per_call(|| {
        let (mut p, base) = build();
        let t = Instant::now();
        for &o in &offsets {
            black_box(
                p.access(Accessor::Cpu(NodeId(0)), base + o, AccessKind::Read)
                    .expect("mapped"),
            );
        }
        (offsets.len() as u64, t.elapsed())
    });
    let (mut p, base) = build();
    for &o in &offsets {
        p.access(Accessor::Cpu(NodeId(0)), base + o, AccessKind::Read)
            .expect("mapped");
    }
    let walk = per_call(|| {
        let t = Instant::now();
        for &o in &offsets {
            black_box(p.page_table().walk(base + o));
        }
        (offsets.len() as u64, t.elapsed())
    });
    (access, walk)
}

/// `Atc::translate` cost, ns, over the stream's virtual pages.
pub fn atc(addrs: &[PhysAddr]) -> f64 {
    let (vas, _) = virtualize(addrs, 0x7f00_0000_0000);
    per_call(|| {
        let mut atc = Atc::new(AtcConfig::default(), IommuConfig::default());
        let t = Instant::now();
        for &va in &vas {
            black_box(atc.translate(Tick::ZERO, va, |vpn| vpn));
        }
        (vas.len() as u64, t.elapsed())
    })
}

/// `SessionSlab` cost, ns per insert-plus-remove, holding `live`
/// sessions at once (first in, first out).
pub fn slab(live: usize, sessions: u64) -> f64 {
    let live = live.max(1);
    let session = |client| Session {
        client,
        phase: 0,
        state: State(0),
        steps: 0,
        started: Tick::ZERO,
        last_key: 0,
        last_value: 0,
    };
    per_call(|| {
        let mut s = SessionSlab::new();
        let mut ring = std::collections::VecDeque::with_capacity(live);
        let t = Instant::now();
        for c in 0..sessions {
            if ring.len() == live {
                black_box(s.remove(ring.pop_front().expect("full ring")));
            }
            ring.push_back(s.insert(session(c)));
        }
        (sessions, t.elapsed())
    })
}

/// Protobuf encode and decode cost, ns per message, over every genbench
/// workload; also returns how many messages did not round-trip.
pub fn proto(seed: u64) -> (f64, f64, u64) {
    let benches: Vec<_> = BenchId::all()
        .into_iter()
        .map(|id| genbench::generate(id, seed))
        .collect();
    let msgs: u64 = benches.iter().map(|b| b.messages.len() as u64).sum();
    let enc = per_call(|| {
        let t = Instant::now();
        for b in &benches {
            for m in &b.messages {
                black_box(encode(&b.schema, m));
            }
        }
        (msgs, t.elapsed())
    });
    let wire: Vec<Vec<Vec<u8>>> = benches
        .iter()
        .map(|b| b.messages.iter().map(|m| encode(&b.schema, m)).collect())
        .collect();
    let dec = per_call(|| {
        let t = Instant::now();
        for (b, bufs) in benches.iter().zip(&wire) {
            for buf in bufs {
                black_box(decode(&b.schema, buf).ok());
            }
        }
        (msgs, t.elapsed())
    });
    let mismatches = benches
        .iter()
        .zip(&wire)
        .flat_map(|(b, bufs)| b.messages.iter().zip(bufs).map(move |(m, buf)| (b, m, buf)))
        .filter(|(b, m, buf)| decode(&b.schema, buf).ok().as_ref() != Some(*m))
        .count() as u64;
    (enc, dec, mismatches)
}
