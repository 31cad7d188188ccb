//! RPC (de)serialization offload engines (paper §V-B, Figs. 10/11).
//!
//! Four designs are modelled, all driven by the *actual wire bytes and
//! object graphs* of a [`BenchWorkload`], condensed once into a
//! [`PreparedWorkload`] that every design reads:
//!
//! * **RpcNIC** (PCIe baseline \[49\]): the HW deserializer decodes
//!   field-by-field into a 4 KB on-chip temp buffer, flushing each
//!   completed message (or full buffer) to host memory with a one-shot
//!   DMA plus a ring-head update; responses are pre-serialized by a
//!   DSA-style memcpy engine into a DMA-safe buffer, doorbelled over
//!   MMIO, DMA-read by the NIC and encoded.
//! * **CXL-NIC deserialization**: each decoded line is pushed into the
//!   host LLC with NC-P through the coherence engine; the notification
//!   ring lives in the LLC.
//! * **CXL-NIC.cache serialization** (± the multi-stride prefetcher):
//!   the serializer pulls the object graph from host memory over
//!   CXL.cache with a small demand-fetch pipeline; the prefetcher warms
//!   the HMC along detected strides.
//! * **CXL-NIC.mem serialization**: the CPU has constructed the objects
//!   in device memory, so encoding reads local DRAM.

use crate::layout::StreamArena;
use crate::prefetch::MultiStridePrefetcher;
use protowire::{decode, encode, BenchWorkload};
use sim_core::{FxHashMap, Tick};
use simcxl_coherence::prelude::*;
use simcxl_mem::{PhysAddr, CACHELINE_BYTES};
use simcxl_pcie::{DmaConfig, DmaEngine};
use std::collections::VecDeque;

/// Serialization design point (Fig. 18b legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerializeMode {
    /// PCIe RpcNIC baseline.
    RpcNic,
    /// CXL.cache without the prefetcher.
    CxlCacheNoPrefetch,
    /// CXL.cache with the multi-stride prefetcher.
    CxlCachePrefetch,
    /// CXL.mem (objects constructed in device memory).
    CxlMem,
}

impl SerializeMode {
    /// All four, in the paper's legend order.
    pub fn all() -> [SerializeMode; 4] {
        [
            SerializeMode::RpcNic,
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
            SerializeMode::CxlMem,
        ]
    }

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SerializeMode::RpcNic => "RpcNIC",
            SerializeMode::CxlCacheNoPrefetch => "CXL-NIC.cache(w/o prefetch)",
            SerializeMode::CxlCachePrefetch => "CXL-NIC.cache(w/ prefetch)",
            SerializeMode::CxlMem => "CXL-NIC.mem",
        }
    }
}

/// Timing constants of the codec datapaths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcTiming {
    /// Decoder/encoder cost per field.
    pub per_field: Tick,
    /// Decoder/encoder cost per wire byte, in picoseconds.
    pub per_byte_ps: u64,
    /// RpcNIC extra per-byte cost of staging through the temp buffer.
    pub copy_per_byte_ps: u64,
    /// Fraction of the one-shot DMA latency the single 4 KB temp buffer
    /// exposes per flush (the rest overlaps with decoding).
    pub flush_exposure: f64,
    /// Per-message ring-head DMA update cost.
    pub ring_update: Tick,
    /// DSA memcpy engine cost per gathered field.
    pub dsa_per_field: Tick,
    /// DSA memcpy engine cost per byte, in picoseconds.
    pub dsa_per_byte_ps: u64,
    /// Amortized MMIO doorbell cost per message.
    pub mmio_doorbell: Tick,
    /// Exposed share of the NIC's DMA read of the pre-serialized buffer.
    pub dma_read_exposure: f64,
    /// Temp buffer capacity.
    pub temp_buffer: u64,
    /// Demand-fetch pipeline depth of the CXL.cache serializer.
    pub fetch_queue: usize,
    /// CXL.mem local-read bandwidth in GB/s (device-attached DRAM).
    pub local_gbps: f64,
}

impl RpcTiming {
    /// Calibrated for the 1.5 GHz ASIC configuration used in Fig. 18.
    pub fn asic_1500mhz() -> Self {
        RpcTiming {
            per_field: Tick::from_ps(8_000),
            per_byte_ps: 333,
            copy_per_byte_ps: 150,
            flush_exposure: 0.12,
            ring_update: Tick::from_ns(35),
            dsa_per_field: Tick::from_ns(20),
            dsa_per_byte_ps: 300,
            mmio_doorbell: Tick::from_ns(50),
            dma_read_exposure: 0.12,
            temp_buffer: 4096,
            fetch_queue: 6,
            local_gbps: 35.0,
        }
    }
}

/// Per-workload result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcResult {
    /// Total processing time.
    pub total: Tick,
    /// Messages processed.
    pub messages: usize,
    /// Total wire bytes moved.
    pub wire_bytes: u64,
}

impl RpcResult {
    /// Mean time per message.
    pub fn per_message(&self) -> Tick {
        self.total / self.messages as u64
    }
}

/// Base of the serializer's host heap arena (CXL.cache read streams).
const SERIALIZE_HEAP: u64 = 0x1_0000_0000;

/// Per-message facts of a [`PreparedWorkload`].
#[derive(Debug, Clone, Copy)]
struct MessageFacts {
    /// Encoded wire length in bytes.
    wire: u64,
    /// Fields, nested included.
    fields: u64,
    /// End of this message's read stream in [`PreparedWorkload::lines`].
    lines_end: usize,
}

/// What every design needs of a [`BenchWorkload`], derived once: each
/// message's wire length and field count (one encode, checked to decode
/// back to the same message) and the CXL.cache serializer's
/// line-granular read streams, laid out message after message in one
/// heap arena. The message trees can be dropped once this is built.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    msgs: Vec<MessageFacts>,
    lines: Vec<PhysAddr>,
}

impl PreparedWorkload {
    /// Encodes every message of `w` once and lays out its read stream.
    ///
    /// # Panics
    ///
    /// Panics if a message fails to decode back to itself.
    pub fn new(w: &BenchWorkload) -> Self {
        let mut arena = StreamArena::new(PhysAddr::new(SERIALIZE_HEAP), 1);
        let mut lines = Vec::new();
        let msgs = w
            .messages
            .iter()
            .map(|msg| {
                let bytes = encode(&w.schema, msg);
                let back = decode(&w.schema, &bytes).expect("wire round trip");
                assert_eq!(back, *msg, "wire round trip");
                arena.stream_into(msg, &mut lines);
                MessageFacts {
                    wire: bytes.len() as u64,
                    fields: msg.total_fields(),
                    lines_end: lines.len(),
                }
            })
            .collect();
        PreparedWorkload { msgs, lines }
    }

    /// Each message's facts together with its read stream.
    fn streams(&self) -> impl Iterator<Item = (&MessageFacts, &[PhysAddr])> {
        let starts = std::iter::once(0).chain(self.msgs.iter().map(|m| m.lines_end));
        self.msgs
            .iter()
            .zip(starts)
            .map(|(m, start)| (m, &self.lines[start..m.lines_end]))
    }

    fn result(&self, total: Tick) -> RpcResult {
        RpcResult {
            total,
            messages: self.msgs.len(),
            wire_bytes: self.msgs.iter().map(|m| m.wire).sum(),
        }
    }
}

/// The RPC offload model: owns the DMA engine (PCIe paths) and a
/// coherence engine with an HMC (CXL paths).
#[derive(Debug)]
pub struct RpcNicModel {
    timing: RpcTiming,
    dma: DmaEngine,
    hmc_cfg: CacheConfig,
    home_cfg: HomeConfig,
}

impl RpcNicModel {
    /// Creates a model.
    pub fn new(
        timing: RpcTiming,
        dma: DmaConfig,
        hmc_cfg: CacheConfig,
        home_cfg: HomeConfig,
    ) -> Self {
        RpcNicModel {
            timing,
            dma: DmaEngine::new(dma),
            hmc_cfg,
            home_cfg,
        }
    }

    /// A model using the ASIC-calibrated profiles throughout.
    pub fn asic() -> Self {
        Self::new(
            RpcTiming::asic_1500mhz(),
            DmaConfig::asic_1500mhz(),
            CacheConfig {
                issue_latency: Tick::from_ns(5),
                lookup_latency: Tick::from_ns(5),
                accept_gap: Tick::from_ps(700),
                link: sim_core::LinkConfig::with_gbps(Tick::from_ns(73), 90.0),
                ..CacheConfig::hmc_128k()
            },
            HomeConfig {
                lookup_latency: Tick::from_ns(50),
                refill_latency: Tick::from_ns(4),
                serve_gap: Tick::from_ps(1_300),
                mem_front_latency: Tick::from_ns(10),
                ..HomeConfig::default()
            },
        )
    }

    fn decode_cost(&self, msg: &MessageFacts) -> Tick {
        self.timing.per_field * msg.fields + Tick::from_ps(self.timing.per_byte_ps * msg.wire)
    }

    /// RpcNIC deserialization (Fig. 10 steps 1–3) over messages already
    /// checked to round-trip through the wire format.
    pub fn deserialize_rpcnic(&mut self, w: &PreparedWorkload) -> RpcResult {
        self.dma.reset();
        let mut now = Tick::ZERO;
        for msg in &w.msgs {
            let wire = msg.wire;
            // Field-by-field decode, staged through the temp buffer.
            now += self.decode_cost(msg) + Tick::from_ps(self.timing.copy_per_byte_ps * wire);
            // One-shot DMA per filled buffer (at least one per message).
            let flushes = wire.div_ceil(self.timing.temp_buffer).max(1);
            for _ in 0..flushes {
                let chunk = wire.min(self.timing.temp_buffer);
                let done = self.dma.transfer(now, chunk.max(1));
                let exposure = Tick::from_ps(
                    ((done - now).as_ps() as f64 * self.timing.flush_exposure) as u64,
                );
                now += exposure;
            }
            // Ring-head update DMA write.
            now += self.timing.ring_update;
        }
        w.result(now)
    }

    /// CXL-NIC deserialization (Fig. 11 steps 1–3): decode at the same
    /// datapath rate, pushing each completed 64 B line into the LLC via
    /// NC-P through the coherence engine.
    pub fn deserialize_cxl(&mut self, w: &PreparedWorkload) -> RpcResult {
        let mut eng = ProtocolEngine::builder()
            .home(self.home_cfg.clone())
            .build();
        let hmc = eng.add_cache(self.hmc_cfg.clone());
        let mut now = Tick::ZERO;
        let mut dst = 0x4000_0000u64; // RX ring region in host memory
        for msg in &w.msgs {
            let decode_time = self.decode_cost(msg);
            let lines = msg.wire.div_ceil(CACHELINE_BYTES).max(1);
            // Fields become ready uniformly across the decode window and
            // are pushed (posted) as their lines fill.
            for k in 0..lines {
                let at = now + decode_time * k / lines;
                let at = at.max(eng.now());
                eng.issue(hmc, MemOp::NcPush { value: k }, PhysAddr::new(dst), at);
                dst += CACHELINE_BYTES;
            }
            now += decode_time;
            now = now.max(eng.now());
        }
        // Posted pushes: drain without keeping their completions.
        while eng.run_next().is_some() {}
        w.result(now.max(eng.now()))
    }

    /// Serialization under any [`SerializeMode`]; the encoded length of
    /// each message drives byte costs.
    pub fn serialize(&mut self, w: &PreparedWorkload, mode: SerializeMode) -> RpcResult {
        match mode {
            SerializeMode::RpcNic => self.serialize_rpcnic(w),
            SerializeMode::CxlMem => self.serialize_cxl_mem(w),
            SerializeMode::CxlCacheNoPrefetch => self.serialize_cxl_cache(w, false),
            SerializeMode::CxlCachePrefetch => self.serialize_cxl_cache(w, true),
        }
    }

    fn serialize_rpcnic(&mut self, w: &PreparedWorkload) -> RpcResult {
        self.dma.reset();
        let mut now = Tick::ZERO;
        for msg in &w.msgs {
            let wire = msg.wire;
            // CPU-side DSA gather of noncontiguous fields into the
            // DMA-safe buffer (Fig. 10 step 4).
            now += self.timing.dsa_per_field * msg.fields
                + Tick::from_ps(self.timing.dsa_per_byte_ps * wire);
            // MMIO doorbell (step 5).
            now += self.timing.mmio_doorbell;
            // NIC DMA read of the prepared buffer (step 6), partially
            // overlapped with encoding.
            let done = self.dma.transfer(now, wire.max(1));
            now +=
                Tick::from_ps(((done - now).as_ps() as f64 * self.timing.dma_read_exposure) as u64);
            // HW serializer encode (step 7).
            now += self.decode_cost(msg);
        }
        w.result(now)
    }

    fn serialize_cxl_mem(&mut self, w: &PreparedWorkload) -> RpcResult {
        let mut now = Tick::ZERO;
        for msg in &w.msgs {
            // Objects already sit in device memory: encode reads local
            // DRAM at stream bandwidth.
            let local_read =
                Tick::from_ps((msg.wire as f64 / (self.timing.local_gbps * 1e9) * 1e12) as u64);
            now += self.decode_cost(msg) + local_read;
        }
        w.result(now)
    }

    fn serialize_cxl_cache(&mut self, w: &PreparedWorkload, prefetch: bool) -> RpcResult {
        let mut eng = ProtocolEngine::builder()
            .home(self.home_cfg.clone())
            .build();
        let hmc = eng.add_cache(self.hmc_cfg.clone());
        let mut pf = MultiStridePrefetcher::rpc_default();
        let mut now = Tick::ZERO;
        // Paces demand fetches; `now` is the encode pipeline, which
        // overlaps with fetching subsequent lines.
        let mut issue_clock = Tick::ZERO;
        // Completions drained from the engine, keyed by request
        // (prefetch completions are dropped on the floor).
        let mut completed: FxHashMap<ReqId, Tick> = FxHashMap::default();
        // The demand pipeline; empty again at the end of every message.
        let mut pending: VecDeque<ReqId> = VecDeque::with_capacity(self.timing.fetch_queue);
        for (msg, stream) in w.streams() {
            // Full encode work for the message, spread across its lines
            // so it overlaps with the line fetches.
            let per_line_encode = self.decode_cost(msg) / stream.len() as u64;
            // The CPU constructed these objects moments ago: they are
            // resident in the host LLC, not just in DRAM.
            for line in stream {
                eng.preload_llc(*line);
            }
            let q = self.timing.fetch_queue;
            let mut next = 0usize;
            let mut fetched = 0usize;
            while fetched < stream.len() {
                // Keep the demand pipeline full.
                while pending.len() < q && next < stream.len() {
                    let line = stream[next];
                    issue_clock = issue_clock.max(eng.now());
                    if prefetch {
                        for target in pf.access(line) {
                            eng.issue(hmc, MemOp::Prefetch, target, issue_clock);
                        }
                    }
                    pending.push_back(eng.issue(hmc, MemOp::Load, line, issue_clock));
                    next += 1;
                }
                // Wait for the oldest demand fetch.
                let want = pending.pop_front().expect("pipeline nonempty");
                let done = loop {
                    if let Some(d) = completed.remove(&want) {
                        break d;
                    }
                    match eng.run_next() {
                        Some(comps) => {
                            for c in comps {
                                if matches!(c.op, MemOp::Load) {
                                    completed.insert(c.req, c.done);
                                }
                            }
                        }
                        None => break eng.now(),
                    }
                };
                issue_clock = issue_clock.max(done);
                // Encode overlaps with the in-flight fetches.
                now = now.max(done) + per_line_encode;
                fetched += 1;
            }
        }
        w.result(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protowire::{genbench, BenchId};

    fn small_workload(id: BenchId) -> BenchWorkload {
        let mut w = genbench::generate(id, 7);
        w.messages.truncate(40);
        w
    }

    fn small(id: BenchId) -> PreparedWorkload {
        PreparedWorkload::new(&small_workload(id))
    }

    #[test]
    fn prepared_facts_match_the_message_trees() {
        for id in BenchId::all() {
            let w = small_workload(id);
            let p = PreparedWorkload::new(&w);
            assert_eq!(p.msgs.len(), w.messages.len());
            let mut arena = StreamArena::new(PhysAddr::new(SERIALIZE_HEAP), 1);
            let mut all = Vec::new();
            for (msg, (facts, stream)) in w.messages.iter().zip(p.streams()) {
                assert_eq!(facts.wire, protowire::encode::encoded_len(msg) as u64);
                assert_eq!(facts.fields, msg.total_fields());
                assert_eq!(stream, arena.stream(msg).as_slice(), "{id:?}");
                all.extend_from_slice(stream);
            }
            assert_eq!(all, p.lines, "{id:?} streams concatenate");
            assert_eq!(p.result(Tick::ZERO).wire_bytes, w.total_wire_bytes());
        }
    }

    #[test]
    fn cxl_deserialization_beats_rpcnic_everywhere() {
        for id in [BenchId::Bench1, BenchId::Bench2, BenchId::Bench5] {
            let w = small(id);
            let mut m = RpcNicModel::asic();
            let rpc = m.deserialize_rpcnic(&w);
            let cxl = m.deserialize_cxl(&w);
            let speedup = rpc.total.as_ns_f64() / cxl.total.as_ns_f64();
            assert!(
                speedup > 1.1 && speedup < 3.0,
                "{id:?} deser speedup {speedup:.2} out of band"
            );
        }
    }

    #[test]
    fn small_field_bench_gains_most_in_deserialization() {
        let mut m = RpcNicModel::asic();
        let w1 = small(BenchId::Bench1);
        let w5 = small(BenchId::Bench5);
        let s1 =
            m.deserialize_rpcnic(&w1).total.as_ns_f64() / m.deserialize_cxl(&w1).total.as_ns_f64();
        let s5 =
            m.deserialize_rpcnic(&w5).total.as_ns_f64() / m.deserialize_cxl(&w5).total.as_ns_f64();
        assert!(s1 > s5, "Bench1 {s1:.2} should beat Bench5 {s5:.2}");
    }

    #[test]
    fn all_cxl_serialization_modes_beat_rpcnic() {
        let w = small(BenchId::Bench3);
        let mut m = RpcNicModel::asic();
        let base = m.serialize(&w, SerializeMode::RpcNic).total;
        for mode in [
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
            SerializeMode::CxlMem,
        ] {
            let t = m.serialize(&w, mode).total;
            assert!(t < base, "{mode:?}: {t} !< {base}");
        }
    }

    #[test]
    fn cxl_mem_is_fastest_serialization() {
        let w = small(BenchId::Bench1);
        let mut m = RpcNicModel::asic();
        let mem = m.serialize(&w, SerializeMode::CxlMem).total;
        for mode in [
            SerializeMode::RpcNic,
            SerializeMode::CxlCacheNoPrefetch,
            SerializeMode::CxlCachePrefetch,
        ] {
            assert!(mem < m.serialize(&w, mode).total, "{mode:?} beat CXL.mem");
        }
    }

    #[test]
    fn prefetcher_helps_flat_more_than_nested() {
        let mut m = RpcNicModel::asic();
        let flat = small(BenchId::Bench1);
        let nested = small(BenchId::Bench2);
        let gain = |m: &mut RpcNicModel, w: &PreparedWorkload| {
            let no = m
                .serialize(w, SerializeMode::CxlCacheNoPrefetch)
                .total
                .as_ns_f64();
            let yes = m
                .serialize(w, SerializeMode::CxlCachePrefetch)
                .total
                .as_ns_f64();
            no / yes - 1.0
        };
        let g_flat = gain(&mut m, &flat);
        let g_nested = gain(&mut m, &nested);
        assert!(
            g_flat > g_nested,
            "prefetch gain flat {g_flat:.3} !> nested {g_nested:.3}"
        );
        assert!(g_nested >= 0.0, "prefetch must not hurt: {g_nested:.3}");
    }

    #[test]
    fn results_count_messages_and_bytes() {
        let w = small_workload(BenchId::Bench0);
        let p = PreparedWorkload::new(&w);
        let mut m = RpcNicModel::asic();
        let results = [
            m.deserialize_rpcnic(&p),
            m.deserialize_cxl(&p),
            m.serialize(&p, SerializeMode::RpcNic),
            m.serialize(&p, SerializeMode::CxlCachePrefetch),
        ];
        for r in results {
            assert_eq!(r.messages, w.messages.len());
            assert_eq!(r.wire_bytes, w.total_wire_bytes());
            assert!(r.per_message() > Tick::ZERO);
        }
    }
}
