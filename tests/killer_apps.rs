//! Integration tests for the two killer apps (RAO and RPC), checking
//! functional correctness *and* the paper's performance shapes.

use protowire::{genbench, BenchId};
use simcxl_coherence::prelude::*;
use simcxl_nic::{CxlRaoNic, PcieRaoNic, PreparedWorkload, RpcNicModel, SerializeMode};
use simcxl_pcie::DmaConfig;
use simcxl_workloads::circustent::{self, CtConfig, CtPattern};

fn stream(pattern: CtPattern, ops: usize) -> Vec<simcxl_workloads::circustent::RaoOp> {
    circustent::generate(
        pattern,
        CtConfig {
            ops,
            ..CtConfig::default()
        },
    )
}

#[test]
fn rao_speedups_match_fig17_bands() {
    let mut speedup = std::collections::HashMap::new();
    for pattern in CtPattern::all() {
        let ops = stream(pattern, 512);
        let mut pcie = PcieRaoNic::new(DmaConfig::fpga_400mhz());
        let p = pcie.run(&ops);
        let mut cxl = CxlRaoNic::new(CacheConfig::hmc_128k(), HomeConfig::default(), 1);
        let c = cxl.run(&ops);
        speedup.insert(pattern, c.mops() / p.mops());
    }
    // Paper: 5.5x (RAND) to 40.2x (CENTRAL); we require the band and the
    // ordering rather than the exact values.
    assert!(speedup[&CtPattern::Rand] > 4.0 && speedup[&CtPattern::Rand] < 12.0);
    assert!(speedup[&CtPattern::Central] > 25.0 && speedup[&CtPattern::Central] < 55.0);
    assert!(speedup[&CtPattern::Stride1] > 15.0 && speedup[&CtPattern::Stride1] < 30.0);
    for p in [CtPattern::Sg, CtPattern::Scatter, CtPattern::Gather] {
        assert!(
            speedup[&p] > speedup[&CtPattern::Rand] && speedup[&p] < speedup[&CtPattern::Stride1],
            "{p:?} speedup {:.1} out of position",
            speedup[&p]
        );
    }
}

#[test]
fn rao_is_functionally_identical_on_both_nics() {
    // Both NICs must produce exactly the same final memory contents as a
    // sequential reference execution.
    let ops = stream(CtPattern::Sg, 600);
    let mut reference = std::collections::HashMap::new();
    for op in &ops {
        *reference.entry(op.addr.raw()).or_insert(0u64) += op.operand;
    }
    let mut cxl = CxlRaoNic::new(CacheConfig::hmc_128k(), HomeConfig::default(), 2);
    cxl.run(&ops);
    for (&addr, &want) in &reference {
        let got = cxl
            .engine_mut()
            .func_mem()
            .read_u64(simcxl_mem::PhysAddr::new(addr));
        assert_eq!(got, want, "address {addr:#x}");
    }
    cxl.engine().verify_invariants();
}

#[test]
fn rpc_shapes_match_fig18() {
    for id in [BenchId::Bench1, BenchId::Bench2, BenchId::Bench5] {
        let mut w = genbench::generate(id, 7);
        w.messages.truncate(60);
        let w = PreparedWorkload::new(&w);
        let mut m = RpcNicModel::asic();
        let d_rpc = m.deserialize_rpcnic(&w).total;
        let d_cxl = m.deserialize_cxl(&w).total;
        assert!(d_cxl < d_rpc, "{id:?}: CXL deserialization must win");
        let ser_rpc = m.serialize(&w, SerializeMode::RpcNic).total;
        let ser_mem = m.serialize(&w, SerializeMode::CxlMem).total;
        let ser_pf = m.serialize(&w, SerializeMode::CxlCachePrefetch).total;
        let ser_nopf = m.serialize(&w, SerializeMode::CxlCacheNoPrefetch).total;
        assert!(ser_mem <= ser_pf, "{id:?}: CXL.mem fastest");
        assert!(ser_pf <= ser_nopf, "{id:?}: prefetch helps or is neutral");
        assert!(ser_nopf < ser_rpc, "{id:?}: all CXL modes beat RpcNIC");
    }
}

#[test]
fn rpc_workloads_round_trip_through_wire_format() {
    for id in BenchId::all() {
        let w = genbench::generate(id, 21);
        for msg in w.messages.iter().take(5) {
            let bytes = protowire::encode(&w.schema, msg);
            let back = protowire::decode(&w.schema, &bytes).unwrap();
            assert_eq!(*msg, back);
        }
    }
}

#[test]
fn more_rao_pes_preserve_correctness_under_contention() {
    let ops = stream(CtPattern::Central, 400);
    for pes in [1usize, 2, 4, 8] {
        let mut nic = CxlRaoNic::new(CacheConfig::hmc_128k(), HomeConfig::default(), pes);
        nic.run(&ops);
        let total = nic
            .engine_mut()
            .func_mem()
            .read_u64(CtConfig::default().base);
        assert_eq!(total, 400, "{pes} PEs lost atomics");
        nic.engine().verify_invariants();
    }
}
