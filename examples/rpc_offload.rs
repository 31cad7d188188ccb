//! Killer app #2 (paper §V-B): RPC (de)serialization offload.
//!
//! Runs one HyperProtoBench-like workload through the PCIe RpcNIC
//! baseline and the three CXL-NIC designs, printing the Fig. 18-style
//! comparison. Every message is really encoded/decoded through the
//! protobuf wire format — the timing models ride on actual bytes.
//!
//! Run with: `cargo run --example rpc_offload [bench0..bench5]`

use protowire::{genbench, BenchId};
use simcxl_nic::{PreparedWorkload, RpcNicModel, SerializeMode};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "bench3".into());
    let id = BenchId::all()
        .into_iter()
        .find(|b| b.label().eq_ignore_ascii_case(&which))
        .unwrap_or(BenchId::Bench3);

    let mut w = genbench::generate(id, 7);
    w.messages.truncate(400);
    println!(
        "{}: {} messages, mean {:.0} wire bytes, mean depth {:.1}\n",
        id.label(),
        w.messages.len(),
        w.mean_wire_bytes(),
        w.mean_depth()
    );

    // One encode and checked decode per message; every design reads this.
    let w = PreparedWorkload::new(&w);
    let mut model = RpcNicModel::asic();

    let d_rpc = model.deserialize_rpcnic(&w);
    let d_cxl = model.deserialize_cxl(&w);
    println!("deserialization (request path):");
    println!("  RpcNIC (PCIe): {:8.1} us", d_rpc.total.as_us_f64());
    println!(
        "  CXL-NIC (NC-P): {:7.1} us  ({:.2}x)",
        d_cxl.total.as_us_f64(),
        d_rpc.total.as_us_f64() / d_cxl.total.as_us_f64()
    );

    println!("\nserialization (response path):");
    let base = model.serialize(&w, SerializeMode::RpcNic).total.as_us_f64();
    for mode in SerializeMode::all() {
        let t = model.serialize(&w, mode).total.as_us_f64();
        println!("  {:28} {t:8.1} us  ({:.2}x)", mode.label(), base / t);
    }
}
