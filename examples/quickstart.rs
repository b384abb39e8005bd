//! Quickstart: build a DCT mapping, run a block, place & route it, and
//! print the paper-style resource report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dsra::core::{place, route, Bitstream, CoreError, Fabric, MeshSpec};
use dsra::dct::{reference, BasicDa, DaParams, DctImpl};

fn main() -> Result<(), CoreError> {
    // 1. Build the Fig.-4 basic distributed-arithmetic DCT.
    let dct = BasicDa::new(DaParams::precise())?;
    println!(
        "built `{}`: {} cycles per 8-point block",
        dct.name(),
        dct.cycles_per_block()
    );

    // 2. Transform a block, cycle-accurately, and compare to the reference.
    let x = [100i64, 50, -25, 0, 10, -60, 30, 5];
    let hw = dct.transform(&x)?;
    let sw = reference::dct_1d_int(&x);
    println!("\n  u  hardware   reference");
    for u in 0..8 {
        println!("  {u}  {:>9.3}  {:>9.3}", hw[u], sw[u]);
    }

    // 3. Resource usage — one column of the paper's Table 1.
    println!("\n{}", dct.report());

    // 4. Map onto the DA array: place, route, generate the bitstream.
    let fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    let placement = place(dct.netlist(), &fabric)?;
    let routing = route(dct.netlist(), &fabric, &placement)?;
    let bits = Bitstream::generate(dct.netlist(), &fabric, &placement, &routing);
    println!(
        "placed on {}x{} array: {} routed nets, {} track segments, {} switch points",
        fabric.width(),
        fabric.height(),
        routing.routes.len(),
        routing.stats.track_segments,
        routing.stats.switch_points,
    );
    println!(
        "configuration: {} cluster bits + {} routing bits = {} total",
        bits.cluster_bits(),
        bits.routing_bits(),
        bits.total_bits()
    );
    Ok(())
}
