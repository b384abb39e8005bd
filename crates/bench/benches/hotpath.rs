//! Hot-path micro-benchmarks gating the zero-allocation serving work
//! (ISSUE 4): the flat-plan cycle engine and the packed bitstream diff.
//! CI runs this file as a smoke pass so regressions in either surface
//! before they reach the `soc_serve` numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

use dsra_core::bitstream::Bitstream;
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::place::{place, PlacerOptions};
use dsra_core::route::{route, RouterOptions};
use dsra_dct::{all_impls, BasicDa, DaParams, DctImpl, LANES};
use dsra_me::{MeEngine, Systolic2d};
use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
use dsra_sim::{ExecPlan, Simulator};
use dsra_trace::{EventLog, NoopSink};
use dsra_video::{generate_job_mix, JobMixConfig};

/// `engine_step`: raw cycles/second of the flat-plan simulator on the two
/// array archetypes — the bit-serial DA datapath and the 2-D systolic ME
/// array — plus the 8-lane DA sweep the DCT drivers run. Rows report ns
/// per block-cycle (one lane for one clock). Steady-state stepping
/// performs zero heap allocations.
fn bench_engine_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_step");
    g.sample_size(10).measurement_time(Duration::from_secs(3));

    let da = BasicDa::new(DaParams::precise()).unwrap();
    let da_plan = ExecPlan::compile(da.netlist()).unwrap();
    let mut da_sim = Simulator::with_plan(da.netlist(), &da_plan);
    g.throughput(Throughput::Elements(1000));
    g.bench_function("basic_da_1k_cycles", |b| {
        b.iter(|| {
            da_sim.run(1000);
            da_sim.cycle()
        })
    });

    let mut da_lanes = Simulator::<_, LANES>::with_plan_lanes(da.netlist(), &da_plan);
    g.throughput(Throughput::Elements(1000 * LANES as u64));
    g.bench_function("basic_da_x8_1k_cycles", |b| {
        b.iter(|| {
            da_lanes.run(1000);
            da_lanes.cycle()
        })
    });
    g.throughput(Throughput::Elements(1000));

    let me = Systolic2d::new(16).unwrap();
    let me_plan = ExecPlan::compile(me.netlist()).unwrap();
    let mut me_sim = Simulator::with_plan(me.netlist(), &me_plan);
    g.bench_function("systolic2d_1k_cycles", |b| {
        b.iter(|| {
            me_sim.run(1000);
            me_sim.cycle()
        })
    });

    // Per-search construction over a shared plan (what the ME worker pays
    // per job): must stay cheap — buffers only, no graph walk.
    g.throughput(Throughput::Elements(1));
    g.bench_function("with_plan_construction", |b| {
        b.iter(|| Simulator::with_plan(me.netlist(), &me_plan).cycle())
    });
    g.finish();
}

/// `diff_bits`: the packed XOR+popcount sweep against the map-walk
/// reference it replaced, over all 36 pairs of the six compiled DCT
/// mappings — the exact probe the diff-aware scheduler issues.
fn bench_diff_bits(c: &mut Criterion) {
    let mut g = c.benchmark_group("diff_bits");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let fabric = Fabric::da_array(20, 14, MeshSpec::mixed());
    let bitstreams: Vec<Bitstream> = all_impls(DaParams::precise())
        .unwrap()
        .iter()
        .map(|imp| {
            let p = place(imp.netlist(), &fabric, PlacerOptions::default()).unwrap();
            let r = route(imp.netlist(), &fabric, &p, RouterOptions::default()).unwrap();
            Bitstream::generate(imp.netlist(), &fabric, &p, &r)
        })
        .collect();
    g.bench_function("packed_pairwise", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for a in &bitstreams {
                for other in &bitstreams {
                    total += a.diff_bits_packed(other);
                }
            }
            total
        })
    });
    g.bench_function("map_pairwise_reference", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for a in &bitstreams {
                for other in &bitstreams {
                    total += a.diff_bits_map(other);
                }
            }
            total
        })
    });
    g.finish();
}

/// `trace_overhead`: the warm serve with the default (disabled) sink vs
/// an explicitly installed `NoopSink` vs a recording `EventLog` — the
/// zero-cost-when-off claim, measured (ISSUE 7). The first two must be
/// indistinguishable; the third prices full event recording.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let mix = generate_job_mix(JobMixConfig {
        jobs: 40,
        ..Default::default()
    });
    let mut rt = SocRuntime::new(RuntimeConfig {
        da_arrays: 1,
        me_arrays: 1,
        mappings: vec![DctMapping::BasicDa, DctMapping::MixedRom],
        ..Default::default()
    })
    .unwrap();
    rt.serve(&mix).unwrap(); // warm caches and buffers
    let serve = |rt: &mut SocRuntime| {
        rt.recharge_full();
        rt.serve(&mix).unwrap().makespan_cycles
    };
    g.bench_function("serve_default_sink", |b| b.iter(|| serve(&mut rt)));
    rt.set_trace_sink(Box::new(NoopSink));
    g.bench_function("serve_noop_sink", |b| b.iter(|| serve(&mut rt)));
    g.bench_function("serve_event_log", |b| {
        b.iter(|| {
            rt.set_trace_sink(Box::new(EventLog::new()));
            serve(&mut rt)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_engine_step, bench_diff_bits, bench_trace_overhead
}
criterion_main!(benches);
