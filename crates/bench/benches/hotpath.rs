//! Hot-path micro-benchmarks gating the zero-allocation serving work:
//! the flat-plan cycle engine, one 8-row DCT batch per served DA mapping,
//! one encode GOP on each backend, the annealing placer that runtime setup
//! pays per kernel, and the packed bitstream diff. CI runs this file as a smoke pass so regressions in any
//! of them surface before they reach the `soc_serve` numbers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::time::Duration;

use dsra_backend::{ArrayBackend, Backend, GoldenBackend};
use dsra_core::bitstream::Bitstream;
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::place::{place, PlacerOptions};
use dsra_core::route::{route, RouterOptions};
use dsra_dct::{all_impls, BasicDa, DaParams, DctImpl, MixedRom, LANES};
use dsra_me::{MeEngine, Systolic2d};
use dsra_platform::standard_da_fabric;
use dsra_runtime::{me_fabric_for, DctMapping, RuntimeConfig, SocRuntime};
use dsra_sim::{ExecPlan, NoopProf, RecordActivity, Simulator};
use dsra_trace::{EventLog, NoopSink};
use dsra_video::{generate_job_mix, JobMixConfig, JobPayload, JobSpec, ServiceClass};

/// `engine_step`: raw cycles/second of the flat-plan simulator on the two
/// array archetypes — the bit-serial DA datapath and the 2-D systolic ME
/// array, at 16×16 and at the served 8×8 — plus the 8-lane DA sweep the DCT drivers run, both as served
/// (no toggle counting) and on the activity-recording sink power
/// profiling builds. Rows report ns per block-cycle (one lane for one
/// clock). Steady-state stepping performs zero heap allocations.
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
    let mut da_recording =
        Simulator::<_, LANES>::with_plan_profiled(da.netlist(), &da_plan, RecordActivity(NoopProf));
    g.bench_function("basic_da_x8_recording_1k_cycles", |b| {
        b.iter(|| {
            da_recording.run(1000);
            da_recording.activity().total_net_toggles()
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
    let me8 = Systolic2d::new(8).unwrap();
    let me8_plan = ExecPlan::compile(me8.netlist()).unwrap();
    let mut me8_sim = Simulator::with_plan(me8.netlist(), &me8_plan);
    g.bench_function("systolic8_1k_cycles", |b| {
        b.iter(|| {
            me8_sim.run(1000);
            me8_sim.cycle()
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

/// `dct_batch`: one `transform_batch` of the eight rows of an 8×8 block —
/// the call the encode loop makes twice per block — on the two DA mappings
/// the served job mix runs. Rows report ns per row; the batch fills one
/// 8-lane sweep and includes encoding the samples and decoding the
/// accumulators.
fn bench_dct_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dct_batch");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(LANES as u64));
    let rows: Vec<[i64; 8]> = (0..LANES as i64)
        .map(|r| std::array::from_fn(|i| (r * 37 + i as i64 * 11) % 255 - 127))
        .collect();
    let mut out = vec![[0.0; 8]; LANES];
    let params = DaParams::precise();
    let mappings: [(&str, Box<dyn DctImpl>); 2] = [
        ("basic_da_8_rows", Box::new(BasicDa::new(params).unwrap())),
        ("mix_rom_8_rows", Box::new(MixedRom::new(params).unwrap())),
    ];
    for (name, imp) in &mappings {
        g.bench_function(*name, |b| {
            b.iter(|| {
                imp.transform_batch(&rows, &mut out).unwrap();
                out[0][0]
            })
        });
    }
    g.finish();
}

/// `encode_gop`: one served encode job — a 32×32, 3-frame GOP through the
/// motion-compensated encode loop on BASIC DA — on the cycle-level array
/// backend and on the golden backend, engines warmed first.
fn bench_encode_gop(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode_gop");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let job = JobSpec {
        id: 0,
        arrival_cycle: 0,
        class: ServiceClass::Quality,
        payload: JobPayload::EncodeGop {
            size: (32, 32),
            frames: 3,
            noise: 2,
        },
        seed: 0x60B,
    };
    let params = DaParams::precise();
    let kernel = DctMapping::BasicDa.name();
    let mut array = ArrayBackend::default();
    let mut golden = GoldenBackend::default();
    for backend in [&mut array as &mut dyn Backend, &mut golden] {
        backend.execute(params, &job, kernel).unwrap();
    }
    g.bench_function("array_basic_da_32x32x3", |b| {
        b.iter(|| array.execute(params, &job, kernel).unwrap().checksum)
    });
    g.bench_function("golden_basic_da_32x32x3", |b| {
        b.iter(|| golden.execute(params, &job, kernel).unwrap().checksum)
    });
    g.finish();
}

/// `place`: one annealing placement (greedy start plus 20 000 moves), the
/// bulk of the compile each kernel pays once at runtime setup: BASIC DA on
/// the standard DA array and systolic 8×8 on the runtime's ME array.
fn bench_place(c: &mut Criterion) {
    let mut g = c.benchmark_group("place");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let da = BasicDa::new(DaParams::precise()).unwrap();
    let da_fabric = standard_da_fabric();
    g.bench_function("basic_da", |b| {
        b.iter(|| {
            place(da.netlist(), &da_fabric, PlacerOptions::default())
                .unwrap()
                .hpwl()
        })
    });
    let me = Systolic2d::new(8).unwrap();
    let me_fabric = me_fabric_for(me.netlist());
    g.bench_function("systolic8", |b| {
        b.iter(|| {
            place(me.netlist(), &me_fabric, PlacerOptions::default())
                .unwrap()
                .hpwl()
        })
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
    targets = bench_engine_step, bench_dct_batch, bench_encode_gop, bench_place, bench_diff_bits, bench_trace_overhead
}
criterion_main!(benches);
