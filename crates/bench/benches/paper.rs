//! Criterion benchmarks, one group per paper artifact. These measure the
//! *simulator-side* cost of regenerating each experiment; the experiment
//! outputs themselves come from the `dsra-bench` binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

use dsra_backend::{DctMapping, GoldenDct};
use dsra_bench::{da_activity, me_activity, shifted_planes};
use dsra_core::fabric::{Fabric, MeshSpec};
use dsra_core::place::place;
use dsra_core::route::route;
use dsra_dct::{all_impls, BasicDa, DaParams, DctImpl, LANES};
use dsra_me::{MeEngine, SearchParams, Sequential, Systolic1d, Systolic2d};
use dsra_tech::{evaluate_against_fpga, TechModel};

/// Table 1 (E1): building each mapping and extracting its resource column.
fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_area");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.bench_function("build_all_and_report", |b| {
        b.iter(|| {
            let impls = all_impls(DaParams::precise()).unwrap();
            let total: u32 = impls.iter().map(|i| i.report().total_clusters()).sum();
            assert_eq!(total, 24 + 32 + 48 + 38 + 32 + 24);
        })
    });
    g.finish();
}

/// Figs. 4–9 (E2): one 8-point block through each mapping, cycle-accurately,
/// then a lane batch of eight (one simulator sweep per cycle), then the same
/// batch through the table-driven golden model. Every row reports ns per
/// block-cycle.
fn bench_dct_transform(c: &mut Criterion) {
    let mut g = c.benchmark_group("dct_transform");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let impls = all_impls(DaParams::precise()).unwrap();
    let x = [919i64, -1204, 33, 508, -77, 1800, -900, 263];
    let batch: [[i64; 8]; LANES] = std::array::from_fn(|l| x.map(|v| v - 100 * l as i64));
    let mut out = [[0.0; 8]; LANES];
    for imp in &impls {
        let name = imp.name().replace(' ', "_");
        g.throughput(Throughput::Elements(imp.cycles_per_block()));
        g.bench_with_input(BenchmarkId::from_parameter(&name), imp, |b, imp| {
            b.iter(|| imp.transform(&x).unwrap())
        });
        g.throughput(Throughput::Elements(imp.cycles_per_block() * LANES as u64));
        g.bench_with_input(BenchmarkId::new("batch8", &name), imp, |b, imp| {
            b.iter(|| imp.transform_batch(&batch, &mut out).unwrap())
        });
    }
    for mapping in DctMapping::ALL {
        let golden = GoldenDct::new(mapping, DaParams::precise()).unwrap();
        let name = mapping.name().replace(' ', "_");
        g.throughput(Throughput::Elements(
            golden.cycles_per_block() * LANES as u64,
        ));
        g.bench_with_input(BenchmarkId::new("golden", &name), &golden, |b, imp| {
            b.iter(|| imp.transform_batch(&batch, &mut out).unwrap())
        });
    }
    g.finish();
}

/// Figs. 10–11 (E3): one full block search per architecture.
fn bench_me_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("me_search");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let (cur, refp) = shifted_planes(64, 64, (2, -1));
    let params = SearchParams { block: 8, range: 2 };
    let engines: Vec<Box<dyn MeEngine>> = vec![
        Box::new(Systolic2d::new(8).unwrap()),
        Box::new(Systolic1d::new(8).unwrap()),
        Box::new(Sequential::new(8).unwrap()),
    ];
    for eng in &engines {
        g.bench_with_input(
            BenchmarkId::from_parameter(eng.name().replace(' ', "_")),
            eng,
            |b, eng| b.iter(|| eng.search(&cur, &refp, 24, 24, &params).unwrap()),
        );
    }
    g.finish();
}

/// E6: place + route on the mixed vs fine-grain mesh.
fn bench_mesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("mesh_ablation");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let imp = BasicDa::new(DaParams::precise()).unwrap();
    for (name, mesh) in [
        ("mixed", MeshSpec::mixed()),
        ("fine_grain", MeshSpec::fine_grain()),
    ] {
        let fabric = Fabric::da_array(16, 12, mesh);
        g.bench_function(name, |b| {
            b.iter(|| {
                let p = place(imp.netlist(), &fabric).unwrap();
                route(imp.netlist(), &fabric, &p).unwrap()
            })
        });
    }
    g.finish();
}

/// E4/E5: the full DSRA-vs-FPGA evaluation pipelines.
fn bench_fpga_compare(c: &mut Criterion) {
    let mut g = c.benchmark_group("fpga_compare");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let model = TechModel::default();
    let eng = Systolic2d::new(8).unwrap();
    let me_act = me_activity(eng.netlist(), 64);
    let me_fabric = Fabric::me_array(26, 20, MeshSpec::mixed());
    g.bench_function("me_array", |b| {
        b.iter(|| evaluate_against_fpga(eng.netlist(), &me_fabric, &me_act, &model).unwrap())
    });
    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let da_act = da_activity(imp.netlist(), 64);
    let da_fabric = Fabric::da_array(16, 12, MeshSpec::mixed());
    g.bench_function("da_array", |b| {
        b.iter(|| evaluate_against_fpga(imp.netlist(), &da_fabric, &da_act, &model).unwrap())
    });
    g.finish();
}

/// E7: bitstream generation + diff (the reconfiguration cost kernel).
fn bench_reconfig(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconfig");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    use dsra_core::bitstream::Bitstream;
    let fabric = Fabric::da_array(20, 14, MeshSpec::mixed());
    let impls = all_impls(DaParams::precise()).unwrap();
    let bitstreams: Vec<Bitstream> = impls
        .iter()
        .map(|imp| {
            let p = place(imp.netlist(), &fabric).unwrap();
            let r = route(imp.netlist(), &fabric, &p).unwrap();
            Bitstream::generate(imp.netlist(), &fabric, &p, &r)
        })
        .collect();
    g.bench_function("pairwise_diff", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for a in &bitstreams {
                for bstream in &bitstreams {
                    total += a.diff_bits(bstream);
                }
            }
            total
        })
    });
    g.finish();
}

/// E10: one 8×8 block through the 2-D hardware DCT (16 1-D transforms).
fn bench_dct2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let imp = BasicDa::new(DaParams::precise()).unwrap();
    let block: [[i64; 8]; 8] =
        std::array::from_fn(|r| std::array::from_fn(|c| ((r * 37 + c * 101) % 255) as i64 - 128));
    g.bench_function("dct_2d_block", |b| {
        b.iter(|| dsra_dct::twod::dct_2d_hw(&imp, &block).unwrap())
    });
    g.finish();
}

/// E11: the multi-array runtime serving a small mixed queue (cache warm
/// after the first iteration — place-and-route is out of the loop).
fn bench_soc_serve(c: &mut Criterion) {
    use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
    use dsra_video::{generate_job_mix, JobMixConfig};
    let mut g = c.benchmark_group("soc_serve");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let mut runtime = SocRuntime::new(RuntimeConfig {
        da_arrays: 2,
        me_arrays: 1,
        mappings: vec![
            DctMapping::BasicDa,
            DctMapping::MixedRom,
            DctMapping::SccFull,
        ],
        ..Default::default()
    })
    .unwrap();
    let jobs = generate_job_mix(JobMixConfig {
        jobs: 24,
        ..Default::default()
    });
    g.bench_function("serve_24_jobs_3_arrays", |b| {
        b.iter(|| {
            let report = runtime.serve(&jobs).unwrap();
            assert_eq!(report.jobs, 24);
            report.makespan_cycles
        })
    });
    g.finish();
}

/// E13: the open-loop streaming frontend dispatching a small overloaded
/// trace — admission, EDF shedding, elastic gating and the virtual-time
/// event loop, end to end (kernels compile once, outside the loop).
fn bench_stream_serve(c: &mut Criterion) {
    use dsra_runtime::{DctMapping, RuntimeConfig, SocRuntime};
    use dsra_service::{serve_trace, standard_tenants, ServiceConfig, TraceConfig};
    let mut g = c.benchmark_group("stream_serve");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let mut runtime = SocRuntime::new(RuntimeConfig {
        da_arrays: 2,
        me_arrays: 1,
        mappings: vec![
            DctMapping::BasicDa,
            DctMapping::MixedRom,
            DctMapping::SccFull,
        ],
        ..Default::default()
    })
    .unwrap();
    let trace = TraceConfig {
        tenants: standard_tenants(3, 40),
        duration_us: 2_000,
        ..Default::default()
    };
    let service = ServiceConfig::default();
    g.bench_function("edf_shed_3_tenants_2ms", |b| {
        b.iter(|| {
            runtime.recharge_full();
            let report = serve_trace(&mut runtime, &trace, &service).unwrap();
            assert!(report.served > 0);
            report.makespan_us
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets =
        bench_table1,
        bench_dct_transform,
        bench_me_search,
        bench_mesh,
        bench_fpga_compare,
        bench_reconfig,
        bench_dct2d,
        bench_soc_serve,
        bench_stream_serve
}
criterion_main!(benches);
