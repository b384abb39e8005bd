//! One benchmark run: a traced reference replay checked by the oracle,
//! then replays for the measuring window, then the metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use dsra_dct::DaParams;
use dsra_runtime::RuntimeConfig;

use crate::cli::Args;
use crate::oracle;
use crate::probes::{CHAOS_DISPATCH, SERVE_JOB};
use crate::spans::{Recorder, Tree};
use crate::workload::{nearest_rank, replay, set_up_only, Replay, Workload};

/// Fewest serve replays a run measures, however long they take.
const MIN_REPLAYS: usize = 3;
/// Fewest set-up samples a run takes; set-up alone tops the replays up.
const MIN_SETUPS: usize = 15;
/// Chrome pid of the host spans (the virtual-time trace uses its own).
const HOST_PID: u32 = 1_000;
/// Assumed `sysconf(_SC_CLK_TCK)`: Linux reports CPU time in 1/100 s.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The end-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_pct", "%"),
    ("sim_goodput_pct", "%"),
    ("sim_p99_latency_us", "sim_us"),
    ("sim_energy_per_served_eu", "eu"),
];

/// Engine `(payload, kernel)` pairs reported by name: the pairs the three
/// workloads exercise. Other pairs still count in the engine totals.
pub const ENGINE_PAIRS: [(&str, &str, &str); 5] = [
    ("dct", "BASIC DA", "dct.basic_da"),
    ("dct", "MIX ROM", "dct.mix_rom"),
    ("encode", "BASIC DA", "encode.basic_da"),
    ("encode", "MIX ROM", "encode.mix_rom"),
    ("me", "SYSTOLIC 8x8", "me.systolic8"),
];

/// Metrics per engine pair, suffixed to `engine.<pair>.`.
pub const ENGINE_PAIR_METRICS: [(&str, &str); 4] = [
    ("calls", "count"),
    ("busy_s", "s"),
    ("sim_cycles", "count"),
    ("ns_per_cycle", "ns"),
];

/// The per-layer metrics (`--trace 1`) besides the engine pairs.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("engine.busy_s", "s"),
    ("engine.self_s", "s"),
    ("engine.parallelism", "ratio"),
    ("runtime.new_s", "s"),
    ("runtime.cache_hit_ratio", "ratio"),
    ("runtime.cache_misses", "count"),
    ("runtime.serve_job_p50_us", "us"),
    ("runtime.serve_job_p99_us", "us"),
    ("runtime.serve_job_n", "count"),
    ("runtime.self_s", "s"),
    ("runtime.plan_s", "s"),
    ("runtime.exec_s", "s"),
    ("runtime.batch_self_s", "s"),
    ("service.trace_gen_s", "s"),
    ("service.dispatch_self_s", "s"),
    ("service.requests", "count"),
    ("service.served", "count"),
    ("service.shed", "count"),
    ("chaos.dispatch_self_s", "s"),
    ("chaos.divergences", "count"),
    ("chaos.retries", "count"),
    ("chaos.quarantines", "count"),
    ("chaos.failed_jobs", "count"),
    ("chaos.exec_useful_ratio", "ratio"),
    ("observe.events", "count"),
    ("observe.emit_s", "s"),
    ("observe.ns_per_event", "ns"),
    ("profile.report_s", "s"),
    ("trace.export_s", "s"),
    ("trace.export_bytes", "bytes"),
    ("monitor.snapshot_s", "s"),
    ("process.cpu_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.replays", "count"),
    ("bench.traced_replays", "count"),
    ("host.wall_s", "s"),
    ("host.residue_s", "s"),
    ("host.available_parallelism", "count"),
];

/// Every per-layer metric name with its unit, engine pairs first.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = ENGINE_PAIRS
        .iter()
        .flat_map(|(_, _, slug)| {
            ENGINE_PAIR_METRICS
                .iter()
                .map(move |(m, unit)| (format!("engine.{slug}.{m}"), *unit))
        })
        .collect();
    out.extend(PER_LAYER.iter().map(|(n, u)| ((*n).to_owned(), *u)));
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading or a count).
    pub samples: usize,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched the oracle and every replay the reference.
    pub correct: bool,
    /// Requests submitted across all replays.
    pub attempted: u64,
    /// Requests whose call errored or whose delivered output was wrong.
    pub failed: u64,
    /// The metrics of the requested kind, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Shortest round-trip rendering; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Tallies of requests checked so far.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Compares a replay with the verified reference: a request whose
    /// delivered checksum (or served status) differs has failed; a digest
    /// that drifts with every request intact fails one.
    fn check(&mut self, reference: &Replay, r: &Replay) {
        self.attempted += r.requests as u64;
        let differ = reference
            .delivered
            .iter()
            .zip(&r.delivered)
            .filter(|(a, b)| a != b)
            .count()
            + reference.delivered.len().abs_diff(r.delivered.len());
        let drift = usize::from(differ == 0 && r.digest != reference.digest);
        if differ + drift > 0 {
            self.notes.push(format!(
                "replay diverged from the reference: {differ} requests differ, digest {:#018x} vs {:#018x}",
                r.digest, reference.digest
            ));
        }
        self.failed += (differ + drift) as u64;
    }

    fn errored(&mut self, requests: usize, e: &dsra_core::error::CoreError) {
        self.attempted += requests as u64;
        self.failed += requests as u64;
        self.notes.push(format!("replay failed: {e}"));
    }
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
/// A message when the reference replay fails or the process statistics
/// cannot be read.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (w, seed, size) = (args.workload, args.seed, args.size);
    let params = RuntimeConfig::default().da_params;

    // The reference: a traced replay whose every served output the
    // oracle re-executes on the golden backend, outside any timing.
    let t_ref = Instant::now();
    let reference = replay(w, seed, size, Some(&Recorder::default()))
        .map_err(|e| format!("reference replay failed: {e}"))?;
    let ref_s = t_ref.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let bad = oracle_failures(&reference, params);
    tally.notes.push(format!(
        "reference replay {ref_s:.3} s, oracle {:.3} s over {} served outputs",
        t_ref.elapsed().as_secs_f64() - ref_s,
        reference.served.len()
    ));
    if !bad.is_empty() {
        tally.notes.push(format!(
            "{} served outputs disagree with the golden reference",
            bad.len()
        ));
    }
    tally.attempted += reference.requests as u64;
    tally.failed += bad.len() as u64;
    let mut pinned_ok = true;
    if let Some(pinned) = w.pinned_digest(seed, size) {
        pinned_ok = reference.digest == pinned;
        tally.notes.push(format!(
            "pinned digest {pinned:#018x}: {}",
            if pinned_ok { "matched" } else { "MISMATCH" }
        ));
    }

    // The measuring window: untraced replays, and with --trace 1 a traced
    // replay after each, so both see the same machine conditions.
    let mut plain: Vec<Replay> = Vec::new();
    let mut traced: Vec<(Replay, Recorder)> = Vec::new();
    let mut setups: Vec<(f64, f64, f64)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    let mut peak_rss = None;
    while rounds < MIN_REPLAYS || Instant::now() < deadline {
        rounds += 1;
        match replay(w, seed, size, None) {
            Ok(r) => {
                tally.check(&reference, &r);
                setups.push((r.runtime_new_s, r.trace_gen_s, r.setup_s));
                plain.push(r);
            }
            Err(e) => tally.errored(reference.requests, &e),
        }
        // Later replays repeat the same work; reading the peak at the end
        // would add allocator growth that depends on how many replays the
        // window fitted, that is, on host speed.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        // Spread the set-up samples over the window, so a burst of host
        // noise cannot own their median: top up to the share of
        // MIN_SETUPS the elapsed part of the window calls for.
        let elapsed = 1.0
            - deadline
                .saturating_duration_since(Instant::now())
                .as_secs_f64()
                / args.seconds as f64;
        while (setups.len() as f64) < (MIN_SETUPS as f64 * elapsed).floor() {
            setups.push(set_up_only(w, seed, size).map_err(|e| format!("set-up failed: {e}"))?);
        }
        if args.trace {
            let rec = Recorder::default();
            match replay(w, seed, size, Some(&rec)) {
                Ok(r) => {
                    tally.check(&reference, &r);
                    traced.push((r, rec));
                }
                Err(e) => tally.errored(reference.requests, &e),
            }
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(set_up_only(w, seed, size).map_err(|e| format!("set-up failed: {e}"))?);
    }
    if plain.is_empty() {
        return Err("no replay completed".into());
    }

    let walls: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let mut notes = std::mem::take(&mut tally.notes);
    notes.push(format!(
        "{} seed {seed:#x} size {size}: {} replays, {} traced, {} set-ups; walls {:.4?} s",
        w.name(),
        plain.len(),
        traced.len(),
        setups.len(),
        walls,
    ));
    let metrics = if args.trace {
        let rows = per_layer(w, &plain, &traced, &setups, &mut notes)?;
        per_layer_metrics()
            .into_iter()
            .zip(rows)
            .map(|((name, unit), (row, value, samples))| {
                assert_eq!(name, row, "per-layer rows follow the declared order");
                Metric {
                    name,
                    value,
                    unit,
                    samples,
                }
            })
            .collect()
    } else {
        let setup: Vec<f64> = setups.iter().map(|s| s.2).collect();
        let attempted = tally.attempted.max(1);
        let values = [
            (median(&setup), setups.len()),
            (wall_s, plain.len()),
            (reference.requests as f64 / wall_s, plain.len()),
            (peak_rss.expect("read after the first round"), 1),
            (
                (attempted - tally.failed.min(attempted)) as f64 * 100.0 / attempted as f64,
                1,
            ),
            (reference.sim.goodput_pct, 1),
            (reference.sim.p99_latency_us, reference.served.len()),
            (reference.sim.energy_per_served_eu, 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), (value, samples))| Metric {
                name: (*name).to_owned(),
                value,
                unit,
                samples,
            })
            .collect()
    };
    Ok(Outcome {
        correct: tally.failed == 0 && pinned_ok,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

/// Requests of the reference whose output is wrong: the golden
/// re-execution disagrees, or what the report delivered is not what the
/// probes saw served.
fn oracle_failures(reference: &Replay, params: DaParams) -> BTreeSet<u32> {
    let mut bad: BTreeSet<u32> = oracle::mismatches(&reference.served, params)
        .into_iter()
        .collect();
    let mut recorded: Vec<Option<u64>> = vec![None; reference.delivered.len()];
    for s in &reference.served {
        match recorded.get_mut(s.spec.id as usize) {
            Some(slot) => *slot = Some(s.checksum),
            None => {
                bad.insert(s.spec.id);
            }
        }
    }
    bad.extend(
        recorded
            .iter()
            .zip(&reference.delivered)
            .enumerate()
            .filter(|(_, (r, d))| r != d)
            .map(|(i, _)| i as u32),
    );
    bad
}

/// The per-layer metrics, read off the traced replay with the median
/// wall time; its spans are written out as a Chrome trace.
fn per_layer(
    w: Workload,
    plain: &[Replay],
    traced: &[(Replay, Recorder)],
    setups: &[(f64, f64, f64)],
    notes: &mut Vec<String>,
) -> Result<Rows, String> {
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].0.wall_s.total_cmp(&traced[b].0.wall_s));
    let &pick = order
        .get(order.len() / 2)
        .ok_or("no traced replay completed")?;
    let (r, rec) = &traced[pick];
    let window = r.window_ns.ok_or("traced replay recorded no window")?;
    let tree = Tree::build(rec.spans());
    let selfs = tree.self_times(window.0, window.1);
    let self_s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let inside: Vec<&crate::spans::Span> = tree
        .spans
        .iter()
        .filter(|s| s.start_ns >= window.0 && s.end_ns <= window.1)
        .collect();
    let host_wall_s = (window.1 - window.0) as f64 * 1e-9;

    // Engine accounts per (payload, kernel).
    let mut pairs: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    for s in &inside {
        if let Some(e) = &s.engine {
            let acc = pairs.entry((e.payload, e.kernel.as_str())).or_default();
            acc.0 += 1;
            acc.1 += s.end_ns - s.start_ns;
            acc.2 += e.cycles;
        }
    }
    for ((payload, kernel), (calls, ns, cycles)) in &pairs {
        let listed = ENGINE_PAIRS
            .iter()
            .any(|(p, k, _)| p == payload && k == kernel);
        notes.push(format!(
            "engine {payload}/{kernel}: {calls} calls, {:.4} s, {cycles} cycles{}",
            *ns as f64 * 1e-9,
            if listed {
                ""
            } else {
                " (not reported by name)"
            }
        ));
    }
    let mut m: Rows = Vec::new();
    let mut put = |name: String, value: f64, samples: usize| m.push((name, value, samples));
    for (payload, kernel, slug) in ENGINE_PAIRS {
        let (calls, ns, cycles) = pairs.get(&(payload, kernel)).copied().unwrap_or_default();
        put(format!("engine.{slug}.calls"), calls as f64, 1);
        put(
            format!("engine.{slug}.busy_s"),
            ns as f64 * 1e-9,
            calls as usize,
        );
        put(format!("engine.{slug}.sim_cycles"), cycles as f64, 1);
        let per_cycle = if cycles == 0 {
            0.0
        } else {
            ns as f64 / cycles as f64
        };
        put(
            format!("engine.{slug}.ns_per_cycle"),
            per_cycle,
            calls as usize,
        );
    }
    let busy_ns: u64 = pairs.values().map(|p| p.1).sum();
    let busy_s = busy_ns as f64 * 1e-9;

    let mut jobs_us: Vec<u64> = inside
        .iter()
        .filter(|s| s.name == SERVE_JOB)
        .map(|s| (s.end_ns - s.start_ns) / 1_000)
        .collect();
    jobs_us.sort_unstable();
    let emits = inside.iter().filter(|s| s.name == "observe.emit").count();
    let emit_s = self_s("observe.emit");
    let c = &r.counts;
    let covered: f64 = selfs.values().sum();
    let traced_walls: Vec<f64> = traced.iter().map(|(t, _)| t.wall_s).collect();
    let plain_wall = median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let lookups = c.cache_hits + c.cache_misses;
    let n_setups = setups.len();
    let rows: [(f64, usize); 38] = [
        (busy_s, pairs.values().map(|p| p.0 as usize).sum()),
        (self_s("engine"), 1),
        (busy_s / host_wall_s, 1),
        (
            median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
            n_setups,
        ),
        (
            if lookups == 0 {
                0.0
            } else {
                c.cache_hits as f64 / lookups as f64
            },
            1,
        ),
        (c.cache_misses as f64, 1),
        (nearest_rank(&jobs_us, 50.0) as f64, jobs_us.len()),
        (nearest_rank(&jobs_us, 99.0) as f64, jobs_us.len()),
        (jobs_us.len() as f64, 1),
        (self_s(SERVE_JOB), 1),
        (c.plan_s, 1),
        (c.exec_s, 1),
        (self_s("runtime.serve"), 1),
        (
            median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
            n_setups,
        ),
        (self_s("service.serve"), 1),
        (c.service_requests as f64, 1),
        (c.service_served as f64, 1),
        (c.service_shed as f64, 1),
        (self_s(CHAOS_DISPATCH), 1),
        (c.chaos_divergences as f64, 1),
        (c.chaos_retries as f64, 1),
        (c.chaos_quarantines as f64, 1),
        (c.chaos_failed_jobs as f64, 1),
        (
            if c.chaos_total_execs == 0 {
                0.0
            } else {
                c.service_served as f64 / c.chaos_total_execs as f64
            },
            1,
        ),
        (emits as f64, 1),
        (emit_s, emits),
        (
            if emits == 0 {
                0.0
            } else {
                emit_s * 1e9 / emits as f64
            },
            emits,
        ),
        (self_s("profile.report"), 1),
        (self_s("trace.export"), 1),
        (c.export_bytes as f64, 1),
        (self_s("monitor.snapshot"), 1),
        (process_cpu_s()?, 1),
        (
            (median(&traced_walls) / plain_wall - 1.0) * 100.0,
            traced.len(),
        ),
        (plain.len() as f64, 1),
        (traced.len() as f64, 1),
        (host_wall_s, 1),
        (host_wall_s - covered, 1),
        (
            std::thread::available_parallelism().map_or(1, usize::from) as f64,
            1,
        ),
    ];
    for ((name, _), (value, samples)) in PER_LAYER.iter().zip(rows) {
        put((*name).to_owned(), value, samples);
    }
    let path = write_host_trace(w, &tree)?;
    notes.push(format!("host spans written to {path}"));
    Ok(m)
}

/// Per-layer rows: name, value, samples.
type Rows = Vec<(String, f64, usize)>;

/// Writes the host spans under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`) and returns the path.
fn write_host_trace(w: Workload, tree: &Tree) -> Result<String, String> {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&base).join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("host_trace_{}.json", w.name()));
    std::fs::write(&path, tree.chrome(HOST_PID))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// User plus system CPU time of this process and its finished threads.
fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `state`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / CLOCK_TICKS_PER_S),
        _ => Err("malformed /proc/self/stat".into()),
    }
}
