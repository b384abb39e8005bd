//! Post-processing for Chrome trace-event documents written by
//! `--trace`: joins the per-array and per-tenant tracks back into the
//! operator-facing breakdowns (`trace_report`).
//!
//! The analyzer consumes exactly what [`dsra_trace::chrome_trace`]
//! emits — `"X"` phase spans on array tracks (pid 0), `"queued"`/`"shed"`
//! spans and `"admit"`/`"complete"` instants on tenant/array tracks,
//! `"C"` counter samples — and is deterministic: same document, same
//! [`TraceAnalysis`], same rendered report.

use std::collections::BTreeMap;

use dsra_monitor::MonitorConfig;
use dsra_runtime::SocRuntime;
use dsra_trace::{
    chrome_trace, ArrayPhase, EnergyBreakdown, EventLog, MetricsRegistry, TraceEvent,
};

use crate::json::Json;

/// Installs a recording [`EventLog`] sink on the runtime when
/// `--trace <file>` was passed on the command line; returns the target
/// path so the caller can [`write_chrome_trace`] after serving.
pub fn install_trace_arg(runtime: &mut SocRuntime) -> Option<String> {
    let path = crate::arg_value("--trace")?;
    runtime.set_trace_sink(Box::new(EventLog::new()));
    Some(path)
}

/// Takes the runtime's recording sink and writes it as a Chrome
/// trace-event document at `path`.
///
/// # Panics
/// Panics when no recording sink was installed or the file can't be
/// written — trace capture fails loudly rather than silently dropping
/// the artifact.
pub fn write_chrome_trace(runtime: &mut SocRuntime, path: &str) {
    let log = runtime
        .take_trace_sink()
        .into_log()
        .expect("a recording sink was installed with --trace");
    std::fs::write(path, chrome_trace(&log)).expect("write trace file");
    println!("wrote {path}");
}

/// Virtual cycles one array spent in each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Powered but idle.
    pub idle: u64,
    /// Power-gated (not leaking, configuration lost).
    pub gated: u64,
    /// Partial (diff) reconfiguration.
    pub reconfig: u64,
    /// Full rewrite after a forced wake.
    pub waking: u64,
    /// Executing a job.
    pub exec: u64,
}

impl PhaseCycles {
    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.idle + self.gated + self.reconfig + self.waking + self.exec
    }

    /// Reconfiguration stall (diff reconfig + wake rewrites).
    pub fn stall(&self) -> u64 {
        self.reconfig + self.waking
    }
}

/// One array's timeline summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayTimeline {
    /// Array id (trace track id).
    pub array: u32,
    /// Cycles per phase.
    pub phases: PhaseCycles,
    /// Exec cycles as a fraction of the array's covered span (percent).
    pub utilization_pct: f64,
    /// Gated cycles as a fraction of the covered span (percent).
    pub gated_pct: f64,
}

/// One tenant's queue-delay breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQueue {
    /// Tenant id (trace track id).
    pub tenant: u32,
    /// Requests that reached an array (`queued` spans).
    pub dispatched: u64,
    /// Total cycles those requests waited before their array picked
    /// them up.
    pub queue_cycles: u64,
    /// Worst single queue delay (cycles).
    pub max_queue_cycles: u64,
    /// p99 queue delay (cycles, exact over the sorted delays).
    pub p99_queue_cycles: u64,
    /// Requests shed instead of served.
    pub sheds: u64,
    /// p99 queue residency at the shed instant (cycles).
    pub p99_shed_wait_cycles: u64,
}

/// One kernel configuration's serve statistics (keyed by bitstream
/// fingerprint — two specializations of the same logical kernel count
/// separately).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Bitstream fingerprint (hex).
    pub fingerprint: String,
    /// Kernel display name.
    pub kernel: String,
    /// Jobs completed with this configuration.
    pub completions: u64,
    /// Joules attributed to those jobs (dynamic + static + reconfig).
    pub energy_j: f64,
}

/// Reconfiguration stall attributed to one kernel (by name): cycles the
/// pool spent rewriting configurations to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigStall {
    /// Kernel display name.
    pub kernel: String,
    /// Reconfig + wake-rewrite cycles spent switching to this kernel.
    pub stall_cycles: u64,
    /// How many switches that was.
    pub events: u64,
}

/// Everything `trace_report` derives from one trace document.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Session metadata (`otherData`), in document order.
    pub meta: Vec<(String, String)>,
    /// Per-array timelines, array-id order.
    pub arrays: Vec<ArrayTimeline>,
    /// Per-tenant queue breakdowns, tenant-id order.
    pub tenants: Vec<TenantQueue>,
    /// Kernel serve stats, hottest (most completions) first.
    pub kernels: Vec<KernelStat>,
    /// Reconfig stall attribution, largest first.
    pub stalls: Vec<ReconfigStall>,
    /// Jobs with a `complete` instant.
    pub completes: u64,
    /// Completed jobs that also have a `queued` span (full lifecycle).
    pub full_lifecycle: u64,
    /// Shed requests.
    pub sheds: u64,
    /// Final value of every counter track plus the battery trajectory
    /// endpoints, folded into the shared metrics registry.
    pub metrics: MetricsRegistry,
}

fn arg_u64(args: &Json, key: &str) -> Option<u64> {
    args.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

fn exact_p99(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Same nearest-rank convention as `dsra_trace::hist::Histogram`,
    // but exact (no bucketing) since the raw delays are in hand.
    let rank = (sorted.len() as u64 * 99).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// Analyzes a parsed `--trace` document.
///
/// # Errors
/// Fails when the document lacks the `traceEvents` array or an event is
/// structurally malformed (missing `name`/`ph`/`pid`/`tid`/`args`).
pub fn analyze_chrome_trace(doc: &Json) -> Result<TraceAnalysis, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("document has no traceEvents array")?;
    let meta: Vec<(String, String)> = match doc.get("otherData") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
            .collect(),
        _ => Vec::new(),
    };

    let mut arrays: BTreeMap<u32, PhaseCycles> = BTreeMap::new();
    let mut array_span: BTreeMap<u32, u64> = BTreeMap::new();
    let mut queues: BTreeMap<u32, (Vec<u64>, Vec<u64>)> = BTreeMap::new(); // delays, shed waits
    let mut kernels: BTreeMap<String, KernelStat> = BTreeMap::new();
    let mut stalls: BTreeMap<String, ReconfigStall> = BTreeMap::new();
    let mut completes = 0u64;
    let mut complete_jobs: Vec<u64> = Vec::new();
    let mut queued_jobs: Vec<u64> = Vec::new();
    let mut metrics = MetricsRegistry::new();

    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let tid = arg_u64(ev, "tid").ok_or_else(|| format!("event {i} has no tid"))? as u32;
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} has no args"))?;
        match (ph, name) {
            ("X", "idle" | "gated" | "reconfig" | "waking" | "exec") => {
                let dur = arg_u64(ev, "dur").ok_or_else(|| format!("span {i} has no dur"))?;
                let ts = arg_u64(ev, "ts").ok_or_else(|| format!("span {i} has no ts"))?;
                let span_end = ts
                    .checked_add(dur)
                    .ok_or_else(|| format!("span {i} ends past the last cycle"))?;
                let p = arrays.entry(tid).or_default();
                let total = match name {
                    "idle" => &mut p.idle,
                    "gated" => &mut p.gated,
                    "reconfig" => &mut p.reconfig,
                    "waking" => &mut p.waking,
                    _ => &mut p.exec,
                };
                *total = total.saturating_add(dur);
                let end = array_span.entry(tid).or_default();
                *end = (*end).max(span_end);
                if matches!(name, "reconfig" | "waking") {
                    let kernel = args
                        .get("kernel")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_owned();
                    let s = stalls.entry(kernel.clone()).or_insert(ReconfigStall {
                        kernel,
                        stall_cycles: 0,
                        events: 0,
                    });
                    s.stall_cycles = s.stall_cycles.saturating_add(dur);
                    s.events += 1;
                }
            }
            ("X", "queued") => {
                let dur = arg_u64(ev, "dur").unwrap_or(0);
                let q = queues.entry(tid).or_default();
                q.0.push(dur);
                if let Some(job) = arg_u64(args, "job") {
                    queued_jobs.push(job);
                }
            }
            ("X", "shed") => {
                let dur = arg_u64(ev, "dur").unwrap_or(0);
                queues.entry(tid).or_default().1.push(dur);
            }
            ("i", "complete") => {
                completes += 1;
                if let Some(job) = arg_u64(args, "job") {
                    complete_jobs.push(job);
                }
                let fp = args
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_owned();
                let k = kernels.entry(fp.clone()).or_insert(KernelStat {
                    fingerprint: fp,
                    kernel: args
                        .get("kernel")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    completions: 0,
                    energy_j: 0.0,
                });
                k.completions += 1;
                for part in ["dynamic_j", "static_j", "reconfig_j"] {
                    k.energy_j += args.get(part).and_then(Json::as_f64).unwrap_or(0.0);
                }
            }
            ("i", "fault") => metrics.count("chaos_faults", 1),
            ("i", "divergence") => metrics.count("chaos_divergences", 1),
            ("i", "retry") => metrics.count("chaos_retries", 1),
            ("i", "quarantine") => metrics.count("chaos_quarantines", 1),
            ("i", "restore") => metrics.count("chaos_restores", 1),
            ("C", "battery_j") => {
                if let Some(j) = args.get("charge_j").and_then(Json::as_f64) {
                    metrics.set_gauge("battery_final_j", j);
                }
            }
            ("C", _) => {
                // Each session emits one final sample per counter track
                // (its per-session total); summing gives whole-log totals.
                metrics.count(name, arg_u64(args, "value").unwrap_or(0));
            }
            _ => {}
        }
    }

    // Coverage: completed jobs that also carry a queued span.
    queued_jobs.sort_unstable();
    let full_lifecycle = complete_jobs
        .iter()
        .filter(|j| queued_jobs.binary_search(j).is_ok())
        .count() as u64;

    let arrays: Vec<ArrayTimeline> = arrays
        .into_iter()
        .map(|(array, phases)| {
            let span = array_span.get(&array).copied().unwrap_or(0).max(1) as f64;
            ArrayTimeline {
                array,
                phases,
                utilization_pct: phases.exec as f64 * 100.0 / span,
                gated_pct: phases.gated as f64 * 100.0 / span,
            }
        })
        .collect();

    let tenants: Vec<TenantQueue> = queues
        .into_iter()
        .map(|(tenant, (mut delays, mut waits))| {
            delays.sort_unstable();
            waits.sort_unstable();
            TenantQueue {
                tenant,
                dispatched: delays.len() as u64,
                queue_cycles: delays.iter().fold(0, |a, &d| a.saturating_add(d)),
                max_queue_cycles: delays.last().copied().unwrap_or(0),
                p99_queue_cycles: exact_p99(&delays),
                sheds: waits.len() as u64,
                p99_shed_wait_cycles: exact_p99(&waits),
            }
        })
        .collect();
    let sheds = tenants.iter().map(|t| t.sheds).sum();

    let mut kernels: Vec<KernelStat> = kernels.into_values().collect();
    kernels.sort_by(|a, b| {
        b.completions
            .cmp(&a.completions)
            .then_with(|| a.fingerprint.cmp(&b.fingerprint))
    });
    let mut stalls: Vec<ReconfigStall> = stalls.into_values().collect();
    stalls.sort_by(|a, b| {
        b.stall_cycles
            .cmp(&a.stall_cycles)
            .then_with(|| a.kernel.cmp(&b.kernel))
    });

    for t in &tenants {
        metrics
            .hist_mut("queue_delay_cycles", 2_500, 2_048)
            .record(t.queue_cycles.checked_div(t.dispatched).unwrap_or(0));
    }
    metrics.count("trace_completes", completes);
    metrics.count("trace_sheds", sheds);

    Ok(TraceAnalysis {
        meta,
        arrays,
        tenants,
        kernels,
        stalls,
        completes,
        full_lifecycle,
        sheds,
        metrics,
    })
}

impl TraceAnalysis {
    /// Completed jobs with a full lifecycle span chain, as a percentage
    /// of all completed jobs (the ≥95 % coverage gate).
    pub fn coverage_pct(&self) -> f64 {
        if self.completes == 0 {
            return 100.0;
        }
        self.full_lifecycle as f64 * 100.0 / self.completes as f64
    }

    /// Total queue-wait cycles across all tenants.
    pub fn total_queue_cycles(&self) -> u64 {
        self.tenants.iter().map(|t| t.queue_cycles).sum()
    }

    /// Total reconfiguration stall (reconfig + wake rewrites), cycles.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls.iter().map(|s| s.stall_cycles).sum()
    }

    /// Total exec cycles across the pool.
    pub fn total_exec_cycles(&self) -> u64 {
        self.arrays.iter().map(|a| a.phases.exec).sum()
    }

    /// The operator report: queue-delay breakdown, per-array timelines,
    /// reconfig-stall attribution, top-`k` hot kernels. Deterministic.
    pub fn render(&self, top_k: usize) -> String {
        let mut s = String::new();
        for (k, v) in &self.meta {
            s.push_str(&format!("{k:<18}: {v}\n"));
        }
        s.push_str(&format!(
            "jobs               : {} completed ({} full-lifecycle, {:.1}% coverage), {} shed\n",
            self.completes,
            self.full_lifecycle,
            self.coverage_pct(),
            self.sheds
        ));
        s.push_str(&format!(
            "cycles             : {} exec, {} queue-wait, {} reconfig-stall\n",
            self.total_exec_cycles(),
            self.total_queue_cycles(),
            self.total_stall_cycles()
        ));
        s.push_str("array  util%  gated%       idle      gated   reconfig     waking       exec\n");
        for a in &self.arrays {
            s.push_str(&format!(
                "{:>5}  {:>5.1}  {:>6.1} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                a.array,
                a.utilization_pct,
                a.gated_pct,
                a.phases.idle,
                a.phases.gated,
                a.phases.reconfig,
                a.phases.waking,
                a.phases.exec
            ));
        }
        s.push_str("tenant  dispatched  queue-cyc  p99-queue  max-queue  sheds  p99-shed-wait\n");
        for t in &self.tenants {
            s.push_str(&format!(
                "{:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5}  {:>13}\n",
                t.tenant,
                t.dispatched,
                t.queue_cycles,
                t.p99_queue_cycles,
                t.max_queue_cycles,
                t.sheds,
                t.p99_shed_wait_cycles
            ));
        }
        s.push_str("reconfig stall by kernel:\n");
        for st in self.stalls.iter().take(top_k) {
            s.push_str(&format!(
                "  {:<28} {:>10} cycles over {} switches\n",
                st.kernel, st.stall_cycles, st.events
            ));
        }
        s.push_str(&format!("top-{top_k} hot kernels by fingerprint:\n"));
        for k in self.kernels.iter().take(top_k) {
            s.push_str(&format!(
                "  {}  {:<24} {:>6} jobs  {:>10.3} J\n",
                k.fingerprint, k.kernel, k.completions, k.energy_j
            ));
        }
        s.push_str(&self.metrics.render());
        s
    }
}

// `TraceEvent` carries `&'static str` class/kind/counter tags; a document
// round-trip has to map the known vocabulary back onto those statics.
fn static_class(s: &str) -> &'static str {
    match s {
        "quality" => "quality",
        "low-power" => "low-power",
        "deadline" => "deadline",
        "background" => "background",
        _ => "?",
    }
}

fn static_kind(s: &str) -> &'static str {
    match s {
        "dct" => "dct",
        "me" => "me",
        "encode" => "encode",
        _ => "?",
    }
}

fn static_counter(s: &str) -> Option<&'static str> {
    match s {
        "cache_hits" => Some("cache_hits"),
        "cache_misses" => Some("cache_misses"),
        "diff_probes" => Some("diff_probes"),
        "diff_memo_misses" => Some("diff_memo_misses"),
        _ => None,
    }
}

fn static_fault_kind(s: &str) -> &'static str {
    match s {
        "stuck_at" => "stuck_at",
        "transient" => "transient",
        "reconfig" => "reconfig",
        "death" => "death",
        "brownout" => "brownout",
        _ => "?",
    }
}

/// Reconstructs the monitor-relevant [`TraceEvent`] stream from a parsed
/// `--trace` document, in virtual-time order (ties broken enqueue-first,
/// so a replaying [`dsra_monitor::Monitor`] joins arrivals before their
/// same-cycle completions and never seals a window early).
///
/// The inverse of [`dsra_trace::chrome_trace`] up to what the exporter
/// keeps: `JobSchedule`/`Meta` events are not rebuilt (the monitor
/// ignores both), shed arrivals lose their deadline (shed jobs never
/// complete, so no violation check reads it), and `battery_j` samples
/// round-trip through the exporter's 6-decimal rendering.
///
/// # Errors
/// Fails when the document lacks `traceEvents` or an event is missing
/// the fields its kind requires.
pub fn events_from_chrome(doc: &Json) -> Result<Vec<TraceEvent>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("document has no traceEvents array")?;
    let mut out: Vec<TraceEvent> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        let tid = arg_u64(ev, "tid").ok_or_else(|| format!("event {i} has no tid"))? as u32;
        let ts = arg_u64(ev, "ts").unwrap_or(0);
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i} has no args"))?;
        let job = || {
            arg_u64(args, "job")
                .map(|j| j as u32)
                .ok_or_else(|| format!("event {i} ({name}) has no job"))
        };
        let class = args.get("class").and_then(Json::as_str).unwrap_or("?");
        let kind = args.get("kind").and_then(Json::as_str).unwrap_or("?");
        match (ph, name) {
            ("X", "idle" | "gated" | "reconfig" | "waking" | "exec") => {
                let dur = arg_u64(ev, "dur").ok_or_else(|| format!("span {i} has no dur"))?;
                let phase = match name {
                    "idle" => ArrayPhase::Idle,
                    "gated" => ArrayPhase::Gated,
                    "reconfig" => ArrayPhase::Reconfig,
                    "waking" => ArrayPhase::Waking,
                    _ => ArrayPhase::Exec,
                };
                out.push(TraceEvent::ArrayInterval {
                    array: tid,
                    phase,
                    start: ts,
                    end: ts
                        .checked_add(dur)
                        .ok_or_else(|| format!("span {i} ends past the last cycle"))?,
                    job: arg_u64(args, "job").map(|j| j as u32),
                    kernel: args.get("kernel").and_then(Json::as_str).map(str::to_owned),
                });
            }
            ("X", "queued") => {
                out.push(TraceEvent::JobEnqueue {
                    t: ts,
                    job: job()?,
                    tenant: tid,
                    class: static_class(class),
                    kind: static_kind(kind),
                    deadline: arg_u64(args, "deadline").unwrap_or(0),
                });
            }
            ("X", "shed") => {
                let queued = arg_u64(ev, "dur").unwrap_or(0);
                out.push(TraceEvent::JobEnqueue {
                    t: ts,
                    job: job()?,
                    tenant: tid,
                    class: static_class(class),
                    kind: static_kind(kind),
                    deadline: 0,
                });
                out.push(TraceEvent::JobShed {
                    t: ts
                        .checked_add(queued)
                        .ok_or_else(|| format!("shed {i} ends past the last cycle"))?,
                    job: job()?,
                    tenant: tid,
                    queued,
                });
            }
            ("i", "admit") => out.push(TraceEvent::JobAdmit { t: ts, job: job()? }),
            ("i", "fault") => out.push(TraceEvent::FaultInjected {
                t: ts,
                array: tid,
                kind: static_fault_kind(args.get("kind").and_then(Json::as_str).unwrap_or("?")),
            }),
            ("i", "divergence") => out.push(TraceEvent::DivergenceDetected {
                t: ts,
                job: job()?,
                array: tid,
            }),
            ("i", "retry") => out.push(TraceEvent::JobRetry {
                t: ts,
                job: job()?,
                attempt: arg_u64(args, "attempt").unwrap_or(0) as u32,
            }),
            ("i", "quarantine") => out.push(TraceEvent::ArrayQuarantine {
                t: ts,
                array: tid,
                strikes: arg_u64(args, "strikes").unwrap_or(0) as u32,
            }),
            ("i", "restore") => out.push(TraceEvent::ArrayRestore { t: ts, array: tid }),
            ("i", "complete") => {
                let checksum = args
                    .get("checksum")
                    .and_then(Json::as_str)
                    .and_then(|s| s.strip_prefix("0x"))
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or(0);
                let part = |k: &str| -> f64 { args.get(k).and_then(Json::as_f64).unwrap_or(0.0) };
                out.push(TraceEvent::JobComplete {
                    t: ts,
                    job: job()?,
                    checksum,
                    energy: EnergyBreakdown {
                        dynamic_j: part("dynamic_j"),
                        static_j: part("static_j"),
                        reconfig_j: part("reconfig_j"),
                    },
                });
            }
            ("C", "battery_j") => {
                let charge_j = args
                    .get("charge_j")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("battery sample {i} has no charge_j"))?;
                out.push(TraceEvent::BatteryLevel { t: ts, charge_j });
            }
            ("C", _) => {
                if let Some(counter) = static_counter(name) {
                    out.push(TraceEvent::Counter {
                        t: ts,
                        name: counter,
                        value: arg_u64(args, "value").unwrap_or(0),
                    });
                }
            }
            _ => {}
        }
    }
    let rank = |ev: &TraceEvent| match ev {
        TraceEvent::JobEnqueue { .. } => 0u8,
        _ => 1,
    };
    out.sort_by_key(|ev| (dsra_monitor::event_end_cycle(ev), rank(ev)));
    Ok(out)
}

/// Rebuilds the online monitor's configuration from the geometry
/// metadata a monitored session stamps into `otherData`
/// (`monitor_window_cycles`, `monitor_hist_bucket_cycles`,
/// `monitor_seal_grace_cycles`, `monitor_tenant_budgets` as
/// space-joined `tenant:budget_pct` pairs).
/// Missing keys keep the [`MonitorConfig`] defaults; `keep_timeline` is
/// on, since a post-hoc replay exists to print the budget timeline.
pub fn slo_config_from_meta(meta: &[(String, String)]) -> MonitorConfig {
    let lookup = |key: &str| meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let mut cfg = MonitorConfig {
        keep_timeline: true,
        ..MonitorConfig::default()
    };
    if let Some(w) = lookup("monitor_window_cycles").and_then(|v| v.parse().ok()) {
        cfg.window_cycles = w;
    }
    if let Some(b) = lookup("monitor_hist_bucket_cycles").and_then(|v| v.parse().ok()) {
        cfg.hist_bucket_cycles = b;
    }
    if let Some(g) = lookup("monitor_seal_grace_cycles").and_then(|v| v.parse().ok()) {
        cfg.seal_grace_cycles = g;
    }
    if let Some(pairs) = lookup("monitor_tenant_budgets") {
        cfg.tenant_budgets = pairs
            .split_whitespace()
            .filter_map(|pair| {
                let (t, b) = pair.split_once(':')?;
                Some((t.parse().ok()?, b.parse().ok()?))
            })
            .collect();
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use dsra_trace::TraceSink;

    fn sample_doc() -> Json {
        let mut log = EventLog::new();
        log.emit(TraceEvent::Meta {
            key: "mode",
            value: "stream".into(),
        });
        for (job, tenant) in [(1u32, 0u32), (2, 1)] {
            log.emit(TraceEvent::JobEnqueue {
                t: 0,
                job,
                tenant,
                class: "deadline",
                kind: "dct",
                deadline: 10_000,
            });
            log.emit(TraceEvent::JobAdmit { t: 0, job });
        }
        log.emit(TraceEvent::JobSchedule {
            t: 100,
            job: 1,
            array: 0,
            kernel: "dct8".into(),
            fingerprint: "aa".repeat(16),
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Idle,
            start: 0,
            end: 100,
            job: None,
            kernel: None,
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Reconfig,
            start: 100,
            end: 400,
            job: Some(1),
            kernel: Some("dct8".into()),
        });
        log.emit(TraceEvent::ArrayInterval {
            array: 0,
            phase: ArrayPhase::Exec,
            start: 400,
            end: 1_000,
            job: Some(1),
            kernel: Some("dct8".into()),
        });
        log.emit(TraceEvent::JobComplete {
            t: 1_000,
            job: 1,
            checksum: 7,
            energy: EnergyBreakdown {
                dynamic_j: 1.0,
                static_j: 0.5,
                reconfig_j: 0.25,
            },
        });
        log.emit(TraceEvent::JobShed {
            t: 900,
            job: 2,
            tenant: 1,
            queued: 900,
        });
        log.emit(TraceEvent::Counter {
            t: 1_000,
            name: "cache_hits",
            value: 4,
        });
        log.emit(TraceEvent::BatteryLevel {
            t: 1_000,
            charge_j: 41.5,
        });
        parse_json(&chrome_trace(&log)).expect("exporter emits strict JSON")
    }

    #[test]
    fn analysis_joins_tracks_back_into_breakdowns() {
        let a = analyze_chrome_trace(&sample_doc()).unwrap();
        assert_eq!(a.completes, 1);
        assert_eq!(a.full_lifecycle, 1);
        assert_eq!(a.sheds, 1);
        assert!((a.coverage_pct() - 100.0).abs() < 1e-12);
        assert_eq!(a.arrays.len(), 1);
        assert_eq!(a.arrays[0].phases.idle, 100);
        assert_eq!(a.arrays[0].phases.reconfig, 300);
        assert_eq!(a.arrays[0].phases.exec, 600);
        assert!((a.arrays[0].utilization_pct - 60.0).abs() < 1e-9);
        assert_eq!(a.total_stall_cycles(), 300);
        assert_eq!(a.stalls[0].kernel, "dct8");
        assert_eq!(a.kernels[0].completions, 1);
        assert!((a.kernels[0].energy_j - 1.75).abs() < 1e-12);
        // tenant 0 queued 100 cycles; tenant 1 shed after 900.
        assert_eq!(a.tenants[0].queue_cycles, 100);
        assert_eq!(a.tenants[1].sheds, 1);
        assert_eq!(a.tenants[1].p99_shed_wait_cycles, 900);
        assert_eq!(a.metrics.counter("cache_hits"), 4);
        let report = a.render(5);
        assert!(report.contains("mode"));
        assert!(report.contains("dct8"));
        assert_eq!(report, a.render(5));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let doc = parse_json("{\"a\": 1}").unwrap();
        assert!(analyze_chrome_trace(&doc).is_err());
        assert!(events_from_chrome(&doc).is_err());
    }

    #[test]
    fn chrome_documents_reconstruct_the_monitor_event_stream() {
        let evs = events_from_chrome(&sample_doc()).unwrap();
        let count = |tag: &str| evs.iter().filter(|e| e.kind_tag() == tag).count();
        // One queued span + one shed span, each rebuilding its arrival.
        assert_eq!(count("enqueue"), 2);
        assert_eq!(count("admit"), 2);
        assert_eq!(count("shed"), 1);
        assert_eq!(count("complete"), 1);
        assert_eq!(count("interval"), 3);
        assert_eq!(count("battery"), 1);
        assert_eq!(count("counter"), 1);
        // Virtual-time order, arrivals first on ties (job 1 enqueues and
        // admits at cycle 0).
        let ends: Vec<u64> = evs.iter().map(dsra_monitor::event_end_cycle).collect();
        assert!(ends.windows(2).all(|w| w[0] <= w[1]), "unsorted: {ends:?}");
        assert_eq!(evs[0].kind_tag(), "enqueue");
        // The completed job keeps its deadline and energy attribution.
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::JobEnqueue {
                job: 1,
                deadline: 10_000,
                class: "deadline",
                kind: "dct",
                ..
            }
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::JobComplete { job: 1, checksum: 7, energy, .. }
                if (energy.total_j() - 1.75).abs() < 1e-12
        )));
    }

    #[test]
    fn slo_config_reads_the_monitor_geometry_meta() {
        let meta = vec![
            ("monitor_window_cycles".to_owned(), "12500".to_owned()),
            ("monitor_hist_bucket_cycles".to_owned(), "125".to_owned()),
            ("monitor_seal_grace_cycles".to_owned(), "49".to_owned()),
            (
                "monitor_tenant_budgets".to_owned(),
                "0:2 1:10 2:50".to_owned(),
            ),
        ];
        let cfg = slo_config_from_meta(&meta);
        assert_eq!(cfg.window_cycles, 12_500);
        assert_eq!(cfg.hist_bucket_cycles, 125);
        assert_eq!(cfg.seal_grace_cycles, 49);
        assert_eq!(cfg.tenant_budgets, vec![(0, 2.0), (1, 10.0), (2, 50.0)]);
        assert!(cfg.keep_timeline, "replay keeps the budget timeline");
        // Absent keys keep the defaults.
        let d = slo_config_from_meta(&[]);
        assert_eq!(d.window_cycles, MonitorConfig::default().window_cycles);
        assert!(d.tenant_budgets.is_empty());
    }
}
