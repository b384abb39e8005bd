//! Post-processing for Chrome trace-event documents written by
//! `--trace`: joins the per-array and per-tenant tracks back into the
//! operator-facing breakdowns (`trace_report`).
//!
//! One reader, [`events_from_chrome`], turns exactly what
//! [`dsra_trace::chrome_trace`] emits — `"X"` phase spans on array
//! tracks (pid 0), `"queued"`/`"shed"` spans and `"admit"`/`"complete"`
//! instants on tenant/array tracks, `"C"` counter samples — back into
//! [`TraceEvent`]s. Everything after it is a fold over events:
//! [`TraceAnalysis::fold`] for the report and [`slo_replay`] for the
//! monitor, so a live [`EventLog`] and its exported document give the
//! same answers. Deterministic: same document, same [`TraceAnalysis`],
//! same rendered report.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use dsra_monitor::{event_end_cycle, Monitor, MonitorConfig};
use dsra_profile::KernelEnergy;
use dsra_runtime::SocRuntime;
use dsra_trace::{
    chrome_trace, job_spans, ArrayPhase, EnergyBreakdown, EventLog, MetricsRegistry,
    PhaseBreakdown, TraceEvent,
};

use crate::json::Json;

/// Installs a recording [`EventLog`] sink on the runtime when `path`, a
/// `--trace <file>` value, was given; pass the same path to
/// [`write_chrome_trace`] after serving.
pub fn install_trace(runtime: &mut SocRuntime, path: Option<&str>) {
    if path.is_some() {
        runtime.set_trace_sink(Box::new(EventLog::new()));
    }
}

/// Takes the runtime's recording sink and writes it as a Chrome
/// trace-event document at `path`, when one was given.
///
/// A file that can't be written ends the run with status 2
/// ([`crate::write_file`]) — trace capture fails loudly rather than
/// silently dropping the artifact.
///
/// # Panics
/// Panics when `path` is set but no recording sink was installed.
pub fn write_chrome_trace(runtime: &mut SocRuntime, path: Option<&str>) {
    let Some(path) = path else { return };
    let log = runtime
        .take_trace_sink()
        .into_log()
        .expect("a recording sink was installed with --trace");
    crate::write_file(path, chrome_trace(&log));
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

/// Everything `trace_report` derives from one event stream.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Session metadata, first value per key, in stream order.
    pub meta: Vec<(String, String)>,
    /// Per-array phase accounts, array-id order.
    pub arrays: BTreeMap<u32, PhaseBreakdown>,
    /// Per-tenant queue breakdowns, tenant-id order.
    pub tenants: Vec<TenantQueue>,
    /// Completed jobs and their energy per bitstream fingerprint (two
    /// specializations of one logical kernel count separately), hottest
    /// (most completions) first.
    pub kernels: Vec<(String, KernelEnergy)>,
    /// Reconfig stall attribution, largest first.
    pub stalls: Vec<ReconfigStall>,
    /// Jobs with a `complete` instant.
    pub completes: u64,
    /// Completed jobs that also have a `queued` span (full lifecycle).
    pub full_lifecycle: u64,
    /// Shed requests.
    pub sheds: u64,
    /// Counter samples (per-session totals, summed), chaos event counts,
    /// the last battery charge and the queue-delay histogram.
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

/// Analyzes a parsed `--trace` document: [`events_from_chrome`] folded
/// by [`TraceAnalysis::fold`], with the metadata read from `otherData`.
///
/// # Errors
/// Fails where [`events_from_chrome`] does.
pub fn analyze_chrome_trace(doc: &Json) -> Result<TraceAnalysis, String> {
    let mut analysis = TraceAnalysis::fold(&events_from_chrome(doc)?);
    analysis.meta = chrome_meta(doc);
    Ok(analysis)
}

/// The document's session metadata (`otherData`), in document order.
fn chrome_meta(doc: &Json) -> Vec<(String, String)> {
    match doc.get("otherData") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
            .collect(),
        _ => Vec::new(),
    }
}

impl TraceAnalysis {
    /// Folds an event stream into the report. The stream is either a
    /// live [`EventLog`] in emission order or [`events_from_chrome`]'s
    /// document order, and both fold to the same analysis:
    ///
    /// * array intervals charge a [`PhaseBreakdown`] per array, the
    ///   account the online monitor and profiler keep;
    /// * lifecycle events join per job instance in stream order
    ///   ([`job_spans`]), the join the Chrome exporter writes spans
    ///   from, so ids reused across serves never mix;
    /// * counter samples are per-session totals and are summed.
    pub fn fold(events: &[TraceEvent]) -> TraceAnalysis {
        let mut meta: Vec<(String, String)> = Vec::new();
        let mut arrays: BTreeMap<u32, PhaseBreakdown> = BTreeMap::new();
        let mut stalls: BTreeMap<String, (u64, u64)> = BTreeMap::new(); // cycles, switches
        let mut metrics = MetricsRegistry::new();
        for ev in events {
            match ev {
                TraceEvent::Meta { key, value } if !meta.iter().any(|(k, _)| k == key) => {
                    meta.push(((*key).to_owned(), value.clone()));
                }
                // The exporter drops empty intervals, so they open no
                // array entry and count as no switch.
                TraceEvent::ArrayInterval {
                    array,
                    phase,
                    start,
                    end,
                    kernel,
                    ..
                } if end > start => {
                    arrays
                        .entry(*array)
                        .or_default()
                        .charge(*phase, *start, *end);
                    if matches!(phase, ArrayPhase::Reconfig | ArrayPhase::Waking) {
                        let kernel = kernel.as_deref().unwrap_or("?").to_owned();
                        let (cycles, switches) = stalls.entry(kernel).or_default();
                        *cycles = cycles.saturating_add(end - start);
                        *switches += 1;
                    }
                }
                TraceEvent::FaultInjected { .. } => metrics.count("chaos_faults", 1),
                TraceEvent::DivergenceDetected { .. } => metrics.count("chaos_divergences", 1),
                TraceEvent::JobRetry { .. } => metrics.count("chaos_retries", 1),
                TraceEvent::ArrayQuarantine { .. } => metrics.count("chaos_quarantines", 1),
                TraceEvent::ArrayRestore { .. } => metrics.count("chaos_restores", 1),
                TraceEvent::BatteryLevel { charge_j, .. } => {
                    metrics.set_gauge("battery_final_j", *charge_j);
                }
                TraceEvent::Counter { name, value, .. } => metrics.count(name, *value),
                _ => {}
            }
        }

        // Lifecycle, under the exporter's own conditions: a queued span
        // needs an enqueue and a schedule, a complete instant needs a
        // completion on a scheduled array.
        let mut queues: BTreeMap<u32, (Vec<u64>, Vec<u64>)> = BTreeMap::new(); // delays, shed waits
        let mut kernels: BTreeMap<String, KernelEnergy> = BTreeMap::new();
        let (mut completes, mut full_lifecycle) = (0u64, 0u64);
        for s in job_spans(events) {
            let queued = s.enqueue.zip(s.schedule);
            if let Some((enqueue, schedule)) = queued {
                queues
                    .entry(s.tenant)
                    .or_default()
                    .0
                    .push(schedule.saturating_sub(enqueue));
            }
            if let Some((_, wait)) = s.shed {
                queues.entry(s.tenant).or_default().1.push(wait);
            }
            if s.complete.is_some() && s.array.is_some() {
                completes += 1;
                full_lifecycle += u64::from(queued.is_some());
                let energy = s.energy.unwrap_or_default();
                let k = kernels
                    .entry(s.fingerprint.unwrap_or_else(|| "?".into()))
                    .or_default();
                k.kernel = s.kernel.unwrap_or_else(|| "?".into());
                k.completions += 1;
                k.dynamic_j += energy.dynamic_j;
                k.static_j += energy.static_j;
                k.reconfig_j += energy.reconfig_j;
            }
        }

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

        let mut kernels: Vec<(String, KernelEnergy)> = kernels.into_iter().collect();
        // Stable sorts: ties keep fingerprint / kernel-name order.
        kernels.sort_by_key(|(_, k)| Reverse(k.completions));
        let mut stalls: Vec<ReconfigStall> = stalls
            .into_iter()
            .map(|(kernel, (stall_cycles, events))| ReconfigStall {
                kernel,
                stall_cycles,
                events,
            })
            .collect();
        stalls.sort_by_key(|s| Reverse(s.stall_cycles));

        for t in &tenants {
            metrics
                .hist_mut("queue_delay_cycles", 2_500, 2_048)
                .record(t.queue_cycles.checked_div(t.dispatched).unwrap_or(0));
        }
        metrics.count("trace_completes", completes);
        metrics.count("trace_sheds", sheds);

        TraceAnalysis {
            meta,
            arrays,
            tenants,
            kernels,
            stalls,
            completes,
            full_lifecycle,
            sheds,
            metrics,
        }
    }

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
        self.tenants
            .iter()
            .fold(0, |a, t| a.saturating_add(t.queue_cycles))
    }

    /// Total reconfiguration stall (reconfig + wake rewrites), cycles.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls
            .iter()
            .fold(0, |a, s| a.saturating_add(s.stall_cycles))
    }

    /// Total exec cycles across the pool.
    pub fn total_exec_cycles(&self) -> u64 {
        self.arrays
            .values()
            .fold(0, |a, p| a.saturating_add(p.exec))
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
        for (array, p) in &self.arrays {
            s.push_str(&format!(
                "{:>5}  {:>5.1}  {:>6.1} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                array,
                p.utilization_pct(),
                p.gated_pct(),
                p.idle,
                p.gated,
                p.reconfig,
                p.waking,
                p.exec
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
        for (fingerprint, k) in self.kernels.iter().take(top_k) {
            s.push_str(&format!(
                "  {}  {:<24} {:>6} jobs  {:>10.3} eu\n",
                fingerprint,
                k.kernel,
                k.completions,
                k.total_j()
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

/// Reconstructs the [`TraceEvent`] stream from a parsed `--trace`
/// document, in document order. This is the only reader of
/// `traceEvents`: `trace_report`'s analysis and its `--slo` replay both
/// start here.
///
/// The inverse of [`dsra_trace::chrome_trace`] up to what the exporter
/// keeps:
/// * each `complete` instant rebuilds its `JobSchedule` (array = the
///   track, kernel and fingerprint from the instant's args, stamped at
///   the end of the span's `queued` record, which directly precedes it;
///   a job with no `queued` record is stamped at its completion);
/// * `Meta` events are not rebuilt (`otherData` holds them), shed
///   arrivals lose their deadline (shed jobs never complete, so no
///   violation check reads it), and energies and `battery_j` samples
///   round-trip through the exporter's 6-decimal rendering.
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
    // `(job, schedule cycle)` of a `queued` record, for the record after it.
    let mut queued_end: Option<(u32, u64)> = None;
    for (i, ev) in events.iter().enumerate() {
        let queued = queued_end.take();
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
                let job = job()?;
                out.push(TraceEvent::JobEnqueue {
                    t: ts,
                    job,
                    tenant: tid,
                    class: static_class(class),
                    kind: static_kind(kind),
                    deadline: arg_u64(args, "deadline").unwrap_or(0),
                });
                let schedule = ts
                    .checked_add(arg_u64(ev, "dur").unwrap_or(0))
                    .ok_or_else(|| format!("queued {i} ends past the last cycle"))?;
                queued_end = Some((job, schedule));
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
                let job = job()?;
                let text = |k: &str| args.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
                out.push(TraceEvent::JobSchedule {
                    t: queued.filter(|&(j, _)| j == job).map_or(ts, |(_, t)| t),
                    job,
                    array: tid,
                    kernel: text("kernel"),
                    fingerprint: text("fingerprint"),
                });
                let checksum = args
                    .get("checksum")
                    .and_then(Json::as_str)
                    .and_then(|s| s.strip_prefix("0x"))
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or(0);
                let part = |k: &str| -> f64 { args.get(k).and_then(Json::as_f64).unwrap_or(0.0) };
                out.push(TraceEvent::JobComplete {
                    t: ts,
                    job,
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
    Ok(out)
}

/// Most windows a `trace_report --slo` replay seals: about 65 s of
/// virtual time at the service layer's 250 µs windows. A replay seals,
/// and with its timeline on records, every window up to the document's
/// last cycle, so a far-future stamp would otherwise hang it.
const MAX_SLO_WINDOWS: u64 = 1 << 18;

/// The `trace_report --slo` replay: rebuilds the monitor configuration
/// from the document's metadata ([`slo_config_from_meta`]), orders the
/// events by virtual time (ties enqueue-first, so arrivals join before
/// their same-cycle completions and no window seals early) and replays
/// them through a fresh [`Monitor`].
///
/// # Errors
/// Fails where [`events_from_chrome`] does, on zero window or bucket
/// widths, when the last event needs more than 2^18 windows, and when
/// the window and seal grace put the last window's seal cycle past
/// `u64::MAX`.
pub fn slo_replay(doc: &Json) -> Result<Monitor, String> {
    let mut events = events_from_chrome(doc)?;
    let cfg = slo_config_from_meta(&chrome_meta(doc));
    if cfg.window_cycles == 0 || cfg.hist_bucket_cycles == 0 {
        return Err("monitor window and bucket widths must be positive".into());
    }
    let end = events.iter().map(event_end_cycle).max().unwrap_or(0);
    if end / cfg.window_cycles >= MAX_SLO_WINDOWS {
        return Err(format!(
            "the trace reaches cycle {end}, past the {MAX_SLO_WINDOWS} windows of {} cycles \
             an SLO replay seals",
            cfg.window_cycles
        ));
    }
    // The monitor seals window `w` once its watermark reaches
    // `(w + 1) · window + grace`; the last window must be sealable.
    let sealable = (end / cfg.window_cycles + 1)
        .checked_mul(cfg.window_cycles)
        .and_then(|c| c.checked_add(cfg.seal_grace_cycles));
    if sealable.is_none() {
        return Err(format!(
            "monitor_window_cycles {} with monitor_seal_grace_cycles {} puts the seal of the \
             window holding cycle {end} past u64::MAX",
            cfg.window_cycles, cfg.seal_grace_cycles
        ));
    }
    let rank = |ev: &TraceEvent| match ev {
        TraceEvent::JobEnqueue { .. } => 0u8,
        _ => 1,
    };
    events.sort_by_key(|ev| (event_end_cycle(ev), rank(ev)));
    Ok(Monitor::replay(cfg, &events))
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
        assert_eq!(a.arrays[&0].idle, 100);
        assert_eq!(a.arrays[&0].reconfig, 300);
        assert_eq!(a.arrays[&0].exec, 600);
        assert!((a.arrays[&0].utilization_pct() - 60.0).abs() < 1e-9);
        assert_eq!(a.total_stall_cycles(), 300);
        assert_eq!(a.stalls[0].kernel, "dct8");
        assert_eq!(a.kernels[0].0, "aa".repeat(16));
        assert_eq!(a.kernels[0].1.kernel, "dct8");
        assert_eq!(a.kernels[0].1.completions, 1);
        assert!((a.kernels[0].1.total_j() - 1.75).abs() < 1e-12);
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
        // Array-track records in emission order, then each job's
        // lifecycle records: job 1 admits, queues, is scheduled and
        // completes; job 2 admits and is shed (its span rebuilds the
        // arrival too).
        let tags: Vec<&str> = evs.iter().map(TraceEvent::kind_tag).collect();
        assert_eq!(
            tags,
            [
                "interval", "interval", "interval", "counter", "battery", "admit", "enqueue",
                "schedule", "complete", "admit", "enqueue", "shed"
            ]
        );
        // The completed job keeps its deadline and energy attribution,
        // and its schedule comes back from the queued span's end and the
        // complete instant's track and args.
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
            TraceEvent::JobSchedule { t: 100, job: 1, array: 0, kernel, fingerprint }
                if kernel == "dct8" && *fingerprint == "aa".repeat(16)
        )));
        assert!(evs.iter().any(|e| matches!(
            e,
            TraceEvent::JobComplete { job: 1, checksum: 7, energy, .. }
                if (energy.total_j() - 1.75).abs() < 1e-12
        )));
    }

    #[test]
    fn the_slo_replay_orders_events_by_virtual_time() {
        let doc = sample_doc();
        let replayed = slo_replay(&doc).unwrap();
        let mut events = events_from_chrome(&doc).unwrap();
        let ends: Vec<u64> = events.iter().map(event_end_cycle).collect();
        assert!(
            ends.windows(2).any(|w| w[0] > w[1]),
            "document order is not time order: {ends:?}"
        );
        // Arrivals first on ties: job 1 enqueues and admits at cycle 0.
        events.sort_by_key(|ev| {
            (
                event_end_cycle(ev),
                !matches!(ev, TraceEvent::JobEnqueue { .. }),
            )
        });
        assert_eq!(events[0].kind_tag(), "enqueue");
        let sorted = Monitor::replay(slo_config_from_meta(&[]), &events);
        assert_eq!(replayed.final_snapshot(), sorted.final_snapshot());
        assert_eq!(replayed.final_snapshot().completes, 1);
        assert_eq!(replayed.drops(), (0, 0));
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
