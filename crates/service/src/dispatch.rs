//! The deterministic virtual-time dispatcher: admits arrivals, sheds or
//! dispatches queued requests through the runtime's streaming hooks, and
//! scales the array pool elastically.
//!
//! The loop advances a virtual µs clock from event to event (next
//! arrival, next array becoming free, next gate-eligibility instant) and
//! is a pure function of `(trace, runtime config, service config)` — no
//! wall-clock, no thread timing, so E13 is byte-identical across runs.
//!
//! Elastic pool scaling is *non*-retentive power gating: an array idle
//! longer than [`PoolConfig::gate_idle_us`] with no queued work of its
//! kind is powered off through [`SocRuntime::stream_gate`] (it stops
//! leaking but loses its configuration); backlog at or above
//! [`PoolConfig::wake_backlog`] wakes gated arrays of that kind, whose
//! first job then pays the full configuration rewrite — the wake penalty
//! the scheduler prices exactly like any cold bitstream write.

use dsra_core::error::{CoreError, Result};
use dsra_monitor::{Monitor, MonitorConfig, MonitorHandle, MonitorSink};
use dsra_runtime::{ArrayKind, SocRuntime, StreamArrayStatus, StreamedJob, CYCLES_PER_US};
use dsra_trace::{TraceEvent, TraceSink};
use dsra_video::JobSpec;

/// Interposes on the dispatcher's serve step — the extension point the
/// fault-recovery layer (`dsra-chaos`) plugs into. The default
/// ([`NoopDispatch`]) serves every job straight through
/// [`SocRuntime::stream_serve_job`], so the hooked loop is byte-identical
/// to the plain one when no hook logic fires.
pub trait DispatchHook {
    /// Runs once per dispatcher iteration at virtual instant `now_us`,
    /// before admission and dispatch — where a chaos hook activates
    /// scheduled faults and probes quarantined arrays.
    fn on_tick(&mut self, _runtime: &mut SocRuntime, _now_us: u64) {}

    /// The next virtual instant this hook needs the loop to visit (a
    /// scheduled fault, a quarantine probe), if any — folded into the
    /// dispatcher's time advance so hook events are never skipped over.
    fn next_event_us(&mut self, _now_us: u64) -> Option<u64> {
        None
    }

    /// Serves one admitted request, with full freedom to retry through
    /// [`SocRuntime::stream_serve_job_excluding`] or quarantine arrays.
    /// `Ok(None)` marks the request *failed* — detected as corrupt and
    /// not recoverable within the retry budget — which the dispatcher
    /// reports as a [`RequestOutcome`] with `failed` set (neither served
    /// nor shed).
    ///
    /// # Errors
    /// Propagates runtime compile/execution failures.
    fn dispatch(
        &mut self,
        runtime: &mut SocRuntime,
        job: &JobSpec,
        now_us: u64,
    ) -> Result<Option<StreamedJob>>;
}

/// The identity [`DispatchHook`]: serve every job directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopDispatch;

impl DispatchHook for NoopDispatch {
    fn dispatch(
        &mut self,
        runtime: &mut SocRuntime,
        job: &JobSpec,
        _now_us: u64,
    ) -> Result<Option<StreamedJob>> {
        runtime.stream_serve_job(job).map(Some)
    }
}

use crate::admit::{AdmissionQueue, AdmitPolicy, MonitorAwareAdmission};
use crate::report::{RequestOutcome, ServiceReport, TenantReport};
use crate::trace::{generate_trace, pool_for, Request, TenantSpec, TraceConfig};

/// Elastic array-pool parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// `false` keeps every array powered for the whole session (the
    /// fixed-pool baseline).
    pub elastic: bool,
    /// Idle µs after which an array with no queued work of its kind is
    /// power-gated.
    pub gate_idle_us: u64,
    /// Queue depth (per array kind) at which gated arrays of that kind
    /// are woken.
    pub wake_backlog: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            elastic: true,
            gate_idle_us: 2_000,
            wake_backlog: 6,
        }
    }
}

/// How one streaming session is run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission / shedding policy.
    pub policy: AdmitPolicy,
    /// Elastic pool parameters.
    pub pool: PoolConfig,
    /// Shared handle to the online monitor, when one is installed on the
    /// runtime (see [`install_monitor`]). Required by
    /// [`AdmitPolicy::MonitorShed`]; with any other policy it is only
    /// finalized at session end so its alert log is complete.
    pub monitor: Option<MonitorHandle>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: AdmitPolicy::EdfShed,
            pool: PoolConfig::default(),
            monitor: None,
        }
    }
}

/// Builds a [`MonitorConfig`] for a tenant set: each tenant's error
/// budget is its SLO shed tolerance, and the window geometry is 250 µs
/// windows with 25 µs histogram buckets. The seal grace is one µs-quantum
/// minus one cycle (99): the dispatcher's clock rounds cycles *up* to µs,
/// so a job dispatched at instant `now` can complete up to
/// `CYCLES_PER_US − 1` cycles behind the watermark, and the grace keeps
/// such completions inside their window — the monitor drops nothing, and
/// time-ordered replay (`trace_report --slo`) reproduces the online state
/// exactly.
pub fn monitor_config_for(tenants: &[TenantSpec]) -> MonitorConfig {
    MonitorConfig {
        window_cycles: 250 * CYCLES_PER_US,
        hist_bucket_cycles: 25 * CYCLES_PER_US,
        seal_grace_cycles: CYCLES_PER_US - 1,
        tenant_budgets: tenants
            .iter()
            .map(|t| (u32::from(t.id), f64::from(t.slo.shed_tolerance_pct)))
            .collect(),
        ..MonitorConfig::default()
    }
}

/// Creates an online monitor for `tenants`, installs it on the runtime
/// as a [`MonitorSink`] tee over `inner` (pass the previous sink, or a
/// boxed [`dsra_trace::NoopSink`] when recording is off), and returns
/// the shared handle. Put a clone of the handle into
/// [`ServiceConfig::monitor`] so the dispatcher can finalize it — and,
/// under [`AdmitPolicy::MonitorShed`], act on its alerts.
pub fn install_monitor(
    runtime: &mut SocRuntime,
    tenants: &[TenantSpec],
    inner: Box<dyn TraceSink>,
) -> MonitorHandle {
    let cfg = monitor_config_for(tenants);
    install_monitor_with(runtime, cfg, inner)
}

/// [`install_monitor`] with an explicit [`MonitorConfig`] — for callers
/// that need non-default geometry (e.g. `keep_timeline` for the
/// error-budget timeline the replay pinning test compares).
pub fn install_monitor_with(
    runtime: &mut SocRuntime,
    cfg: MonitorConfig,
    inner: Box<dyn TraceSink>,
) -> MonitorHandle {
    let handle = MonitorHandle::new(Monitor::new(cfg));
    runtime.set_trace_sink(Box::new(MonitorSink::new(handle.clone(), inner)));
    handle
}

/// The outcome of a request that produced no result at `now_us`: shed
/// after queueing since its arrival, or (`shed == false`) failed.
fn unserved(r: &Request, now_us: u64, shed: bool) -> RequestOutcome {
    RequestOutcome {
        id: r.id,
        tenant: r.tenant,
        kind: r.payload.tag(),
        arrival_us: r.arrival_us,
        deadline_us: r.deadline_us,
        shed,
        failed: !shed,
        array: usize::MAX,
        start_us: now_us,
        end_us: now_us,
        latency_us: 0,
        violated: false,
        shed_wait_us: if shed { now_us - r.arrival_us } else { 0 },
        reconfig_bits: 0,
        checksum: 0,
        energy_j: 0.0,
    }
}

/// Sheds `r` at `now_us`: traces the decision and returns its outcome.
fn shed(runtime: &mut SocRuntime, r: &Request, now_us: u64) -> RequestOutcome {
    let outcome = unserved(r, now_us, true);
    if runtime.trace_sink().enabled() {
        runtime.trace_sink().emit(TraceEvent::JobShed {
            t: now_us * CYCLES_PER_US,
            job: r.id,
            tenant: r.tenant.into(),
            queued: outcome.shed_wait_us * CYCLES_PER_US,
        });
    }
    outcome
}

/// Generates the trace described by `trace_config` and serves it — the
/// E13 entry point.
///
/// # Errors
/// See [`serve_requests`].
pub fn serve_trace(
    runtime: &mut SocRuntime,
    trace_config: &TraceConfig,
    service: &ServiceConfig,
) -> Result<ServiceReport> {
    let trace = generate_trace(trace_config);
    serve_requests(
        runtime,
        &trace_config.tenants,
        trace_config.duration_us,
        &trace,
        service,
    )
}

/// Serves an explicit request stream (must be arrival-ordered with dense
/// ids, as [`generate_trace`] produces) against the runtime's array pool.
///
/// The runtime is used in streaming mode: a fresh session is opened, every
/// request is dispatched (or shed) at its virtual instant, and the session
/// is closed at `max(makespan, duration_us)` so tail idle energy through
/// the end of the trace window is accounted.
///
/// # Errors
/// Fails on a malformed trace (unsorted / non-dense ids), a payload with
/// no compatible array in the pool, or any compile/execution failure.
pub fn serve_requests(
    runtime: &mut SocRuntime,
    tenants: &[TenantSpec],
    duration_us: u64,
    trace: &[Request],
    service: &ServiceConfig,
) -> Result<ServiceReport> {
    serve_requests_with_hook(
        runtime,
        tenants,
        duration_us,
        trace,
        service,
        &mut NoopDispatch,
    )
}

/// [`serve_requests`] with a [`DispatchHook`] interposed on the serve
/// step — the E15 chaos entry point. With [`NoopDispatch`] this is
/// exactly [`serve_requests`].
///
/// # Errors
/// See [`serve_requests`].
pub fn serve_requests_with_hook(
    runtime: &mut SocRuntime,
    tenants: &[TenantSpec],
    duration_us: u64,
    trace: &[Request],
    service: &ServiceConfig,
    hook: &mut dyn DispatchHook,
) -> Result<ServiceReport> {
    for (i, r) in trace.iter().enumerate() {
        if r.id != i as u32 || (i > 0 && trace[i - 1].arrival_us > r.arrival_us) {
            return Err(CoreError::Mismatch(format!(
                "trace must be arrival-ordered with dense ids (request {i})"
            )));
        }
        let kind = pool_for(&r.payload);
        let pool = match kind {
            ArrayKind::Da => runtime.config().da_arrays,
            ArrayKind::Me => runtime.config().me_arrays,
        };
        if pool == 0 {
            return Err(CoreError::Mismatch(format!(
                "request {} needs a {} array but the pool has none",
                r.id,
                kind.tag()
            )));
        }
    }
    let us_of = |cycle: u64| cycle.div_ceil(CYCLES_PER_US);

    // The health-driven control hook: only the monitor-shed policy acts
    // on alerts, and it cannot work without the monitor that raises them.
    let early = match (service.policy, &service.monitor) {
        (AdmitPolicy::MonitorShed, Some(handle)) => {
            Some(MonitorAwareAdmission::new(handle.clone()))
        }
        (AdmitPolicy::MonitorShed, None) => {
            return Err(CoreError::Mismatch(
                "monitor-shed policy requires ServiceConfig::monitor (see install_monitor)".into(),
            ))
        }
        _ => None,
    };

    let mut queue = AdmissionQueue::new(service.policy);
    let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
    let mut next = 0usize;
    let mut now_us = trace.first().map_or(duration_us, |r| r.arrival_us);
    let mut makespan_us = 0u64;
    // A monitored session embeds its window geometry and tenant budgets
    // in the trace metadata, so `trace_report --slo` can rebuild exactly
    // the same windows post hoc. Monitor-off traces carry no new keys.
    if let Some(handle) = &service.monitor {
        if runtime.trace_sink().enabled() {
            let mcfg = handle.with(|m| m.config().clone());
            let budgets = mcfg
                .tenant_budgets
                .iter()
                .map(|(t, b)| format!("{t}:{b}"))
                .collect::<Vec<_>>()
                .join(" ");
            let sink = runtime.trace_sink();
            sink.emit(TraceEvent::Meta {
                key: "monitor_window_cycles",
                value: mcfg.window_cycles.to_string(),
            });
            sink.emit(TraceEvent::Meta {
                key: "monitor_hist_bucket_cycles",
                value: mcfg.hist_bucket_cycles.to_string(),
            });
            sink.emit(TraceEvent::Meta {
                key: "monitor_seal_grace_cycles",
                value: mcfg.seal_grace_cycles.to_string(),
            });
            sink.emit(TraceEvent::Meta {
                key: "monitor_tenant_budgets",
                value: budgets,
            });
        }
    }
    runtime.stream_begin();
    let arrays = runtime.stream_arrays().len();

    loop {
        // 0 — hook tick: scheduled fault injection and quarantine
        // probes land before this instant's admission and dispatch.
        hook.on_tick(runtime, now_us);

        // 1 — admission: everything that has arrived by `now` enters the
        // queue (open loop: admission never says no; the EDF policy says
        // no at dispatch time by shedding). Exception: under monitor-shed
        // a latched burn-rate alert sheds lowest-class arrivals here,
        // before they occupy queue or array capacity.
        while next < trace.len() && trace[next].arrival_us <= now_us {
            let r = trace[next];
            // Trace the arrival and its admission decision in virtual
            // cycles, so lifecycle spans line up with the runtime's
            // schedule/exec events.
            if runtime.trace_sink().enabled() {
                let sink = runtime.trace_sink();
                sink.emit(TraceEvent::JobEnqueue {
                    t: r.arrival_us * CYCLES_PER_US,
                    job: r.id,
                    tenant: r.tenant.into(),
                    class: r.class.tag(),
                    kind: r.payload.tag(),
                    deadline: r.deadline_us * CYCLES_PER_US,
                });
                sink.emit(TraceEvent::JobAdmit {
                    t: now_us * CYCLES_PER_US,
                    job: r.id,
                });
            }
            next += 1;
            if let Some(gate) = &early {
                if gate.shed_early(&r, now_us * CYCLES_PER_US) {
                    outcomes[r.id as usize] = Some(shed(runtime, &r, now_us));
                    continue;
                }
            }
            queue.push(r);
        }

        // 2 — shedding: queued requests whose budget is already blown.
        for r in queue.shed_blown(now_us) {
            outcomes[r.id as usize] = Some(shed(runtime, &r, now_us));
        }

        // 3 — elastic pool control: gate long-idle arrays with no queued
        // work of their kind; wake gated arrays once backlog crosses the
        // threshold (and always keep at least one array of a kind with
        // queued work awake). Every decision reads the runtime's ledgers
        // at the moment it is made, so a gate or wake is seen at once.
        let at = now_us * CYCLES_PER_US;
        if service.pool.elastic {
            let idle = |a: StreamArrayStatus| {
                !a.gated
                    && !a.quarantined
                    && us_of(a.free_at) + service.pool.gate_idle_us <= now_us
                    && queue.depth(a.kind) == 0
            };
            for id in 0..arrays {
                if runtime.stream_array(id).is_some_and(idle) {
                    runtime.stream_gate(id, at);
                }
            }
            for kind in [ArrayKind::Da, ArrayKind::Me] {
                let dark = |a: StreamArrayStatus| a.kind == kind && a.gated && !a.quarantined;
                if queue.depth(kind) >= service.pool.wake_backlog {
                    for id in 0..arrays {
                        if runtime.stream_array(id).is_some_and(dark) {
                            runtime.stream_wake(id, at);
                        }
                    }
                }
            }
        }
        for kind in [ArrayKind::Da, ArrayKind::Me] {
            let usable = |a: &StreamArrayStatus| a.kind == kind && !a.quarantined;
            let first = runtime.stream_arrays().find(usable);
            if queue.depth(kind) > 0 && runtime.stream_arrays().filter(usable).all(|a| a.gated) {
                if let Some(first) = first {
                    runtime.stream_wake(first.id, at);
                }
            }
        }

        // 4 — dispatch: the policy-most-urgent request whose pool has a
        // free, powered array right now.
        let free = |kind: ArrayKind| {
            runtime
                .stream_arrays()
                .any(|a| a.kind == kind && !a.gated && !a.quarantined && us_of(a.free_at) <= now_us)
        };
        if let Some(r) = queue.pop_available(free) {
            let job = JobSpec {
                id: r.id,
                arrival_cycle: r.arrival_us * CYCLES_PER_US,
                class: r.class,
                payload: r.payload,
                seed: r.seed,
            };
            match hook.dispatch(runtime, &job, now_us)? {
                Some(served) => {
                    let end_us = us_of(served.end_cycle);
                    makespan_us = makespan_us.max(end_us);
                    outcomes[r.id as usize] = Some(RequestOutcome {
                        id: r.id,
                        tenant: r.tenant,
                        kind: r.payload.tag(),
                        arrival_us: r.arrival_us,
                        deadline_us: r.deadline_us,
                        shed: false,
                        failed: false,
                        array: served.array,
                        start_us: us_of(served.start_cycle),
                        end_us,
                        latency_us: end_us - r.arrival_us,
                        violated: end_us > r.deadline_us,
                        shed_wait_us: 0,
                        reconfig_bits: served.reconfig_bits,
                        checksum: served.checksum,
                        energy_j: served.energy_j,
                    });
                }
                // Failed after retries: the hook detected corruption it
                // could not recover from. The request is neither served
                // nor shed — its checksum never reaches a tenant.
                None => outcomes[r.id as usize] = Some(unserved(&r, now_us, false)),
            }
            continue; // same instant — maybe another pool is free too
        }

        // 5 — advance virtual time to the next event, or finish.
        if queue.is_empty() && next >= trace.len() {
            break;
        }
        let mut next_event: Option<u64> = trace.get(next).map(|r| r.arrival_us);
        let mut consider = |t: u64| {
            if t > now_us {
                next_event = Some(next_event.map_or(t, |e| e.min(t)));
            }
        };
        for a in runtime.stream_arrays() {
            if !a.gated && !a.quarantined {
                consider(us_of(a.free_at));
                if service.pool.elastic {
                    consider(us_of(a.free_at) + service.pool.gate_idle_us);
                }
            }
        }
        if let Some(t) = hook.next_event_us(now_us) {
            consider(t);
        }
        now_us = next_event
            .ok_or_else(|| CoreError::Mismatch("dispatcher stalled with work queued".into()))?;
    }

    // Close the session at the later of the last completion and the trace
    // window, so tail idle leakage (or gating) through the window is paid.
    let end_us = makespan_us.max(duration_us);
    let summary = runtime
        .stream_end(end_us * CYCLES_PER_US)
        .expect("session opened above");
    // Close the monitor's stream too: every resident window seals, so the
    // alert log and final snapshot are complete and replay-identical.
    let health = service.monitor.as_ref().map(|handle| {
        handle.finalize(end_us * CYCLES_PER_US);
        handle.final_snapshot()
    });

    let outcomes: Vec<RequestOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every request is served, shed, or failed"))
        .collect();
    let tenants = tenants
        .iter()
        .map(|spec| {
            let mine: Vec<&RequestOutcome> =
                outcomes.iter().filter(|o| o.tenant == spec.id).collect();
            let submitted = mine.len();
            let served = mine.iter().filter(|o| !o.shed && !o.failed).count();
            let shed = mine.iter().filter(|o| o.shed).count();
            let violations = mine.iter().filter(|o| o.violated).count();
            TenantReport {
                spec: *spec,
                submitted,
                served,
                shed,
                violations,
                goodput_pct: if submitted == 0 {
                    100.0
                } else {
                    (served - violations) as f64 * 100.0 / submitted as f64
                },
                shed_within_tolerance: shed * 100
                    <= usize::from(spec.slo.shed_tolerance_pct) * submitted,
                max_latency_us: mine.iter().map(|o| o.latency_us).max().unwrap_or(0),
                energy_j: mine.iter().map(|o| o.energy_j).sum(),
            }
        })
        .collect();
    let served = outcomes.iter().filter(|o| !o.shed && !o.failed).count();
    Ok(ServiceReport {
        policy: service.policy.name(),
        duration_us,
        makespan_us,
        requests: outcomes.len(),
        served,
        shed: outcomes.iter().filter(|o| o.shed).count(),
        failed: outcomes.iter().filter(|o| o.failed).count(),
        violations: outcomes.iter().filter(|o| o.violated).count(),
        pool: summary,
        tenants,
        outcomes,
        health,
    })
}
