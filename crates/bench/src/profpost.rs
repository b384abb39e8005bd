//! The uniform `--profile-out <path>` flag: every experiment binary that
//! serves through a `SocRuntime` installs a [`ProfileSink`] tee over
//! whatever sink is already in place (so it composes with `--trace`
//! recording and `--monitor` health queries) and dumps the session as a
//! collapsed-stack flamegraph afterwards.
//!
//! ```sh
//! cargo run -p dsra-bench --release --bin soc_serve -- --profile-out soc.folded
//! ```
//!
//! The folded text is byte-deterministic per seed — CI runs the same
//! session twice and `cmp`s the files.

use dsra_profile::{flamegraph, Flame, ProfileReport, ProfileSink, ProfilerHandle};
use dsra_runtime::SocRuntime;

/// Installs a [`ProfileSink`] tee on the runtime, wrapping whatever sink
/// is currently installed (call *after* `--trace`/`--monitor` wiring so
/// those still record). Returns the shared handle.
pub fn install_profiler(runtime: &mut SocRuntime) -> ProfilerHandle {
    let handle = ProfilerHandle::default();
    let inner = runtime.take_trace_sink();
    runtime.set_trace_sink(Box::new(ProfileSink::new(handle.clone(), inner)));
    handle
}

/// The session's flamegraph: the profiler's accounts joined with the
/// runtime's kernel op mixes.
pub fn runtime_flame(runtime: &SocRuntime, handle: &ProfilerHandle) -> Flame {
    let mixes = runtime.kernel_op_mixes();
    handle.with(|p| flamegraph(p, &mixes))
}

/// The session's attribution report, built the same way.
pub fn runtime_profile_report(runtime: &SocRuntime, handle: &ProfilerHandle) -> ProfileReport {
    let mixes = runtime.kernel_op_mixes();
    handle.with(|p| ProfileReport::build(p, &mixes))
}

/// Writes the folded flamegraph of a capture the caller installed with
/// [`install_profiler`] for its `--profile-out` path, if it asked for one.
/// Call after the serve, while the runtime still holds the session's
/// kernel cache.
///
/// A file that can't be written ends the run with status 2
/// ([`crate::write_file`]) — profile capture fails loudly rather than
/// silently dropping the artifact.
pub fn write_profile(runtime: &SocRuntime, target: &Option<(String, ProfilerHandle)>) {
    if let Some((path, handle)) = target {
        crate::write_file(path, runtime_flame(runtime, handle).render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_runtime::RuntimeConfig;
    use dsra_trace::{EventLog, TraceEvent};
    use dsra_video::{generate_job_mix, JobMixConfig};

    fn small_runtime() -> SocRuntime {
        SocRuntime::new(RuntimeConfig {
            da_arrays: 1,
            me_arrays: 1,
            ..Default::default()
        })
        .expect("runtime construction")
    }

    #[test]
    fn profiler_tee_preserves_inner_recording_and_covers_the_serve() {
        let mix = generate_job_mix(JobMixConfig {
            jobs: 12,
            seed: 7,
            ..Default::default()
        });
        let mut runtime = small_runtime();
        runtime.set_trace_sink(Box::new(EventLog::new()));
        let handle = install_profiler(&mut runtime);
        runtime.serve(&mix).expect("serve");
        let flame = runtime_flame(&runtime, &handle);
        assert!(!flame.is_empty());
        let report = runtime_profile_report(&runtime, &handle);
        assert!(report.busy_cycles > 0);
        assert_eq!(
            report.attributed_cycles, report.busy_cycles,
            "every busy cycle lands on a kernel with a mix"
        );
        assert_eq!(report.unrouted_cycles, 0);
        // The inner EventLog kept recording through the tee.
        let log = runtime
            .take_trace_sink()
            .into_log()
            .expect("inner event log survives the profiler tee");
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::JobComplete { .. })));
    }

    #[test]
    fn profiled_and_bare_serves_agree_on_outcomes() {
        let mix = generate_job_mix(JobMixConfig {
            jobs: 10,
            seed: 41,
            ..Default::default()
        });
        let mut bare = small_runtime();
        let bare_report = bare.serve(&mix).expect("serve");
        let mut profiled = small_runtime();
        let _handle = install_profiler(&mut profiled);
        let prof_report = profiled.serve(&mix).expect("serve");
        assert_eq!(bare_report.digest(), prof_report.digest());
    }
}
