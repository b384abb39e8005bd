//! The output oracle: every served result is re-executed on the
//! pure-software `GoldenBackend` outside the timed region and compared.

use dsra_backend::GoldenBackend;
use dsra_core::error::Result;
use dsra_dct::DaParams;
use dsra_runtime::Backend;
use dsra_video::JobSpec;

/// One served result: what ran, on which kernel, and the checksum that
/// reached the tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// The job as the runtime executed it.
    pub spec: JobSpec,
    /// Kernel display name it was placed on.
    pub kernel: String,
    /// Delivered output checksum.
    pub checksum: u64,
}

/// Re-executes every served result on the golden reference and returns
/// the ids whose delivered checksum differs from the golden one, in
/// `served` order. A golden re-execution that errors counts as a
/// mismatch. Runs outside any timed region, so it splits the work over
/// the available cores.
pub fn mismatches(served: &[Served], params: DaParams) -> Vec<u32> {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = served.len().div_ceil(workers).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut golden = GoldenBackend::default();
                    part.iter()
                        .filter(|s| {
                            golden_checksum(&mut golden, params, s).ok() != Some(s.checksum)
                        })
                        .map(|s| s.spec.id)
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("golden re-execution panicked"))
            .collect()
    })
}

fn golden_checksum(golden: &mut GoldenBackend, params: DaParams, s: &Served) -> Result<u64> {
    Ok(golden.execute(params, &s.spec, &s.kernel)?.checksum)
}
