//! Seeded job-mix generation: the workload description a multi-array SoC
//! runtime serves.
//!
//! A [`JobSpec`] describes *what* a video job needs (DCT blocks, a motion
//! search, a short encode GOP) and *under which service class* it runs —
//! without naming any hardware. `dsra-runtime` maps service classes to
//! `dsra-platform` run-time [`Condition`]s, picks kernels and arrays, and
//! executes the payloads cycle-accurately. Keeping the description here
//! keeps `dsra-video` the single source of workload truth for benchmarks
//! and the runtime alike.
//!
//! [`Condition`]: https://docs.rs/dsra-platform (see `dsra_platform::policy::Condition`)

use dsra_core::rng::SplitMix64;
use dsra_me::Plane;

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPayload {
    /// Transform `blocks` pseudo-random 8-sample blocks (seeded per job) on
    /// a DCT mapping chosen by the runtime policy.
    DctBlocks {
        /// Number of 1-D 8-point blocks.
        blocks: u16,
        /// Sample amplitude (values drawn from `-amplitude..=amplitude`).
        amplitude: i64,
    },
    /// One full-search block-matching run on synthetic shifted planes.
    ///
    /// The runtime searches a centred block, so the plane must fit the full
    /// window: `size >= block + 2 * range` on both axes (the runtime rejects
    /// smaller planes with an error rather than reading out of bounds).
    MeSearch {
        /// Plane width and height in pixels.
        size: (u16, u16),
        /// Ground-truth displacement between the planes.
        shift: (i8, i8),
        /// Block size (pixels).
        block: u8,
        /// Search range (± pixels).
        range: u8,
    },
    /// A short encode GOP: `frames` synthetic frames through the
    /// motion-compensated DCT encode loop.
    EncodeGop {
        /// Frame width and height in pixels (multiples of 16).
        size: (u16, u16),
        /// Number of frames (>= 2; `frames - 1` are encoded).
        frames: u8,
        /// Additive noise amplitude for the synthetic sequence.
        noise: u8,
    },
}

impl JobPayload {
    /// Stable lower-case kind tag (`dct` / `me` / `encode`) for trace
    /// events and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            JobPayload::DctBlocks { .. } => "dct",
            JobPayload::MeSearch { .. } => "me",
            JobPayload::EncodeGop { .. } => "encode",
        }
    }
}

/// Service class a job arrives with — the workload-side counterpart of the
/// platform's run-time `Condition`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceClass {
    /// Interactive / mains powered: best quality.
    Quality,
    /// Battery saver: lowest energy mapping.
    LowPower,
    /// Real-time: any mapping within the cycle budget per block.
    Deadline(u64),
    /// Best effort: smallest footprint.
    Background,
}

impl ServiceClass {
    /// Stable lower-case tag (trace events, reports).
    pub fn tag(&self) -> &'static str {
        match self {
            ServiceClass::Quality => "quality",
            ServiceClass::LowPower => "low-power",
            ServiceClass::Deadline(_) => "deadline",
            ServiceClass::Background => "background",
        }
    }
}

/// One job in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Dense id, also the deterministic ordering key.
    pub id: u32,
    /// Arrival time in SoC cycles (non-decreasing over the mix).
    pub arrival_cycle: u64,
    /// Service class in force for this job.
    pub class: ServiceClass,
    /// The work itself.
    pub payload: JobPayload,
    /// Per-job seed for synthesising payload data.
    pub seed: u64,
}

/// Relative weights of the three payload kinds in a generated mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMixWeights {
    /// Weight of [`JobPayload::DctBlocks`] jobs.
    pub dct: u32,
    /// Weight of [`JobPayload::MeSearch`] jobs.
    pub me: u32,
    /// Weight of [`JobPayload::EncodeGop`] jobs.
    pub encode: u32,
}

impl Default for JobMixWeights {
    fn default() -> Self {
        // DCT-heavy, as a transform-bound codec front end would be.
        JobMixWeights {
            dct: 60,
            me: 25,
            encode: 15,
        }
    }
}

/// Parameters of a generated job mix.
#[derive(Debug, Clone, Copy)]
pub struct JobMixConfig {
    /// Number of jobs.
    pub jobs: u32,
    /// RNG seed; the whole mix is a pure function of this config.
    pub seed: u64,
    /// Payload-kind weights.
    pub weights: JobMixWeights,
}

/// Mean inter-arrival gap of a generated job mix, in SoC cycles (bursty,
/// seeded; see [`sample_gap`]).
const MEAN_GAP_CYCLES: u64 = 200;

impl Default for JobMixConfig {
    fn default() -> Self {
        JobMixConfig {
            jobs: 1000,
            seed: 0x50C_5EED,
            weights: JobMixWeights::default(),
        }
    }
}

impl JobMixConfig {
    /// The `index`-th chunk of an endless job stream with this shape:
    /// identical weights and arrival statistics, a chunk-specific seed
    /// derived deterministically from the base seed. Chunk 0 *is* the
    /// base config, so `battery_serve` (E12) discharging a battery over
    /// chunks starts with exactly the E11 mix.
    pub fn chunk(self, index: u64) -> JobMixConfig {
        if index == 0 {
            return self;
        }
        JobMixConfig {
            seed: dsra_core::rng::split_seed(self.seed, index),
            ..self
        }
    }
}

/// Draws one weighted payload — the single payload synthesiser
/// `generate_job_mix` and `dsra-service`'s trace generator share, so
/// every workload producer in the workspace emits the same job shapes.
///
/// Every [`JobPayload::MeSearch`] drawn here satisfies the full-window
/// invariant `size >= block + 2 * range` on both axes (the property
/// `crates/video/tests/jobs_props.rs` pins), so the runtime's
/// undersized-plane rejection can never fire on generated traffic.
///
/// # Panics
/// Panics if every weight is zero.
pub fn sample_payload(rng: &mut SplitMix64, weights: JobMixWeights) -> JobPayload {
    let total_weight = u64::from(weights.dct) + u64::from(weights.me) + u64::from(weights.encode);
    assert!(
        total_weight > 0,
        "job mix needs at least one non-zero weight"
    );
    let pick = rng.next_below(total_weight);
    if pick < u64::from(weights.dct) {
        JobPayload::DctBlocks {
            blocks: 1 + rng.next_below(4) as u16,
            amplitude: 600 + rng.next_below(1200) as i64,
        }
    } else if pick < u64::from(weights.dct) + u64::from(weights.me) {
        JobPayload::MeSearch {
            size: (48, 48),
            shift: (rng.next_below(5) as i8 - 2, rng.next_below(5) as i8 - 2),
            block: 8,
            range: 2 + rng.next_below(2) as u8,
        }
    } else {
        JobPayload::EncodeGop {
            size: (32, 32),
            frames: 2 + rng.next_below(2) as u8,
            noise: rng.next_below(3) as u8,
        }
    }
}

/// Draws one bursty inter-arrival gap around `mean_gap`: most arrivals
/// land back to back, one in four after a lull of up to six means — the
/// single arrival-shape recipe `generate_job_mix` and `dsra-service`'s
/// trace generator share (same time unit as the caller's clock).
pub fn sample_gap(rng: &mut SplitMix64, mean_gap: u64) -> u64 {
    if rng.next_below(4) == 0 {
        mean_gap * (1 + rng.next_below(6))
    } else {
        rng.next_below(mean_gap.max(1) / 2 + 1)
    }
}

/// Generates a deterministic job mix: heterogeneous payloads, a seeded
/// bursty arrival pattern and rotating service classes (including periodic
/// low-battery phases, the paper's §5 motivation).
pub fn generate_job_mix(config: JobMixConfig) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(config.seed);
    let mut jobs = Vec::with_capacity(config.jobs as usize);
    let mut clock = 0u64;
    for id in 0..config.jobs {
        clock += sample_gap(&mut rng, MEAN_GAP_CYCLES);
        let payload = sample_payload(&mut rng, config.weights);
        // Service classes rotate through phases: long quality stretches with
        // periodic battery-saver windows and occasional deadline/background
        // traffic, mirroring a device moving through operating conditions.
        let class = match (clock / (MEAN_GAP_CYCLES * 64)) % 4 {
            0 | 2 => match rng.next_below(10) {
                0 => ServiceClass::Deadline(16),
                1 => ServiceClass::Background,
                _ => ServiceClass::Quality,
            },
            1 => ServiceClass::LowPower,
            _ => match rng.next_below(3) {
                0 => ServiceClass::Deadline(32),
                _ => ServiceClass::Quality,
            },
        };
        jobs.push(JobSpec {
            id,
            arrival_cycle: clock,
            class,
            payload,
            seed: rng.next_u64(),
        });
    }
    jobs
}

/// Synthesises the reference/current plane pair of a [`JobPayload::MeSearch`]
/// job: hash-noise texture with the exact ground-truth shift, seeded per job
/// so distinct jobs search distinct content.
pub fn me_search_planes(size: (u16, u16), shift: (i8, i8), seed: u64) -> (Plane, Plane) {
    let (w, h) = (usize::from(size.0), usize::from(size.1));
    let pat = |x: i64, y: i64| -> u8 {
        let v = (x.wrapping_mul(0x9E37_79B9) ^ y.wrapping_mul(0x85EB_CA6B)) as u64 ^ seed;
        ((v ^ (v >> 13)) & 0xFF) as u8
    };
    let mut refd = Vec::with_capacity(w * h);
    let mut curd = Vec::with_capacity(w * h);
    for y in 0..h as i64 {
        for x in 0..w as i64 {
            refd.push(pat(x, y));
            curd.push(pat(x + i64::from(shift.0), y + i64::from(shift.1)));
        }
    }
    (Plane::new(w, h, curd), Plane::new(w, h, refd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_me::{full_search, SearchParams};

    #[test]
    fn job_mix_is_deterministic_per_seed() {
        let a = generate_job_mix(JobMixConfig::default());
        let b = generate_job_mix(JobMixConfig::default());
        assert_eq!(a, b);
        let c = generate_job_mix(JobMixConfig {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn job_mix_covers_all_kinds_and_classes() {
        let jobs = generate_job_mix(JobMixConfig::default());
        assert_eq!(jobs.len(), 1000);
        let dct = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::DctBlocks { .. }))
            .count();
        let me = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::MeSearch { .. }))
            .count();
        let enc = jobs
            .iter()
            .filter(|j| matches!(j.payload, JobPayload::EncodeGop { .. }))
            .count();
        assert_eq!(dct + me + enc, 1000);
        // Weights are 60/25/15: each kind must show up in force.
        assert!(dct > 400 && me > 120 && enc > 60, "{dct}/{me}/{enc}");
        assert!(jobs.iter().any(|j| j.class == ServiceClass::LowPower));
        assert!(jobs.iter().any(|j| j.class == ServiceClass::Quality));
        // Arrivals never go backwards.
        assert!(jobs
            .windows(2)
            .all(|w| w[0].arrival_cycle <= w[1].arrival_cycle));
    }

    #[test]
    fn chunked_mixes_are_deterministic_and_distinct() {
        let base = JobMixConfig::default();
        // Chunk 0 is the base mix itself.
        assert_eq!(generate_job_mix(base.chunk(0)), generate_job_mix(base));
        // Later chunks are reproducible but carry fresh content.
        let c3a = generate_job_mix(base.chunk(3));
        let c3b = generate_job_mix(base.chunk(3));
        assert_eq!(c3a, c3b);
        assert_ne!(c3a, generate_job_mix(base.chunk(4)));
        assert_ne!(c3a, generate_job_mix(base));
        // Shape is preserved: same job count, same weights in force.
        assert_eq!(c3a.len(), 1000);
    }

    #[test]
    fn me_planes_recover_the_planted_shift() {
        let (cur, refp) = me_search_planes((48, 48), (2, -1), 0xBEEF);
        let m = full_search(&cur, &refp, 16, 16, &SearchParams { block: 8, range: 3 });
        assert_eq!(m.mv, (2, -1));
        assert_eq!(m.sad, 0);
    }
}
