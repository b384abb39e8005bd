//! The differential contract suite: every job class through the array
//! simulator and the golden software reference, asserting *byte-equal*
//! outcomes — same checksum, same cycle count. Golden-vector fixtures
//! (committed JSON under `fixtures/`) additionally pin both backends to
//! known-good values, so a regression that corrupts both backends the same
//! way still fails.

use dsra_backend::{ArrayBackend, Backend, BackendKind, CheckBackend, DctMapping, GoldenBackend};
use dsra_dct::DaParams;
use dsra_video::{JobPayload, JobSpec, ServiceClass};

/// A DCT-blocks job on the given mapping.
fn dct_job(id: u32, seed: u64, blocks: u16, amplitude: i64) -> JobSpec {
    JobSpec {
        id,
        arrival_cycle: 0,
        class: ServiceClass::Quality,
        payload: JobPayload::DctBlocks { blocks, amplitude },
        seed,
    }
}

fn me_job(id: u32, seed: u64, size: (u16, u16), shift: (i8, i8), block: u8, range: u8) -> JobSpec {
    JobSpec {
        id,
        arrival_cycle: 0,
        class: ServiceClass::Quality,
        payload: JobPayload::MeSearch {
            size,
            shift,
            block,
            range,
        },
        seed,
    }
}

fn encode_job(id: u32, seed: u64, size: (u16, u16), frames: u8, noise: u8) -> JobSpec {
    JobSpec {
        id,
        arrival_cycle: 0,
        class: ServiceClass::Quality,
        payload: JobPayload::EncodeGop {
            size,
            frames,
            noise,
        },
        seed,
    }
}

/// Runs one job through both backends and asserts identical outcomes.
fn assert_agree(job: &JobSpec, kernel: &str) {
    assert_agree_at(DaParams::precise(), job, kernel);
}

/// [`assert_agree`] at the given fixed-point widths.
fn assert_agree_at(params: DaParams, job: &JobSpec, kernel: &str) {
    let array = ArrayBackend::default()
        .execute(params, job, kernel)
        .expect("array backend");
    let golden = GoldenBackend::default()
        .execute(params, job, kernel)
        .expect("golden backend");
    assert_eq!(
        array, golden,
        "job {} on `{kernel}` at {params:?}: array vs golden outcome diverged",
        job.id
    );
}

#[test]
fn dct_contract_all_mappings_randomized() {
    for (i, mapping) in DctMapping::ALL.into_iter().enumerate() {
        for seed in 0..4u64 {
            let job = dct_job(
                1000 + (i as u32) * 10 + seed as u32,
                0x9E37_79B9 ^ (seed * 0x5851_F42D),
                6,
                120,
            );
            assert_agree(&job, mapping.name());
        }
    }
}

#[test]
fn dct_contract_extreme_amplitudes() {
    // Full-scale inputs exercise saturation/wraparound corners of the
    // fixed-point pipeline; tiny amplitudes exercise the sign cycle.
    for mapping in DctMapping::ALL {
        assert_agree(&dct_job(1, 7, 4, 255), mapping.name());
        assert_agree(&dct_job(2, 11, 4, 1), mapping.name());
        assert_agree(&dct_job(3, 13, 1, 0), mapping.name());
    }
}

#[test]
fn me_contract_randomized() {
    for seed in 0..6u64 {
        let job = me_job(
            2000 + seed as u32,
            0xDEAD_BEEF ^ seed.wrapping_mul(0xA24B_AED4),
            (48, 32),
            ((seed as i8 % 3) - 1, (seed as i8 % 2)),
            16,
            2,
        );
        assert_agree(&job, "ME 16");
    }
    // A larger range drives partial batches (range not a multiple of the
    // module count) through the analytic counters.
    assert_agree(&me_job(2100, 99, (64, 48), (2, -1), 16, 4), "ME 16");
    assert_agree(&me_job(2101, 101, (32, 32), (0, 0), 8, 3), "ME 8");
}

#[test]
fn encode_contract_randomized() {
    for (i, mapping) in DctMapping::ALL.into_iter().enumerate() {
        let job = encode_job(3000 + i as u32, 42 + i as u64, (48, 48), 3, 2);
        assert_agree(&job, mapping.name());
    }
}

/// The paper's Fig. 4 widths (8-bit ROM words, 16-bit truncating
/// accumulators): DCT jobs on both sides of the simulator's 8-block lane
/// chunking, plus one encode GOP, for every mapping.
#[test]
fn paper_widths_contract_all_mappings() {
    let params = DaParams::paper();
    for (i, mapping) in DctMapping::ALL.into_iter().enumerate() {
        for (j, blocks) in [0u16, 1, 7, 8, 9, 17].into_iter().enumerate() {
            let job = dct_job(
                7000 + (i * 10 + j) as u32,
                0x9A9E_0000 + (i * 10 + j) as u64,
                blocks,
                200,
            );
            assert_agree_at(params, &job, mapping.name());
        }
        let job = encode_job(7100 + i as u32, 0x9A9E_1000 + i as u64, (32, 32), 2, 2);
        assert_agree_at(params, &job, mapping.name());
    }
}

/// A backend reused across fixed-point widths must not serve one width's
/// outcome for another: alternating `precise()` and `paper()` jobs on one
/// backend must equal fresh backends, job for job. (Engine caches keyed
/// by mapping alone once returned the first width's engine.)
#[test]
fn engine_cache_is_keyed_by_params() {
    let widths = [DaParams::precise(), DaParams::paper()];
    for kind in [BackendKind::Array, BackendKind::Golden] {
        let mut reused = kind.build();
        for (i, mapping) in DctMapping::ALL.into_iter().enumerate() {
            let jobs = [
                dct_job(8000 + i as u32, 0xCAC4E + i as u64, 9, 200),
                encode_job(8100 + i as u32, 0xCAC4F + i as u64, (32, 32), 2, 2),
            ];
            for job in &jobs {
                let fresh = widths.map(|params| {
                    kind.build()
                        .execute(params, job, mapping.name())
                        .expect("fresh backend")
                });
                assert_ne!(
                    fresh[0],
                    fresh[1],
                    "job {} on `{}`: widths must give distinct outcomes for this test to bite",
                    job.id,
                    mapping.name()
                );
                for round in 0..2 {
                    for (params, want) in widths.iter().zip(&fresh) {
                        let got = reused
                            .execute(*params, job, mapping.name())
                            .expect("reused backend");
                        assert_eq!(
                            got,
                            *want,
                            "{} backend, job {} on `{}` at {params:?} (round {round}): \
                             reused backend served a stale engine",
                            kind.name(),
                            job.id,
                            mapping.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn check_backend_passes_and_reports_array_outcome() {
    let params = DaParams::precise();
    let job = dct_job(4000, 77, 3, 100);
    let mut check = CheckBackend::default();
    let outcome = check.execute(params, &job, "CORDIC 2").expect("check mode");
    let array = ArrayBackend::default()
        .execute(params, &job, "CORDIC 2")
        .unwrap();
    assert_eq!(outcome, array, "check mode must surface the array outcome");
}

/// A divergence on an *ME* job (not just DCT) must surface as the
/// structured type with the diverging fields intact, and its `Display`
/// must render the exact legacy message `CheckBackend` used to format
/// inline — replay tooling greps for that text.
#[test]
fn me_divergence_is_structured_and_display_is_stable() {
    use dsra_backend::Divergence;
    let params = DaParams::precise();
    let job = me_job(6000, 0x3E_BAD, (48, 32), (1, -1), 16, 2);
    let expected = GoldenBackend::default()
        .execute(params, &job, "ME 16")
        .expect("golden ME outcome");

    // Agreement: no divergence object is produced.
    assert_eq!(Divergence::compare(&job, "ME 16", expected, expected), None);

    // A single flipped checksum bit — the signature of a datapath fault —
    // must produce the structured report.
    let got = dsra_core::report::ExecOutcome {
        checksum: expected.checksum ^ (1 << 17),
        ..expected
    };
    let d = Divergence::compare(&job, "ME 16", expected, got).expect("divergence detected");
    assert_eq!(d.job, job.id);
    assert_eq!(d.kernel, "ME 16");
    assert_eq!(d.expected, expected);
    assert_eq!(d.got, got);
    assert_eq!(
        d.to_string(),
        format!(
            "backend divergence on job {} (ME 16): \
             array (cycles {}, checksum {:#018x}) vs \
             golden (cycles {}, checksum {:#018x})",
            job.id, got.exec_cycles, got.checksum, expected.exec_cycles, expected.checksum
        )
    );
    // And the error-path conversion carries the same text.
    let err: dsra_core::error::CoreError = d.into();
    assert!(err.to_string().contains("backend divergence on job 6000"));
}

#[test]
fn backend_kind_round_trips() {
    for kind in BackendKind::ALL {
        assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        assert_eq!(kind.build().name(), kind.name());
    }
    assert_eq!(BackendKind::from_name("fpga"), None);
    assert_eq!(BackendKind::default(), BackendKind::Array);
}

/// The committed golden-vector jobs (`fixtures/*.json`): pinned seeds and
/// shapes. The fixture files hold the expected outcomes; this table is the
/// single source for *which* jobs are pinned, shared by the regenerator
/// below and the workspace-level loader (`tests/backend_contract.rs`).
pub mod vectors {
    /// One pinned DCT job per mapping: `(kernel, seed, blocks, amplitude)`.
    pub const DCT: [(&str, u64, u16, i64); 6] = [
        ("BASIC DA", 0xD0C_0001, 4, 200),
        ("MIX ROM", 0xD0C_0002, 4, 200),
        ("CORDIC 1", 0xD0C_0003, 4, 200),
        ("CORDIC 2", 0xD0C_0004, 4, 200),
        ("SCC E/O", 0xD0C_0005, 4, 200),
        ("SCC", 0xD0C_0006, 4, 200),
    ];
    /// A pinned ME job: `(seed, (w, h), (sx, sy), block, range)`.
    pub type MeVector = (u64, (u16, u16), (i8, i8), u8, u8);
    /// Pinned ME jobs.
    pub const ME: [MeVector; 3] = [
        (0x3E_0001, (48, 32), (1, -1), 16, 2),
        (0x3E_0002, (64, 48), (-2, 1), 16, 4),
        (0x3E_0003, (32, 32), (0, 2), 8, 3),
    ];
}

/// First block of a DCT job, quantised exactly as the checksum quantises
/// (`(v * 256).round()`): the human-inspectable part of a fixture entry.
fn first_block_coeffs_q(seed: u64, amplitude: i64, kernel: &str) -> [i64; 8] {
    use dsra_core::rng::SplitMix64;
    let mapping = DctMapping::from_name(kernel).expect("pinned kernel");
    let imp = mapping.build(DaParams::precise()).expect("build");
    let mut rng = SplitMix64::new(seed);
    let x: [i64; 8] =
        std::array::from_fn(|_| rng.next_below(2 * amplitude as u64 + 1) as i64 - amplitude);
    let y = imp.transform(&x).expect("transform");
    std::array::from_fn(|i| (y[i] * 256.0).round() as i64)
}

/// Regenerates `fixtures/dct_vectors.json` and `fixtures/me_vectors.json`
/// from the live backends. `#[ignore]`d: run explicitly after an
/// *intentional* contract change —
/// `cargo test -p dsra-backend --test contract -- --ignored regen_fixtures`
/// — then review the diff like any other source change. Checksums are hex
/// strings (the fixture parser reads numbers as f64, which cannot hold a
/// u64 exactly).
#[test]
#[ignore = "writes fixtures; run only to intentionally re-pin golden vectors"]
fn regen_fixtures() {
    let params = DaParams::precise();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    std::fs::create_dir_all(&dir).unwrap();

    let mut s = String::from("{\n  \"vectors\": [\n");
    for (i, &(kernel, seed, blocks, amplitude)) in vectors::DCT.iter().enumerate() {
        let job = dct_job(9000 + i as u32, seed, blocks, amplitude);
        let out = ArrayBackend::default()
            .execute(params, &job, kernel)
            .unwrap();
        assert_eq!(
            out,
            GoldenBackend::default()
                .execute(params, &job, kernel)
                .unwrap(),
            "refusing to pin a diverging vector ({kernel})"
        );
        let coeffs = first_block_coeffs_q(seed, amplitude, kernel);
        let coeffs_json: Vec<String> = coeffs.iter().map(|c| c.to_string()).collect();
        s.push_str(&format!(
            "    {{\"kernel\": \"{kernel}\", \"seed\": {seed}, \"blocks\": {blocks}, \
             \"amplitude\": {amplitude}, \"exec_cycles\": {}, \"checksum\": \"{:#018x}\", \
             \"coeffs0_q8\": [{}]}}{}\n",
            out.exec_cycles,
            out.checksum,
            coeffs_json.join(", "),
            if i + 1 == vectors::DCT.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(dir.join("dct_vectors.json"), s).unwrap();

    let mut s = String::from("{\n  \"vectors\": [\n");
    for (i, &(seed, size, shift, block, range)) in vectors::ME.iter().enumerate() {
        let job = me_job(9100 + i as u32, seed, size, shift, block, range);
        let kernel = format!("ME {block}");
        let out = ArrayBackend::default()
            .execute(params, &job, &kernel)
            .unwrap();
        assert_eq!(
            out,
            GoldenBackend::default()
                .execute(params, &job, &kernel)
                .unwrap(),
            "refusing to pin a diverging vector (ME block {block})"
        );
        // Re-derive the best match so the fixture records the motion
        // vector itself, not just its digest.
        let (cur, refp) = dsra_video::me_search_planes(size, shift, seed);
        let (w, h) = (usize::from(size.0), usize::from(size.1));
        let (b, _rg) = (usize::from(block), usize::from(range));
        let (bx, by) = (w.saturating_sub(b) / 2, h.saturating_sub(b) / 2);
        let sp = dsra_me::SearchParams {
            block: b,
            range: i32::from(range),
        };
        let best = dsra_me::full_search(&cur, &refp, bx, by, &sp);
        s.push_str(&format!(
            "    {{\"seed\": {seed}, \"width\": {}, \"height\": {}, \"shift_x\": {}, \
             \"shift_y\": {}, \"block\": {block}, \"range\": {range}, \
             \"mv\": [{}, {}], \"sad\": {}, \"candidates\": {}, \
             \"exec_cycles\": {}, \"checksum\": \"{:#018x}\"}}{}\n",
            size.0,
            size.1,
            shift.0,
            shift.1,
            best.mv.0,
            best.mv.1,
            best.sad,
            best.candidates,
            out.exec_cycles,
            out.checksum,
            if i + 1 == vectors::ME.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(dir.join("me_vectors.json"), s).unwrap();
}

#[test]
fn unknown_kernel_is_rejected_by_both() {
    let params = DaParams::precise();
    let job = dct_job(5000, 1, 1, 10);
    for kind in BackendKind::ALL {
        let err = kind.build().execute(params, &job, "NOPE").unwrap_err();
        assert!(
            err.to_string().contains("unknown DCT kernel"),
            "{kind:?}: {err}"
        );
    }
}
