//! Command-line parsing. Every malformed input becomes an error message,
//! never a panic: the caller prints it and exits non-zero.

use crate::workload::Workload;

/// Longest measuring window accepted, in seconds.
const MAX_SECONDS: u64 = 3_600;

/// One validated invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Workload to replay.
    pub workload: Workload,
    /// Seed every input of the workload is generated from.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Workload size: trace length in virtual µs for the streaming
    /// workloads, jobs for the batch workload.
    pub size: u64,
}

/// One-line usage, printed after an argument error.
pub const USAGE: &str = "usage: perfbench --workload <stream_edf|batch_mix|chaos_observed> \
[--seed <u64, decimal or 0x-hex>] [--seconds <1..3600>] [--trace <0|1>] [--size <n>]";

/// Parses the arguments after the program name.
///
/// # Errors
/// Returns a one-line message for a missing or unknown workload, an
/// unknown or repeated flag, a flag without a value, or a value that is
/// malformed or out of range.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "--size" => &mut size,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = match seed {
        None => workload.default_seed(),
        Some(v) => parse_u64(v).ok_or_else(|| format!("malformed --seed `{v}`"))?,
    };
    let seconds = match seconds {
        None => 10,
        Some(v) => parse_u64(v)
            .filter(|s| (1..=MAX_SECONDS).contains(s))
            .ok_or_else(|| {
                format!("--seconds must be an integer in 1..={MAX_SECONDS}, got `{v}`")
            })?,
    };
    let trace = match trace {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got `{v}`")),
    };
    let max = workload.max_size();
    let size = match size {
        None => workload.default_size(),
        Some(v) => parse_u64(v)
            .filter(|s| (1..=max).contains(s))
            .ok_or_else(|| {
                format!("--size for {name} must be an integer in 1..={max}, got `{v}`")
            })?,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

/// Decimal or `0x`-prefixed hexadecimal.
fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_follow_the_workload() {
        let a = parse(&args("--workload batch_mix")).unwrap();
        assert_eq!(a.workload, Workload::BatchMix);
        assert_eq!(a.seed, Workload::BatchMix.default_seed());
        assert_eq!(a.size, Workload::BatchMix.default_size());
        assert_eq!((a.seconds, a.trace), (10, false));
        let b = parse(&args(
            "--trace 1 --seed 0x1F --workload stream_edf --seconds 3",
        ))
        .unwrap();
        assert_eq!((b.seed, b.seconds, b.trace), (31, 3, true));
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in [
            "",
            "--workload nope",
            "--workload batch_mix --seed 12ab",
            "--workload batch_mix --seed -1",
            "--workload batch_mix --seed 0x",
            "--workload batch_mix --size 0",
            "--workload batch_mix --size ten",
            "--workload batch_mix --size 99999999999",
            "--workload batch_mix --seconds 0",
            "--workload batch_mix --trace 2",
            "--workload batch_mix --seed",
            "--workload batch_mix --workload stream_edf",
            "--workload batch_mix --verbose",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
