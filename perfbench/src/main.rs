//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--size <n>]`
//!
//! Prints notes, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad
//! arguments, 1 when the benchmark cannot run, 3 when outputs are wrong.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::cli::parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{}", perfbench::cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::measure::run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics {
                println!(
                    "# {:<34} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            println!("{}", outcome.json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}
