//! The command-line contract every experiment binary shares: one argv
//! reader ([`Args`]), one stdout writer ([`out`] and [`outln`]) and the
//! exit statuses a run ends with.
//!
//! | status | meaning |
//! |---|---|
//! | 0 | the run finished and every gate passed |
//! | 1 | a measured experiment gate was missed ([`gate`]) |
//! | 2 | bad input or a failed step: an unknown, repeated or value-less flag or a stray operand ([`Args::finish`]), a bad value ([`bad_value`]), a failed serve or an unwritable path ([`or_exit`]) |
//! | 141 | stdout closed early (128 + SIGPIPE, what a shell reports for `cat` cut off by `head`) |
//!
//! A binary does all its reads before its first output, then calls
//! [`Args::finish`]:
//!
//! ```no_run
//! use dsra_bench::{outln, Args, MAX_JOBS};
//!
//! let mut args = Args::from_env();
//! let jobs: u32 = args.int("--jobs", 1000, 0..=MAX_JOBS);
//! let json = args.switch("--json");
//! args.finish();
//! outln(format!("{jobs} jobs, json {json}"));
//! ```

use std::io::Write;
use std::ops::RangeInclusive;

/// The command line of one experiment binary, read flag by flag.
///
/// A flag's value is the token after it, unless that token starts with
/// `--`. A bad value exits at once through [`bad_value`]; an unknown flag,
/// a stray operand, a repeated flag or a valued flag with no value is
/// reported by [`Args::finish`], which by then knows every flag the
/// binary accepts.
#[derive(Debug)]
pub struct Args {
    bin: String,
    /// argv after the program name; `None` once a read consumed it.
    tokens: Vec<Option<String>>,
    accepted: Vec<&'static str>,
    problem: Option<String>,
}

impl Args {
    /// The process's command line — the only reader of argv. A token
    /// that is not UTF-8 goes to [`bad_value`].
    pub fn from_env() -> Args {
        let mut argv = std::env::args_os().map(|a| {
            a.into_string()
                .unwrap_or_else(|a| bad_value("an argument (not UTF-8)", &a.to_string_lossy()))
        });
        let bin = argv.next().unwrap_or_default();
        Args {
            bin: bin.rsplit('/').next().unwrap_or_default().to_owned(),
            tokens: argv.map(Some).collect(),
            accepted: Vec::new(),
            problem: None,
        }
    }

    /// Consumes every occurrence of `name`; returns the index of the first.
    fn take(&mut self, name: &'static str) -> Option<usize> {
        self.accepted.push(name);
        let hits: Vec<usize> = (0..self.tokens.len())
            .filter(|&i| self.tokens[i].as_deref() == Some(name))
            .collect();
        if hits.len() > 1 {
            let problem = format!("{name} given {} times", hits.len());
            self.problem.get_or_insert(problem);
        }
        hits.iter().for_each(|&i| self.tokens[i] = None);
        hits.first().copied()
    }

    /// `true` when the switch `name` was given.
    pub fn switch(&mut self, name: &'static str) -> bool {
        self.take(name).is_some()
    }

    /// The value after `name` (a path, a policy name, …), if the flag was
    /// given.
    pub fn value(&mut self, name: &'static str) -> Option<String> {
        let i = self.take(name)?;
        let next = self.tokens.get_mut(i + 1);
        let value = next.and_then(|v| v.take_if(|v| !v.starts_with("--")));
        if value.is_none() {
            self.problem.get_or_insert(format!("{name} needs a value"));
        }
        value
    }

    /// `name <integer>` (decimal or `0x…` hex) as `T`, or `default` when
    /// the flag is absent. A value that does not parse, falls outside
    /// `range` or does not fit `T` goes to [`bad_value`]; nothing is
    /// truncated or clamped.
    pub fn int<T: TryFrom<u64>>(
        &mut self,
        name: &'static str,
        default: T,
        range: RangeInclusive<u64>,
    ) -> T {
        let Some(v) = self.value(name) else {
            return default;
        };
        let n = match v.trim().strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.trim().parse(),
        };
        let n = n.unwrap_or_else(|_| bad_value(name, &v));
        if n > *range.end() {
            bad_value(&format!("{name} (at most {})", range.end()), &v);
        }
        if n < *range.start() {
            bad_value(&format!("{name} (at least {})", range.start()), &v);
        }
        T::try_from(n).unwrap_or_else(|_| bad_value(name, &v))
    }

    /// `name <number>`, or `default` when the flag is absent. A value that
    /// does not parse goes to [`bad_value`], and so does one that fails
    /// `check`, named by `check`'s description.
    pub fn num(&mut self, name: &'static str, default: f64, check: (&str, fn(f64) -> bool)) -> f64 {
        let Some(v) = self.value(name) else {
            return default;
        };
        let n: f64 = v.trim().parse().unwrap_or_else(|_| bad_value(name, &v));
        if !check.1(n) {
            bad_value(&format!("{name} ({})", check.0), &v);
        }
        n
    }

    /// The first token no read has consumed yet, an operand such as an
    /// input path. When there is none, or it is a flag, prints
    /// `usage: <usage>` and exits with status 2.
    pub fn positional(&mut self, usage: &str) -> String {
        let next = self.tokens.iter_mut().find(|t| t.is_some());
        next.and_then(|t| t.take_if(|t| !t.starts_with("--")))
            .unwrap_or_else(|| {
                eprintln!("usage: {usage}");
                std::process::exit(2)
            })
    }

    /// Ends the reads. The first repeated or value-less flag, else the
    /// first token no read consumed, is printed to stderr with the flags
    /// the binary accepts, and the run exits with status 2.
    pub fn finish(self) {
        let stray = self.tokens.into_iter().flatten().next();
        let stray = stray.map(|t| format!("unexpected argument {t}"));
        if let Some(problem) = self.problem.or(stray) {
            let accepted = self.accepted.join(" ");
            eprintln!("{problem}; {} accepts {accepted}", self.bin);
            std::process::exit(2)
        }
    }
}

/// Rejects a command-line value: prints `bad value for <name>: <value>`
/// to stderr and exits with status 2. Experiment binaries fail loudly on
/// bad arguments rather than silently measuring something else, and
/// never with a panic.
pub fn bad_value(name: &str, value: &str) -> ! {
    eprintln!("bad value for {name}: {value}");
    std::process::exit(2)
}

/// The value of a fallible step whose input came from the command line;
/// on an error, prints `<what> failed: <error>` to stderr and exits with
/// status 2 — the same contract as [`bad_value`], never a panic.
pub fn or_exit<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        std::process::exit(2)
    })
}

/// An experiment's acceptance gate: when `passed` is false, prints
/// `message` to stderr and exits with status 1. A missed gate is a
/// measured outcome of the flags given, so it ends the run with an error,
/// never with a panic.
pub fn gate(passed: bool, message: &str) {
    if !passed {
        eprintln!("{message}");
        std::process::exit(1)
    }
}

/// Writes `contents` to a `path` given on the command line and prints
/// `wrote <path>`; a failed write goes to [`or_exit`] (status 2, the path
/// in the message).
pub fn write_file(path: &str, contents: impl AsRef<[u8]>) {
    or_exit(&format!("write {path}"), std::fs::write(path, contents));
    outln(format!("wrote {path}"));
}

/// Prints `text` to stdout — the one writer every line a binary prints
/// goes through. A closed stdout ends the run with status 141 and no
/// message; any other failed write goes to [`or_exit`].
pub fn out(text: impl std::fmt::Display) {
    if let Err(e) = std::io::stdout().write_fmt(format_args!("{text}")) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141)
        }
        or_exit("write stdout", Err::<(), _>(e));
    }
}

/// [`out`], then a newline.
pub fn outln(text: impl std::fmt::Display) {
    out(format_args!("{text}\n"))
}
