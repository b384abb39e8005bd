//! Minimal, offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API this workspace uses
//! (see `shims/README.md`): benchmark groups, `bench_function` /
//! `bench_with_input`, `throughput`), `Bencher::iter`, `BenchmarkId`,
//! `Throughput::Elements`, `black_box` and the `criterion_group!` /
//! `criterion_main!` macros. Each benchmark is timed with
//! `std::time::Instant` over a handful of iterations and reported as a
//! one-line mean (plus ns per element when a throughput is set) — no
//! statistics, HTML reports, or baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier for a parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier built from a parameter's `Display` form.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// Identifier from a function name plus parameter.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

/// Work done by one iteration, for per-element reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many elements each.
    Elements(u64),
}

/// Timing driver handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u32,
    mean: Duration,
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.mean = start.elapsed() / self.iters;
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's iteration count is fixed.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim's iteration count is fixed.
    pub fn measurement_time(&mut self, _dur: Duration) -> &mut Self {
        self
    }

    /// Sets the work per iteration of the benchmarks that follow in this
    /// group; their report line adds the mean time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs `f` under the timer and prints a one-line mean.
    pub fn bench_function<S: Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            iters: self.criterion.iters,
            mean: Duration::ZERO,
        };
        f(&mut b);
        let per_element = match self.throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!(
                    " ({:.1} ns per element)",
                    b.mean.as_nanos() as f64 / n as f64
                )
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: mean {:?} over {} iters{per_element}",
            self.name, id, b.mean, b.iters
        );
        self
    }

    /// Like [`Self::bench_function`] with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(self) {}
}

/// Top-level benchmark context.
#[derive(Debug)]
pub struct Criterion {
    iters: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { iters: 3 }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.benchmark_group(id).bench_function("bench", f);
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $( $target(&mut criterion); )*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),*
        );
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            $( $group(); )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_chains() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        let mut runs = 0u32;
        g.sample_size(10)
            .measurement_time(Duration::from_millis(1))
            .bench_function("count", |b| b.iter(|| runs += 1));
        g.bench_with_input(BenchmarkId::from_parameter("x"), &21u32, |b, &x| {
            b.iter(|| assert_eq!(x * 2, 42))
        });
        g.finish();
        assert!(runs >= 1);
    }
}
