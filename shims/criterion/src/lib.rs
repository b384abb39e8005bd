//! Minimal, offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset of the criterion 0.5 API this workspace uses
//! (see `shims/README.md`): benchmark groups, `bench_function` /
//! `bench_with_input`, `throughput`), `Bencher::iter`, `BenchmarkId`,
//! `Throughput::Elements`, `black_box` and the `criterion_group!` /
//! `criterion_main!` macros. Each benchmark is warmed up for a tenth of
//! its group's `measurement_time`, then timed with `std::time::Instant`
//! over `sample_size` samples (fewer if `measurement_time` runs out first;
//! each sample times enough iterations to last at least a millisecond) and
//! reported as one line with the median and the minimum time per
//! iteration (plus ns per element when a throughput is set) — no outlier
//! analysis, HTML reports, or baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Shortest sample worth timing: faster routines are iterated within one
/// sample until it lasts this long, so the timer's resolution stays noise.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

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
    sample_size: usize,
    measurement_time: Duration,
    /// Iterations timed per sample, chosen after the warm-up.
    iters_per_sample: u32,
    /// Mean time per iteration of each sample, in the order taken.
    samples: Vec<Duration>,
}

impl Bencher {
    fn new(sample_size: usize, measurement_time: Duration) -> Self {
        Bencher {
            sample_size: sample_size.max(1),
            measurement_time,
            iters_per_sample: 0,
            samples: Vec::new(),
        }
    }

    /// Warms `routine` up for a tenth of the measurement time (at least
    /// one iteration), then takes up to `sample_size` samples, stopping
    /// early once the measurement time has passed (after at least one).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warm_up = Instant::now();
        let mut warm_iters = 0u32;
        while warm_iters == 0 || warm_up.elapsed() < self.measurement_time / 10 {
            black_box(routine());
            warm_iters = warm_iters.saturating_add(1);
        }
        let per_iter = warm_up.elapsed() / warm_iters;
        let per_sample = MIN_SAMPLE.as_nanos() / per_iter.as_nanos().max(1);
        self.iters_per_sample = u32::try_from(per_sample).unwrap_or(u32::MAX).max(1);

        self.samples.clear();
        let measuring = Instant::now();
        while self.samples.len() < self.sample_size {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples.push(start.elapsed() / self.iters_per_sample);
            if measuring.elapsed() >= self.measurement_time {
                break;
            }
        }
    }

    /// The median and the minimum time per iteration over the samples
    /// taken, or `None` if the benchmark never called [`Bencher::iter`].
    fn summary(&self) -> Option<Summary> {
        Summary::of(&self.samples)
    }
}

/// What one benchmark row reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    median: Duration,
    min: Duration,
    samples: usize,
}

impl Summary {
    fn of(samples: &[Duration]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
        };
        Some(Summary {
            median,
            min: sorted[0],
            samples: n,
        })
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples the benchmarks that follow take.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples;
        self
    }

    /// Sets the time budget of the benchmarks that follow: a tenth of it
    /// warms up, and sampling stops early once all of it has passed.
    pub fn measurement_time(&mut self, dur: Duration) -> &mut Self {
        self.measurement_time = dur;
        self
    }

    /// Sets the work per iteration of the benchmarks that follow in this
    /// group; their report line adds the time per element.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs `f` under the timer and prints a one-line median and minimum.
    pub fn bench_function<S: Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size, self.measurement_time);
        f(&mut b);
        let line = match b.summary() {
            None => "not measured (Bencher::iter never called)".to_owned(),
            Some(s) => {
                let per_element = match self.throughput {
                    Some(Throughput::Elements(n)) if n > 0 => format!(
                        " ({:.1} ns median, {:.1} ns min per element)",
                        s.median.as_nanos() as f64 / n as f64,
                        s.min.as_nanos() as f64 / n as f64
                    ),
                    _ => String::new(),
                };
                format!(
                    "median {:?}, min {:?} over {} samples of {} iters{per_element}",
                    s.median, s.min, s.samples, b.iters_per_sample
                )
            }
        };
        println!("{}/{}: {line}", self.name, id);
        self.criterion.last = b.summary();
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
    sample_size: usize,
    measurement_time: Duration,
    /// The summary of the last benchmark run, for the shim's own tests.
    last: Option<Summary>,
}

impl Default for Criterion {
    /// criterion's defaults: 100 samples within 5 s.
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            last: None,
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
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

    #[test]
    fn warms_up_then_takes_sample_size_samples() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        let mut g = c.benchmark_group("shim");
        g.sample_size(7)
            .measurement_time(Duration::from_secs(1))
            .bench_function("sleep", |b| {
                b.iter(|| {
                    calls += 1;
                    std::thread::sleep(Duration::from_micros(1500));
                });
                // A 1.5 ms iteration already fills a sample.
                assert_eq!(b.iters_per_sample, 1);
            });
        let s = c.last.expect("measured");
        assert_eq!(s.samples, 7);
        assert!(s.min <= s.median);
        assert!(s.min >= Duration::from_micros(1500), "{s:?}");
        // The warm-up ran for 100 ms (a tenth of the budget) first.
        assert!(calls > 7, "{calls} calls");
    }

    #[test]
    fn sampling_stops_at_the_measurement_time() {
        let mut c = Criterion::default();
        c.benchmark_group("shim")
            .sample_size(1000)
            .measurement_time(Duration::from_millis(20))
            .bench_function("sleep", |b| {
                b.iter(|| std::thread::sleep(Duration::from_millis(2)))
            });
        let s = c.last.expect("measured");
        assert!(s.samples >= 1 && s.samples < 1000, "{s:?}");
    }

    #[test]
    fn fast_routines_batch_iterations_per_sample() {
        let mut b = Bencher::new(3, Duration::from_millis(10));
        b.iter(|| black_box(1u64) + 1);
        assert!(b.iters_per_sample > 1, "{}", b.iters_per_sample);
        assert_eq!(b.samples.len(), 3);
    }

    #[test]
    fn summary_reports_median_and_minimum() {
        let ms = Duration::from_millis;
        assert_eq!(Summary::of(&[]), None);
        let odd = Summary::of(&[ms(9), ms(1), ms(5)]).unwrap();
        assert_eq!((odd.median, odd.min, odd.samples), (ms(5), ms(1), 3));
        let even = Summary::of(&[ms(4), ms(8), ms(2), ms(6)]).unwrap();
        assert_eq!((even.median, even.min, even.samples), (ms(5), ms(2), 4));
    }
}
