//! Offline stand-in for the parts of `criterion` this workspace uses.
//!
//! The build environment has no crates.io access, so this shim implements the
//! subset of the criterion API that the `spi-bench` benches call —
//! `benchmark_group`, `sample_size`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter` and the `criterion_group!`/`criterion_main!`
//! macros — as a small wall-clock harness. It genuinely measures: each sample
//! runs a calibrated number of iterations and the per-iteration mean, minimum
//! and maximum over all samples are printed in a criterion-like format. It
//! performs no statistical outlier analysis and writes no HTML reports.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (criterion's own is deprecated in
/// favour of the std one; some benches import it from here).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Target wall-clock budget for one measurement sample.
const SAMPLE_BUDGET: Duration = Duration::from_millis(20);

/// Entry point handed to benchmark functions, as in the real criterion.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmarks a routine outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, 10, f);
        self
    }
}

/// Identifier for a parameterised benchmark (`{function}/{parameter}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id from a function name and a displayable parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// A group of benchmarks sharing a name prefix and a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples taken per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmarks a routine under `{group}/{name}`.
    pub fn bench_function<F>(&mut self, name: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, name), self.sample_size, f);
        self
    }

    /// Benchmarks a routine that takes a borrowed input under `{group}/{id}`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (printing is per-benchmark, so this is a no-op).
    pub fn finish(self) {}
}

/// Timer handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` for the calibrated number of iterations, timing the
    /// whole batch.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std_black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Most iterations one sample may run.
const MAX_ITERATIONS: u64 = 1 << 20;

/// The iteration count that fills one sample's budget at the pace observed
/// when `iterations` runs of the routine took `elapsed_ns`. The per-run time
/// is clamped to a nanosecond *after* the division, so a routine faster than
/// that (an optimized no-op, say) gets the cap instead of a division by zero.
fn calibrated_iterations(elapsed_ns: u128, iterations: u64) -> u64 {
    let per_iter = (elapsed_ns / u128::from(iterations)).max(1);
    (SAMPLE_BUDGET.as_nanos() / per_iter).clamp(1, u128::from(MAX_ITERATIONS)) as u64
}

fn run_benchmark<F>(name: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibration: start at one iteration per sample and grow until a sample
    // fills the budget (or the routine is clearly slow).
    let mut iterations = 1u64;
    loop {
        let mut bencher = Bencher {
            iterations,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        if bencher.elapsed >= SAMPLE_BUDGET || iterations >= MAX_ITERATIONS {
            break;
        }
        let target = calibrated_iterations(bencher.elapsed.as_nanos(), iterations);
        if target <= iterations {
            break;
        }
        iterations = target;
    }

    let mut samples_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut bencher = Bencher {
            iterations,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        samples_ns.push(bencher.elapsed.as_nanos() as f64 / iterations as f64);
    }
    samples_ns.sort_by(|a, b| a.total_cmp(b));
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    println!(
        "{name:<60} time: [{} {} {}]  ({} iters x {} samples)",
        format_ns(samples_ns[0]),
        format_ns(mean),
        format_ns(*samples_ns.last().expect("sample_size >= 2")),
        iterations,
        samples_ns.len(),
    );
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Bundles benchmark functions into a group runner, as in the real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut count = 0u64;
        group.bench_function("count", |b| b.iter(|| count += 1));
        group.finish();
        assert!(count > 0);
    }

    #[test]
    fn calibration_survives_sub_nanosecond_routines() {
        // 999 ns over 1000 runs is under a nanosecond per run, as cheap
        // routines get in release builds: the clamp must follow the division.
        assert_eq!(calibrated_iterations(999, 1000), MAX_ITERATIONS);
        assert_eq!(calibrated_iterations(0, 1), MAX_ITERATIONS);
        assert_eq!(calibrated_iterations(1_000, 1), 20_000);
        assert_eq!(calibrated_iterations(2_000_000, 100), 1_000);
        assert_eq!(calibrated_iterations(SAMPLE_BUDGET.as_nanos() * 3, 1), 1);
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("flatten", 16).to_string(), "flatten/16");
    }
}
