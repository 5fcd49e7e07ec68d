//! A tiny dependency-free timing harness for the `benches/` targets.
//!
//! The container builds offline, so the benches cannot pull Criterion
//! from the registry. This module provides the minimum that the
//! micro-benchmarks need: warm up, pick a batch of calls long enough to
//! time, run a fixed wall-clock budget of batches, report per-call
//! min/mean/median. Results are printed human-readable; nothing is
//! persisted.

use std::time::{Duration, Instant};

/// Summary statistics for one benchmarked closure, per call.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Calls measured (after warm-up): samples times the batch.
    pub iters: u64,
    /// Calls timed together as one sample.
    pub batch: u32,
    /// Fastest sample's time per call.
    pub min: Duration,
    /// Mean time per call over all samples.
    pub mean: Duration,
    /// Median sample's time per call.
    pub median: Duration,
}

impl Timing {
    /// Render one aligned result line, e.g. for `bench_fn` callers.
    pub fn report(&self, name: &str) -> String {
        format!(
            "{name:<44} {:>12} min {:>12} mean {:>12} median ({} iters)",
            fmt_duration(self.min),
            fmt_duration(self.mean),
            fmt_duration(self.median),
            self.iters
        )
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Shortest time one sample should take: long against the pair of
/// clock reads around it (tens of ns each), short against the budget.
const MIN_SAMPLE: Duration = Duration::from_micros(10);

/// Benchmark `f`, printing a result line to stdout and returning the
/// stats. Warm-up runs for ~1/10 of the measurement budget. Then the
/// batch size is calibrated once: the smallest power of two of calls
/// that takes at least [`MIN_SAMPLE`], so a call much shorter than the
/// clock's own cost is still timed, not the clock. Measurement times
/// whole batches for ~1 s or at least 10 samples, whichever is longer,
/// and reports each sample's time divided by the batch. The closure's
/// return value is passed through `std::hint::black_box` so the
/// optimizer cannot delete the work.
pub fn bench_fn<T>(name: &str, mut f: impl FnMut() -> T) -> Timing {
    let budget = Duration::from_millis(
        std::env::var("MAILVAL_BENCH_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1000),
    );

    let warm_until = Instant::now() + budget / 10;
    while Instant::now() < warm_until {
        std::hint::black_box(f());
    }

    let mut batch = 1u32;
    while time_batch(&mut f, batch) < MIN_SAMPLE && batch < 1 << 30 {
        batch *= 2;
    }

    let mut samples: Vec<Duration> = Vec::new();
    let measure_until = Instant::now() + budget;
    while samples.len() < 10 || Instant::now() < measure_until {
        samples.push(time_batch(&mut f, batch) / batch);
    }

    samples.sort_unstable();
    let total: Duration = samples.iter().sum();
    let timing = Timing {
        iters: samples.len() as u64 * u64::from(batch),
        batch,
        min: samples[0],
        mean: total / samples.len() as u32,
        median: samples[samples.len() / 2],
    };
    println!("{}", timing.report(name));
    timing
}

/// Wall-clock time of `batch` back-to-back calls of `f`.
fn time_batch<T>(f: &mut impl FnMut() -> T, batch: u32) -> Duration {
    let start = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(f());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_fn_measures_something() {
        std::env::set_var("MAILVAL_BENCH_MS", "20");
        let t = bench_fn("noop", || 1 + 1);
        assert!(t.iters >= 10);
        assert!(t.min <= t.median && t.median <= t.mean * 10);
        // A call far shorter than the clock is timed in batches, and
        // every call the harness made after warm-up is counted.
        assert!(t.batch > 1, "batch {}", t.batch);
        assert_eq!(t.iters % u64::from(t.batch), 0);
        let mut calls = 0u64;
        let t = bench_fn("slow", || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(50))
        });
        assert_eq!(t.batch, 1);
        assert!(calls > t.iters);
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
