//! A zero-dependency micro-benchmark harness.
//!
//! The workspace builds offline, so the `[[bench]]` targets use this instead
//! of an external framework (`harness = false` in the manifest hands them a
//! plain `main`). The measurement loop is deliberately simple: a fixed warmup
//! followed by timed iterations until a wall-clock budget is spent, reporting
//! mean / median / p99 per-iteration latency. The same percentile machinery
//! backs the serving benchmark's latency report.

use std::time::{Duration, Instant};

/// Per-benchmark timing summary (all durations in nanoseconds).
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark label.
    pub name: String,
    /// Number of timed iterations.
    pub iterations: usize,
    /// Mean iteration time.
    pub mean_ns: f64,
    /// Median (p50) iteration time.
    pub p50_ns: f64,
    /// 99th-percentile iteration time.
    pub p99_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
}

impl BenchStats {
    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "{:<55} {:>8} iters  mean {:>12}  p50 {:>12}  p99 {:>12}",
            self.name,
            self.iterations,
            fmt_ns(self.mean_ns),
            fmt_ns(self.p50_ns),
            fmt_ns(self.p99_ns),
        )
    }
}

/// Format a nanosecond quantity with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Percentile of a sample set by linear interpolation (`q` in `[0, 1]`).
/// Returns 0 for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Configuration of the measurement loop.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Untimed warmup iterations.
    pub warmup_iters: usize,
    /// Wall-clock budget for the timed phase.
    pub budget: Duration,
    /// Lower bound on timed iterations, budget notwithstanding.
    pub min_iters: usize,
    /// Upper bound on timed iterations (caps very fast benchmarks).
    pub max_iters: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            warmup_iters: 3,
            budget: Duration::from_millis(750),
            min_iters: 10,
            max_iters: 5_000,
        }
    }
}

/// Run one benchmark case and print its summary line to stdout.
pub fn bench(name: &str, mut body: impl FnMut()) -> BenchStats {
    bench_with(&BenchConfig::default(), name, &mut body)
}

/// Run one benchmark case under an explicit configuration.
pub fn bench_with(config: &BenchConfig, name: &str, body: &mut dyn FnMut()) -> BenchStats {
    for _ in 0..config.warmup_iters {
        body();
    }
    let mut samples: Vec<f64> = Vec::new();
    let started = Instant::now();
    while samples.len() < config.max_iters
        && (samples.len() < config.min_iters || started.elapsed() < config.budget)
    {
        let t0 = Instant::now();
        body();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    let stats = BenchStats {
        name: name.to_string(),
        iterations: samples.len(),
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
        p50_ns: percentile(&samples, 0.50),
        p99_ns: percentile(&samples, 0.99),
        min_ns: samples.iter().copied().fold(f64::INFINITY, f64::min),
    };
    println!("{}", stats.render());
    stats
}

/// Parse a bench binary's arguments, program name first: `--quick` or
/// nothing. The error names the argument it rejects.
fn quick_from_slice(args: &[String]) -> Result<bool, String> {
    let mut quick = false;
    for arg in args.iter().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    Ok(quick)
}

/// Whether the process arguments ask for `--quick`. Anything else prints
/// the error and a usage line to stderr and exits with status 2.
pub fn quick_from_args() -> bool {
    let args: Vec<String> = std::env::args().collect();
    quick_from_slice(&args).unwrap_or_else(|e| {
        let bin = args.first().map_or("bin", String::as_str);
        eprintln!("error: {e}\nusage: {bin} [--quick]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_the_only_flag() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = std::iter::once("bin")
                .chain(args.iter().copied())
                .map(String::from)
                .collect();
            quick_from_slice(&args)
        };
        assert_eq!(parse(&[]), Ok(false));
        assert_eq!(parse(&["--quick"]), Ok(true));
        for (bad, named) in [
            (&["--quik"][..], "--quik"),
            (&["--quick", "--seed", "3"][..], "--seed"),
            (&["quick"][..], "quick"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(named), "{bad:?}: {err}");
        }
    }

    #[test]
    fn percentile_interpolates() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert!((percentile(&samples, 0.5) - 2.5).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn bench_runs_at_least_min_iters() {
        let config = BenchConfig {
            warmup_iters: 1,
            budget: Duration::from_millis(1),
            min_iters: 5,
            max_iters: 50,
        };
        let mut count = 0usize;
        let stats = bench_with(&config, "noop", &mut || count += 1);
        assert!(stats.iterations >= 5);
        assert_eq!(count, stats.iterations + 1);
        assert!(stats.p99_ns >= stats.p50_ns);
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert!(fmt_ns(500.0).ends_with("ns"));
        assert!(fmt_ns(5_000.0).contains("µs"));
        assert!(fmt_ns(5_000_000.0).contains("ms"));
        assert!(fmt_ns(5_000_000_000.0).ends_with(" s"));
    }
}
