//! Shared harness code for the benchmark suite: the Figure 3 sweep, its
//! statistics (linear fits, overhead percentages), and table rendering.
//!
//! The `figure3` binary (`cargo run --release -p sm-bench --bin figure3`)
//! regenerates the paper's only measured figure; the `bench_*` binaries
//! write the `BENCH_*.json` numbers behind the ablations listed
//! in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use sm_netsim::{run_setup, Setup, SimConfig};
use sm_obs::Metrics;

/// First line of a command's output, or `"unknown"` where the tool or
/// the checkout is missing.
fn first_line(program: &str, args: &[&str]) -> String {
    match std::process::Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// The `"env": {…},` line of a `BENCH_*.json`: where its numbers were
/// taken — cores, `git describe --always --dirty`, `rustc --version`,
/// `--quick`.
pub fn env_json_line(quick: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let rev = first_line("git", &["describe", "--always", "--dirty"]);
    let rustc = first_line("rustc", &["--version"]);
    format!(
        "  \"env\": {{\"cores\": {cores}, \"rev\": \"{rev}\", \"rustc\": \"{rustc}\", \"quick\": {quick}}},\n"
    )
}

/// Install an `sm_obs` metrics aggregator for the duration of a bench
/// binary run. Every runtime event from this point on (task spawns,
/// merges with their OT stats, pool churn) is aggregated into the
/// returned handle.
pub fn install_metrics() -> Arc<Metrics> {
    let metrics = Arc::new(Metrics::new());
    sm_obs::install(metrics.clone());
    metrics
}

/// Write the metrics JSON sidecar for a bench binary.
///
/// The output path is `--metrics-out PATH` when present in `args`, else
/// `target/<name>-metrics.json`. Prints where the sidecar went (or why it
/// could not be written) on stderr; a failed write never fails the bench.
pub fn write_metrics_sidecar(metrics: &Metrics, name: &str, args: &[String]) {
    let path = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("target/{name}-metrics.json"));
    match std::fs::write(&path, metrics.json_string()) {
        Ok(()) => eprintln!("{name}: metrics sidecar written to {path}"),
        Err(e) => eprintln!("{name}: could not write metrics sidecar {path}: {e}"),
    }
}

/// One measured point of the Figure 3 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Host workload `l` (SHA-1 iterations per message).
    pub workload: usize,
    /// Mean simulation time over the repetitions.
    pub millis: f64,
}

/// One setup's measured series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Which setup; its Figure 3 legend label names the series.
    pub setup: Setup,
    /// Measured points, in workload order.
    pub points: Vec<Point>,
}

impl Series {
    /// Least-squares linear fit `millis ≈ intercept + slope·workload`.
    ///
    /// The intercept estimates the paper's "constant overhead of about
    /// 400 milliseconds per run" (fork copies); the slope is the hashing
    /// cost per workload unit.
    pub fn linear_fit(&self) -> (f64, f64) {
        linear_fit(
            &self
                .points
                .iter()
                .map(|p| p.workload as f64)
                .collect::<Vec<_>>(),
            &self.points.iter().map(|p| p.millis).collect::<Vec<_>>(),
        )
    }

    /// The measured time at a workload, if that point was swept.
    pub fn at(&self, workload: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.workload == workload)
            .map(|p| p.millis)
    }
}

/// Least-squares fit returning `(intercept, slope)`.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit");
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return (sy / n, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (intercept, slope)
}

/// Run one setup `reps` times at each workload in `workloads`, averaging
/// wall-clock time.
pub fn sweep(setup: Setup, cfg: &SimConfig, workloads: &[usize], reps: usize) -> Series {
    assert!(reps >= 1);
    let mut points = Vec::with_capacity(workloads.len());
    for &w in workloads {
        let cfg = SimConfig {
            workload: w,
            ..*cfg
        };
        let mut total = Duration::ZERO;
        for _ in 0..reps {
            total += run_setup(setup, &cfg).elapsed;
        }
        points.push(Point {
            workload: w,
            millis: total.as_secs_f64() * 1000.0 / reps as f64,
        });
    }
    Series { setup, points }
}

/// Relative overhead of `ours` vs `baseline` at one workload, in percent.
pub fn overhead_percent(ours: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return f64::INFINITY;
    }
    (ours - baseline) / baseline * 100.0
}

/// Render the four series as an aligned text table (the Figure 3 data).
pub fn render_table(series: &[Series]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(out, "{:>10}", "workload");
    for s in series {
        let _ = write!(out, "  {:>28}", s.setup.label());
    }
    let _ = writeln!(out);
    if let Some(first) = series.first() {
        for (i, p) in first.points.iter().enumerate() {
            let _ = write!(out, "{:>10}", p.workload);
            for s in series {
                let _ = write!(out, "  {:>26.1}ms", s.points[i].millis);
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netsim::Routing;

    #[test]
    fn linear_fit_recovers_line() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.5 * x).collect();
        let (b, m) = linear_fit(&xs, &ys);
        assert!((b - 3.0).abs() < 1e-9);
        assert!((m - 2.5).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_constant_series() {
        let (b, m) = linear_fit(&[1.0, 2.0, 3.0], &[7.0, 7.0, 7.0]);
        assert!((b - 7.0).abs() < 1e-9);
        assert!(m.abs() < 1e-9);
    }

    #[test]
    fn overhead_percent_basics() {
        assert!((overhead_percent(138.0, 100.0) - 38.0).abs() < 1e-9);
        assert!(overhead_percent(1.0, 0.0).is_infinite());
    }

    #[test]
    fn sweep_produces_points_for_each_workload() {
        let cfg = SimConfig::small(0, Routing::NextHost);
        let s = sweep(Setup::ConventionalDet, &cfg, &[0, 1], 1);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].workload, 0);
        assert!(s.at(1).is_some());
        assert!(s.at(99).is_none());
    }

    #[test]
    fn render_table_contains_labels() {
        let cfg = SimConfig::small(0, Routing::NextHost);
        let s = sweep(Setup::ConventionalDet, &cfg, &[0], 1);
        let table = render_table(&[s]);
        assert!(table.contains("Conventional (determ.)"));
        assert!(table.contains("workload"));
    }
}
