//! Percentiles, the per-layer metric table and the run report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in [0, 1]).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts a copy and takes its `p` percentile.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of a set of repeated measurements that the end-to-end
/// metrics report: the lower quartile of times, the upper quartile of
/// rates. On a shared host, CPU steal comes in bursts that make some
/// windows of a run slow; the quiet quartile tracks the program rather
/// than its neighbours, and still moves when the program's own speed does.
pub const QUIET_TIME: f64 = 0.25;
pub const QUIET_RATE: f64 = 0.75;

/// Timed values, each tagged with when it happened (seconds since the
/// run started, or any other ordering key such as a pass number).
#[derive(Default, Clone)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    pub fn push(&mut self, at: f64, value: f64) {
        self.points.push((at, value));
    }

    pub fn len(&self) -> u64 {
        self.points.len() as u64
    }

    fn sorted_values(points: &[(f64, f64)]) -> Vec<f64> {
        let mut v: Vec<f64> = points.iter().map(|&(_, x)| x).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `p` percentile over every value.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&Self::sorted_values(&self.points), p)
    }

    /// The [`QUIET_TIME`] quantile, over consecutive windows `window`
    /// wide, of each window's `p` percentile. Windows with fewer than
    /// `min_points` values are left out unless no window has that many.
    pub fn quiet(&self, window: f64, p: f64, min_points: usize) -> f64 {
        let full = self.per_window(window, p, min_points);
        if full.is_empty() {
            self.pct(p)
        } else {
            quantile(&full, QUIET_TIME)
        }
    }

    /// Each window's `p` percentile, in time order, for windows holding
    /// at least `min_points` values.
    pub fn per_window(&self, window: f64, p: f64, min_points: usize) -> Vec<f64> {
        self.windows(window, min_points)
            .map(|w| percentile(&Self::sorted_values(&w), p))
            .collect()
    }

    /// Each window's count of values per second of their sum, for values
    /// in ms: the rate at which that work would complete back to back.
    /// Only windows holding at least `min_points` values count.
    pub fn per_window_rate(&self, window: f64, min_points: usize) -> Vec<f64> {
        self.windows(window, min_points)
            .map(|w| w.len() as f64 / (w.iter().map(|&(_, x)| x).sum::<f64>() / 1e3))
            .collect()
    }

    fn windows(&self, window: f64, min_points: usize) -> impl Iterator<Item = Vec<(f64, f64)>> {
        let mut windows: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
        for &(at, x) in &self.points {
            windows
                .entry((at / window).floor() as i64)
                .or_default()
                .push((at, x));
        }
        windows.into_values().filter(move |w| w.len() >= min_points)
    }
}

/// A reported value with its unit and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Every per-layer metric of `BENCHMARK.json`, with its unit. A traced
/// run reports each of them; one a workload does not exercise reads 0
/// with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("retention.chip_new_ms", "ms"),
    ("retention.advance_ms", "ms"),
    ("retention.trial_ms.compiling", "ms"),
    ("retention.trial_ms.plan_hit", "ms"),
    ("retention.trial_ms.lowered_or_scalar", "ms"),
    ("retention.trial_ms.with_arrivals", "ms"),
    ("retention.trials", "count"),
    ("retention.arrivals", "count"),
    ("retention.plans_compiled", "count"),
    ("retention.invalidations", "count"),
    ("retention.lowerings_built", "count"),
    ("retention.batch_rounds", "count"),
    ("retention.plan_reuse", "ratio"),
    ("retention.truth_ms", "ms"),
    ("core.profiler_run_ms", "ms"),
    ("core.encode_us", "us"),
    ("portfolio.race_ms", "ms"),
    ("portfolio.lanes_cancelled", "count"),
    ("portfolio.useful_cost_ratio", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.fetch_us_p50", "us"),
    ("serve.status_polls", "count"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.read_us_p50.direct", "us"),
    ("serve.push_us_p50.direct", "us"),
    ("serve.not_modified", "count"),
    ("serve.delta_chains", "count"),
    ("serve.delta_full_fallbacks", "count"),
    ("serve.cache_hits", "count"),
    ("fleet.router_hop_us_p50", "us"),
    ("fleet.replicate_ms", "ms"),
    ("fleet.replication.applied_chains", "count"),
    ("fleet.replication.installed_full", "count"),
    ("fleet.replication.failed", "count"),
    ("loadgen.late_us_p99", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// End-to-end metrics of `BENCHMARK.json`, common to every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
];

/// What one run measured.
pub struct Report {
    pub workload: &'static str,
    pub env: Vec<(&'static str, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// The workload's own metrics under their own names (`jobs_per_s`,
    /// `read_us_p90`, ...), printed in the log (diagnostics included).
    pub named: Vec<(String, Metric)>,
    pub e2e: BTreeMap<&'static str, Metric>,
    pub layers: BTreeMap<&'static str, Metric>,
    /// Free-form ledger lines printed after the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Self {
            workload,
            env: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            named: Vec::new(),
            e2e: BTreeMap::new(),
            layers: PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    (
                        name,
                        Metric {
                            value: 0.0,
                            unit,
                            samples: 0,
                        },
                    )
                })
                .collect(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn env(&mut self, key: &'static str, value: impl ToString) {
        self.env.push((key, value.to_string()));
    }

    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.named.push((
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        ));
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .expect("invariant: end-to-end metric names come from END_TO_END");
        self.e2e.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn layer(&mut self, name: &'static str, value: f64, samples: u64) {
        let metric = self
            .layers
            .get_mut(name)
            .expect("invariant: per-layer metric names come from PER_LAYER");
        metric.value = value;
        metric.samples = samples;
    }

    /// Prints the human-readable report, then the result line: the JSON
    /// object with `correct`, `attempted`, `failed` and the end-to-end
    /// (untraced) or per-layer (traced) metrics.
    pub fn print(&self, traced: bool) {
        let mut out = String::new();
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "# workload {} ({})",
            self.workload,
            if traced { "traced" } else { "untraced" }
        );
        let _ = writeln!(out, "env {}", env.join(" "));
        for (name, m) in &self.named {
            let _ = writeln!(
                out,
                "metric {name:<36} {:>14.4} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        let section = if traced { &self.layers } else { &self.e2e };
        for (name, m) in section {
            let _ = writeln!(
                out,
                "{:<6} {name:<36} {:>14.4} {:<6} n={}",
                if traced { "layer" } else { "e2e" },
                m.value,
                m.unit,
                m.samples
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "ledger {note}");
        }
        for why in &self.failures {
            let _ = writeln!(out, "FAILED {why}");
        }
        let metrics: Vec<String> = section
            .iter()
            .map(|(name, m)| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.unit)
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        print!("{out}");
    }
}

/// Cumulative `(steal, total)` CPU ticks of the host's `/proc/stat`, or
/// zeros where it is not available. Steal is time the hypervisor gave a
/// vCPU of this guest to someone else.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn every_layer_metric_starts_reported() {
        let r = Report::new("x");
        assert_eq!(r.layers.len(), PER_LAYER.len());
    }
}
