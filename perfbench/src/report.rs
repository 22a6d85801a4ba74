//! Metric collection, the self-consistency gate, and the result line.

use crate::hist::LogHist;

/// The end-to-end metrics of `BENCHMARK.json`. Every workload reports
/// all of them from an untraced run; what an operation is differs by
/// workload (see `perfbench/README.md`).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "cpu_us_per_op",
    "peak_rss_mb",
];

/// The per-layer metrics of `BENCHMARK.json`: the in-process layer costs,
/// which every workload's traced run measures over its own inputs. Other
/// per-layer figures apply to some workloads only; they are printed as
/// `info` lines.
pub const PER_LAYER: [&str; 12] = [
    "bench.span_cost_ns",
    "bench.trace_overhead_pct",
    "trace.gen.ns_per_machine_tick",
    "core.view.observe_ns_per_tick",
    "core.predictor.borg.ns_per_eval",
    "core.predictor.rc.ns_per_eval",
    "core.predictor.nsigma.ns_per_eval",
    "core.predictor.max.ns_per_eval",
    "core.oracle.ns_per_tick",
    "core.ingest.apply_ns_per_sample",
    "serve.proto.parse_ns_per_line",
    "serve.proto.format_ns_per_reply",
];

pub struct Report {
    /// The metrics this run's result holds: the per-layer ones for a
    /// traced run, the end-to-end ones otherwise.
    wanted: &'static [&'static str],
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations the workload attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, were lost, or served a
    /// prediction that differs from the offline recompute.
    pub failed: u64,
    violations: Vec<String>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            wanted: if traced { &PER_LAYER } else { &END_TO_END },
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    /// Records a metric of this run's result; any other metric is printed
    /// for reference but left out of the result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.wanted.contains(&name) {
            println!("info {name} = {value} {unit}");
            return;
        }
        if !value.is_finite() {
            self.violations
                .push(format!("{name} is not a finite number ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a gate violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// p50 <= p99 <= max for one latency distribution.
    pub fn check_order(&mut self, label: &str, p50: f64, p99: f64, max: f64) {
        self.check(p50 <= p99 && p99 <= max, || {
            format!("{label}: quantiles out of order: p50 {p50} p99 {p99} max {max}")
        });
    }

    pub fn check_hist(&mut self, label: &str, h: &LogHist) {
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        self.check_order(label, p50, p99, h.max() as f64);
        self.check(h.min() as f64 <= p50, || {
            format!("{label}: p50 {p50} below min {}", h.min())
        });
    }

    /// CPU cannot exceed wall time times the host's cores.
    pub fn check_cpu(&mut self, label: &str, cpu_s: f64, wall_s: f64) {
        let cap = wall_s * nproc() as f64;
        // One kernel tick of slack per core for the /proc clock-tick rounding.
        self.check(cpu_s <= cap + 0.01 * nproc() as f64, || {
            format!(
                "{label}: CPU {cpu_s:.3}s exceeds wall {wall_s:.3}s x {} cores",
                nproc()
            )
        });
    }

    /// acked + failed must account for every attempted operation.
    pub fn check_accounting(&mut self, label: &str, acked: u64, failed: u64, attempted: u64) {
        self.check(acked + failed == attempted, || {
            format!("{label}: acked {acked} + failed {failed} != attempted {attempted}")
        });
    }

    /// Every metric of the run's kind must have been reported once.
    fn finish_checks(&mut self) {
        for name in self.wanted {
            let n = self.metrics.iter().filter(|m| m.0 == *name).count();
            if n != 1 {
                self.violations
                    .push(format!("metric {name} was reported {n} times, not once"));
            }
        }
    }

    /// Prints every metric with its unit, the gate verdict, and the
    /// result object as the last line.
    pub fn finish(mut self) {
        self.finish_checks();
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for v in &self.violations {
            println!("gate violation: {v}");
        }
        let correct = self.violations.is_empty() && self.failed == 0 && self.attempted > 0;
        println!(
            "attempted {} failed {} gate {}",
            self.attempted,
            self.failed,
            if self.violations.is_empty() {
                "ok"
            } else {
                "FAILED"
            }
        );
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// The `q`-quantile of `xs`, interpolating between order statistics.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The quiet-side quartile of per-window costs (latencies, CPU per op):
/// their 25th percentile. Neighbours on a shared host only ever slow a
/// window down, so this tracks the program through intermittent
/// interference that moves a mean or median.
pub fn quiet_cost(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

/// The quiet-side quartile of per-window rates: their 75th percentile.
pub fn quiet_rate(xs: &[f64]) -> f64 {
    quantile(xs, 0.75)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_pick_the_quiet_side() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quiet_cost(&xs), 2.0);
        assert_eq!(quiet_rate(&xs), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_gate_rejects_impossible_numbers() {
        let ok = |f: &dyn Fn(&mut Report)| {
            let mut r = Report::new(false);
            r.attempted = 1;
            f(&mut r);
            r.violations.is_empty()
        };
        assert!(ok(&|r| r.check_order("x", 1.0, 2.0, 3.0)));
        assert!(!ok(&|r| r.check_order("p50 > p99", 3.0, 2.0, 3.0)));
        assert!(!ok(&|r| r.check_order("p99 > max", 1.0, 4.0, 3.0)));
        assert!(ok(&|r| r.check_accounting("x", 7, 3, 10)));
        assert!(!ok(&|r| r.check_accounting("lost", 7, 2, 10)));
        assert!(ok(&|r| r.check_cpu("x", 1.0, 1.0)));
        assert!(!ok(&|r| r.check_cpu(
            "cpu > wall x cores",
            1.0 + 2.0 * nproc() as f64,
            2.0
        )));
        assert!(!ok(&|r| r.metric("setup_s", f64::NAN, "s")));
        // A metric outside the run's kind is left out of the result.
        let mut r = Report::new(true);
        r.metric("setup_s", 1.0, "s");
        r.metric("serve.busy_ratio", 0.5, "ratio");
        r.metric("serve.proto.parse_ns_per_line", 80.0, "ns");
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.metrics[0].0, "serve.proto.parse_ns_per_line");
    }

    /// The `name`s listed under `key` in `BENCHMARK.json`.
    fn manifest_names(json: &str, key: &str) -> Vec<String> {
        let from = json
            .find(&format!("\"{key}\""))
            .expect("key in the manifest");
        let list = &json[from..];
        let list = &list[..list.find(']').expect("a closed list")];
        list.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn the_metric_lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(manifest_names(&json, "end_to_end"), END_TO_END);
        assert_eq!(manifest_names(&json, "per_layer"), PER_LAYER);
    }

    #[test]
    fn a_missing_metric_fails_the_gate() {
        let mut r = Report::new(false);
        r.attempted = 1;
        for name in &END_TO_END[1..] {
            r.metric(name, 1.0, "x");
        }
        r.finish_checks();
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].contains("setup_s"));
    }
}
