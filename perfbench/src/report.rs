//! Metric definitions and the result line.
//!
//! `BENCHMARK.json` lists the same names; a self-test keeps the two in
//! step (see `contract.rs`).

use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cphc", "computes/cycle"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("spec.parse_ms", "ms"),
    ("spec.compile_ms", "ms"),
    ("designs.build_ms", "ms"),
    ("core.model_build_ms", "ms"),
    ("core.format_cache_hit_ratio", "ratio"),
    ("mapping.generate_ms", "ms"),
    ("mapping.candidates", "count"),
    ("mapping.sample_yield", "ratio"),
    ("mapping.allocs_per_candidate", "allocs"),
    ("core.precheck_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("core.evaluations", "count"),
    ("core.pruned_ratio", "ratio"),
    ("core.allocs_per_evaluation", "allocs"),
    ("mapping.shard_max_ms", "ms"),
    ("mapping.shard_imbalance", "ratio"),
    ("mapping.merge_ms", "ms"),
    ("serve.fleet_roundtrip_ms", "ms"),
    ("serve.fleet_vs_inproc", "ratio"),
    ("serve.frames_per_request", "count"),
    ("serve.codec_us_per_frame", "us"),
    ("serve.restarts", "count"),
    ("serve.fleet_fallbacks", "count"),
    ("serve.overhead_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.replay_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run measured and whether every output was right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests made (warm-up included).
    pub attempted: u64,
    /// Requests that erred, were refused or shed, drifted from their
    /// reference, or fell back from the fleet.
    pub failed: u64,
    /// Checks other than per-request ones that failed (replay fidelity,
    /// counts that did not repeat); each makes the run incorrect.
    pub problems: Vec<String>,
    /// `(name, value)` in definition order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed before the result (context for the numbers).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one failed request, printing why.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("FAILED: {}", why.as_ref());
    }

    /// Whether the run saw no failure of any kind.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `defs` with their units.
    ///
    /// Panics when a metric of `defs` was not set, or a value is not
    /// finite: both are bugs in this benchmark.
    pub fn result_line(&self, defs: &[(&str, &str)]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in defs.iter().enumerate() {
            let value = self.value(name);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }

    /// The value recorded for `name`.
    ///
    /// Panics when it was never set.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1
    }

    /// Prints the notes, every metric of `defs` by name with its unit,
    /// and the result line last.
    pub fn print(&self, defs: &[(&str, &str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        for problem in &self.problems {
            println!("problem: {problem}");
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_ratio = {ratio} ({} of {})",
            self.failed, self.attempted
        );
        for (name, unit) in defs {
            println!("{name} = {} {unit}", self.value(name));
        }
        println!("{}", self.result_line(defs));
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("a", 1.25);
        o.set("b", 2.0);
        let line = o.result_line(&[("a", "ms"), ("b", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.fail("drift");
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.problems.push("counts differ".into());
        assert!(!o.correct());
    }
}
