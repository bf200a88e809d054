//! Metric naming, the result line, and the provenance-stamped record.

use std::fmt::Write as _;

/// End-to-end metrics (untraced run), every workload.
pub const END_TO_END: [&str; 8] = [
    "ops_per_s",
    "read_p50_us",
    "read_p99_us",
    "cpu_us_per_op",
    "frames_per_op",
    "setup_s",
    "server_rss_mib",
    "insert_objs_per_s",
];

/// Per-layer metrics (traced run), every workload; a metric of an
/// operation kind the workload does not issue reads 0.
pub const PER_LAYER: [&str; 34] = [
    "store.scan_us_per_op",
    "store.scans_per_op",
    "store.sets_examined_per_scan",
    "store.match_ratio",
    "store.pin_ns",
    "store.insert_ns",
    "store.bytes_per_object",
    "protocol.self_us_per_search",
    "protocol.visits_per_search",
    "protocol.useful_visit_ratio",
    "engine.pin_us",
    "engine.search_us_p50",
    "engine.search_us_p99",
    "engine.insert_us",
    "engine.nodes_contacted_per_search",
    "engine.entries_scanned_per_search",
    "wire.encode_ns_per_frame",
    "wire.decode_ns_per_frame",
    "wire.bytes_per_op",
    "runtime.ops_per_s",
    "runtime.read_p50_us",
    "runtime.cpu_us_per_op",
    "runtime.added_cpu_us_per_op",
    "runtime.frames_per_op",
    "runtime.scans_per_op",
    "runtime.overscan_ratio",
    "runtime.backpressure_hits",
    "runtime.wakeups",
    "net.added_cpu_us_per_op",
    "net.client_cpu_share",
    "net.flush_us",
    "net.idle_rss_mib",
    "trace.overhead",
    "oracle.threshold_divergence",
];

/// Whether `name` is a legal metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run concluded.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or answered wrongly.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Context printed and recorded beside the metrics.
    pub notes: Vec<(&'static str, String)>,
    /// Why the run is not correct, if it is not.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "bad metric name {name}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Records a failed check.
    pub fn error(&mut self, why: impl ToString) {
        self.errors.push(why.to_string());
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The single-line result: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// The full record written beside the build: provenance, notes,
/// errors, and the metrics.
pub fn record(provenance: &[(&'static str, String)], outcome: &Outcome) -> String {
    let pairs = |items: &[(&'static str, String)]| -> String {
        let body: Vec<String> = items
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    };
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\"provenance\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"errors\": [{}], \"notes\": {}, \"metrics\": {}}}\n",
        pairs(provenance),
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        errors.join(", "),
        pairs(&outcome.notes),
        metrics_json(&outcome.metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("a.b-c_9"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("white space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn names_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = manifest.matches("\"name\": ").count();
        // Workloads are named too.
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("ops_per_s", 1234.5, "1/s");
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
