//! Metric tables, the result line, and the per-run record.
//!
//! The tables here and `BENCHMARK.json` name the same metrics with the
//! same units; a unit test keeps them in step.

use serde::ser::{Serialize, Serializer};
use serde::value::Value;

/// End-to-end metrics of an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_ops", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("serve.rtt_ms.p50", "ms"),
    ("serve.rtt_ms.p99", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.overhead_ms.p99", "ms"),
    ("serve.health_rtt_ms.p50", "ms"),
    ("serve.health_rtt_ms.p99", "ms"),
    ("serve.cache_hit_frac", "fraction"),
    ("engine.solve_ms.p50", "ms"),
    ("engine.solve_ms.p99", "ms"),
    ("engine.parallel_eff", "fraction"),
    ("engine.shard.decompose_ms.p50", "ms"),
    ("engine.shard.decompose_ms.p99", "ms"),
    ("engine.shard.merge_ms.p50", "ms"),
    ("engine.shard.merge_ms.p99", "ms"),
    ("engine.shards_per_instance", "count"),
    ("session.amend_ms.p50", "ms"),
    ("session.amend_ms.p99", "ms"),
    ("session.reuse_frac", "fraction"),
    ("session.dirty_per_amend", "count"),
    ("session.dirty_cache_hit_frac", "fraction"),
    ("session.warm_hit_frac", "fraction"),
    ("core.canonicalize_ms.p50", "ms"),
    ("core.canonicalize_ms.p99", "ms"),
    ("core.lp_ms.p50", "ms"),
    ("core.lp_ms.p99", "ms"),
    ("core.transform_ms.p50", "ms"),
    ("core.transform_ms.p99", "ms"),
    ("core.round_ms.p50", "ms"),
    ("core.round_ms.p99", "ms"),
    ("core.extract_ms.p50", "ms"),
    ("core.extract_ms.p99", "ms"),
    ("core.verify_ms.p50", "ms"),
    ("core.verify_ms.p99", "ms"),
    ("core.canonicalize_share", "fraction"),
    ("core.lp_share", "fraction"),
    ("core.transform_share", "fraction"),
    ("core.round_share", "fraction"),
    ("core.extract_share", "fraction"),
    ("core.verify_share", "fraction"),
    ("core.unattributed_ms.p50", "ms"),
    ("core.unattributed_ms.p99", "ms"),
    ("core.solve_ms.p50", "ms"),
    ("core.solve_ms.p99", "ms"),
    ("lp.tree_frac", "fraction"),
    ("lp.tree_ms.p50", "ms"),
    ("lp.tree_ms.p99", "ms"),
    ("lp.simplex_ms.p50", "ms"),
    ("lp.simplex_ms.p99", "ms"),
    ("lp.tree_declined_ms.p50", "ms"),
    ("lp.tree_declined_ms.p99", "ms"),
    ("lp.hybrid_fallback_frac", "fraction"),
    ("lp.pivots_per_solve", "count"),
    ("flow.augmenting_paths_per_solve", "count"),
    ("trace.overhead_pct", "%"),
];

/// Wrapper giving a hand-built [`Value`] tree a `Serialize` impl (the
/// vendored serde has none for `Value` itself).
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

impl<'de> serde::de::Deserialize<'de> for Json {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_value().map(Json)
    }
}

/// Look up `key` in a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

/// A JSON string.
pub fn string(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Render a value tree as one line of JSON.
pub fn to_line(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("a Value tree always serializes")
}

/// Every metric as `{"value": ..., "unit": ...}` by name (`null` value
/// when absent).
pub fn metrics_value(metrics: &[(&str, &str, Option<f64>)]) -> Value {
    let entries = metrics
        .iter()
        .map(|&(name, unit, value)| {
            let value = value.map_or(Value::Null, Value::Float);
            let entry =
                Value::Map(vec![("value".into(), value), ("unit".into(), Value::Str(unit.into()))]);
            (name.to_string(), entry)
        })
        .collect();
    Value::Map(entries)
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics.
pub fn result_value(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, Option<f64>)],
) -> Value {
    Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics_value(metrics)),
    ])
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root. These sources build as
    /// their own package in this directory, five levels below the root,
    /// and as a binary of `atsched-bench`, two levels below it.
    fn benchmark_json() -> Value {
        let up = if env!("CARGO_PKG_NAME") == "atsched-perf" { "../../../../.." } else { "../.." };
        let path = format!("{}/{up}/BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        serde_json::from_str::<Json>(&text).expect("BENCHMARK.json parses").0
    }

    fn listed(doc: &Value, section: &str) -> Vec<(String, String)> {
        let Some(Value::Seq(items)) = field(doc, section) else { panic!("no {section}") };
        items
            .iter()
            .map(|m| {
                let name = field(m, "name").and_then(string).expect("metric name");
                let unit = field(m, "unit").and_then(string).expect("metric unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line =
            to_line(result_value(true, 3, 0, &[("p50_ms", "ms", Some(1.25)), ("x", "s", None)]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"},"x":{"value":null,"unit":"s"}}}"#
        );
    }
}
