//! Wire (de)serialization for [`RegistrySnapshot`], behind the `serde`
//! feature.
//!
//! Its name-keyed sections are `Vec<(String, T)>`, which the derive
//! would write as arrays of pairs, so they are built by hand as
//! `Value::Map` trees. The per-instrument summaries
//! ([`HistogramSnapshot`](crate::HistogramSnapshot),
//! [`WindowRates`](crate::WindowRates) and the windowed histogram
//! snapshots) derive their codecs. On the wire a [`RegistrySnapshot`]
//! is:
//!
//! ```json
//! {
//!   "counters":   { "lp.pivots": 42, ... },
//!   "gauges":     { "serve.inflight": 0, ... },
//!   "histograms": { "span.lp.ms": { "count": 9, "sum": ..., "min": ...,
//!                                    "max": ..., "p50": ..., "p95": ...,
//!                                    "p99": ... }, ... }
//! }
//! ```

use crate::registry::RegistrySnapshot;
use serde::de::{from_value, Deserialize, Deserializer, Error as DeError};
use serde::ser::{to_value, Error as SerError, Serialize, Serializer};
use serde::value::{Value, ValueError};

impl Serialize for RegistrySnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let sections = [
            ("counters", named(&self.counters)),
            ("gauges", named(&self.gauges)),
            ("histograms", named(&self.histograms)),
            ("windows", named(&self.windows)),
            ("window_histograms", named(&self.window_histograms)),
        ];
        let sections = sections
            .into_iter()
            .map(|(key, section)| Ok((key.to_string(), section.map_err(S::Error::custom)?)))
            .collect::<Result<_, S::Error>>()?;
        serializer.serialize_value(Value::Map(sections))
    }
}

impl<'de> Deserialize<'de> for RegistrySnapshot {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut snap = RegistrySnapshot::default();
        for (key, section) in
            unnamed(deserializer.deserialize_value()?).map_err(D::Error::custom)?
        {
            let parsed = match key.as_str() {
                "counters" => unnamed(section).map(|s| snap.counters = s),
                "gauges" => unnamed(section).map(|s| snap.gauges = s),
                "histograms" => unnamed(section).map(|s| snap.histograms = s),
                "windows" => unnamed(section).map(|s| snap.windows = s),
                "window_histograms" => unnamed(section).map(|s| snap.window_histograms = s),
                other => Err(ValueError(format!("unknown registry section `{other}`"))),
            };
            parsed.map_err(D::Error::custom)?;
        }
        Ok(snap)
    }
}

/// A name-keyed section as a map from each name to its value.
fn named<T: Serialize>(entries: &[(String, T)]) -> Result<Value, ValueError> {
    let entries = entries.iter().map(|(name, v)| Ok((name.clone(), to_value(v)?)));
    entries.collect::<Result<_, _>>().map(Value::Map)
}

/// A map back into its `(name, value)` entries.
fn unnamed<T: for<'a> Deserialize<'a>>(map: Value) -> Result<Vec<(String, T)>, ValueError> {
    match map {
        Value::Map(entries) => {
            entries.into_iter().map(|(name, v)| Ok((name, from_value(v)?))).collect()
        }
        other => Err(ValueError(format!("expected map, got {}", other.kind()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn registry_snapshot_roundtrips_through_value() {
        let reg = Registry::new();
        reg.counter("lp.pivots").add(42);
        reg.gauge("inflight").set(-2);
        let h = reg.histogram("span.lp.ms");
        h.record(1.5);
        h.record(80.0);
        reg.windowed_counter("serve.requests").add(3);
        let wh = reg.windowed_histogram("serve.latency_ms");
        wh.record(2.5);
        wh.record(40.0);
        let snap = reg.snapshot();
        assert!(snap.window("serve.requests").is_some());
        assert!(snap.window_histogram("serve.latency_ms").is_some());
        let value = to_value(&snap).unwrap();
        let back: RegistrySnapshot = from_value(value).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_serializes_as_name_keyed_maps() {
        let reg = Registry::new();
        reg.counter("a").inc();
        let value = to_value(&reg.snapshot()).unwrap();
        let Value::Map(sections) = value else { panic!("not a map") };
        assert_eq!(sections[0].0, "counters");
        let Value::Map(counters) = &sections[0].1 else { panic!("counters not a map") };
        assert_eq!(counters[0], ("a".to_string(), Value::Int(1)));
    }
}
