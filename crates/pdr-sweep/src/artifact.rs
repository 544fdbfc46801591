//! JSON artifact rendering and writing for sweep reports.
//!
//! Every study persists its results as a `BENCH_*.json` document so
//! runs can be diffed, archived and compared across configurations.
//! Object key order is insertion order and floats render canonically,
//! so two sweeps with identical outcomes produce byte-identical
//! documents apart from the timing fields.

use crate::{ScenarioStatus, SweepError, SweepReport};
use serde::json::Value;
use std::path::Path;

/// Schema version stamped into every artifact.
pub const ARTIFACT_VERSION: u32 = 1;

/// Render a full report: stats + per-scenario entries, payloads via
/// `outcome`.
pub fn report_json<T>(report: &SweepReport<T>, outcome: &dyn Fn(&T) -> Value) -> Value {
    Value::obj(vec![
        ("stats", report.stats.to_json()),
        (
            "scenarios",
            Value::Array(
                report
                    .outcomes
                    .iter()
                    .map(|o| o.to_json_with(outcome))
                    .collect(),
            ),
        ),
    ])
}

/// A digest of the schedule-independent part of a report: labels,
/// seeds, params, statuses and outcome payloads — everything except
/// wall times. Two sweeps of the same scenarios agree on this digest
/// regardless of thread count; use it to check determinism.
pub fn outcome_digest<T>(report: &SweepReport<T>, outcome: &dyn Fn(&T) -> Value) -> u64 {
    let mut hash = crate::digest::Fnv64::new();
    for o in &report.outcomes {
        hash.eat_str(&o.label);
        hash.eat_str(&o.seed.to_string());
        for (k, p) in &o.params {
            hash.eat_str(k);
            hash.eat_str(&p.to_string());
        }
        match &o.status {
            ScenarioStatus::Ok(v) => {
                hash.eat_str("ok");
                hash.eat_str(&serde::json::to_string(&outcome(v)));
            }
            ScenarioStatus::Error(e) => {
                hash.eat_str("error");
                hash.eat_str(&e.to_string());
            }
            ScenarioStatus::Panicked(msg) => {
                hash.eat_str("panicked");
                hash.eat_str(msg);
            }
        }
    }
    hash.finish()
}

/// An experiment artifact: a named collection of study sections plus
/// run-level metadata, written as one pretty-printed JSON document.
#[derive(Debug)]
pub struct Artifact {
    name: String,
    fields: Vec<(String, Value)>,
    sections: Vec<(String, Value)>,
}

impl Artifact {
    /// A new artifact with the given experiment name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Attach a run-level metadata field (thread count, git rev, …).
    pub fn with_field(mut self, key: impl Into<String>, value: Value) -> Self {
        self.fields.push((key.into(), value));
        self
    }

    /// Add one study's report as a named section.
    pub fn push_section(&mut self, name: impl Into<String>, value: Value) {
        self.sections.push((name.into(), value));
    }

    /// Number of sections added so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// Whether no sections were added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// The artifact as a JSON value.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj(vec![
            ("experiment", Value::String(self.name.clone())),
            ("artifact_version", Value::UInt(u64::from(ARTIFACT_VERSION))),
        ]);
        for (k, f) in &self.fields {
            v.push_field(k, f.clone());
        }
        v.push_field(
            "studies",
            Value::Object(
                self.sections
                    .iter()
                    .map(|(k, s)| (k.clone(), s.clone()))
                    .collect(),
            ),
        );
        v
    }

    /// Write the artifact as pretty-printed JSON to `path`, with a
    /// trailing newline.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<(), SweepError> {
        let path = path.as_ref();
        let mut text = serde::json::to_string_pretty(&self.to_json());
        text.push('\n');
        std::fs::write(path, text).map_err(|e| SweepError::Artifact {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, SweepEngine};

    fn demo_report() -> SweepReport<u64> {
        let scenarios: Vec<Scenario<'static, u64>> = (0..4)
            .map(|i| Scenario::new(format!("p{i}"), i, move || Ok(i + 100)).with_param("i", i))
            .collect();
        SweepEngine::new().with_threads(2).run(scenarios)
    }

    #[test]
    fn report_json_shape() {
        let report = demo_report();
        let v = report.to_json();
        assert!(v.get("stats").is_some());
        let scen = v.get("scenarios").and_then(Value::as_array).unwrap();
        assert_eq!(scen.len(), 4);
        assert_eq!(scen[0].get("label").and_then(Value::as_str), Some("p0"));
        assert_eq!(scen[0].get("outcome").and_then(Value::as_u64), Some(100));
    }

    #[test]
    fn digest_is_thread_count_invariant() {
        let a = demo_report();
        let b = {
            let scenarios: Vec<Scenario<'static, u64>> = (0..4)
                .map(|i| Scenario::new(format!("p{i}"), i, move || Ok(i + 100)).with_param("i", i))
                .collect();
            SweepEngine::new().with_threads(1).run(scenarios)
        };
        let f = |v: &u64| Value::UInt(*v);
        assert_eq!(outcome_digest(&a, &f), outcome_digest(&b, &f));
    }

    #[test]
    fn digest_sees_outcome_changes() {
        let a = demo_report();
        let f = |v: &u64| Value::UInt(*v);
        let g = |v: &u64| Value::UInt(*v + 1);
        assert_ne!(outcome_digest(&a, &f), outcome_digest(&a, &g));
    }

    #[test]
    fn artifact_roundtrip_to_disk() {
        let mut artifact = Artifact::new("unit-test").with_field("threads", Value::UInt(2));
        artifact.push_section("demo", demo_report().to_json());
        assert_eq!(artifact.len(), 1);
        assert!(!artifact.is_empty());
        let dir = std::env::temp_dir().join("pdr-sweep-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_unit.json");
        artifact.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"unit-test\""));
        assert!(text.contains("\"studies\""));
        assert!(text.ends_with('\n'));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_to_bad_path_is_typed_error() {
        let err = Artifact::new("unit-test")
            .write("/nonexistent-dir-xyz/out.json")
            .unwrap_err();
        match err {
            SweepError::Artifact { path, .. } => assert!(path.contains("nonexistent")),
            other => panic!("expected artifact error, got {other}"),
        }
    }
}
