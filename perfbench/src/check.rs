//! Output checking and failure accounting.
//!
//! Every operation the benchmark attempts goes through a [`Checker`]: an
//! `Err`, a panic, an error-level lint diagnostic, a short simulation, an
//! `error`/`overloaded` response, or a digest or payload mismatch counts
//! it as failed. Reference digests come from `expected.txt`, written by
//! `perfbench --bless` through the unstaged entry points
//! (`DesignFlow::run` and `DeployedSystem::simulate`).

use pdr_sim::SimReport;
use pdr_sweep::digest::{to_hex, Fnv64};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The reference file compiled into the binary.
const EXPECTED_TEXT: &str = include_str!("../expected.txt");

/// Reference digests of one design: its `FlowArtifacts::digest()` and
/// the [`sim_digest`] of its simulation report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// `FlowArtifacts::digest()`.
    pub artifacts: u64,
    /// [`sim_digest`] of the report.
    pub sim: u64,
}

/// Reference digests by design key (see [`gallery_key`] and
/// [`generated_key`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected(pub BTreeMap<String, Reference>);

impl Expected {
    /// Parse `key artifacts_hex sim_hex` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [key, art, sim] = fields[..] else {
                return Err(format!("expected.txt:{}: want 3 fields", n + 1));
            };
            let hex = |s: &str| {
                u64::from_str_radix(s, 16).map_err(|e| format!("expected.txt:{}: {e}", n + 1))
            };
            map.insert(
                key.to_string(),
                Reference {
                    artifacts: hex(art)?,
                    sim: hex(sim)?,
                },
            );
        }
        Ok(Expected(map))
    }

    /// The compiled-in reference file.
    pub fn builtin() -> Expected {
        Expected::parse(EXPECTED_TEXT).expect("expected.txt parses")
    }

    /// Render in the format [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference digests: <design key> <FlowArtifacts::digest> <SimReport digest>.\n\
             # Regenerate with `perfbench --bless` after an intended output change.\n",
        );
        for (key, r) in &self.0 {
            out.push_str(&format!(
                "{key} {} {}\n",
                to_hex(r.artifacts),
                to_hex(r.sim)
            ));
        }
        out
    }

    /// The reference for `key`, if recorded.
    pub fn get(&self, key: &str) -> Option<Reference> {
        self.0.get(key).copied()
    }
}

/// Design key of a gallery flow simulated for `iterations`.
pub fn gallery_key(name: &str, iterations: u32) -> String {
    format!("gallery/{name}/{iterations}")
}

/// Design key of a generated flow.
pub fn generated_key(ops: usize, seed: u64, iterations: u32) -> String {
    format!("generated/{ops}/{seed}/{iterations}")
}

/// Explicit digest of a simulation report: every field but the optional
/// event trace, in declaration order.
pub fn sim_digest(report: &SimReport) -> u64 {
    let mut h = Fnv64::new();
    h.eat_u64(report.makespan.as_ps());
    h.eat_u64(report.iterations as u64);
    for (name, t) in report.operator_busy.iter().chain(&report.medium_busy) {
        h.eat_str(name);
        h.eat_u64(t.as_ps());
    }
    for r in &report.reconfigs {
        h.eat_str(&r.operator);
        h.eat_str(&r.module);
        h.eat_u64(r.iteration as u64);
        h.eat_u64(r.requested_at.as_ps());
        h.eat_u64(r.ready_at.as_ps());
        h.eat_u64(r.fetch_hidden as u64);
    }
    for (region, s) in &report.manager_stats {
        h.eat_str(region);
        for v in [
            s.requests,
            s.already_loaded,
            s.cache_hits,
            s.fetches,
            s.prefetch_hits,
            s.fetch_wait.as_ps(),
            s.load_time.as_ps(),
        ] {
            h.eat_u64(v);
        }
    }
    for t in &report.iteration_ends {
        h.eat_u64(t.as_ps());
    }
    h.finish()
}

/// Attempted/failed operation counts plus the first few failure messages.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages (capped).
    pub notes: Vec<String>,
}

impl Checker {
    /// Count one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Count one failed operation (already counted as attempted).
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(message.into());
        }
    }

    /// Fail unless `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// Run `f`, turning a panic into an `Err` carrying its message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Err(format!("panicked: {what}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_roundtrips() {
        let mut e = Expected::default();
        e.0.insert(
            gallery_key("paper", 64),
            Reference {
                artifacts: 0xdead_beef,
                sim: 7,
            },
        );
        assert_eq!(Expected::parse(&e.render()).unwrap(), e);
        assert!(Expected::parse("a b").is_err());
    }

    #[test]
    fn guarded_catches_panics() {
        let r: Result<(), String> = guarded(|| panic!("boom"));
        assert!(r.unwrap_err().contains("boom"));
    }
}
