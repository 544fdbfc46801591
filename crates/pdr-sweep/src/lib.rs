//! `pdr-sweep` — parallel, deterministic, fault-isolating execution of
//! experiment sweeps.
//!
//! Every evaluation in the reproduction (the prefetch study, the
//! adequation ablation/scaling, the area↔latency sweep, the Fig. 4 BER
//! waterfall) is a set of independent, explicitly seeded scenario
//! points. This crate gives them one execution substrate:
//!
//! * [`Scenario`] — a labelled, parameterized, seeded unit of work
//!   returning `Result<Outcome, SweepError>`.
//! * [`SweepEngine`] — a crossbeam-scoped worker pool executing a batch
//!   of scenarios. The reduction is **deterministic**: outcomes come
//!   back in submission order, bit-identical for 1 or N workers
//!   (DESIGN.md §8 — all randomness is in the scenarios' explicit
//!   seeds, never in the schedule).
//! * **Fault isolation** — a panicking or erroring scenario is captured
//!   (`catch_unwind`) into its [`ScenarioOutcome`]; the rest of the
//!   sweep completes and partial results are preserved.
//! * **Observability** — per-scenario wall time, engine-level progress
//!   callbacks, aggregate [`SweepStats`] (totals, failure counts,
//!   p50/p95 scenario time) and a JSON [`artifact`] writer so every
//!   study can persist a machine-readable `BENCH_*.json` report.
//! * **Content addressing** — the artifact outcome digests use the
//!   canonical [`Fnv64`] hasher of `pdr-fabric`, the same one behind
//!   `pdr-core`'s `FlowArtifacts::digest()` and `pdr-server`'s result
//!   cache.

pub mod artifact;
mod engine;
mod error;
mod scenario;
mod stats;

pub use engine::{Progress, SweepEngine};
pub use error::SweepError;
pub use pdr_fabric::digest::{self, Fnv64};
pub use scenario::{ParamValue, Scenario, ScenarioOutcome, ScenarioStatus};
pub use stats::{percentile, percentiles, Percentiles, SweepStats};

use serde::json::Value;

/// The ordered result of one sweep: per-scenario outcomes in submission
/// order plus aggregate statistics.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// One outcome per submitted scenario, in submission order.
    pub outcomes: Vec<ScenarioOutcome<T>>,
    /// Aggregates over the run.
    pub stats: SweepStats,
}

impl<T> SweepReport<T> {
    /// Successful outcome values, in submission order.
    pub fn ok_values(&self) -> impl Iterator<Item = &T> {
        self.outcomes.iter().filter_map(|o| o.status.value())
    }

    /// Outcomes that errored or panicked, in submission order.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioOutcome<T>> {
        self.outcomes.iter().filter(|o| !o.status.is_ok())
    }

    /// Unwrap into the ordered outcome values, propagating the first
    /// failure as an error. Use when a study treats any failed point as
    /// fatal.
    pub fn into_values(self) -> Result<Vec<T>, SweepError> {
        let mut out = Vec::with_capacity(self.outcomes.len());
        for o in self.outcomes {
            match o.status {
                ScenarioStatus::Ok(v) => out.push(v),
                ScenarioStatus::Error(e) => return Err(e),
                ScenarioStatus::Panicked(msg) => {
                    return Err(SweepError::ScenarioPanicked {
                        label: o.label,
                        message: msg,
                    })
                }
            }
        }
        Ok(out)
    }

    /// The sweep as a JSON value: aggregate stats plus one entry per
    /// scenario (outcome payloads rendered by `outcome`).
    pub fn to_json_with(&self, outcome: impl Fn(&T) -> Value) -> Value {
        artifact::report_json(self, &outcome)
    }
}

/// The sweep report rendered with serde-serializable outcomes.
impl<T: serde::Serialize> SweepReport<T> {
    /// The sweep as a JSON value using the outcome's own serialization.
    pub fn to_json(&self) -> Value {
        self.to_json_with(serde::json::to_value)
    }
}
