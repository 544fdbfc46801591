//! Reference vs indexed adequation: the scheduler speedup study.
//!
//! The §3 heuristic used to recompute everything it touched — string-keyed
//! WCET probes (two freshly allocated `String`s per lookup), an O(V·E)
//! topological sort, a full ready-list rescan per step and one BFS per
//! scheduled transfer. The `AdequationIndex` tentpole precomputes all of
//! it once: a dense op×operator WCET matrix, an all-pairs route table (one
//! BFS per operator), CSR adjacency and bottom levels, with a binary-heap
//! ready queue on top.
//!
//! This study runs **both** implementations — the pre-index path is kept
//! in-tree as [`crate::reference::adequate_reference`] — over
//! every gallery flow and reports wall times plus exact result parity:
//! the indexed scheduler must return a byte-identical
//! [`pdr_adequation::AdequationResult`] on every flow, and be at least 5×
//! faster on the 512-op `synthetic_large` flow (asserted by
//! `benches/bench_adequation.rs` in `--test` mode, which gates ci.sh).

use crate::reference::adequate_reference;
use pdr_adequation::{adequate, adequate_with_index, AdequationIndex};
use pdr_core::{gallery, FlowError};
use pdr_sweep::{percentiles, Percentiles};
use serde::json::Value;
use std::time::Instant;

/// The flow the speedup floor is asserted on — the gallery's largest.
pub const LARGEST: &str = "synthetic_large";

/// One gallery flow, scheduled by both implementations.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Gallery flow name.
    pub name: String,
    /// Operations in the algorithm graph.
    pub operations: usize,
    /// Edges in the algorithm graph.
    pub edges: usize,
    /// Best-of-reps wall time of the reference (pre-index) path, ns.
    pub reference_ns: u64,
    /// Best-of-reps wall time of the indexed path, ns.
    pub indexed_ns: u64,
    /// Did both paths return identical `AdequationResult`s (mapping,
    /// schedule, makespan, finish times)?
    pub results_match: bool,
    /// The (shared) makespan, picoseconds.
    pub makespan_ps: u64,
    /// p50/p90/p99 of the index build time across the repetitions, ns.
    pub build_ns: Percentiles<u64>,
    /// p50/p90/p99 of the schedule time over a prebuilt index across the
    /// repetitions, ns.
    pub schedule_ns: Percentiles<u64>,
}

/// JSON form of a percentile triple.
fn percentiles_json(p: &Percentiles<u64>) -> Value {
    Value::obj(vec![
        ("p50", Value::UInt(p.p50)),
        ("p90", Value::UInt(p.p90)),
        ("p99", Value::UInt(p.p99)),
    ])
}

impl CaseResult {
    /// Reference time over indexed time (> 1 means the index wins).
    pub fn speedup(&self) -> f64 {
        if self.indexed_ns == 0 {
            return f64::INFINITY;
        }
        self.reference_ns as f64 / self.indexed_ns as f64
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.name.clone())),
            ("operations", Value::UInt(self.operations as u64)),
            ("edges", Value::UInt(self.edges as u64)),
            ("reference_ns", Value::UInt(self.reference_ns)),
            ("indexed_ns", Value::UInt(self.indexed_ns)),
            ("speedup", Value::Float(self.speedup())),
            ("results_match", Value::Bool(self.results_match)),
            ("makespan_ps", Value::UInt(self.makespan_ps)),
            ("build_ns", percentiles_json(&self.build_ns)),
            ("schedule_ns", percentiles_json(&self.schedule_ns)),
        ])
    }
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct AdequationComparison {
    /// One entry per gallery flow, in gallery order.
    pub cases: Vec<CaseResult>,
}

impl AdequationComparison {
    /// Did every flow produce identical results on both paths?
    pub fn all_match(&self) -> bool {
        self.cases.iter().all(|c| c.results_match)
    }

    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![(
            "cases",
            Value::Array(self.cases.iter().map(CaseResult::to_json).collect()),
        )])
    }

    /// Text table, one line per flow.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "flow                      ops   edges      ref_ms  indexed_ms  speedup  \
             build_p50  sched_p50  match\n",
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{:<24} {:>5} {:>7} {:>11.3} {:>11.3} {:>7.2}x {:>9.3} {:>10.3} {:>6}\n",
                c.name,
                c.operations,
                c.edges,
                c.reference_ns as f64 / 1e6,
                c.indexed_ns as f64 / 1e6,
                c.speedup(),
                c.build_ns.p50 as f64 / 1e6,
                c.schedule_ns.p50 as f64 / 1e6,
                if c.results_match { "yes" } else { "NO" },
            ));
        }
        out
    }
}

/// Run the comparison over every gallery flow: `reps` timed repetitions
/// per implementation (best time kept), one extra untimed run per path
/// for the parity check. On top of the end-to-end comparison, the index
/// build and the schedule-over-a-prebuilt-index phases are each timed
/// separately and reported as p50/p90/p99 across the repetitions.
pub fn run(reps: usize) -> Result<AdequationComparison, FlowError> {
    let reps = reps.max(1);
    let mut cases = Vec::new();
    for g in gallery::all() {
        let algo = g.flow.algorithm();
        let arch = g.flow.architecture();
        let chars = g.flow.characterization();
        let cons = g.flow.constraints();
        let opts = g.flow.adequation_options();

        let reference = adequate_reference(algo, arch, chars, cons, opts)?;
        let indexed = adequate(algo, arch, chars, cons, opts)?;
        let results_match = reference == indexed;

        let mut reference_ns = u64::MAX;
        let mut indexed_ns = u64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            adequate_reference(algo, arch, chars, cons, opts)?;
            reference_ns = reference_ns.min(t0.elapsed().as_nanos() as u64);

            let t0 = Instant::now();
            adequate(algo, arch, chars, cons, opts)?;
            indexed_ns = indexed_ns.min(t0.elapsed().as_nanos() as u64);
        }

        // Phase timings, each in its own loop so the allocator reaches a
        // steady state: index build, then scheduling over a prebuilt
        // index.
        let mut build_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            let index = AdequationIndex::build(algo, arch, chars)?;
            build_samples.push(t0.elapsed().as_nanos() as u64);
            drop(index);
        }
        let index = AdequationIndex::build(algo, arch, chars)?;
        let mut schedule_samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            adequate_with_index(algo, arch, chars, cons, opts, &index)?;
            schedule_samples.push(t0.elapsed().as_nanos() as u64);
        }

        cases.push(CaseResult {
            name: g.name.to_string(),
            operations: algo.len(),
            edges: algo.edges().len(),
            reference_ns,
            indexed_ns,
            results_match,
            makespan_ps: indexed.makespan.as_ps(),
            build_ns: percentiles(&mut build_samples),
            schedule_ns: percentiles(&mut schedule_samples),
        });
    }
    Ok(AdequationComparison { cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_covers_the_gallery_and_results_agree() {
        let cmp = run(1).expect("gallery flows schedule");
        assert_eq!(cmp.cases.len(), gallery::names().len());
        assert!(cmp.all_match(), "{}", cmp.render());
        let largest = cmp.case(LARGEST).expect("largest flow present");
        assert!(largest.operations > 500, "{}", largest.operations);
        for c in &cmp.cases {
            assert!(c.makespan_ps > 0, "{} has empty makespan", c.name);
            assert!(c.build_ns.p50 > 0, "{} build percentiles empty", c.name);
            assert!(
                c.schedule_ns.p50 > 0,
                "{} schedule percentiles empty",
                c.name
            );
            assert!(c.build_ns.p50 <= c.build_ns.p99);
            assert!(c.schedule_ns.p50 <= c.schedule_ns.p99);
        }
    }

    #[test]
    fn render_lists_every_flow() {
        let cmp = run(1).expect("gallery flows schedule");
        let text = cmp.render();
        for name in gallery::names() {
            assert!(text.contains(name), "{name} missing from\n{text}");
        }
    }

    #[test]
    fn json_records_percentiles() {
        let cmp = run(2).expect("gallery flows schedule");
        let json = serde::json::to_string_pretty(&cmp.to_json());
        assert!(json.contains("\"build_ns\""), "{json}");
        assert!(json.contains("\"schedule_ns\""), "{json}");
        assert!(json.contains("\"p99\""), "{json}");
    }
}
