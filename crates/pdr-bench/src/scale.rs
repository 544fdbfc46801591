//! Scale-out adequation: the interned index build and the overhauled
//! scheduler core, measured against the first-generation path.
//!
//! The study has three measured claims, each gated by
//! `benches/bench_scale.rs --test` in CI:
//!
//! 1. **Parity** — [`AdequationIndex::build`] returns the same tables as
//!    the per-cell string-probe oracle ([`index_oracle::build`]) on every
//!    gallery flow and every generated flow of the size sweep, and the
//!    overhauled scheduler returns byte-identical
//!    [`pdr_adequation::AdequationResult`]s to the first indexed one.
//! 2. **Index build speedup** — the build (interned function symbols,
//!    one characterization probe per (function, operator) pair) is ≥ 3×
//!    faster than the oracle on the 10 000-operation generated flow, on
//!    one thread.
//! 3. **End-to-end speedup** — oracle build + the first indexed
//!    scheduler (retained verbatim as
//!    [`crate::reference::adequate_indexed_reference`]) versus build + the
//!    overhauled dense-workspace core: ≥ 2× on the same flow.
//!
//! The generated flows come from [`pdr_core::gallery::synthetic`], the
//! seeded parametric generator, over [`SWEEP_SIZES`] (512 → 10k compute
//! operations).

use crate::index_oracle::{self, IndexTables};
use crate::reference::adequate_indexed_reference;
use pdr_adequation::{adequate_with_index, AdequationIndex};
use pdr_core::{gallery, DesignFlow, FlowError};
use pdr_fabric::digest::Fnv64;
use serde::json::Value;
use std::time::Instant;

/// Generated-flow compute-operation counts of the size sweep. The largest
/// is the floor case.
pub const SWEEP_SIZES: &[usize] = &[512, 2048, 10_000];

/// The flow both speedup floors are asserted on.
pub const FLOOR_CASE: &str = "synthetic_gen_10000";

/// Index-build speedup floor: [`AdequationIndex::build`] over
/// [`index_oracle::build`].
pub const BUILD_SPEEDUP_FLOOR: f64 = 3.0;

/// End-to-end (model → adequation) speedup floor versus the retained
/// first-generation path.
pub const E2E_SPEEDUP_FLOOR: f64 = 2.0;

/// Content digest of an [`AdequationIndex`], covering every table the
/// schedulers read: WCET cells (duration plus the first-max function
/// index), the all-pairs route table, topological order, bottom levels,
/// reconfiguration worst cases and the dynamic/conditioned masks. Built
/// only from public accessors, so it hashes what callers can observe; the
/// artifact records it as the content fingerprint of each flow's index.
pub fn index_digest(index: &AdequationIndex) -> u64 {
    let mut h = Fnv64::new();
    let n_ops = index.topo().len();
    let n_oprs = index.operator_count();
    h.eat_u64(n_ops as u64).eat_u64(n_oprs as u64);
    for i in 0..n_ops {
        let op = pdr_graph::OpId(i);
        h.eat_u64(index.bottom_level(op).as_ps());
        h.eat_u64(u64::from(index.is_conditioned(op)));
        for (o, cell) in index.wcet_row(op).iter().enumerate() {
            match cell {
                Some(e) => {
                    h.eat_u64(1)
                        .eat_u64(e.dur.as_ps())
                        .eat_u64(e.first_fn().map_or(u64::MAX, |f| f as u64));
                }
                None => {
                    h.eat_u64(0);
                }
            }
            h.eat_u64(index.reconfig_worst(op, pdr_graph::OperatorId(o)).as_ps());
        }
    }
    for &op in index.topo() {
        h.eat_u64(op.0 as u64);
    }
    for cell in index.route_table() {
        match cell {
            Some(route) => {
                h.eat_u64(1).eat_u64(route.media.len() as u64);
                for m in &route.media {
                    h.eat_u64(m.0 as u64);
                }
            }
            None => {
                h.eat_u64(0);
            }
        }
    }
    for o in 0..n_oprs {
        h.eat_u64(u64::from(index.is_dynamic(pdr_graph::OperatorId(o))));
    }
    h.finish()
}

/// One flow, measured end to end on both generations of the path.
#[derive(Debug, Clone)]
pub struct ScaleCase {
    /// Flow name (gallery name, or `synthetic_gen_<n>` for sweep flows).
    pub name: String,
    /// Operations in the algorithm graph.
    pub operations: usize,
    /// Edges in the algorithm graph.
    pub edges: usize,
    /// Best-of-reps [`index_oracle::build`] wall time, ns.
    pub oracle_build_ns: u64,
    /// Best-of-reps [`AdequationIndex::build`] wall time, ns.
    pub build_ns: u64,
    /// Best-of-reps overhauled-core schedule time (index prebuilt), ns.
    pub schedule_ns: u64,
    /// Best-of-reps first-generation end-to-end time (oracle build +
    /// retained first indexed scheduler), ns.
    pub e2e_base_ns: u64,
    /// Best-of-reps end-to-end time (build + overhauled core), ns.
    pub e2e_fast_ns: u64,
    /// The index equals the oracle's tables, and both schedulers returned
    /// byte-identical results.
    pub parity: bool,
    /// [`index_digest`] of the index.
    pub digest: u64,
    /// The (shared) makespan, picoseconds.
    pub makespan_ps: u64,
}

impl ScaleCase {
    /// Oracle over production index-build time.
    pub fn build_speedup(&self) -> f64 {
        if self.build_ns == 0 {
            return f64::INFINITY;
        }
        self.oracle_build_ns as f64 / self.build_ns as f64
    }

    /// First-generation over current end-to-end time.
    pub fn e2e_speedup(&self) -> f64 {
        if self.e2e_fast_ns == 0 {
            return f64::INFINITY;
        }
        self.e2e_base_ns as f64 / self.e2e_fast_ns as f64
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.name.clone())),
            ("operations", Value::UInt(self.operations as u64)),
            ("edges", Value::UInt(self.edges as u64)),
            ("oracle_build_ns", Value::UInt(self.oracle_build_ns)),
            ("build_ns", Value::UInt(self.build_ns)),
            ("schedule_ns", Value::UInt(self.schedule_ns)),
            ("e2e_base_ns", Value::UInt(self.e2e_base_ns)),
            ("e2e_fast_ns", Value::UInt(self.e2e_fast_ns)),
            ("build_speedup", Value::Float(self.build_speedup())),
            ("e2e_speedup", Value::Float(self.e2e_speedup())),
            ("parity", Value::Bool(self.parity)),
            ("index_digest", Value::UInt(self.digest)),
            ("makespan_ps", Value::UInt(self.makespan_ps)),
        ])
    }
}

/// The whole study: every gallery flow plus the generated size sweep.
#[derive(Debug, Clone, Default)]
pub struct ScaleStudy {
    /// One entry per flow: gallery order, then sweep sizes ascending.
    pub cases: Vec<ScaleCase>,
}

impl ScaleStudy {
    /// Did every flow hold index parity and result parity?
    pub fn all_parity(&self) -> bool {
        self.cases.iter().all(|c| c.parity)
    }

    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&ScaleCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![(
            "cases",
            Value::Array(self.cases.iter().map(ScaleCase::to_json).collect()),
        )])
    }

    /// Text table, one line per flow.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "flow                      ops   edges  oracle_build_ms  build_ms  build_x  \
             e2e_base_ms  e2e_fast_ms  e2e_x  parity\n",
        );
        for c in &self.cases {
            out.push_str(&format!(
                "{:<24} {:>5} {:>7} {:>16.3} {:>9.3} {:>7.2}x {:>12.3} {:>12.3} {:>5.2}x {:>6}\n",
                c.name,
                c.operations,
                c.edges,
                c.oracle_build_ns as f64 / 1e6,
                c.build_ns as f64 / 1e6,
                c.build_speedup(),
                c.e2e_base_ns as f64 / 1e6,
                c.e2e_fast_ns as f64 / 1e6,
                c.e2e_speedup(),
                if c.parity { "yes" } else { "NO" },
            ));
        }
        out
    }
}

/// Every flow the study measures: the gallery, then the generated size
/// sweep (each `synthetic_gen_<n>`; the largest is [`FLOOR_CASE`]).
pub fn flows() -> Vec<(String, DesignFlow)> {
    let mut out: Vec<(String, DesignFlow)> = gallery::all()
        .into_iter()
        .map(|g| (g.name.to_string(), g.flow))
        .collect();
    for &n in SWEEP_SIZES {
        let params = gallery::SyntheticParams::sized(n);
        out.push((format!("synthetic_gen_{n}"), gallery::synthetic(&params)));
    }
    out
}

/// Run the study: `reps` timed repetitions per measurement (best kept),
/// untimed parity checks on every flow.
pub fn run(reps: usize) -> Result<ScaleStudy, FlowError> {
    let reps = reps.max(1);
    let mut cases = Vec::new();
    for (name, flow) in flows() {
        let algo = flow.algorithm();
        let arch = flow.architecture();
        let chars = flow.characterization();
        let cons = flow.constraints();
        let opts = flow.adequation_options();

        // Parity, untimed.
        let index = AdequationIndex::build(algo, arch, chars)?;
        let oracle = index_oracle::build(algo, arch, chars)?;
        let digest = index_digest(&index);
        let baseline = adequate_indexed_reference(algo, arch, chars, cons, opts, &index)?;
        let overhauled = adequate_with_index(algo, arch, chars, cons, opts, &index)?;
        let parity = IndexTables::of(&index) == oracle && baseline == overhauled;
        let makespan_ps = overhauled.makespan.as_ps();
        drop((oracle, baseline, overhauled));

        // Timed, each quantity in its own tight loop so the allocator
        // reaches a steady state per shape instead of churning between
        // differently-sized live sets. The first-generation path pays the
        // oracle build and then schedules over the prebuilt index (the
        // oracle's tables are what that index held).
        let best_of = |f: &mut dyn FnMut() -> Result<(), FlowError>| {
            let mut best = u64::MAX;
            for _ in 0..reps {
                let t0 = Instant::now();
                f()?;
                best = best.min(t0.elapsed().as_nanos() as u64);
            }
            Ok::<u64, FlowError>(best)
        };
        let schedule_ns = best_of(&mut || {
            adequate_with_index(algo, arch, chars, cons, opts, &index)?;
            Ok(())
        })?;
        let oracle_build_ns = best_of(&mut || {
            index_oracle::build(algo, arch, chars)?;
            Ok(())
        })?;
        let build_ns = best_of(&mut || {
            AdequationIndex::build(algo, arch, chars)?;
            Ok(())
        })?;
        let e2e_base_ns = best_of(&mut || {
            index_oracle::build(algo, arch, chars)?;
            adequate_indexed_reference(algo, arch, chars, cons, opts, &index)?;
            Ok(())
        })?;
        let e2e_fast_ns = best_of(&mut || {
            let ix = AdequationIndex::build(algo, arch, chars)?;
            adequate_with_index(algo, arch, chars, cons, opts, &ix)?;
            Ok(())
        })?;

        cases.push(ScaleCase {
            name,
            operations: algo.len(),
            edges: algo.edges().len(),
            oracle_build_ns,
            build_ns,
            schedule_ns,
            e2e_base_ns,
            e2e_fast_ns,
            parity,
            digest,
            makespan_ps,
        });
    }
    Ok(ScaleStudy { cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let flow = gallery::synthetic(&gallery::SyntheticParams {
            layers: 6,
            width: 6,
            ..Default::default()
        });
        let (algo, arch, chars) = (
            flow.algorithm(),
            flow.architecture(),
            flow.characterization(),
        );
        let d = index_digest(&AdequationIndex::build(algo, arch, chars).unwrap());
        let again = index_digest(&AdequationIndex::build(algo, arch, chars).unwrap());
        assert_eq!(again, d);
        // A different seed must move the digest.
        let other = gallery::synthetic(&gallery::SyntheticParams {
            seed: 99,
            layers: 6,
            width: 6,
            ..Default::default()
        });
        let other_ix = AdequationIndex::build(
            other.algorithm(),
            other.architecture(),
            other.characterization(),
        )
        .unwrap();
        assert_ne!(index_digest(&other_ix), d);
    }

    #[test]
    fn study_covers_gallery_and_sweep_with_parity() {
        // One rep over the real flow list; assert only structure and
        // parity flags.
        let study = run(1).expect("flows schedule");
        assert_eq!(
            study.cases.len(),
            gallery::names().len() + SWEEP_SIZES.len()
        );
        assert!(study.all_parity(), "{}", study.render());
        assert!(study.case(FLOOR_CASE).is_some());
        for c in &study.cases {
            assert!(c.makespan_ps > 0, "{} has empty makespan", c.name);
        }
    }
}
