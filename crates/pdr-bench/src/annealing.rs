//! Simulated-annealing mapping: a second adequation strategy.
//!
//! §7 of the paper: *"SynDEx's heuristic needs additional developments to
//! optimize time reconfiguration."* The greedy list scheduler
//! ([`pdr_adequation::heuristic`]) is fast but myopic — each operation is
//! placed by local earliest-finish-time with no lookahead. This module implements
//! the classical global alternative: anneal over complete mappings,
//! evaluating each candidate with a deterministic fixed-mapping scheduler,
//! with the same reconfiguration-expectation term in the objective.
//!
//! The experiment harness uses it as the quality ablation: on graphs where
//! greedy placement is provably suboptimal, annealing recovers the better
//! mapping at (much) higher search cost — quantifying what "additional
//! developments" buy.

use crate::index_oracle::last_max_fn;
use pdr_adequation::{
    AdequationError, AdequationIndex, AdequationOptions, ItemKind, Mapping, Schedule, ScheduledItem,
};
use pdr_fabric::bitstream::SplitMix64;
use pdr_fabric::TimePs;
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, GraphError, OpId, Operation,
    OperatorId,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Annealing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnealOptions {
    /// Scheduling options shared with the greedy heuristic (pins,
    /// reconfiguration awareness, switch probability).
    pub base: AdequationOptions,
    /// Annealing moves to attempt.
    pub moves: u32,
    /// Initial temperature, in picoseconds of makespan (accept worsenings
    /// of ~this size at the start).
    pub initial_temp_ps: f64,
    /// Geometric cooling factor per move.
    pub cooling: f64,
    /// RNG seed (deterministic).
    pub seed: u64,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            base: AdequationOptions::default(),
            moves: 2_000,
            initial_temp_ps: 50_000_000.0, // 50 us
            cooling: 0.997,
            seed: 0xA11EA1,
        }
    }
}

/// Schedule `algo` under a *fixed* mapping: operations in topological
/// order, each starting when its operator is free and its transfers have
/// arrived. Returns the schedule; it validates by construction.
///
/// Builds a one-shot [`AdequationIndex`]; the annealing loop shares a
/// single index across all moves via the internal variant instead.
pub fn schedule_with_mapping(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    mapping: &Mapping,
) -> Result<(Schedule, TimePs), AdequationError> {
    let index = AdequationIndex::build(algo, arch, chars)?;
    let mut schedule = Schedule::new();
    let makespan = run_fixed_mapping(algo, arch, chars, &index, mapping, Some(&mut schedule))?;
    Ok((schedule, makespan))
}

/// The fixed-mapping list walk over the index. With `record` the full
/// schedule is materialized; without, only the makespan is tracked — the
/// annealing objective needs nothing else, and every item's end is folded
/// into the running maximum exactly where the item would have been pushed,
/// so both modes return the same makespan.
fn run_fixed_mapping(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    index: &AdequationIndex,
    mapping: &Mapping,
    mut record: Option<&mut Schedule>,
) -> Result<TimePs, AdequationError> {
    let mut makespan = TimePs::ZERO;
    let mut finish = vec![TimePs::ZERO; algo.len()];
    let mut operator_free = vec![TimePs::ZERO; arch.operator_count()];
    let mut medium_free = vec![TimePs::ZERO; arch.medium_count()];
    for &id in index.topo() {
        let op = algo.op(id);
        let opr = mapping
            .operator_of(id)
            .ok_or_else(|| AdequationError::Unmappable {
                operation: op.name.clone(),
                reason: "not assigned".into(),
            })?;
        // WCET across the vertex's functions — last function attaining the
        // max, like the pre-index `d >= dur` loop kept.
        let entry = index
            .wcet(id, opr)
            .ok_or_else(|| infeasible_on(op, &arch.operator(opr).name, chars))?;
        let dur = entry.dur;
        let mut data_ready = TimePs::ZERO;
        for e in algo.in_edges(id) {
            let src = mapping.operator_of(e.from).expect("topological order");
            let route = index.route(src, opr).ok_or_else(|| {
                AdequationError::Graph(GraphError::NoRoute {
                    from: arch.operator(src).name.clone(),
                    to: arch.operator(opr).name.clone(),
                })
            })?;
            let mut t = finish[e.from.0];
            for &m in &route.media {
                let start = t.max(medium_free[m.0]);
                let end = start + arch.medium(m).transfer_time(e.bits);
                if let Some(schedule) = record.as_deref_mut() {
                    schedule.push_medium_item(
                        m,
                        ScheduledItem {
                            kind: ItemKind::Transfer {
                                from: e.from,
                                to: e.to,
                                bits: e.bits,
                                iteration: 0,
                            },
                            start,
                            end,
                        },
                    );
                }
                makespan = makespan.max(end);
                medium_free[m.0] = end;
                t = end;
            }
            data_ready = data_ready.max(t);
        }
        let start = data_ready.max(operator_free[opr.0]);
        let end = start + dur;
        if !dur.is_zero() {
            if let Some(schedule) = record.as_deref_mut() {
                schedule.push_operator_item(
                    opr,
                    ScheduledItem {
                        kind: ItemKind::Compute {
                            op: id,
                            function: last_max_fn(
                                op.kind.functions(),
                                &arch.operator(opr).name,
                                chars,
                            )
                            .map_or_else(|| "".into(), |k| op.kind.functions()[k].as_str().into()),
                            iteration: 0,
                        },
                        start,
                        end,
                    },
                );
            }
            makespan = makespan.max(end);
            operator_free[opr.0] = end;
        }
        finish[id.0] = end;
    }
    Ok(makespan)
}

/// Reconstruct the pre-index infeasibility error: name the first function
/// whose characterization entry is missing (the matrix only records *that*
/// the pair is infeasible). Error path only — never hot.
fn infeasible_on(op: &Operation, opr_name: &str, chars: &Characterization) -> AdequationError {
    let f = op
        .kind
        .functions()
        .iter()
        .find(|f| chars.duration(f, opr_name).is_none())
        .cloned()
        .unwrap_or_default();
    AdequationError::Unmappable {
        operation: op.name.clone(),
        reason: format!("`{f}` infeasible on `{opr_name}`"),
    }
}

/// Objective: makespan plus the expected reconfiguration penalty of
/// conditioned operations placed on dynamic operators.
fn objective(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    index: &AdequationIndex,
    mapping: &Mapping,
    options: &AdequationOptions,
) -> Result<TimePs, AdequationError> {
    let makespan = run_fixed_mapping(algo, arch, chars, index, mapping, None)?;
    let mut total = makespan;
    if options.reconfig_aware {
        for cond in algo.conditioned_ops() {
            let opr = mapping.operator_of(cond).expect("complete mapping");
            if index.is_dynamic(opr) {
                let worst = index.reconfig_worst(cond, opr);
                total += TimePs::from_ps(
                    (worst.as_ps() as f64 * options.switch_probability).round() as u64,
                );
            }
        }
    }
    Ok(total)
}

/// Feasible operators per operation (same rules as the greedy heuristic).
fn feasible_sets(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
) -> Result<Vec<Vec<OperatorId>>, AdequationError> {
    let mut pins: HashMap<&str, OperatorId> = HashMap::new();
    for (op_name, opr_name) in &options.pins {
        let opr = arch
            .operator_by_name(opr_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(opr_name.clone())))?;
        pins.insert(op_name.as_str(), opr);
    }
    let mut sets = Vec::with_capacity(algo.len());
    for (_, op) in algo.ops() {
        if let Some(&p) = pins.get(op.name.as_str()) {
            sets.push(vec![p]);
            continue;
        }
        let constrained: Option<&str> = op
            .kind
            .functions()
            .iter()
            .find_map(|f| constraints.module(f).map(|m| m.region.as_str()));
        let set: Vec<OperatorId> = arch
            .operators()
            .filter(|(_, o)| {
                if let Some(region) = constrained {
                    return o.name == region;
                }
                op.kind.functions().is_empty()
                    || op
                        .kind
                        .functions()
                        .iter()
                        .all(|f| chars.feasible(f, &o.name))
            })
            .map(|(id, _)| id)
            .collect();
        if set.is_empty() {
            return Err(AdequationError::Unmappable {
                operation: op.name.clone(),
                reason: "no feasible operator".into(),
            });
        }
        sets.push(set);
    }
    Ok(sets)
}

/// Run simulated annealing; returns the best mapping found, its schedule,
/// and the number of accepted moves (diagnostics).
pub fn anneal(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AnnealOptions,
) -> Result<(Mapping, Schedule, TimePs, u32), AdequationError> {
    algo.validate()?;
    constraints.validate()?;
    let sets = feasible_sets(algo, arch, chars, constraints, &options.base)?;
    // One index shared across every move: the per-evaluation cost is pure
    // table arithmetic.
    let index = AdequationIndex::build(algo, arch, chars)?;
    let mut rng = SplitMix64::new(options.seed);

    // Initial mapping: first feasible operator each.
    let mut current = Mapping::new();
    for (i, (id, _)) in algo.ops().enumerate() {
        current.assign(id, sets[i][0]);
    }
    let mut current_cost = objective(algo, arch, chars, &index, &current, &options.base)?;
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut accepted = 0u32;
    let mut temp = options.initial_temp_ps;

    let movable: Vec<usize> = (0..algo.len()).filter(|&i| sets[i].len() > 1).collect();
    if movable.is_empty() {
        current.validate(algo, arch, chars, constraints)?;
        let mut schedule = Schedule::new();
        let makespan = run_fixed_mapping(algo, arch, chars, &index, &current, Some(&mut schedule))?;
        return Ok((current, schedule, makespan, 0));
    }

    for _ in 0..options.moves {
        let slot = movable[(rng.next_u64() % movable.len() as u64) as usize];
        let id = OpId(slot);
        let old = current.operator_of(id).expect("assigned");
        let choices = &sets[slot];
        let candidate = choices[(rng.next_u64() % choices.len() as u64) as usize];
        if candidate == old {
            temp *= options.cooling;
            continue;
        }
        current.assign(id, candidate);
        let cost = objective(algo, arch, chars, &index, &current, &options.base)?;
        let delta = cost.as_ps() as f64 - current_cost.as_ps() as f64;
        let accept = if delta <= 0.0 {
            true
        } else if temp > 0.0 {
            let p = (-delta / temp).exp();
            (rng.next_u64() as f64 / u64::MAX as f64) < p
        } else {
            false
        };
        if accept {
            current_cost = cost;
            accepted += 1;
            if cost < best_cost {
                best_cost = cost;
                best = current.clone();
            }
        } else {
            current.assign(id, old);
        }
        temp *= options.cooling;
    }

    best.validate(algo, arch, chars, constraints)?;
    let mut schedule = Schedule::new();
    let makespan = run_fixed_mapping(algo, arch, chars, &index, &best, Some(&mut schedule))?;
    Ok((best, schedule, makespan, accepted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::quality_ratio;
    use pdr_adequation::adequate;
    use pdr_graph::{paper, MediumKind, OpKind, OperatorKind};

    fn paper_setup() -> (AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile) {
        (
            paper::mccdma_algorithm(),
            paper::sundance_architecture(),
            paper::mccdma_characterization(),
            paper::mccdma_constraints(),
        )
    }

    fn paper_pins() -> AdequationOptions {
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static")
    }

    #[test]
    fn annealed_mapping_is_valid_and_bounded() {
        let (algo, arch, chars, cons) = paper_setup();
        let opts = AnnealOptions {
            base: paper_pins(),
            moves: 500,
            ..Default::default()
        };
        let (mapping, schedule, makespan, _) = anneal(&algo, &arch, &chars, &cons, &opts).unwrap();
        mapping.validate(&algo, &arch, &chars, &cons).unwrap();
        schedule.validate().unwrap();
        let q = quality_ratio(makespan, &algo, &arch, &chars).unwrap();
        assert!(q >= 1.0);
        assert!(q < 2.0, "quality ratio {q}");
    }

    #[test]
    fn annealing_matches_or_beats_greedy_on_the_case_study() {
        let (algo, arch, chars, cons) = paper_setup();
        let greedy = adequate(&algo, &arch, &chars, &cons, &paper_pins()).unwrap();
        let opts = AnnealOptions {
            base: paper_pins(),
            moves: 1_500,
            ..Default::default()
        };
        let (_, _, annealed_makespan, _) = anneal(&algo, &arch, &chars, &cons, &opts).unwrap();
        // Annealing may not beat greedy on a near-chain graph, but must be
        // within 10 % of it (it explores the same space globally).
        let ratio = annealed_makespan.as_ps() as f64 / greedy.makespan.as_ps() as f64;
        assert!(ratio < 1.1, "annealed/greedy = {ratio}");
    }

    #[test]
    fn annealing_fixes_a_greedy_trap() {
        // Two parallel chains and two identical processors connected by a
        // slow bus. Greedy EFT places the first chain's head on cpu1, then
        // the second chain's head *also* on cpu1 (its EFT there is equal —
        // transfers make cpu2 look no better, and the tie breaks low).
        // The balanced split is strictly better; annealing finds it.
        let mut arch = ArchGraph::new("dual");
        let c1 = arch.add_operator("cpu1", OperatorKind::Processor).unwrap();
        let c2 = arch.add_operator("cpu2", OperatorKind::Processor).unwrap();
        let bus = arch
            .add_medium("bus", MediumKind::Bus, 1_000_000_000, TimePs::from_ns(100))
            .unwrap();
        arch.link(c1, bus).unwrap();
        arch.link(c2, bus).unwrap();

        let mut g = AlgorithmGraph::new("two_chains");
        let mut chars = Characterization::new();
        let s = g.add_op("s", OpKind::Source).unwrap();
        let k = g.add_op("k", OpKind::Sink).unwrap();
        for chain in 0..2 {
            let mut prev = s;
            for step in 0..3 {
                let name = format!("c{chain}_{step}");
                let id = g.add_compute(&name).unwrap();
                chars.set_duration(&name, "cpu1", TimePs::from_us(100));
                chars.set_duration(&name, "cpu2", TimePs::from_us(100));
                g.connect(prev, id, 8).unwrap();
                prev = id;
            }
            g.connect(prev, k, 8).unwrap();
        }

        let opts = AnnealOptions {
            moves: 3_000,
            initial_temp_ps: 200_000_000.0,
            ..Default::default()
        };
        let (_, _, annealed, _) =
            anneal(&g, &arch, &chars, &ConstraintsFile::new(), &opts).unwrap();
        // Balanced: 300 us (+ negligible transfers). Serialized: 600 us.
        assert!(
            annealed < TimePs::from_us(320),
            "annealing should balance the chains: {annealed}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (algo, arch, chars, cons) = paper_setup();
        let opts = AnnealOptions {
            base: paper_pins(),
            moves: 300,
            ..Default::default()
        };
        let a = anneal(&algo, &arch, &chars, &cons, &opts).unwrap();
        let b = anneal(&algo, &arch, &chars, &cons, &opts).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.2, b.2);
        let other = AnnealOptions { seed: 999, ..opts };
        // Different seed may land elsewhere but must stay valid.
        let c = anneal(&algo, &arch, &chars, &cons, &other).unwrap();
        c.0.validate(&algo, &arch, &chars, &cons).unwrap();
    }

    #[test]
    fn reconfig_aware_objective_avoids_dynamic_region() {
        let (algo, arch, mut chars, _) = paper_setup();
        // Make op_dyn tempting for makespan...
        chars.set_duration("mod_qpsk", "op_dyn", TimePs::from_us(1));
        chars.set_duration("mod_qam16", "op_dyn", TimePs::from_us(1));
        let free = ConstraintsFile::new();
        let opts = AnnealOptions {
            base: AdequationOptions {
                reconfig_aware: true,
                switch_probability: 0.9,
                ..paper_pins()
            },
            moves: 2_000,
            ..Default::default()
        };
        let (mapping, ..) = anneal(&algo, &arch, &chars, &free, &opts).unwrap();
        let cond = algo.by_name("modulation").unwrap();
        let placed = &arch.operator(mapping.operator_of(cond).unwrap()).name;
        assert_ne!(placed, "op_dyn", "0.9 switch probability must repel");
    }
}
