//! The pre-index adequation path, kept verbatim as the measurement and
//! parity baseline.
//!
//! [`pdr_adequation::adequate`] was rewritten on top of the
//! [`pdr_adequation::AdequationIndex`] precomputation layer (dense WCET
//! matrix, all-pairs route table, CSR adjacency, heap-based ready queue).
//! This module preserves the *original* implementation — repeated
//! string-keyed [`Characterization::duration`] probes, O(E) edge-list
//! filter scans for neighbourhoods, an O(V·E) topological sort, a full
//! ready-list scan per step, and one allocating BFS per (predecessor,
//! candidate) route query — so that:
//!
//! * `tests/adequation_equivalence.rs` can prove the indexed scheduler
//!   returns byte-identical [`AdequationResult`]s, and
//! * `pdr-bench`'s `adequation_perf` study can measure the speedup against
//!   what the code actually did before the index existed (the CSR
//!   adjacency now built into [`AlgorithmGraph`] is deliberately *not*
//!   used here).
//!
//! Nothing in the production flow calls this module; it exists for
//! verification and benchmarking only.

use pdr_adequation::{
    AdequationError, AdequationIndex, AdequationOptions, AdequationResult, ItemKind, Mapping,
    Schedule, ScheduledItem,
};
use pdr_fabric::TimePs;
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, DataEdge, GraphError, MediumId,
    OpId, Operation, OperatorId,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// The seed's O(V·E) Kahn topological sort: the edge list is rescanned
/// once per popped vertex. Identical order to
/// [`AlgorithmGraph::topo_order`] (ties by insertion order).
fn topo_order_scan(algo: &AlgorithmGraph) -> Result<Vec<OpId>, AdequationError> {
    let n = algo.len();
    let mut indegree = vec![0usize; n];
    for e in algo.edges() {
        indegree[e.to.0] += 1;
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        order.push(OpId(i));
        for e in algo.edges() {
            if e.from.0 == i {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    queue.push_back(e.to.0);
                }
            }
        }
    }
    if order.len() != n {
        let stuck = (0..n)
            .find(|&i| indegree[i] > 0)
            .map(|i| algo.op(OpId(i)).name.clone())
            .unwrap_or_default();
        return Err(AdequationError::Graph(GraphError::Cycle {
            involving: stuck,
        }));
    }
    Ok(order)
}

/// O(E) incoming-edge filter scan (the pre-CSR `in_edges`).
fn in_edges_scan(algo: &AlgorithmGraph, id: OpId) -> impl Iterator<Item = &DataEdge> {
    algo.edges().iter().filter(move |e| e.to == id)
}

/// O(E) successor filter scan (the pre-CSR `successors`).
fn successors_scan(algo: &AlgorithmGraph, id: OpId) -> Vec<OpId> {
    algo.edges()
        .iter()
        .filter(|e| e.from == id)
        .map(|e| e.to)
        .collect()
}

/// Worst-case duration of an operation on a given operator (max over the
/// functions the vertex may execute), or `None` if any function is
/// infeasible there. Sources/sinks cost zero everywhere.
fn wcet_on(op: &Operation, operator: &str, chars: &Characterization) -> Option<(TimePs, String)> {
    let funcs = op.kind.functions();
    if funcs.is_empty() {
        return Some((TimePs::ZERO, String::new()));
    }
    let mut best: Option<(TimePs, String)> = None;
    for f in funcs {
        let d = chars.duration(f, operator)?;
        if best.as_ref().map(|(t, _)| d > *t).unwrap_or(true) {
            best = Some((d, f.clone()));
        }
    }
    best
}

/// Feasible operators of an operation, honoring constraints-file pins.
fn feasible_operators(
    op: &Operation,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    pinned: Option<OperatorId>,
) -> Vec<OperatorId> {
    if let Some(p) = pinned {
        return vec![p];
    }
    let constrained_region: Option<&str> = op
        .kind
        .functions()
        .iter()
        .find_map(|f| constraints.module(f).map(|mc| mc.region.as_str()));
    arch.operators()
        .filter(|(_, o)| {
            if let Some(region) = constrained_region {
                return o.name == region;
            }
            wcet_on(op, &o.name, chars).is_some()
        })
        .map(|(id, _)| id)
        .collect()
}

/// Critical-path bottom levels, re-probing the characterization per
/// (operation, operator, function) triple like the seed did.
fn bottom_levels(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<HashMap<OpId, TimePs>, AdequationError> {
    let order = topo_order_scan(algo)?;
    let mut bl: HashMap<OpId, TimePs> = HashMap::with_capacity(algo.len());
    let best_duration = |id: OpId| -> TimePs {
        let op = algo.op(id);
        arch.operators()
            .filter_map(|(_, o)| wcet_on(op, &o.name, chars).map(|(t, _)| t))
            .min()
            .unwrap_or(TimePs::ZERO)
    };
    for &id in order.iter().rev() {
        let succ_max = successors_scan(algo, id)
            .into_iter()
            .map(|s| bl.get(&s).copied().unwrap_or(TimePs::ZERO))
            .max()
            .unwrap_or(TimePs::ZERO);
        bl.insert(id, best_duration(id) + succ_max);
    }
    Ok(bl)
}

/// The pre-index `adequate()`: same inputs, same output, original cost
/// profile. See the module docs for what "original" means here.
pub fn adequate_reference(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
) -> Result<AdequationResult, AdequationError> {
    algo.validate()?;
    constraints.validate()?;

    // Resolve pins.
    let mut pinned: HashMap<OpId, OperatorId> = HashMap::new();
    for (op_name, opr_name) in &options.pins {
        let op = algo
            .by_name(op_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(op_name.clone())))?;
        let opr = arch
            .operator_by_name(opr_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(opr_name.clone())))?;
        pinned.insert(op, opr);
    }

    let bl = bottom_levels(algo, arch, chars)?;
    let mut mapping = Mapping::new();
    let mut schedule = Schedule::new();
    let mut finish: HashMap<OpId, TimePs> = HashMap::with_capacity(algo.len());
    let mut operator_free: HashMap<OperatorId, TimePs> = HashMap::new();
    let mut medium_free: HashMap<MediumId, TimePs> = HashMap::new();

    // Ready list driven by remaining predecessor counts.
    let mut remaining: HashMap<OpId, usize> = algo
        .ops()
        .map(|(id, _)| (id, in_edges_scan(algo, id).count()))
        .collect();
    let mut scheduled = 0usize;
    while scheduled < algo.len() {
        // Highest bottom level among ready ops; ties by lowest id — found
        // by a full O(V) scan per step.
        let next = algo
            .ops()
            .map(|(id, _)| id)
            .filter(|id| !finish.contains_key(id) && remaining[id] == 0)
            .max_by(|a, b| bl[a].cmp(&bl[b]).then(b.cmp(a)))
            .ok_or_else(|| {
                AdequationError::InvalidSchedule(
                    "no ready operation although schedule incomplete (cycle?)".into(),
                )
            })?;
        let op = algo.op(next);

        let candidates =
            feasible_operators(op, arch, chars, constraints, pinned.get(&next).copied());
        if candidates.is_empty() {
            return Err(AdequationError::Unmappable {
                operation: op.name.clone(),
                reason: "no feasible operator".into(),
            });
        }

        // Pick the operator minimizing finish-time estimate.
        let mut best: Option<(TimePs, TimePs, OperatorId, TimePs, String)> = None;
        for cand in candidates {
            let Some((dur, wcet_fn)) = wcet_on(op, &arch.operator(cand).name, chars) else {
                continue;
            };
            // Earliest start: operator free + data arrivals (simulated, not
            // committed).
            let mut est = operator_free.get(&cand).copied().unwrap_or(TimePs::ZERO);
            let mut routable = true;
            for e in in_edges_scan(algo, next) {
                let src_opr = mapping
                    .operator_of(e.from)
                    .expect("predecessors scheduled first");
                let t0 = finish[&e.from];
                // One allocating BFS per (predecessor, candidate) pair.
                let arrival = match arch.route(src_opr, cand) {
                    Ok(route) => {
                        let mut t = t0;
                        for &m in &route.media {
                            let free = medium_free.get(&m).copied().unwrap_or(TimePs::ZERO);
                            t = t.max(free) + arch.medium(m).transfer_time(e.bits);
                        }
                        t
                    }
                    Err(_) => {
                        routable = false;
                        break;
                    }
                };
                est = est.max(arrival);
            }
            if !routable {
                continue;
            }
            // Expected reconfiguration penalty (selection pressure only).
            let mut eft = est + dur;
            if options.reconfig_aware
                && op.kind.is_conditioned()
                && arch.operator(cand).kind.is_dynamic()
            {
                let worst_fn = op
                    .kind
                    .functions()
                    .iter()
                    .filter_map(|f| chars.reconfig_time(f, &arch.operator(cand).name).ok())
                    .max()
                    .unwrap_or(TimePs::ZERO);
                let penalty_ps =
                    (worst_fn.as_ps() as f64 * options.switch_probability).round() as u64;
                eft += TimePs::from_ps(penalty_ps);
            }
            let better = match &best {
                None => true,
                Some((b_eft, ..)) => eft < *b_eft,
            };
            if better {
                best = Some((eft, est, cand, dur, wcet_fn));
            }
        }
        let (_, est, chosen, dur, wcet_fn) = best.ok_or_else(|| AdequationError::Unmappable {
            operation: op.name.clone(),
            reason: "no routable operator".into(),
        })?;

        // Commit: reserve media for incoming transfers, then the operator.
        let mut data_ready = TimePs::ZERO;
        for e in in_edges_scan(algo, next) {
            let src_opr = mapping.operator_of(e.from).expect("scheduled");
            let route = arch.route(src_opr, chosen)?;
            let mut t = finish[&e.from];
            for &m in &route.media {
                let free = medium_free.get(&m).copied().unwrap_or(TimePs::ZERO);
                let start = t.max(free);
                let end = start + arch.medium(m).transfer_time(e.bits);
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
                medium_free.insert(m, end);
                t = end;
            }
            data_ready = data_ready.max(t);
        }
        let opr_free = operator_free.get(&chosen).copied().unwrap_or(TimePs::ZERO);
        let start = est.max(data_ready).max(opr_free);
        let end = start + dur;
        if !dur.is_zero() {
            schedule.push_operator_item(
                chosen,
                ScheduledItem {
                    kind: ItemKind::Compute {
                        op: next,
                        function: wcet_fn.into(),
                        iteration: 0,
                    },
                    start,
                    end,
                },
            );
            operator_free.insert(chosen, end);
        }
        mapping.assign(next, chosen);
        finish.insert(next, end);
        for s in successors_scan(algo, next) {
            *remaining.get_mut(&s).expect("known op") -= 1;
        }
        scheduled += 1;
    }

    schedule.validate()?;
    mapping.validate(algo, arch, chars, constraints)?;
    let makespan = schedule.makespan();
    Ok(AdequationResult {
        mapping,
        schedule,
        makespan,
        finish_times: algo.ops().map(|(id, _)| finish[&id]).collect(),
    })
}

/// Feasible operators of an operation, as the first indexed scheduler
/// materialized them (one allocation per operation); see
/// [`adequate_indexed_reference`].
fn feasible_operators_indexed(
    op: &Operation,
    id: OpId,
    arch: &ArchGraph,
    constraints: &ConstraintsFile,
    index: &AdequationIndex,
    pinned: Option<OperatorId>,
) -> Vec<OperatorId> {
    if let Some(p) = pinned {
        return vec![p];
    }
    // Region constraint: if any function is constrained, only that region.
    let constrained_region: Option<&str> = op
        .kind
        .functions()
        .iter()
        .find_map(|f| constraints.module(f).map(|mc| mc.region.as_str()));
    if let Some(region) = constrained_region {
        return arch
            .operators()
            .filter(|(_, o)| o.name == region)
            .map(|(opr, _)| opr)
            .collect();
    }
    arch.operators()
        .map(|(opr, _)| opr)
        .filter(|&opr| index.wcet(id, opr).is_some())
        .collect()
}

/// The *first* indexed scheduler loop, kept verbatim as the measurement
/// baseline for the hot-path overhaul — the same role
/// [`adequate_reference`] plays for the index itself.
///
/// This is what `adequate_with_index` looked like when the
/// [`AdequationIndex`] landed: a materialized candidate vector per
/// operation, mapping B-tree probes per (edge × candidate), one
/// bandwidth division per probed hop, `BinaryHeap<(TimePs,
/// Reverse<usize>)>` for the ready queue, and per-item B-tree pushes into
/// the schedule. The overhauled core in [`pdr_adequation::heuristic`]
/// replaces all of that with reused dense workspaces; `bench_scale`
/// measures the gap and the differential suites prove the results stayed
/// byte-identical.
pub fn adequate_indexed_reference(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
    index: &AdequationIndex,
) -> Result<AdequationResult, AdequationError> {
    algo.validate()?;
    constraints.validate()?;

    // Resolve pins.
    let mut pinned: HashMap<OpId, OperatorId> = HashMap::new();
    for (op_name, opr_name) in &options.pins {
        let op = algo
            .by_name(op_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(op_name.clone())))?;
        let opr = arch
            .operator_by_name(opr_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(opr_name.clone())))?;
        pinned.insert(op, opr);
    }

    let n = algo.len();
    let mut mapping = Mapping::new();
    let mut schedule = Schedule::new();
    let mut finish = vec![TimePs::ZERO; n];
    let mut operator_free = vec![TimePs::ZERO; arch.operator_count()];
    let mut medium_free = vec![TimePs::ZERO; arch.medium_count()];

    let mut remaining: Vec<usize> = (0..n).map(|i| algo.in_degree(OpId(i))).collect();
    let mut ready: BinaryHeap<(TimePs, Reverse<usize>)> = (0..n)
        .filter(|&i| remaining[i] == 0)
        .map(|i| (index.bottom_level(OpId(i)), Reverse(i)))
        .collect();
    let mut scheduled = 0usize;
    while scheduled < n {
        let next = match ready.pop() {
            Some((_, Reverse(i))) => OpId(i),
            None => {
                return Err(AdequationError::InvalidSchedule(
                    "no ready operation although schedule incomplete (cycle?)".into(),
                ))
            }
        };
        let op = algo.op(next);

        let candidates = feasible_operators_indexed(
            op,
            next,
            arch,
            constraints,
            index,
            pinned.get(&next).copied(),
        );
        if candidates.is_empty() {
            return Err(AdequationError::Unmappable {
                operation: op.name.clone(),
                reason: "no feasible operator".into(),
            });
        }

        // Pick the operator minimizing finish-time estimate.
        let mut best: Option<(TimePs, TimePs, OperatorId, TimePs, Option<usize>)> = None;
        for cand in candidates {
            let Some(entry) = index.wcet(next, cand) else {
                continue;
            };
            let dur = entry.dur;
            // Earliest start: operator free + data arrivals (simulated, not
            // committed).
            let mut est = operator_free[cand.0];
            let mut routable = true;
            for e in algo.in_edges(next) {
                let src_opr = mapping
                    .operator_of(e.from)
                    .expect("predecessors scheduled first");
                let t0 = finish[e.from.0];
                match index.route(src_opr, cand) {
                    Some(route) => {
                        // Estimate without reserving: each hop waits for the
                        // medium then transfers.
                        let mut t = t0;
                        for &m in &route.media {
                            t = t.max(medium_free[m.0]) + arch.medium(m).transfer_time(e.bits);
                        }
                        est = est.max(t);
                    }
                    None => {
                        routable = false;
                        break;
                    }
                }
            }
            if !routable {
                continue;
            }
            // Expected reconfiguration penalty (selection pressure only).
            let mut eft = est + dur;
            if options.reconfig_aware && index.is_conditioned(next) && index.is_dynamic(cand) {
                let worst_fn = index.reconfig_worst(next, cand);
                let penalty_ps =
                    (worst_fn.as_ps() as f64 * options.switch_probability).round() as u64;
                eft += TimePs::from_ps(penalty_ps);
            }
            let better = match &best {
                None => true,
                Some((b_eft, ..)) => eft < *b_eft,
            };
            if better {
                best = Some((eft, est, cand, dur, entry.first_fn()));
            }
        }
        let (_, est, chosen, dur, wcet_fn) = best.ok_or_else(|| AdequationError::Unmappable {
            operation: op.name.clone(),
            reason: "no routable operator".into(),
        })?;

        // Commit: reserve media for incoming transfers, then the operator.
        let mut data_ready = TimePs::ZERO;
        for e in algo.in_edges(next) {
            let src_opr = mapping.operator_of(e.from).expect("scheduled");
            let route = index.route(src_opr, chosen).ok_or_else(|| {
                AdequationError::Graph(GraphError::NoRoute {
                    from: arch.operator(src_opr).name.clone(),
                    to: arch.operator(chosen).name.clone(),
                })
            })?;
            let mut t = finish[e.from.0];
            for &m in &route.media {
                let start = t.max(medium_free[m.0]);
                let end = start + arch.medium(m).transfer_time(e.bits);
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
                medium_free[m.0] = end;
                t = end;
            }
            data_ready = data_ready.max(t);
        }
        let start = est.max(data_ready).max(operator_free[chosen.0]);
        let end = start + dur;
        if !dur.is_zero() {
            schedule.push_operator_item(
                chosen,
                ScheduledItem {
                    kind: ItemKind::Compute {
                        op: next,
                        function: wcet_fn.map_or_else(
                            || "".into(),
                            |k| algo.op(next).kind.functions()[k].as_str().into(),
                        ),
                        iteration: 0,
                    },
                    start,
                    end,
                },
            );
            operator_free[chosen.0] = end;
        }
        mapping.assign(next, chosen);
        finish[next.0] = end;
        for e in algo.out_edges(next) {
            let s = e.to.0;
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready.push((index.bottom_level(e.to), Reverse(s)));
            }
        }
        scheduled += 1;
    }

    schedule.validate()?;
    mapping.validate(algo, arch, chars, constraints)?;
    let makespan = schedule.makespan();
    Ok(AdequationResult {
        mapping,
        schedule,
        makespan,
        finish_times: finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::adequate;
    use pdr_graph::paper;

    #[test]
    fn reference_matches_indexed_on_the_paper_flow() {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let reference = adequate_reference(&algo, &arch, &chars, &cons, &opts).unwrap();
        let indexed = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        assert_eq!(reference, indexed);
    }

    #[test]
    fn indexed_reference_matches_overhauled_core_on_the_paper_flow() {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let index = AdequationIndex::build(&algo, &arch, &chars).unwrap();
        let baseline =
            adequate_indexed_reference(&algo, &arch, &chars, &cons, &opts, &index).unwrap();
        let overhauled = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        assert_eq!(baseline, overhauled);
    }

    #[test]
    fn reference_topo_matches_graph_topo() {
        let algo = paper::mccdma_algorithm();
        assert_eq!(topo_order_scan(&algo).unwrap(), algo.topo_order().unwrap());
    }
}
