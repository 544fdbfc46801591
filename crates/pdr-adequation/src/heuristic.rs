//! The greedy list-scheduling adequation heuristic.
//!
//! The heuristic follows the SynDEx recipe §3 describes: operations are
//! considered in order of *schedule pressure* (critical-path bottom levels),
//! and each is placed on the feasible operator minimizing its earliest
//! finish time, accounting for data-transfer times across the media route
//! from its predecessors.
//!
//! The runtime-reconfiguration extension (§4) enters in two places:
//!
//! * **feasibility** — conditioned operations may only go to operators on
//!   which *every* alternative is feasible, and constraints-file region
//!   pins are honored;
//! * **cost** — with [`AdequationOptions::reconfig_aware`] set, placing a
//!   conditioned operation on a dynamic operator charges the *expected*
//!   reconfiguration penalty `switch_probability × reconfig_time` to the
//!   finish-time estimate. The oblivious variant (`reconfig_aware = false`)
//!   reproduces a scheduler that ignores reconfiguration latency — the
//!   ablation the paper's conclusion motivates ("SynDEx's heuristic needs
//!   additional developments to optimize time reconfiguration").
//!
//! Durations of conditioned operations are taken as the worst case across
//! alternatives (WCET labeling), so single-iteration makespans are safe
//! bounds. Sources and sinks model interfaces: they are mapped (possibly
//! pinned) but consume no operator time.
//!
//! The implementation runs on the [`AdequationIndex`] precomputation
//! layer: a dense op×operator WCET matrix, an all-pairs route table, the
//! graph's CSR adjacency, and a binary-heap ready queue keyed on (bottom
//! level, id) — roughly O((V+E)·P + V log V) index arithmetic where the
//! seed spent O(V²·P·F) on string hashing and per-pair BFS. The pre-index
//! path survives in `pdr_bench::reference`; `tests/adequation_equivalence.rs`
//! proves both return byte-identical results.

use crate::error::AdequationError;
use crate::index::{AdequationIndex, WcetEntry};
use crate::mapping::Mapping;
use crate::schedule::{ItemKind, Schedule, ScheduledItem};
use pdr_fabric::TimePs;
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, GraphError, MediumId, OpId,
    OperatorId,
};
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// Tunables of the adequation heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdequationOptions {
    /// Charge expected reconfiguration penalties during operator selection.
    pub reconfig_aware: bool,
    /// Expected per-iteration probability that a conditioned operation
    /// switches alternatives (drives the expected penalty).
    pub switch_probability: f64,
    /// Pre-assignments by name: (operation, operator). Used to pin
    /// interface sources/sinks to their physical side (e.g. `select` to the
    /// DSP).
    pub pins: Vec<(String, String)>,
}

impl Default for AdequationOptions {
    fn default() -> Self {
        AdequationOptions {
            reconfig_aware: true,
            switch_probability: 0.1,
            pins: Vec::new(),
        }
    }
}

impl AdequationOptions {
    /// The reconfiguration-oblivious baseline.
    pub fn oblivious() -> Self {
        AdequationOptions {
            reconfig_aware: false,
            ..Default::default()
        }
    }

    /// Add a pin.
    pub fn pin(mut self, operation: &str, operator: &str) -> Self {
        self.pins
            .push((operation.to_string(), operator.to_string()));
        self
    }
}

/// Output of [`adequate`].
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct AdequationResult {
    /// Operation → operator assignment.
    pub mapping: Mapping,
    /// One steady-state iteration (iteration index 0), WCET-labeled.
    pub schedule: Schedule,
    /// Schedule makespan.
    pub makespan: TimePs,
    /// Finish time of each operation within the iteration (sources/sinks
    /// included, although they occupy no operator time), indexed by
    /// [`OpId`]. It serializes as the `[[op, time], …]` pairs of the map
    /// it replaced, in operation order.
    pub finish_times: Vec<TimePs>,
}

/// The derived form, with `finish_times` written as `(OpId, time)` pairs.
impl Serialize for AdequationResult {
    fn to_json(&self) -> Value {
        let finish = self.finish_times.iter().enumerate();
        let pairs = finish.map(|(i, t)| (OpId(i), t).to_json()).collect();
        Value::obj(vec![
            ("mapping", self.mapping.to_json()),
            ("schedule", self.schedule.to_json()),
            ("makespan", self.makespan.to_json()),
            ("finish_times", Value::Array(pairs)),
        ])
    }
}

/// Dense sentinel for "no operator assigned/pinned", as in [`Mapping`].
const NO_OPR: u32 = crate::mapping::UNASSIGNED;

/// One resolved predecessor arc of the operation being placed: everything
/// a probe needs, looked up once per operation instead of once per
/// (edge × candidate) — the seed re-probed the mapping's B-tree and
/// re-multiplied the route index on every candidate.
#[derive(Debug, Clone, Copy)]
struct PredArc {
    /// Operator executing the source operation.
    src_opr: u32,
    /// Row base of that operator in [`AdequationIndex::route_table`].
    route_base: usize,
    /// Finish time of the source operation.
    t0: TimePs,
    /// Edge width in bits.
    bits: u64,
    /// Source operation (names the transfer item).
    from: u32,
}

/// Reusable dense state of the scheduler core.
///
/// Everything the greedy list scheduler mutates lives here as a flat,
/// index-addressed vector: remaining in-degrees, finish times, operator
/// and medium horizons, the chosen operator per operation, resolved pins,
/// the ready heap and the per-operation predecessor scratch. A workspace
/// is reused across runs — the internal `prepare` step only clears and
/// resizes — so after one warm-up call [`evaluate_makespan`] performs no
/// heap allocation in steady state (`pdr-bench`'s `bench_scale` holds
/// that with a counting allocator).
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    remaining: Vec<u32>,
    finish: Vec<TimePs>,
    operator_free: Vec<TimePs>,
    medium_free: Vec<TimePs>,
    op_operator: Vec<u32>,
    pinned: Vec<u32>,
    /// Pair-keyed binary max-heap on (bottom level, id): each operation
    /// enters exactly once when its in-degree hits zero, so no re-keying
    /// or deletion is ever needed, and the backing vector is reused
    /// across runs.
    ready: Vec<(TimePs, usize)>,
    preds: Vec<PredArc>,
    /// Per (predecessor, medium) transfer time of the operation being
    /// placed, row-major by predecessor: the edge width is fixed per arc,
    /// so the bandwidth division happens once per (arc, medium) instead of
    /// once per (candidate, hop).
    pred_tt: Vec<TimePs>,
}

impl EvalWorkspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, n_ops: usize, n_oprs: usize, n_media: usize) {
        self.remaining.clear();
        self.remaining.resize(n_ops, 0);
        self.finish.clear();
        self.finish.resize(n_ops, TimePs::ZERO);
        self.operator_free.clear();
        self.operator_free.resize(n_oprs, TimePs::ZERO);
        self.medium_free.clear();
        self.medium_free.resize(n_media, TimePs::ZERO);
        self.op_operator.clear();
        self.op_operator.resize(n_ops, NO_OPR);
        self.pinned.clear();
        self.pinned.resize(n_ops, NO_OPR);
        self.ready.clear();
        self.preds.clear();
        self.pred_tt.clear();
    }

    /// Heap order: higher bottom level first, ties towards the lower id —
    /// exactly the key the seed's full ready-list scan minimized.
    #[inline]
    fn ready_before(a: (TimePs, usize), b: (TimePs, usize)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    #[inline]
    fn ready_push(&mut self, item: (TimePs, usize)) {
        let mut i = self.ready.len();
        self.ready.push(item);
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::ready_before(self.ready[i], self.ready[parent]) {
                self.ready.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn ready_pop(&mut self) -> Option<(TimePs, usize)> {
        if self.ready.is_empty() {
            return None;
        }
        let last = self.ready.len() - 1;
        self.ready.swap(0, last);
        let top = self.ready.pop();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= self.ready.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.ready.len() && Self::ready_before(self.ready[r], self.ready[l]) {
                r
            } else {
                l
            };
            if Self::ready_before(self.ready[c], self.ready[i]) {
                self.ready.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
        top
    }
}

/// Recording buffers of the `RECORD = true` instantiation: per-id item
/// vectors, moved into the [`Schedule`]'s B-trees once at the end.
#[derive(Debug, Default)]
struct RecordBufs {
    operator_items: Vec<Vec<ScheduledItem>>,
    medium_items: Vec<Vec<ScheduledItem>>,
}

/// The scheduler core, monomorphized over whether it records.
///
/// Both instantiations take identical decisions and perform identical
/// commits (operator/medium horizon updates, finish times) and return the
/// makespan — `RECORD = true` additionally materializes the schedule
/// items, each naming its function by the index's shared name.
fn run_core<const RECORD: bool>(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
    index: &AdequationIndex,
    ws: &mut EvalWorkspace,
    bufs: &mut RecordBufs,
) -> Result<TimePs, AdequationError> {
    let n = algo.len();
    let n_oprs = arch.operator_count();
    let n_media = arch.medium_count();
    ws.prepare(n, n_oprs, n_media);
    if RECORD {
        bufs.operator_items.resize_with(n_oprs, Vec::new);
        bufs.medium_items.resize_with(n_media, Vec::new);
    }

    // Resolve pins into the dense table (a later pin of the same
    // operation wins, as the seed's HashMap insert did).
    for (op_name, opr_name) in &options.pins {
        let op = algo
            .by_name(op_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(op_name.clone())))?;
        let opr = arch
            .operator_by_name(opr_name)
            .ok_or_else(|| AdequationError::Graph(GraphError::UnknownVertex(opr_name.clone())))?;
        ws.pinned[op.0] = opr.0 as u32;
    }

    for i in 0..n {
        ws.remaining[i] = algo.in_degree(OpId(i)) as u32;
        if ws.remaining[i] == 0 {
            ws.ready_push((index.bottom_level(OpId(i)), i));
        }
    }

    let route_table = index.route_table();
    let mut makespan = TimePs::ZERO;
    let mut scheduled = 0usize;
    while scheduled < n {
        let next = match ws.ready_pop() {
            Some((_, i)) => OpId(i),
            None => {
                return Err(AdequationError::InvalidSchedule(
                    "no ready operation although schedule incomplete (cycle?)".into(),
                ))
            }
        };
        let op = algo.op(next);

        // Candidate set, never materialized: a pin or a constrained
        // region names exactly one operator (operator names are unique),
        // otherwise every operator is probed and the WCET matrix masks
        // the infeasible ones. Pins and region constraints bypass the
        // WCET feasibility check, exactly like the pre-index path did (an
        // infeasible pinned/constrained operator is caught below as "no
        // routable operator").
        let single: Option<OperatorId> = if ws.pinned[next.0] != NO_OPR {
            Some(OperatorId(ws.pinned[next.0] as usize))
        } else {
            let constrained_region: Option<&str> = op
                .kind
                .functions()
                .iter()
                .find_map(|f| constraints.module(f).map(|mc| mc.region.as_str()));
            match constrained_region {
                Some(region) => Some(arch.operator_by_name(region).ok_or_else(|| {
                    AdequationError::Unmappable {
                        operation: op.name.clone(),
                        reason: "no feasible operator".into(),
                    }
                })?),
                None => None,
            }
        };

        // Predecessor arcs, resolved once per operation, with the per-
        // medium transfer time of each arc's payload divided out up front
        // (`t0`'s max doubles as the candidate-independent start bound).
        ws.preds.clear();
        ws.pred_tt.clear();
        let mut max_t0 = TimePs::ZERO;
        for e in algo.in_edges(next) {
            let src = ws.op_operator[e.from.0];
            debug_assert_ne!(src, NO_OPR, "predecessors scheduled first");
            let t0 = ws.finish[e.from.0];
            max_t0 = max_t0.max(t0);
            ws.preds.push(PredArc {
                src_opr: src,
                route_base: src as usize * n_oprs,
                t0,
                bits: e.bits,
                from: e.from.0 as u32,
            });
            for m in 0..n_media {
                ws.pred_tt
                    .push(arch.medium(MediumId(m)).transfer_time(e.bits));
            }
        }

        // Pick the operator minimizing the finish-time estimate.
        let mut best: Option<(TimePs, TimePs, OperatorId, WcetEntry)> = None;
        let mut any_feasible = false;
        let (lo, hi) = match single {
            Some(o) => (o.0, o.0 + 1),
            None => (0, n_oprs),
        };
        let wcet_row = index.wcet_row(next);
        for c in lo..hi {
            let cand = OperatorId(c);
            let Some(entry) = wcet_row[c].as_ref() else {
                continue;
            };
            any_feasible = true;
            let dur = entry.dur;
            // Cheap lower bound before any route work: the start time is
            // at least `max(operator_free, latest predecessor finish)`,
            // and the penalty term only adds — so a candidate whose bound
            // cannot *strictly* beat the incumbent would lose the `eft <
            // best` comparison below anyway, and the first-wins tie-break
            // is preserved exactly.
            if let Some((b_eft, ..)) = &best {
                if ws.operator_free[c].max(max_t0) + dur >= *b_eft {
                    continue;
                }
            }
            // Earliest start: operator free + data arrivals (simulated,
            // not committed).
            let mut est = ws.operator_free[c];
            let mut routable = true;
            for (pi, p) in ws.preds.iter().enumerate() {
                match route_table[p.route_base + c].as_ref() {
                    Some(route) => {
                        // Estimate without reserving: each hop waits for
                        // the medium then transfers.
                        let tt = &ws.pred_tt[pi * n_media..];
                        let mut t = p.t0;
                        for &m in &route.media {
                            t = t.max(ws.medium_free[m.0]) + tt[m.0];
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
                best = Some((eft, est, cand, *entry));
            }
        }
        let Some((_, est, chosen, wcet)) = best else {
            // A pinned/constrained candidate set is never empty, so its
            // failures are routing failures; the open set is empty only
            // when no operator implements the operation.
            return Err(AdequationError::Unmappable {
                operation: op.name.clone(),
                reason: if single.is_some() || any_feasible {
                    "no routable operator"
                } else {
                    "no feasible operator"
                }
                .into(),
            });
        };

        // Commit: reserve media for incoming transfers, then the operator.
        let mut data_ready = TimePs::ZERO;
        for (pi, p) in ws.preds.iter().enumerate() {
            let route = route_table[p.route_base + chosen.0]
                .as_ref()
                .ok_or_else(|| {
                    AdequationError::Graph(GraphError::NoRoute {
                        from: arch.operator(OperatorId(p.src_opr as usize)).name.clone(),
                        to: arch.operator(chosen).name.clone(),
                    })
                })?;
            let tt = &ws.pred_tt[pi * n_media..];
            let mut t = p.t0;
            for &m in &route.media {
                let start = t.max(ws.medium_free[m.0]);
                let end = start + tt[m.0];
                if RECORD {
                    bufs.medium_items[m.0].push(ScheduledItem {
                        kind: ItemKind::Transfer {
                            from: OpId(p.from as usize),
                            to: next,
                            bits: p.bits,
                            iteration: 0,
                        },
                        start,
                        end,
                    });
                }
                makespan = makespan.max(end);
                ws.medium_free[m.0] = end;
                t = end;
            }
            data_ready = data_ready.max(t);
        }
        let start = est.max(data_ready).max(ws.operator_free[chosen.0]);
        let end = start + wcet.dur;
        if !wcet.dur.is_zero() {
            if RECORD {
                bufs.operator_items[chosen.0].push(ScheduledItem {
                    kind: ItemKind::Compute {
                        op: next,
                        function: index.fn_name(&wcet),
                        iteration: 0,
                    },
                    start,
                    end,
                });
            }
            makespan = makespan.max(end);
            ws.operator_free[chosen.0] = end;
        }
        ws.op_operator[next.0] = chosen.0 as u32;
        ws.finish[next.0] = end;
        for e in algo.out_edges(next) {
            let s = e.to.0;
            ws.remaining[s] -= 1;
            if ws.remaining[s] == 0 {
                let bl = index.bottom_level(e.to);
                ws.ready_push((bl, s));
            }
        }
        scheduled += 1;
    }

    Ok(makespan)
}

/// Run the scheduler core without recording: same decisions, same
/// commits, no `Schedule`/`Mapping`/`String` construction — only the
/// makespan comes back. With a reused [`EvalWorkspace`], the steady-state
/// loop performs zero heap allocations, which is what makes this the
/// inner oracle for outer search loops (annealing moves, design-space
/// sweeps) at 10k-operation scale.
///
/// Inputs are assumed validated — [`adequate_with_index`] is the checked
/// entry point and returns the same makespan.
pub fn evaluate_makespan(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
    index: &AdequationIndex,
    ws: &mut EvalWorkspace,
) -> Result<TimePs, AdequationError> {
    let mut bufs = RecordBufs::default();
    run_core::<false>(algo, arch, constraints, options, index, ws, &mut bufs)
}

/// Run the adequation: map and schedule one iteration of `algo` onto `arch`.
///
/// Building the index sorts the graph, so a cycle is the first error
/// reported, then the structural and constraints checks of
/// [`adequate_with_index`].
pub fn adequate(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
) -> Result<AdequationResult, AdequationError> {
    let index = AdequationIndex::build(algo, arch, chars)?;
    adequate_with_index(algo, arch, chars, constraints, options, &index)
}

/// Run the adequation against a caller-supplied [`AdequationIndex`].
///
/// The index is a pure function of `(algo, arch, chars)`, so services
/// scheduling many requests over the same models (`pdr-server`) build it
/// once and share it: the precomputation — dense WCET matrix, all-pairs
/// routes, bottom levels — dominates small-flow adequation time. Passing
/// an index built from *different* models is a logic error; results
/// would be inconsistent with the graphs being scheduled.
///
/// [`adequate`] is exactly this function with a freshly built index.
pub fn adequate_with_index(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    options: &AdequationOptions,
    index: &AdequationIndex,
) -> Result<AdequationResult, AdequationError> {
    // Building `index` sorted `algo`, so only the structural checks
    // remain.
    algo.validate_structure()?;
    constraints.validate()?;

    let mut ws = EvalWorkspace::new();
    let mut bufs = RecordBufs::default();
    let makespan = run_core::<true>(algo, arch, constraints, options, index, &mut ws, &mut bufs)?;

    // The mapping and the finish times take the core's per-id vectors as
    // they are; the schedule's B-trees are filled once, in id order, from
    // its buffers.
    let mapping = Mapping::from_dense(std::mem::take(&mut ws.op_operator));
    let mut schedule = Schedule::new();
    for (i, items) in bufs.operator_items.drain(..).enumerate() {
        if !items.is_empty() {
            schedule.operator_items.insert(OperatorId(i), items);
        }
    }
    for (i, items) in bufs.medium_items.drain(..).enumerate() {
        if !items.is_empty() {
            schedule.medium_items.insert(MediumId(i), items);
        }
    }

    schedule.validate()?;
    mapping.validate(algo, arch, chars, constraints)?;
    // The core's makespan is the latest end of any recorded item, which
    // is what `Schedule::makespan` would recompute.
    debug_assert_eq!(makespan, schedule.makespan());
    Ok(AdequationResult {
        mapping,
        schedule,
        makespan,
        finish_times: std::mem::take(&mut ws.finish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_graph::{paper, MediumKind, OperatorKind};

    fn paper_setup() -> (AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile) {
        (
            paper::mccdma_algorithm(),
            paper::sundance_architecture(),
            paper::mccdma_characterization(),
            paper::mccdma_constraints(),
        )
    }

    fn paper_options() -> AdequationOptions {
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static")
    }

    #[test]
    fn paper_case_study_maps_modulation_to_dynamic_region() {
        let (algo, arch, chars, cons) = paper_setup();
        let r = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        let modu = algo.by_name("modulation").unwrap();
        let opr = r.mapping.operator_of(modu).unwrap();
        assert_eq!(arch.operator(opr).name, "op_dyn");
        assert!(r.makespan > TimePs::ZERO);
        r.schedule.validate().unwrap();
    }

    #[test]
    fn datapath_blocks_land_on_fpga() {
        let (algo, arch, chars, cons) = paper_setup();
        let r = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        for name in ["ifft64", "spreading", "framing"] {
            let id = algo.by_name(name).unwrap();
            let opr = r.mapping.operator_of(id).unwrap();
            assert_eq!(
                arch.operator(opr).name,
                "fpga_static",
                "{name} should prefer the FPGA (10-100x faster than the DSP)"
            );
        }
    }

    #[test]
    fn pinned_sources_stay_pinned() {
        let (algo, arch, chars, cons) = paper_setup();
        let r = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        let sel = algo.by_name("select").unwrap();
        assert_eq!(
            arch.operator(r.mapping.operator_of(sel).unwrap()).name,
            "dsp"
        );
    }

    #[test]
    fn precedence_is_respected() {
        let (algo, arch, chars, cons) = paper_setup();
        let r = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        for e in algo.edges() {
            assert!(
                r.finish_times[e.from.0] <= r.finish_times[e.to.0],
                "edge {} -> {} violates precedence",
                algo.op(e.from).name,
                algo.op(e.to).name
            );
        }
    }

    #[test]
    fn unmappable_function_errors() {
        let (mut algo, arch, chars, cons) = paper_setup();
        // An operation with a function nobody implements.
        let ghost = algo.add_compute("ghost_fn").unwrap();
        let fec = algo.by_name("fec_conv").unwrap();
        let sink = algo.by_name("interface_out").unwrap();
        algo.connect(fec, ghost, 8).unwrap();
        algo.connect(ghost, sink, 8).unwrap();
        let err = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap_err();
        assert!(matches!(err, AdequationError::Unmappable { .. }));
    }

    #[test]
    fn reconfig_aware_avoids_dynamic_region_under_high_switching() {
        // With near-certain switching each iteration, the expected 4 ms
        // penalty dwarfs the µs compute gain: the aware heuristic keeps
        // modulation on the static FPGA (when constraints allow), while the
        // oblivious one happily uses op_dyn.
        let (algo, arch, chars, _) = paper_setup();
        let free = ConstraintsFile::new(); // no region pin
        let aware = AdequationOptions {
            reconfig_aware: true,
            switch_probability: 0.9,
            ..paper_options()
        };
        let oblivious = AdequationOptions {
            reconfig_aware: false,
            ..paper_options()
        };
        let modu = algo.by_name("modulation").unwrap();
        let r_aware = adequate(&algo, &arch, &chars, &free, &aware).unwrap();
        let r_obl = adequate(&algo, &arch, &chars, &free, &oblivious).unwrap();
        let name_of = |r: &AdequationResult| {
            arch.operator(r.mapping.operator_of(modu).unwrap())
                .name
                .clone()
        };
        assert_ne!(
            name_of(&r_aware),
            "op_dyn",
            "aware heuristic must avoid the dynamic region at 90% switch rate"
        );
        // The oblivious heuristic sees identical WCETs on both FPGA operators
        // and picks deterministically; it must not be *repelled* by the
        // reconfiguration cost it ignores.
        assert!(["op_dyn", "fpga_static"].contains(&name_of(&r_obl).as_str()));
    }

    #[test]
    fn single_operator_architecture_serializes_everything() {
        let mut arch = ArchGraph::new("mono");
        arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        let mut algo = AlgorithmGraph::new("chain");
        let s = algo.add_op("s", pdr_graph::OpKind::Source).unwrap();
        let a = algo.add_compute("a").unwrap();
        let b = algo.add_compute("b").unwrap();
        let k = algo.add_op("k", pdr_graph::OpKind::Sink).unwrap();
        algo.connect(s, a, 8).unwrap();
        algo.connect(s, b, 8).unwrap();
        algo.connect(a, k, 8).unwrap();
        algo.connect(b, k, 8).unwrap();
        let mut chars = Characterization::new();
        chars.set_duration("a", "cpu", TimePs::from_us(10));
        chars.set_duration("b", "cpu", TimePs::from_us(10));
        let r = adequate(
            &algo,
            &arch,
            &chars,
            &ConstraintsFile::new(),
            &AdequationOptions::default(),
        )
        .unwrap();
        // a and b cannot overlap on one operator: makespan = 20 us.
        assert_eq!(r.makespan, TimePs::from_us(20));
    }

    #[test]
    fn parallel_operators_overlap_independent_work() {
        let mut arch = ArchGraph::new("dual");
        let c1 = arch.add_operator("cpu1", OperatorKind::Processor).unwrap();
        let c2 = arch.add_operator("cpu2", OperatorKind::Processor).unwrap();
        let m = arch
            .add_medium("bus", MediumKind::Bus, 1_000_000_000, TimePs::ZERO)
            .unwrap();
        arch.link(c1, m).unwrap();
        arch.link(c2, m).unwrap();
        let mut algo = AlgorithmGraph::new("fork");
        let s = algo.add_op("s", pdr_graph::OpKind::Source).unwrap();
        let a = algo.add_compute("a").unwrap();
        let b = algo.add_compute("b").unwrap();
        let k = algo.add_op("k", pdr_graph::OpKind::Sink).unwrap();
        algo.connect(s, a, 8).unwrap();
        algo.connect(s, b, 8).unwrap();
        algo.connect(a, k, 8).unwrap();
        algo.connect(b, k, 8).unwrap();
        let mut chars = Characterization::new();
        for f in ["a", "b"] {
            chars.set_duration(f, "cpu1", TimePs::from_us(10));
            chars.set_duration(f, "cpu2", TimePs::from_us(10));
        }
        let r = adequate(
            &algo,
            &arch,
            &chars,
            &ConstraintsFile::new(),
            &AdequationOptions::default(),
        )
        .unwrap();
        // Transfers are nanoseconds; a and b overlap on two CPUs.
        assert!(r.makespan < TimePs::from_us(12), "makespan {}", r.makespan);
    }

    #[test]
    fn deterministic_output() {
        let (algo, arch, chars, cons) = paper_setup();
        let r1 = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        let r2 = adequate(&algo, &arch, &chars, &cons, &paper_options()).unwrap();
        assert_eq!(r1.mapping, r2.mapping);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.schedule, r2.schedule);
    }

    #[test]
    fn bad_pin_name_errors() {
        let (algo, arch, chars, cons) = paper_setup();
        let opts = AdequationOptions::default().pin("no_such_op", "dsp");
        assert!(adequate(&algo, &arch, &chars, &cons, &opts).is_err());
        let opts = AdequationOptions::default().pin("select", "no_such_operator");
        assert!(adequate(&algo, &arch, &chars, &cons, &opts).is_err());
    }
}
