//! Multi-iteration trace scheduling with reconfiguration and prefetching.
//!
//! The algorithm graph is "infinitely repeated" (§3); what distinguishes a
//! runtime-reconfigurable implementation is what happens *between*
//! iterations when a conditioned operation changes alternative: on a dynamic
//! operator the region must be reconfigured before the new alternative can
//! execute. This module schedules a finite window of iterations against a
//! concrete *selector trace* (e.g. the per-OFDM-symbol modulation choices of
//! the paper's §6 system) and produces:
//!
//! * a full [`Schedule`] with `Reconfigure` items inserted where needed;
//! * [`TraceStats`] — reconfiguration counts, region-blocked time, and the
//!   *stall*: latency added to computations because a reconfiguration was on
//!   their critical path. Stall is the quantity the paper's prefetching aims
//!   to minimize.
//!
//! ## Reconfiguration model
//!
//! A reconfiguration is split ([`ReconfigSplit`]) into a **fetch** leg
//! (reading the bitstream from external memory into the protocol builder's
//! staging buffer) and a **load** leg (streaming it through ICAP into the
//! region). Without prefetching, the manager only learns the next
//! configuration when the selector value *arrives at the dynamic block*, and
//! both legs serialize on the region from that instant — the paper's ≈ 4 ms.
//! With prefetching, the manager observes the selector at its *source* (the
//! DSP produces `Select` at iteration start) and begins fetching
//! immediately; only the load leg ever blocks the region, and it starts as
//! soon as both the region is idle and the staging buffer is full.

use crate::error::AdequationError;
use crate::mapping::Mapping;
use crate::schedule::{ItemKind, Schedule, ScheduledItem};
use pdr_fabric::TimePs;
use pdr_graph::constraints::LoadPolicy;
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, GraphError, MediumId, OpId,
    OpKind, OperatorId, Route,
};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Fetch/load decomposition of a reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReconfigSplit {
    /// External-memory fetch leg (prefetchable).
    pub fetch: TimePs,
    /// Configuration-port load leg (always blocks the region).
    pub load: TimePs,
}

/// Fraction of each reconfiguration spent on the memory fetch leg. The
/// paper-calibrated port chain is memory-limited: 3 of its 4 ms.
const FETCH_FRACTION: f64 = 0.75;

impl ReconfigSplit {
    /// Split a total reconfiguration time: three quarters of it are the
    /// memory-fetch leg.
    pub fn from_total(total: TimePs) -> Self {
        let fetch = TimePs::from_ps((total.as_ps() as f64 * FETCH_FRACTION).round() as u64);
        ReconfigSplit {
            fetch,
            load: total - fetch,
        }
    }

    /// Total request-to-ready time when nothing is overlapped.
    pub fn total(&self) -> TimePs {
        self.fetch + self.load
    }
}

/// Options of the trace scheduler.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceOptions {
    /// Enable configuration prefetching.
    pub prefetch: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions { prefetch: true }
    }
}

impl TraceOptions {
    /// The non-prefetching baseline.
    pub fn no_prefetch() -> Self {
        TraceOptions { prefetch: false }
    }
}

/// Selector values for one conditioned operation across the window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SelectorEntry {
    /// The operation producing the selector value (must be a predecessor of
    /// the conditioned operation).
    pub source: OpId,
    /// Alternative index per iteration.
    pub values: Vec<usize>,
}

/// Selector traces for all conditioned operations of the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SelectorTrace {
    /// Per conditioned operation.
    pub entries: BTreeMap<OpId, SelectorEntry>,
}

impl SelectorTrace {
    /// Build a single-conditioned-op trace (the common case).
    pub fn single(cond: OpId, source: OpId, values: Vec<usize>) -> Self {
        let mut entries = BTreeMap::new();
        entries.insert(cond, SelectorEntry { source, values });
        SelectorTrace { entries }
    }

    /// Window length (zero when empty; all entries must agree, checked by
    /// [`schedule_trace`]).
    pub fn iterations(&self) -> usize {
        self.entries
            .values()
            .map(|e| e.values.len())
            .max()
            .unwrap_or(0)
    }
}

/// Aggregate statistics of a trace schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceStats {
    /// Iterations scheduled.
    pub iterations: u32,
    /// Reconfigurations performed.
    pub reconfigurations: usize,
    /// Reconfigurations whose fetch leg was fully overlapped.
    pub prefetched: usize,
    /// Total time dynamic regions were blocked by reconfiguration items.
    pub region_blocked: TimePs,
    /// Total latency added to computations by reconfigurations on their
    /// critical path (the prefetching target metric).
    pub stall: TimePs,
    /// End of the last item.
    pub makespan: TimePs,
}

impl TraceStats {
    /// Average iteration period (makespan / iterations).
    pub fn avg_period(&self) -> TimePs {
        if self.iterations == 0 {
            TimePs::ZERO
        } else {
            self.makespan / self.iterations as u64
        }
    }

    /// Iterations per second achieved over the window.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.iterations as f64 / self.makespan.as_secs_f64()
        }
    }
}

/// Output of [`schedule_trace`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceResult {
    /// The multi-iteration schedule.
    pub schedule: Schedule,
    /// Aggregate statistics.
    pub stats: TraceStats,
    /// (iteration, function) pairs in the order configurations were loaded.
    pub load_sequence: Vec<(u32, String)>,
}

/// Schedule `iterations` of `algo` on `arch` under `mapping`, following the
/// selector trace, inserting reconfigurations and (optionally) prefetching.
#[allow(clippy::too_many_arguments)]
pub fn schedule_trace(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
    mapping: &Mapping,
    selectors: &SelectorTrace,
    options: &TraceOptions,
) -> Result<TraceResult, AdequationError> {
    algo.validate()?;
    mapping.validate(algo, arch, chars, constraints)?;
    let iterations = selectors.iterations();
    // Validate selector entries.
    for (&cond, entry) in &selectors.entries {
        let op = algo.op(cond);
        let n_alt = op.kind.functions().len();
        if !op.kind.is_conditioned() {
            return Err(AdequationError::ConstraintConflict(format!(
                "selector trace given for non-conditioned operation `{}`",
                op.name
            )));
        }
        if entry.values.len() != iterations {
            return Err(AdequationError::ConstraintConflict(format!(
                "selector trace for `{}` has {} values, window is {iterations}",
                op.name,
                entry.values.len()
            )));
        }
        if !algo.predecessors(cond).contains(&entry.source) {
            return Err(AdequationError::ConstraintConflict(format!(
                "selector source `{}` is not a predecessor of `{}`",
                algo.op(entry.source).name,
                op.name
            )));
        }
        if let Some(&v) = entry.values.iter().find(|&&v| v >= n_alt) {
            return Err(AdequationError::BadSelector {
                operation: op.name.clone(),
                value: v,
                alternatives: n_alt,
            });
        }
    }
    // Every conditioned op on a dynamic operator needs a trace.
    for cond in algo.conditioned_ops() {
        let opr = mapping.operator_of(cond).expect("validated mapping");
        if arch.operator(opr).kind.is_dynamic() && !selectors.entries.contains_key(&cond) {
            return Err(AdequationError::ConstraintConflict(format!(
                "conditioned operation `{}` is on a dynamic operator but has no selector trace",
                algo.op(cond).name
            )));
        }
    }

    let order = algo.topo_order()?;
    // All-pairs route table, computed once instead of one BFS per edge per
    // iteration (routes_from yields routes identical to pairwise queries).
    let routes: Vec<Vec<Option<Route>>> = arch
        .operators()
        .map(|(from, _)| arch.routes_from(from))
        .collect();
    let mut schedule = Schedule::new();
    let mut operator_free: HashMap<OperatorId, TimePs> = HashMap::new();
    let mut medium_free: HashMap<MediumId, TimePs> = HashMap::new();
    // Currently loaded configuration per dynamic operator.
    let mut loaded: HashMap<OperatorId, Option<String>> = HashMap::new();
    for (id, o) in arch.operators() {
        if o.kind.is_dynamic() {
            // LoadPolicy::AtStart modules are resident from power-up.
            let preloaded = constraints
                .modules_in_region(&o.name)
                .into_iter()
                .find(|m| m.load == LoadPolicy::AtStart)
                .map(|m| m.module.clone());
            loaded.insert(id, preloaded);
        }
    }

    let mut stats = TraceStats {
        iterations: iterations as u32,
        reconfigurations: 0,
        prefetched: 0,
        region_blocked: TimePs::ZERO,
        stall: TimePs::ZERO,
        makespan: TimePs::ZERO,
    };
    let mut load_sequence = Vec::new();
    let mut finish: HashMap<(u32, OpId), TimePs> = HashMap::new();

    for it in 0..iterations as u32 {
        for &id in &order {
            let op = algo.op(id);
            let opr = mapping.operator_of(id).expect("validated mapping");
            let opr_name = arch.operator(opr).name.clone();

            // Active function this iteration.
            let function: Option<String> = match &op.kind {
                OpKind::Source | OpKind::Sink => None,
                OpKind::Compute { function } => Some(function.clone()),
                OpKind::Conditioned { alternatives } => {
                    let sel = selectors
                        .entries
                        .get(&id)
                        .map(|e| e.values[it as usize])
                        .unwrap_or(0);
                    Some(alternatives[sel].clone())
                }
            };
            let duration = match &function {
                Some(f) => {
                    chars
                        .duration(f, &opr_name)
                        .ok_or_else(|| AdequationError::Unmappable {
                            operation: op.name.clone(),
                            reason: format!("`{f}` infeasible on `{opr_name}`"),
                        })?
                }
                None => TimePs::ZERO,
            };

            // Incoming transfers (reserve media). Track the selector edge's
            // arrival separately: it is the no-prefetch request instant.
            let mut data_ready = TimePs::ZERO;
            let mut selector_arrival = TimePs::ZERO;
            let selector_source = selectors.entries.get(&id).map(|e| e.source);
            for e in algo.in_edges(id) {
                let src_opr = mapping.operator_of(e.from).expect("validated");
                let route = routes[src_opr.0][opr.0].as_ref().ok_or_else(|| {
                    AdequationError::Graph(GraphError::NoRoute {
                        from: arch.operator(src_opr).name.clone(),
                        to: arch.operator(opr).name.clone(),
                    })
                })?;
                let mut t = finish[&(it, e.from)];
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
                                iteration: it,
                            },
                            start,
                            end,
                        },
                    );
                    medium_free.insert(m, end);
                    t = end;
                }
                data_ready = data_ready.max(t);
                if selector_source == Some(e.from) {
                    selector_arrival = t;
                }
            }

            let region_free = operator_free.get(&opr).copied().unwrap_or(TimePs::ZERO);
            // The start the computation would have without any
            // reconfiguration — the stall baseline.
            let ideal_start = data_ready.max(region_free);
            let mut start = ideal_start;

            // Reconfiguration?
            if let Some(f) = &function {
                let is_dynamic = arch.operator(opr).kind.is_dynamic();
                if is_dynamic && loaded.get(&opr).map(|l| l.as_deref()) != Some(Some(f.as_str())) {
                    let total = chars.reconfig_time(f, &opr_name)?;
                    let split = ReconfigSplit::from_total(total);
                    let (rc_start, rc_end, prefetched) = if options.prefetch {
                        // Fetch begins when the selector value is *produced*
                        // at its source (the manager observes it there); for
                        // non-selected loads (first touch) fetch begins at
                        // time zero of the window.
                        let known_at = selector_source
                            .map(|s| finish[&(it, s)])
                            .unwrap_or(TimePs::ZERO);
                        let staged = known_at + split.fetch;
                        let rc_start = region_free.max(staged);
                        let rc_end = rc_start + split.load;
                        (rc_start, rc_end, staged <= region_free)
                    } else {
                        // Request issued when the selector value arrives at
                        // the block (§6: "block modulation sends a
                        // reconfiguration request"); both legs serialize.
                        let rc_start = region_free.max(selector_arrival);
                        (rc_start, rc_start + split.total(), false)
                    };
                    schedule.push_operator_item(
                        opr,
                        ScheduledItem {
                            kind: ItemKind::Reconfigure {
                                function: f.as_str().into(),
                                iteration: it,
                                prefetched,
                            },
                            start: rc_start,
                            end: rc_end,
                        },
                    );
                    stats.reconfigurations += 1;
                    if prefetched {
                        stats.prefetched += 1;
                    }
                    stats.region_blocked += rc_end - rc_start;
                    loaded.insert(opr, Some(f.clone()));
                    load_sequence.push((it, f.clone()));
                    start = data_ready.max(rc_end);
                    stats.stall += start.saturating_sub(ideal_start);
                }
            }

            let end = start + duration;
            if !duration.is_zero() {
                schedule.push_operator_item(
                    opr,
                    ScheduledItem {
                        kind: ItemKind::Compute {
                            op: id,
                            function: function.as_deref().unwrap_or_default().into(),
                            iteration: it,
                        },
                        start,
                        end,
                    },
                );
                operator_free.insert(opr, end);
            }
            // Interface events (sources/sinks) occupy no operator time.
            finish.insert((it, id), end);
        }
    }

    schedule.validate()?;
    stats.makespan = schedule.makespan();
    Ok(TraceResult {
        schedule,
        stats,
        load_sequence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{adequate, AdequationOptions};
    use pdr_graph::paper;

    fn paper_setup() -> (
        AlgorithmGraph,
        ArchGraph,
        Characterization,
        ConstraintsFile,
        Mapping,
    ) {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        (algo, arch, chars, cons, r.mapping)
    }

    fn trace_of(algo: &AlgorithmGraph, values: Vec<usize>) -> SelectorTrace {
        let cond = algo.by_name("modulation").unwrap();
        let sel = algo.by_name("select").unwrap();
        SelectorTrace::single(cond, sel, values)
    }

    #[test]
    fn constant_selector_never_reconfigures_after_preload() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        // mod_qpsk (alternative 0) is LoadPolicy::AtStart: already resident.
        let t = trace_of(&algo, vec![0; 16]);
        let r = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &t,
            &TraceOptions::no_prefetch(),
        )
        .unwrap();
        assert_eq!(r.stats.reconfigurations, 0);
        assert_eq!(r.stats.stall, TimePs::ZERO);
        assert_eq!(r.stats.iterations, 16);
        assert!(r.stats.makespan > TimePs::ZERO);
    }

    #[test]
    fn each_switch_costs_one_reconfiguration() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        // 0,1,0,1,... : 7 switches after the preloaded 0.
        let vals: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let r = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vals),
            &TraceOptions::no_prefetch(),
        )
        .unwrap();
        assert_eq!(r.stats.reconfigurations, 7);
        assert_eq!(r.stats.prefetched, 0);
        assert!(r.stats.stall > TimePs::ZERO);
        // Each un-prefetched reconfiguration blocks the region ~4 ms.
        let ms = r.stats.region_blocked.as_millis_f64();
        assert!((ms - 7.0 * 4.0).abs() < 0.5, "blocked {ms} ms");
    }

    #[test]
    fn prefetch_reduces_stall() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let vals: Vec<usize> = (0..16).map(|i| (i / 4) % 2).collect();
        let base = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vals.clone()),
            &TraceOptions::no_prefetch(),
        )
        .unwrap();
        let pf = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vals),
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(base.stats.reconfigurations, pf.stats.reconfigurations);
        assert!(
            pf.stats.stall < base.stats.stall,
            "prefetch {} !< baseline {}",
            pf.stats.stall,
            base.stats.stall
        );
        assert!(pf.stats.makespan < base.stats.makespan);
        // The load leg is 25% of the total: region-blocked time shrinks
        // accordingly.
        assert!(pf.stats.region_blocked < base.stats.region_blocked);
    }

    #[test]
    fn load_sequence_matches_switches() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let r = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vec![0, 1, 1, 0]),
            &TraceOptions::default(),
        )
        .unwrap();
        let fns: Vec<&str> = r.load_sequence.iter().map(|(_, f)| f.as_str()).collect();
        assert_eq!(fns, ["mod_qam16", "mod_qpsk"]);
        assert_eq!(r.load_sequence[0].0, 1);
        assert_eq!(r.load_sequence[1].0, 3);
    }

    #[test]
    fn selector_out_of_range_rejected() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let err = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vec![0, 2]),
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AdequationError::BadSelector { .. }));
    }

    #[test]
    fn missing_trace_for_dynamic_conditioned_rejected() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let err = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &SelectorTrace::default(),
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("selector trace"));
    }

    #[test]
    fn wrong_selector_source_rejected() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let cond = algo.by_name("modulation").unwrap();
        let not_pred = algo.by_name("ifft64").unwrap();
        let t = SelectorTrace::single(cond, not_pred, vec![0, 1]);
        let err = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &t,
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a predecessor"));
    }

    #[test]
    fn split_arithmetic() {
        let s = ReconfigSplit::from_total(TimePs::from_ms(4));
        assert_eq!(s.fetch, TimePs::from_ms(3));
        assert_eq!(s.load, TimePs::from_ms(1));
        assert_eq!(s.total(), TimePs::from_ms(4));
    }

    #[test]
    fn stats_throughput_and_period() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let r = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vec![0; 10]),
            &TraceOptions::default(),
        )
        .unwrap();
        let p = r.stats.avg_period();
        assert!(p > TimePs::ZERO);
        let tput = r.stats.throughput_per_sec();
        assert!((tput - 10.0 / r.stats.makespan.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn schedule_is_deterministic() {
        let (algo, arch, chars, cons, mapping) = paper_setup();
        let vals: Vec<usize> = (0..12).map(|i| (i / 3) % 2).collect();
        let a = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vals.clone()),
            &TraceOptions::default(),
        )
        .unwrap();
        let b = schedule_trace(
            &algo,
            &arch,
            &chars,
            &cons,
            &mapping,
            &trace_of(&algo, vals),
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }
}
