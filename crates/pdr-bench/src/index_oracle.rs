//! The per-cell string-probe index build, kept as the oracle for
//! [`AdequationIndex::build`].
//!
//! This is the first index build, verbatim in what it computes: one
//! `Characterization::duration` probe per (operation, operator, function)
//! and one `reconfig_time` probe per (conditioned operation, operator,
//! function), straight off the string-keyed maps. The production build
//! interns function symbols and probes each (function, operator) pair
//! once; [`IndexTables::of`] reads its result back through the public
//! accessors so the two compare with `==`. The [`scale`](crate::scale)
//! study also times this build as the baseline of its speedup floors.

use pdr_adequation::{AdequationError, AdequationIndex};
use pdr_fabric::TimePs;
use pdr_graph::prelude::*;

/// One WCET cell: worst duration, then the first-max function index
/// (`None` for sources and sinks); `None` when infeasible.
pub type WcetCell = Option<(TimePs, Option<usize>)>;

/// Every table an [`AdequationIndex`] holds, as plain row-major vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexTables {
    /// Operator count (the row width of the per-operation tables).
    pub n_oprs: usize,
    /// `n_ops × n_oprs` WCET cells.
    pub wcet: Vec<WcetCell>,
    /// `n_oprs × n_oprs` routes, row-major by source.
    pub routes: Vec<Option<Route>>,
    /// Topological order of the operations.
    pub topo: Vec<OpId>,
    /// Critical-path bottom level per operation.
    pub bottom_levels: Vec<TimePs>,
    /// `n_ops × n_oprs` worst reconfiguration times (zero for
    /// unconditioned operations).
    pub reconfig_worst: Vec<TimePs>,
    /// Per operator: runtime-reconfigurable?
    pub dynamic: Vec<bool>,
    /// Per operation: conditioned?
    pub conditioned: Vec<bool>,
}

impl IndexTables {
    /// Read `index` back through its public accessors.
    pub fn of(index: &AdequationIndex) -> Self {
        let n_ops = index.topo().len();
        let n_oprs = index.operator_count();
        let ops = || (0..n_ops).map(OpId);
        let oprs = || (0..n_oprs).map(OperatorId);
        IndexTables {
            n_oprs,
            wcet: ops()
                .flat_map(|op| index.wcet_row(op))
                .map(|c| c.map(|e| (e.dur, e.first_fn())))
                .collect(),
            routes: index.route_table().to_vec(),
            topo: index.topo().to_vec(),
            bottom_levels: ops().map(|op| index.bottom_level(op)).collect(),
            reconfig_worst: ops()
                .flat_map(|op| oprs().map(move |opr| index.reconfig_worst(op, opr)))
                .collect(),
            dynamic: oprs().map(|opr| index.is_dynamic(opr)).collect(),
            conditioned: ops().map(|op| index.is_conditioned(op)).collect(),
        }
    }
}

/// Build every table with per-cell string probes. Fails on a cyclic
/// algorithm graph, like [`AdequationIndex::build`].
pub fn build(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<IndexTables, AdequationError> {
    let n_ops = algo.len();
    let n_oprs = arch.operator_count();

    let mut wcet = Vec::with_capacity(n_ops * n_oprs);
    for (_, op) in algo.ops() {
        for (_, o) in arch.operators() {
            wcet.push(wcet_cell(op.kind.functions(), &o.name, chars));
        }
    }

    let mut routes = Vec::with_capacity(n_oprs * n_oprs);
    for (from, _) in arch.operators() {
        routes.extend(arch.routes_from(from));
    }

    let topo = algo.topo_order()?;

    let mut bottom_levels = vec![TimePs::ZERO; n_ops];
    for &id in topo.iter().rev() {
        let best = wcet[id.0 * n_oprs..(id.0 + 1) * n_oprs]
            .iter()
            .filter_map(|c| c.map(|(dur, _)| dur))
            .min()
            .unwrap_or(TimePs::ZERO);
        let succ_max = algo
            .out_edges(id)
            .map(|e| bottom_levels[e.to.0])
            .max()
            .unwrap_or(TimePs::ZERO);
        bottom_levels[id.0] = best + succ_max;
    }

    let mut reconfig_worst = vec![TimePs::ZERO; n_ops * n_oprs];
    for (id, op) in algo.ops() {
        if !op.kind.is_conditioned() {
            continue;
        }
        for (opr, o) in arch.operators() {
            reconfig_worst[id.0 * n_oprs + opr.0] = op
                .kind
                .functions()
                .iter()
                .filter_map(|f| chars.reconfig_time(f, &o.name).ok())
                .max()
                .unwrap_or(TimePs::ZERO);
        }
    }

    Ok(IndexTables {
        n_oprs,
        wcet,
        routes,
        topo,
        bottom_levels,
        reconfig_worst,
        dynamic: arch.operators().map(|(_, o)| o.kind.is_dynamic()).collect(),
        conditioned: algo.ops().map(|(_, o)| o.kind.is_conditioned()).collect(),
    })
}

/// Max duration over `funcs` on `operator`, with the first function index
/// reaching it (strict `>` update); infeasible as soon as one function is.
fn wcet_cell(funcs: &[String], operator: &str, chars: &Characterization) -> WcetCell {
    if funcs.is_empty() {
        return Some((TimePs::ZERO, None));
    }
    let mut cell: WcetCell = None;
    for (i, f) in funcs.iter().enumerate() {
        let d = chars.duration(f, operator)?;
        cell = Some(match cell {
            Some((dur, first)) if d <= dur => (dur, first),
            _ => (d, Some(i)),
        });
    }
    cell
}

/// The annealing scheduler's WCET tie-break, which the production index
/// does not keep: the index of the *last* of `funcs` reaching the max
/// duration on `operator` (`>=` update). `None` for sources and sinks,
/// which have no functions, and when a function is infeasible there.
pub fn last_max_fn(funcs: &[String], operator: &str, chars: &Characterization) -> Option<usize> {
    let mut last: Option<(TimePs, usize)> = None;
    for (i, f) in funcs.iter().enumerate() {
        let d = chars.duration(f, operator)?;
        if last.is_none_or(|(dur, _)| d >= dur) {
            last = Some((d, i));
        }
    }
    last.map(|(_, i)| i)
}
