//! `AdequationIndex` — the precomputation layer behind the fast scheduler.
//!
//! The adequation inner loops probe four things over and over: the WCET of
//! an operation on a candidate operator (a max over function symbols, each
//! a string-keyed characterization lookup), the media route between two
//! operators (a BFS in the seed), the graph neighbourhoods, and the
//! critical-path bottom levels. All four are functions of the *inputs*
//! only — not of scheduling state — so one pass can compute them into
//! dense, index-addressed tables:
//!
//! * a **WCET matrix** (`n_ops × n_operators`): per cell the worst-case
//!   duration plus which function symbol attains it, under both tie-break
//!   conventions the crate uses (see [`WcetEntry`]);
//! * an **all-pairs route table** (`n_operators × n_operators`): one full
//!   BFS per operator via [`ArchGraph::routes_from`], yielding routes
//!   identical to the pairwise [`ArchGraph::route`] queries;
//! * the **topological order** and per-operation **bottom levels** (the
//!   list scheduler's priority function);
//! * the worst **reconfiguration time** per (conditioned op, operator),
//!   feeding the expected-penalty term of the reconfiguration-aware cost
//!   model;
//! * one shared **name** (`Arc<str>`) per function symbol, which every
//!   scheduled item of that function clones as a pointer.
//!
//! The build is sequential and probes the characterization once per
//! distinct *(function symbol, operator)* pair, not once per operation:
//! generated flows run thousands of operations over a few dozen symbols.
//!
//! The index is built once per `adequate()` call and once per run of
//! `pdr-bench`'s annealing ablation (shared across all moves). Everything
//! it returns is what the pre-index code computed on the fly —
//! `tests/adequation_equivalence.rs`
//! holds the tables to `pdr-bench`'s per-cell string-probe oracle
//! (`index_oracle`) and the schedules to the pre-index path, and
//! `pdr-bench`'s `adequation_perf` and `scale` studies repeat both checks
//! on every gallery and generated flow.

use crate::error::AdequationError;
use pdr_fabric::TimePs;
use pdr_graph::{AlgorithmGraph, ArchGraph, Characterization, OpId, OperatorId, Route};
use std::sync::Arc;

/// Sentinel function index for operations with no function symbols
/// (sources and sinks): they cost zero everywhere and schedule items never
/// name a function for them.
const NO_FN: u32 = u32::MAX;

/// One cell of the WCET matrix: the worst-case duration of an operation on
/// an operator, and which of the operation's functions attains it — the
/// *first* one reaching the max (strict `>` update), the greedy
/// heuristic's `wcet_on` tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcetEntry {
    /// Worst-case duration across the operation's functions.
    pub dur: TimePs,
    /// Index (into `op.kind.functions()`) of the first function attaining
    /// `dur`; `NO_FN` for sources/sinks.
    first_fn: u32,
    /// Dense id of that function (its slot in the index's name table);
    /// `NO_FN` for sources/sinks.
    fn_id: u32,
}

impl WcetEntry {
    /// Function index under the greedy heuristic's first-max convention.
    pub fn first_fn(&self) -> Option<usize> {
        (self.first_fn != NO_FN).then_some(self.first_fn as usize)
    }
}

/// Precomputed tables shared by the indexed schedulers. Borrowing nothing:
/// build once, use against the same `(algo, arch, chars)` triple.
#[derive(Debug, Clone, PartialEq)]
pub struct AdequationIndex {
    n_oprs: usize,
    /// `n_ops × n_oprs`, row-major by operation: WCET or infeasibility.
    wcet: Vec<Option<WcetEntry>>,
    /// `n_oprs × n_oprs`, row-major by source: cached routes (`None` when
    /// unreachable).
    routes: Vec<Option<Route>>,
    /// Topological order of the operations.
    topo: Vec<OpId>,
    /// Critical-path bottom level per operation (indexed by `OpId`).
    bottom_levels: Vec<TimePs>,
    /// `n_ops × n_oprs`: worst reconfiguration time across the operation's
    /// functions (filled for conditioned operations only; zero elsewhere).
    reconfig_worst: Vec<TimePs>,
    /// Per operator: is it runtime-reconfigurable?
    dynamic: Vec<bool>,
    /// Per operation: is it conditioned?
    conditioned: Vec<bool>,
    /// Per dense function id: its name, shared by every scheduled item
    /// of the function.
    fn_names: Vec<Arc<str>>,
}

impl AdequationIndex {
    /// Build every table. Fails only on a cyclic algorithm graph (the
    /// topological sort propagates the same
    /// [`pdr_graph::GraphError::Cycle`] the pre-index path produced).
    ///
    /// Operations sharing a function symbol share its characterization:
    /// each distinct function gets a dense id (through the graph's
    /// interner), `chars.duration` is probed once per (function,
    /// operator) and `chars.reconfig_time` once per (function of a
    /// conditioned operation, operator), and the per-operation rows are
    /// filled from those dense tables.
    pub fn build(
        algo: &AlgorithmGraph,
        arch: &ArchGraph,
        chars: &Characterization,
    ) -> Result<Self, AdequationError> {
        let n_ops = algo.len();
        let n_oprs = arch.operator_count();
        let topo = algo.topo_order()?;
        let conditioned: Vec<bool> = algo.ops().map(|(_, o)| o.kind.is_conditioned()).collect();

        // Dense function ids in first-use order. CSR layout: the ids of
        // operation `i` live at `fns_flat[fns_off[i]..fns_off[i + 1]]`.
        let symbols = algo.symbols();
        let mut dense_of_sym = vec![NO_FN; symbols.len()];
        let mut fn_names: Vec<&str> = Vec::new();
        // Per dense id: is it a function of some conditioned operation?
        let mut fn_conditioned: Vec<bool> = Vec::new();
        let mut fns_flat: Vec<u32> = Vec::with_capacity(n_ops);
        let mut fns_off: Vec<u32> = Vec::with_capacity(n_ops + 1);
        fns_off.push(0);
        for (id, _) in algo.ops() {
            for &f in algo.function_syms(id) {
                let dense = &mut dense_of_sym[f.sym().index()];
                if *dense == NO_FN {
                    *dense = fn_names.len() as u32;
                    fn_names.push(f.resolve(symbols));
                    fn_conditioned.push(false);
                }
                fn_conditioned[*dense as usize] |= conditioned[id.0];
                fns_flat.push(*dense);
            }
            fns_off.push(fns_flat.len() as u32);
        }

        // Dense (function × operator) probe tables: the last time these
        // string lookups happen. A `reconfig_time` miss allocates its
        // error text, so only conditioned operations' functions are
        // probed there.
        let opr_names: Vec<&str> = arch.operators().map(|(_, o)| o.name.as_str()).collect();
        let mut durations: Vec<Option<TimePs>> = Vec::with_capacity(fn_names.len() * n_oprs);
        let mut reconfigs: Vec<Option<TimePs>> = vec![None; fn_names.len() * n_oprs];
        for (f, name) in fn_names.iter().enumerate() {
            durations.extend(opr_names.iter().map(|o| chars.duration(name, o)));
            if fn_conditioned[f] {
                for (cell, o) in reconfigs[f * n_oprs..].iter_mut().zip(&opr_names) {
                    *cell = chars.reconfig_time(name, o).ok();
                }
            }
        }

        // WCET and reconfiguration rows, with each row's best feasible
        // duration (the bottom-level base) taken while the row is hot.
        let mut wcet: Vec<Option<WcetEntry>> = Vec::with_capacity(n_ops * n_oprs);
        let mut reconfig_worst = vec![TimePs::ZERO; n_ops * n_oprs];
        let mut row_best = vec![TimePs::ZERO; n_ops];
        for i in 0..n_ops {
            let fids = &fns_flat[fns_off[i] as usize..fns_off[i + 1] as usize];
            if let [f] = fids {
                // Single-function fast path (the common row shape): the
                // row is the function's probe row, verbatim.
                let base = *f as usize * n_oprs;
                wcet.extend(durations[base..base + n_oprs].iter().map(|d| {
                    d.map(|dur| WcetEntry {
                        dur,
                        first_fn: 0,
                        fn_id: *f,
                    })
                }));
            } else {
                wcet.extend((0..n_oprs).map(|opr| Self::wcet_cell(fids, opr, n_oprs, &durations)));
            }
            row_best[i] = wcet[i * n_oprs..(i + 1) * n_oprs]
                .iter()
                .filter_map(|c| c.as_ref().map(|e| e.dur))
                .min()
                .unwrap_or(TimePs::ZERO);
            if conditioned[i] {
                let row = &mut reconfig_worst[i * n_oprs..(i + 1) * n_oprs];
                for (opr, cell) in row.iter_mut().enumerate() {
                    *cell = fids
                        .iter()
                        .filter_map(|&f| reconfigs[f as usize * n_oprs + opr])
                        .max()
                        .unwrap_or(TimePs::ZERO);
                }
            }
        }

        // All-pairs route table: one full BFS per operator.
        let mut routes = Vec::with_capacity(n_oprs * n_oprs);
        for (from, _) in arch.operators() {
            routes.extend(arch.routes_from(from));
        }

        // Bottom levels: best-case duration plus the max successor level,
        // walked in reverse topological order.
        let mut bottom_levels = vec![TimePs::ZERO; n_ops];
        for &id in topo.iter().rev() {
            let succ_max = algo
                .out_edges(id)
                .map(|e| bottom_levels[e.to.0])
                .max()
                .unwrap_or(TimePs::ZERO);
            bottom_levels[id.0] = row_best[id.0] + succ_max;
        }

        let dynamic: Vec<bool> = arch.operators().map(|(_, o)| o.kind.is_dynamic()).collect();

        Ok(AdequationIndex {
            n_oprs,
            wcet,
            routes,
            topo,
            bottom_levels,
            reconfig_worst,
            dynamic,
            conditioned,
            fn_names: fn_names.into_iter().map(Arc::from).collect(),
        })
    }

    /// One WCET cell: max duration over the operation's functions (dense
    /// ids `fids`) on operator `opr`, tracking the first-max function
    /// index; `None` when any function is infeasible there (the seed's
    /// `wcet_on` semantics).
    fn wcet_cell(
        fids: &[u32],
        opr: usize,
        n_oprs: usize,
        durations: &[Option<TimePs>],
    ) -> Option<WcetEntry> {
        if fids.is_empty() {
            return Some(WcetEntry {
                dur: TimePs::ZERO,
                first_fn: NO_FN,
                fn_id: NO_FN,
            });
        }
        let mut entry: Option<WcetEntry> = None;
        for (i, &f) in fids.iter().enumerate() {
            let d = durations[f as usize * n_oprs + opr]?;
            match &mut entry {
                Some(e) if d <= e.dur => {}
                _ => {
                    entry = Some(WcetEntry {
                        dur: d,
                        first_fn: i as u32,
                        fn_id: f,
                    })
                }
            }
        }
        entry
    }

    /// Operator count the matrix was built for.
    pub fn operator_count(&self) -> usize {
        self.n_oprs
    }

    /// WCET cell of (operation, operator); `None` means infeasible.
    #[inline]
    pub fn wcet(&self, op: OpId, opr: OperatorId) -> Option<&WcetEntry> {
        self.wcet[op.0 * self.n_oprs + opr.0].as_ref()
    }

    /// The full WCET row of an operation (`n_oprs` cells, indexed by
    /// operator). Hot loops hoist the row once per operation instead of
    /// paying the row-base multiply per candidate probe.
    #[inline]
    pub fn wcet_row(&self, op: OpId) -> &[Option<WcetEntry>] {
        &self.wcet[op.0 * self.n_oprs..(op.0 + 1) * self.n_oprs]
    }

    /// Cached route between two operators (`None` when unreachable).
    #[inline]
    pub fn route(&self, from: OperatorId, to: OperatorId) -> Option<&Route> {
        self.routes[from.0 * self.n_oprs + to.0].as_ref()
    }

    /// The raw all-pairs route table, row-major by source operator
    /// (`n_oprs × n_oprs`). Hot loops hoist a source's row base
    /// (`src.0 * operator_count()`) once per operation and index the
    /// slice per candidate, instead of paying the multiply-and-lookup
    /// per probe.
    #[inline]
    pub fn route_table(&self) -> &[Option<Route>] {
        &self.routes
    }

    /// The topological order computed at build time.
    pub fn topo(&self) -> &[OpId] {
        &self.topo
    }

    /// Critical-path bottom level of an operation.
    #[inline]
    pub fn bottom_level(&self, op: OpId) -> TimePs {
        self.bottom_levels[op.0]
    }

    /// Worst reconfiguration time across the functions of a conditioned
    /// operation on an operator (zero for unconditioned operations).
    #[inline]
    pub fn reconfig_worst(&self, op: OpId, opr: OperatorId) -> TimePs {
        self.reconfig_worst[op.0 * self.n_oprs + opr.0]
    }

    /// Is the operator runtime-reconfigurable?
    #[inline]
    pub fn is_dynamic(&self, opr: OperatorId) -> bool {
        self.dynamic[opr.0]
    }

    /// Is the operation conditioned?
    #[inline]
    pub fn is_conditioned(&self, op: OpId) -> bool {
        self.conditioned[op.0]
    }

    /// The shared name of the function a WCET cell selects, for schedule
    /// items: a pointer clone, no allocation. Sources and sinks name no
    /// function and get a fresh empty name, as the seed produced (they
    /// take no operator time, so the schedulers never record one).
    pub fn fn_name(&self, entry: &WcetEntry) -> Arc<str> {
        match self.fn_names.get(entry.fn_id as usize) {
            Some(name) => name.clone(),
            None => Arc::from(""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_graph::{paper, GraphError, OpKind, OperatorKind};

    fn paper_index() -> (AlgorithmGraph, ArchGraph, Characterization, AdequationIndex) {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let index = AdequationIndex::build(&algo, &arch, &chars).unwrap();
        (algo, arch, chars, index)
    }

    #[test]
    fn matrix_agrees_with_direct_probes() {
        let (algo, arch, chars, index) = paper_index();
        for (id, op) in algo.ops() {
            for (opr, o) in arch.operators() {
                let direct: Option<TimePs> = if op.kind.functions().is_empty() {
                    Some(TimePs::ZERO)
                } else {
                    op.kind
                        .functions()
                        .iter()
                        .map(|f| chars.duration(f, &o.name))
                        .collect::<Option<Vec<_>>>()
                        .map(|ds| ds.into_iter().max().unwrap())
                };
                assert_eq!(index.wcet(id, opr).map(|e| e.dur), direct);
            }
        }
    }

    #[test]
    fn route_table_agrees_with_pairwise_bfs() {
        let (_, arch, _, index) = paper_index();
        for (a, _) in arch.operators() {
            for (b, _) in arch.operators() {
                assert_eq!(index.route(a, b), arch.route(a, b).ok().as_ref());
            }
        }
    }

    #[test]
    fn tie_break_tracks_the_first_max() {
        // Two alternatives with equal durations on one operator: first-max
        // must pick index 0.
        let mut algo = AlgorithmGraph::new("t");
        let s = algo.add_op("s", OpKind::Source).unwrap();
        let c = algo
            .add_op(
                "c",
                OpKind::Conditioned {
                    alternatives: vec!["f0".into(), "f1".into()],
                },
            )
            .unwrap();
        let k = algo.add_op("k", OpKind::Sink).unwrap();
        algo.connect(s, c, 8).unwrap();
        algo.connect(c, k, 8).unwrap();
        let mut arch = ArchGraph::new("t");
        let cpu = arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        let mut chars = Characterization::new();
        chars.set_duration("f0", "cpu", TimePs::from_us(5));
        chars.set_duration("f1", "cpu", TimePs::from_us(5));
        let index = AdequationIndex::build(&algo, &arch, &chars).unwrap();
        let e = index.wcet(c, cpu).unwrap();
        assert_eq!(e.first_fn(), Some(0));
        assert_eq!(&*index.fn_name(e), "f0");
        // Sources carry the sentinel.
        let se = index.wcet(s, cpu).unwrap();
        assert_eq!(se.first_fn(), None);
        assert_eq!(&*index.fn_name(se), "");
    }

    #[test]
    fn bottom_levels_match_reference_recursion() {
        let (algo, arch, chars, index) = paper_index();
        // Recompute with the pre-index recursion and compare.
        let order = algo.topo_order().unwrap();
        let mut bl = std::collections::HashMap::new();
        for &id in order.iter().rev() {
            let op = algo.op(id);
            let best = arch
                .operators()
                .filter_map(|(_, o)| {
                    if op.kind.functions().is_empty() {
                        Some(TimePs::ZERO)
                    } else {
                        op.kind
                            .functions()
                            .iter()
                            .map(|f| chars.duration(f, &o.name))
                            .collect::<Option<Vec<_>>>()
                            .map(|ds| ds.into_iter().max().unwrap())
                    }
                })
                .min()
                .unwrap_or(TimePs::ZERO);
            let succ_max = algo
                .successors(id)
                .into_iter()
                .map(|s| bl[&s])
                .max()
                .unwrap_or(TimePs::ZERO);
            bl.insert(id, best + succ_max);
        }
        for (id, _) in algo.ops() {
            assert_eq!(index.bottom_level(id), bl[&id], "{}", algo.op(id).name);
        }
    }

    #[test]
    fn conditioned_reconfig_worst_is_filled() {
        let (algo, arch, _, index) = paper_index();
        let modu = algo.by_name("modulation").unwrap();
        let dynop = arch.operator_by_name("op_dyn").unwrap();
        assert!(index.is_conditioned(modu));
        assert!(index.is_dynamic(dynop));
        assert!(index.reconfig_worst(modu, dynop) > TimePs::ZERO);
        let ifft = algo.by_name("ifft64").unwrap();
        assert_eq!(index.reconfig_worst(ifft, dynop), TimePs::ZERO);
    }

    #[test]
    fn cycle_propagates_build_error() {
        let mut algo = AlgorithmGraph::new("t");
        let a = algo.add_compute("a").unwrap();
        let b = algo.add_compute("b").unwrap();
        algo.connect(a, b, 8).unwrap();
        algo.connect(b, a, 8).unwrap();
        let arch = ArchGraph::new("t");
        let chars = Characterization::new();
        assert!(matches!(
            AdequationIndex::build(&algo, &arch, &chars),
            Err(AdequationError::Graph(GraphError::Cycle { .. }))
        ));
    }
}
