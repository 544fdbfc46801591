//! Algorithm data-flow graphs.
//!
//! §3 of the paper: *"Application algorithm is represented by a data flow
//! graph to exhibit the potential parallelism between operations. An
//! operation is executed as soon as its inputs are available, and is
//! infinitely repeated."*
//!
//! One [`AlgorithmGraph`] describes a single iteration of that infinite
//! repetition: a DAG of [`Operation`]s connected by [`DataEdge`]s carrying a
//! known number of bits. The paper's conditioned blocks (the adaptive
//! `modulation` operation, selected by `Select` per OFDM symbol) are modeled
//! by [`OpKind::Conditioned`], a vertex with several named *alternatives* —
//! each alternative being a distinct hardware configuration of whichever
//! dynamic operator the vertex is mapped onto.

use crate::error::GraphError;
use pdr_ir::SymbolTable;
use serde::Serialize;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Index of an operation within its [`AlgorithmGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct OpId(pub usize);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What an operation vertex is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum OpKind {
    /// External input of the iteration (sensor, host interface). Produces
    /// data, consumes none.
    Source,
    /// External output of the iteration. Consumes data, produces none.
    Sink,
    /// Ordinary computation implementing the named function.
    Compute {
        /// Function symbol looked up in the characterization tables.
        function: String,
    },
    /// A conditioned computation with several alternative implementations;
    /// exactly one is active per iteration, selected by the value arriving
    /// on the control input (which is an ordinary data edge from the
    /// selector operation).
    Conditioned {
        /// Alternative function symbols, in selector-value order: the
        /// selector value `k` activates `alternatives[k]`.
        alternatives: Vec<String>,
    },
}

impl OpKind {
    /// Function symbols this vertex may execute (one for `Compute`, several
    /// for `Conditioned`, none for sources/sinks).
    pub fn functions(&self) -> &[String] {
        match self {
            OpKind::Compute { function } => std::slice::from_ref(function),
            OpKind::Conditioned { alternatives } => alternatives,
            _ => &[],
        }
    }

    /// Is this a conditioned (multi-alternative) vertex?
    pub fn is_conditioned(&self) -> bool {
        matches!(self, OpKind::Conditioned { .. })
    }
}

/// One vertex of the algorithm graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Operation {
    /// Unique name within the graph.
    pub name: String,
    /// Vertex kind.
    pub kind: OpKind,
}

/// A data dependency: `bits` flow from `from` to `to` each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DataEdge {
    /// Producer operation.
    pub from: OpId,
    /// Consumer operation.
    pub to: OpId,
    /// Payload width in bits per iteration.
    pub bits: u64,
}

/// A single-iteration data-flow graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlgorithmGraph {
    /// Graph name (application name).
    pub name: String,
    ops: Vec<Operation>,
    edges: Vec<DataEdge>,
    /// Interner holding every operation and function-symbol name,
    /// populated at construction for allocation-free lowering. The
    /// graph's only name index.
    symbols: SymbolTable,
    /// Per symbol, the operation it names (`None` for a symbol that
    /// names functions only).
    op_of_sym: Vec<Option<OpId>>,
    /// Per operation, its interned name (index = [`OpId`]), as
    /// [`AlgorithmGraph::add_op`] interned it.
    op_syms: Vec<pdr_ir::OpId>,
    /// Every operation's interned function symbols, flat, in
    /// [`OpKind::functions`] order; operation `i` owns
    /// `fn_syms[fn_base[i]..fn_base[i + 1]]`.
    fn_syms: Vec<pdr_ir::ModuleId>,
    /// Offsets into `fn_syms`, one per operation plus a final end.
    fn_base: Vec<u32>,
    /// CSR-style adjacency: per operation, the indices into `edges` of its
    /// incoming edges, in insertion order. Maintained incrementally by
    /// [`AlgorithmGraph::connect`] so neighbourhood queries are O(degree)
    /// instead of O(E) filter scans.
    in_adj: Vec<Vec<u32>>,
    /// Per operation, the indices into `edges` of its outgoing edges, in
    /// insertion order (see `in_adj`).
    out_adj: Vec<Vec<u32>>,
}

impl AlgorithmGraph {
    /// Create an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        AlgorithmGraph {
            name: name.into(),
            ops: Vec::new(),
            edges: Vec::new(),
            symbols: SymbolTable::new(),
            op_of_sym: Vec::new(),
            op_syms: Vec::new(),
            fn_syms: Vec::new(),
            fn_base: vec![0],
            in_adj: Vec::new(),
            out_adj: Vec::new(),
        }
    }

    /// Add an operation; names must be unique.
    pub fn add_op(&mut self, name: impl Into<String>, kind: OpKind) -> Result<OpId, GraphError> {
        let name = name.into();
        if self.by_name(&name).is_some() {
            return Err(GraphError::DuplicateName(name));
        }
        if let OpKind::Conditioned { alternatives } = &kind {
            if alternatives.len() < 2 {
                return Err(GraphError::Structural(format!(
                    "conditioned operation `{name}` needs ≥ 2 alternatives"
                )));
            }
            let uniq: HashSet<_> = alternatives.iter().collect();
            if uniq.len() != alternatives.len() {
                return Err(GraphError::Structural(format!(
                    "conditioned operation `{name}` has duplicate alternatives"
                )));
            }
        }
        let id = OpId(self.ops.len());
        let sym = pdr_ir::OpId::intern(&mut self.symbols, &name);
        self.op_syms.push(sym);
        for f in kind.functions() {
            self.fn_syms
                .push(pdr_ir::ModuleId::intern(&mut self.symbols, f));
        }
        self.op_of_sym.resize(self.symbols.len(), None);
        self.op_of_sym[sym.sym().index()] = Some(id);
        self.fn_base.push(self.fn_syms.len() as u32);
        self.ops.push(Operation { name, kind });
        self.in_adj.push(Vec::new());
        self.out_adj.push(Vec::new());
        Ok(id)
    }

    /// The interner holding every operation and function-symbol name.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interned name of an operation.
    pub fn op_sym(&self, id: OpId) -> pdr_ir::OpId {
        self.op_syms[id.0]
    }

    /// Interned function symbols of an operation, in
    /// [`OpKind::functions`] order.
    pub fn function_syms(&self, id: OpId) -> &[pdr_ir::ModuleId] {
        &self.fn_syms[self.fn_base[id.0] as usize..self.fn_base[id.0 + 1] as usize]
    }

    /// Shorthand: add a `Compute` vertex whose function symbol equals its name.
    pub fn add_compute(&mut self, name: &str) -> Result<OpId, GraphError> {
        self.add_op(
            name,
            OpKind::Compute {
                function: name.to_string(),
            },
        )
    }

    /// Add a data edge of `bits` bits per iteration.
    pub fn connect(&mut self, from: OpId, to: OpId, bits: u64) -> Result<(), GraphError> {
        self.check_id(from)?;
        self.check_id(to)?;
        if bits == 0 {
            return Err(GraphError::Structural(format!(
                "edge {} -> {} has zero width",
                self.op(from).name,
                self.op(to).name
            )));
        }
        if from == to {
            return Err(GraphError::Structural(format!(
                "self-loop on `{}`",
                self.op(from).name
            )));
        }
        let idx = self.edges.len() as u32;
        self.edges.push(DataEdge { from, to, bits });
        self.out_adj[from.0].push(idx);
        self.in_adj[to.0].push(idx);
        Ok(())
    }

    fn check_id(&self, id: OpId) -> Result<(), GraphError> {
        if id.0 >= self.ops.len() {
            return Err(GraphError::UnknownVertex(id.to_string()));
        }
        Ok(())
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operation accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range (ids are only minted by this graph).
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0]
    }

    /// Look an operation up by name.
    pub fn by_name(&self, name: &str) -> Option<OpId> {
        self.op_of_sym[self.symbols.lookup(name)?.index()]
    }

    /// All operations with their ids.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpId(i), o))
    }

    /// All edges.
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// Edges into `id`, in insertion order. O(in-degree).
    pub fn in_edges(&self, id: OpId) -> impl Iterator<Item = &DataEdge> {
        self.in_adj[id.0].iter().map(|&i| &self.edges[i as usize])
    }

    /// Edges out of `id`, in insertion order. O(out-degree).
    pub fn out_edges(&self, id: OpId) -> impl Iterator<Item = &DataEdge> {
        self.out_adj[id.0].iter().map(|&i| &self.edges[i as usize])
    }

    /// In-degree of `id` without touching the edge list.
    pub fn in_degree(&self, id: OpId) -> usize {
        self.in_adj[id.0].len()
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: OpId) -> Vec<OpId> {
        self.in_edges(id).map(|e| e.from).collect()
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: OpId) -> Vec<OpId> {
        self.out_edges(id).map(|e| e.to).collect()
    }

    /// Validate the graph: acyclic (a single iteration must be a DAG),
    /// then [`AlgorithmGraph::validate_structure`].
    pub fn validate(&self) -> Result<(), GraphError> {
        self.topo_order()?;
        self.validate_structure()
    }

    /// The structural half of [`AlgorithmGraph::validate`], for callers
    /// that already sorted the graph with [`AlgorithmGraph::topo_order`]:
    /// * sources have no inputs, sinks no outputs,
    /// * every non-source has at least one input and every non-sink at least
    ///   one output (the data-flow semantics leave no dangling vertices),
    /// * conditioned operations have a control input (some predecessor).
    pub fn validate_structure(&self) -> Result<(), GraphError> {
        for (id, op) in self.ops() {
            let ins = self.in_edges(id).count();
            let outs = self.out_edges(id).count();
            match &op.kind {
                OpKind::Source => {
                    if ins != 0 {
                        return Err(GraphError::Structural(format!(
                            "source `{}` has {ins} input(s)",
                            op.name
                        )));
                    }
                    if outs == 0 {
                        return Err(GraphError::Structural(format!(
                            "source `{}` feeds nothing",
                            op.name
                        )));
                    }
                }
                OpKind::Sink => {
                    if outs != 0 {
                        return Err(GraphError::Structural(format!(
                            "sink `{}` has {outs} output(s)",
                            op.name
                        )));
                    }
                    if ins == 0 {
                        return Err(GraphError::Structural(format!(
                            "sink `{}` receives nothing",
                            op.name
                        )));
                    }
                }
                OpKind::Compute { .. } | OpKind::Conditioned { .. } => {
                    if ins == 0 || outs == 0 {
                        return Err(GraphError::Structural(format!(
                            "operation `{}` must have inputs and outputs (has {ins} in, {outs} out)",
                            op.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// A topological order of the operations, or the cycle error.
    /// Deterministic: ties broken by insertion order. O(V + E) via the
    /// incremental adjacency (the seed rescanned the whole edge list once
    /// per popped vertex).
    pub fn topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.ops.len();
        let mut indegree: Vec<usize> = self.in_adj.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(OpId(i));
            for &ei in &self.out_adj[i] {
                let t = self.edges[ei as usize].to.0;
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    queue.push_back(t);
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&i| indegree[i] > 0)
                .map(|i| self.ops[i].name.clone())
                .unwrap_or_default();
            return Err(GraphError::Cycle { involving: stuck });
        }
        Ok(order)
    }

    /// The conditioned operations of the graph (the dynamic-implementation
    /// candidates of §4).
    pub fn conditioned_ops(&self) -> Vec<OpId> {
        self.ops()
            .filter(|(_, o)| o.kind.is_conditioned())
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// source -> a -> cond(x|y) -> sink, with sel -> cond control edge.
    fn small() -> (AlgorithmGraph, OpId, OpId, OpId, OpId, OpId) {
        let mut g = AlgorithmGraph::new("t");
        let src = g.add_op("src", OpKind::Source).unwrap();
        let sel = g.add_op("sel", OpKind::Source).unwrap();
        let a = g.add_compute("a").unwrap();
        let cond = g
            .add_op(
                "cond",
                OpKind::Conditioned {
                    alternatives: vec!["x".into(), "y".into()],
                },
            )
            .unwrap();
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        g.connect(src, a, 32).unwrap();
        g.connect(a, cond, 64).unwrap();
        g.connect(sel, cond, 2).unwrap();
        g.connect(cond, sink, 64).unwrap();
        (g, src, sel, a, cond, sink)
    }

    #[test]
    fn build_and_validate() {
        let (g, ..) = small();
        g.validate().unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edges().len(), 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = AlgorithmGraph::new("t");
        g.add_compute("a").unwrap();
        // add_compute("a") must fail even with a different kind.
        assert!(matches!(
            g.add_op("a", OpKind::Source),
            Err(GraphError::DuplicateName(_))
        ));
    }

    #[test]
    fn zero_width_and_self_loop_rejected() {
        let mut g = AlgorithmGraph::new("t");
        let a = g.add_compute("a").unwrap();
        let b = g.add_compute("b").unwrap();
        assert!(g.connect(a, b, 0).is_err());
        assert!(g.connect(a, a, 8).is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut g = AlgorithmGraph::new("t");
        let a = g.add_compute("a").unwrap();
        let b = g.add_compute("b").unwrap();
        g.connect(a, b, 8).unwrap();
        g.connect(b, a, 8).unwrap();
        assert!(matches!(g.topo_order(), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, ..) = small();
        let order = g.topo_order().unwrap();
        let pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for e in g.edges() {
            assert!(pos[&e.from] < pos[&e.to]);
        }
    }

    #[test]
    fn source_with_input_rejected() {
        let mut g = AlgorithmGraph::new("t");
        let a = g.add_compute("a").unwrap();
        let s = g.add_op("s", OpKind::Source).unwrap();
        let k = g.add_op("k", OpKind::Sink).unwrap();
        g.connect(a, s, 8).unwrap();
        g.connect(s, k, 8).unwrap();
        assert!(g.validate().is_err());
    }

    #[test]
    fn dangling_compute_rejected() {
        let mut g = AlgorithmGraph::new("t");
        let s = g.add_op("s", OpKind::Source).unwrap();
        let a = g.add_compute("a").unwrap();
        let _lonely = g.add_compute("lonely").unwrap();
        let k = g.add_op("k", OpKind::Sink).unwrap();
        g.connect(s, a, 8).unwrap();
        g.connect(a, k, 8).unwrap();
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("lonely"));
    }

    #[test]
    fn conditioned_needs_two_distinct_alternatives() {
        let mut g = AlgorithmGraph::new("t");
        assert!(g
            .add_op(
                "c1",
                OpKind::Conditioned {
                    alternatives: vec!["only".into()]
                }
            )
            .is_err());
        assert!(g
            .add_op(
                "c2",
                OpKind::Conditioned {
                    alternatives: vec!["x".into(), "x".into()]
                }
            )
            .is_err());
    }

    #[test]
    fn conditioned_ops_found() {
        let (g, _, _, _, cond, _) = small();
        assert_eq!(g.conditioned_ops(), vec![cond]);
    }

    #[test]
    fn neighbors() {
        let (g, src, sel, a, cond, sink) = small();
        assert_eq!(g.successors(src), vec![a]);
        let mut preds = g.predecessors(cond);
        preds.sort();
        let mut expect = vec![a, sel];
        expect.sort();
        assert_eq!(preds, expect);
        assert_eq!(g.predecessors(sink), vec![cond]);
    }

    #[test]
    fn functions_listing() {
        let (g, _, _, a, cond, _) = small();
        assert_eq!(g.op(a).kind.functions(), ["a".to_string()]);
        assert_eq!(
            g.op(cond).kind.functions(),
            ["x".to_string(), "y".to_string()]
        );
        assert!(g.op(OpId(0)).kind.functions().is_empty());
    }

    #[test]
    fn by_name_lookup() {
        let (mut g, src, _, a, ..) = small();
        assert_eq!(g.by_name("src"), Some(src));
        assert_eq!(g.by_name("nope"), None);
        // A name that is only a function (an alternative of `cond`) is
        // interned but names no operation.
        assert!(g.symbols().lookup("x").is_some());
        assert_eq!(g.by_name("x"), None);
        // An operation named like its own function, or like another
        // operation's function, resolves.
        assert_eq!(g.by_name("a"), Some(a));
        let x = g.add_compute("x").unwrap();
        assert_eq!(g.by_name("x"), Some(x));
        let paper = crate::paper::mccdma_algorithm();
        assert_eq!(paper.by_name("mod_qpsk"), None);
    }

    #[test]
    fn rejected_ops_leave_the_symbol_table_unchanged() {
        let (mut g, ..) = small();
        let before = g.symbols().clone();
        assert!(g.add_op("a", OpKind::Source).is_err());
        assert!(g.add_compute("cond").is_err());
        let lone = OpKind::Conditioned {
            alternatives: vec!["fresh".into()],
        };
        assert!(g.add_op("fresh_op", lone).is_err());
        assert_eq!(g.symbols(), &before);
        assert_eq!(g.by_name("fresh_op"), None);
    }

    #[test]
    fn operation_and_function_names_interned() {
        let (g, src, _, _, cond, _) = small();
        assert_eq!(g.op_sym(src).resolve(g.symbols()), "src");
        assert_eq!(g.op_sym(cond).resolve(g.symbols()), "cond");
        // Conditioned alternatives are interned as module names too.
        assert!(g.symbols().lookup("x").is_some());
        assert!(g.symbols().lookup("y").is_some());
        let fns: Vec<&str> = g
            .function_syms(cond)
            .iter()
            .map(|f| f.resolve(g.symbols()))
            .collect();
        assert_eq!(fns, ["x", "y"]);
        assert!(g.function_syms(src).is_empty());
        let g = crate::paper::mccdma_algorithm();
        for (id, op) in g.ops() {
            assert_eq!(g.op_sym(id).resolve(g.symbols()), op.name);
            assert_eq!(g.by_name(&op.name), Some(id));
        }
    }
}
