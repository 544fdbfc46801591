//! Architecture graphs.
//!
//! §3 of the paper: *"Architecture is also modeled by a graph where the
//! vertices are operators (e.g. processors, DSP, FPGA) or media and edges
//! are connections between them. Operators have no internal parallelism
//! computation available but the architecture exhibits the potential
//! parallelism."*
//!
//! §4 adds the reconfiguration extension (Fig. 1): *runtime-reconfigurable
//! parts of a component must be considered as vertices in the architecture
//! graph* — so an FPGA contributes one `FpgaStatic` operator plus one
//! `FpgaDynamic` operator per reconfigurable region, linked by an internal
//! medium (`IL`).
//!
//! The graph is bipartite: operators connect only to media and vice versa.
//! [`ArchGraph::route`] finds the cheapest operator→operator path (BFS by
//! hop count, deterministic tie-breaking) which the adequation uses to cost
//! data transfers.

use crate::error::GraphError;
use pdr_fabric::TimePs;
use pdr_ir::SymbolTable;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Index of an operator vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OperatorId(pub usize);

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "opr{}", self.0)
    }
}

/// Index of a medium vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MediumId(pub usize);

impl fmt::Display for MediumId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "med{}", self.0)
    }
}

/// What an operator vertex is.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OperatorKind {
    /// A sequential instruction-set processor (the paper's TI C6201 DSP).
    Processor,
    /// The fixed (non-reconfigurable) part of an FPGA.
    FpgaStatic,
    /// A runtime-reconfigurable part of an FPGA. Carries the name of the
    /// hosting static operator so the pair can be floorplanned together.
    FpgaDynamic {
        /// Name of the `FpgaStatic` operator this region lives in.
        host: String,
    },
}

impl OperatorKind {
    /// Is this a runtime-reconfigurable operator?
    pub fn is_dynamic(&self) -> bool {
        matches!(self, OperatorKind::FpgaDynamic { .. })
    }
}

/// An operator vertex.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operator {
    /// Unique name, e.g. `"dsp"`, `"fpga_static"`, `"op_dyn"`.
    pub name: String,
    /// Kind.
    pub kind: OperatorKind,
}

/// What a medium vertex is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MediumKind {
    /// A board-level bus (the paper's SHB bus between DSP and FPGA).
    Bus,
    /// An on-chip link between static and dynamic parts of one FPGA
    /// (the paper's `IL`, physically the bus macros).
    InternalLink,
}

/// A medium vertex with its transfer characteristics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Medium {
    /// Unique name.
    pub name: String,
    /// Kind.
    pub kind: MediumKind,
    /// Sustained bandwidth in bits per second.
    pub bits_per_sec: u64,
    /// Fixed per-transfer latency (arbitration, synchronization).
    pub latency: TimePs,
}

impl Medium {
    /// Time to move `bits` across this medium.
    pub fn transfer_time(&self, bits: u64) -> TimePs {
        assert!(
            self.bits_per_sec > 0,
            "medium `{}` has zero bandwidth",
            self.name
        );
        let ps = (bits as u128 * 1_000_000_000_000u128).div_ceil(self.bits_per_sec as u128);
        self.latency + TimePs::from_ps(ps.min(u64::MAX as u128) as u64)
    }
}

/// A route between two operators: the media crossed, in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Media along the path (empty when source == destination).
    pub media: Vec<MediumId>,
}

impl Route {
    /// Total time to move `bits` along the route (store-and-forward per hop).
    pub fn transfer_time(&self, arch: &ArchGraph, bits: u64) -> TimePs {
        self.media
            .iter()
            .map(|&m| arch.medium(m).transfer_time(bits))
            .sum()
    }

    /// Hop count.
    pub fn hops(&self) -> usize {
        self.media.len()
    }

    /// Is this the trivial on-operator route?
    pub fn is_local(&self) -> bool {
        self.media.is_empty()
    }
}

/// The bipartite operator/medium architecture graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchGraph {
    /// Architecture name.
    pub name: String,
    operators: Vec<Operator>,
    media: Vec<Medium>,
    /// Adjacency: operator -> media it is connected to.
    op_links: Vec<Vec<MediumId>>,
    /// Adjacency: medium -> operators connected to it.
    med_links: Vec<Vec<OperatorId>>,
    op_by_name: HashMap<String, OperatorId>,
    med_by_name: HashMap<String, MediumId>,
    /// Interner holding every operator and medium name, populated at
    /// construction so downstream stages can lower to `pdr-ir` handles
    /// without re-hashing strings.
    symbols: SymbolTable,
}

impl ArchGraph {
    /// Create an empty architecture.
    pub fn new(name: impl Into<String>) -> Self {
        ArchGraph {
            name: name.into(),
            operators: Vec::new(),
            media: Vec::new(),
            op_links: Vec::new(),
            med_links: Vec::new(),
            op_by_name: HashMap::new(),
            med_by_name: HashMap::new(),
            symbols: SymbolTable::new(),
        }
    }

    /// Add an operator vertex.
    pub fn add_operator(
        &mut self,
        name: impl Into<String>,
        kind: OperatorKind,
    ) -> Result<OperatorId, GraphError> {
        let name = name.into();
        if self.op_by_name.contains_key(&name) || self.med_by_name.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        if let OperatorKind::FpgaDynamic { host } = &kind {
            match self.op_by_name.get(host) {
                Some(&h) if matches!(self.operators[h.0].kind, OperatorKind::FpgaStatic) => {}
                Some(_) => {
                    return Err(GraphError::Structural(format!(
                        "dynamic operator `{name}` host `{host}` is not an FpgaStatic operator"
                    )))
                }
                None => return Err(GraphError::UnknownVertex(host.clone())),
            }
        }
        let id = OperatorId(self.operators.len());
        self.op_by_name.insert(name.clone(), id);
        self.symbols.intern(&name);
        self.operators.push(Operator { name, kind });
        self.op_links.push(Vec::new());
        Ok(id)
    }

    /// Add a medium vertex.
    pub fn add_medium(
        &mut self,
        name: impl Into<String>,
        kind: MediumKind,
        bits_per_sec: u64,
        latency: TimePs,
    ) -> Result<MediumId, GraphError> {
        let name = name.into();
        if self.med_by_name.contains_key(&name) || self.op_by_name.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        if bits_per_sec == 0 {
            return Err(GraphError::Structural(format!(
                "medium `{name}` has zero bandwidth"
            )));
        }
        let id = MediumId(self.media.len());
        self.med_by_name.insert(name.clone(), id);
        self.symbols.intern(&name);
        self.media.push(Medium {
            name,
            kind,
            bits_per_sec,
            latency,
        });
        self.med_links.push(Vec::new());
        Ok(id)
    }

    /// Connect an operator to a medium (undirected).
    pub fn link(&mut self, op: OperatorId, med: MediumId) -> Result<(), GraphError> {
        if op.0 >= self.operators.len() {
            return Err(GraphError::UnknownVertex(op.to_string()));
        }
        if med.0 >= self.media.len() {
            return Err(GraphError::UnknownVertex(med.to_string()));
        }
        if !self.op_links[op.0].contains(&med) {
            self.op_links[op.0].push(med);
            self.med_links[med.0].push(op);
        }
        Ok(())
    }

    /// Operator accessor.
    pub fn operator(&self, id: OperatorId) -> &Operator {
        &self.operators[id.0]
    }

    /// Medium accessor.
    pub fn medium(&self, id: MediumId) -> &Medium {
        &self.media[id.0]
    }

    /// The interner holding every operator and medium name of this graph.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interned name of an operator.
    pub fn operator_sym(&self, id: OperatorId) -> pdr_ir::OperatorId {
        let sym = self
            .symbols
            .lookup(&self.operators[id.0].name)
            .expect("operator names are interned at construction");
        pdr_ir::OperatorId::new(sym)
    }

    /// Interned name of a medium.
    pub fn medium_sym(&self, id: MediumId) -> pdr_ir::MediumId {
        let sym = self
            .symbols
            .lookup(&self.media[id.0].name)
            .expect("medium names are interned at construction");
        pdr_ir::MediumId::new(sym)
    }

    /// Operator lookup by name.
    pub fn operator_by_name(&self, name: &str) -> Option<OperatorId> {
        self.op_by_name.get(name).copied()
    }

    /// Medium lookup by name.
    pub fn medium_by_name(&self, name: &str) -> Option<MediumId> {
        self.med_by_name.get(name).copied()
    }

    /// All operators with ids.
    pub fn operators(&self) -> impl Iterator<Item = (OperatorId, &Operator)> {
        self.operators
            .iter()
            .enumerate()
            .map(|(i, o)| (OperatorId(i), o))
    }

    /// All media with ids.
    pub fn media(&self) -> impl Iterator<Item = (MediumId, &Medium)> {
        self.media.iter().enumerate().map(|(i, m)| (MediumId(i), m))
    }

    /// Number of operators.
    pub fn operator_count(&self) -> usize {
        self.operators.len()
    }

    /// Number of media.
    pub fn medium_count(&self) -> usize {
        self.media.len()
    }

    /// Media connected to an operator.
    pub fn media_of(&self, op: OperatorId) -> &[MediumId] {
        &self.op_links[op.0]
    }

    /// Operators connected to a medium.
    pub fn operators_on(&self, med: MediumId) -> &[OperatorId] {
        &self.med_links[med.0]
    }

    /// The dynamic operators (mapping targets for conditioned operations).
    pub fn dynamic_operators(&self) -> Vec<OperatorId> {
        self.operators()
            .filter(|(_, o)| o.kind.is_dynamic())
            .map(|(id, _)| id)
            .collect()
    }

    /// Cheapest route between two operators (fewest hops; ties broken by
    /// lowest medium index, so results are deterministic). Local routes are
    /// empty. Each call runs its own BFS and allocates the route; callers
    /// that route many pairs should take one [`ArchGraph::routes_from`]
    /// row per source operator instead.
    pub fn route(&self, from: OperatorId, to: OperatorId) -> Result<Route, GraphError> {
        if from == to {
            return Ok(Route { media: Vec::new() });
        }
        // BFS over operators, remembering the medium used to reach each.
        let mut prev: HashMap<OperatorId, (OperatorId, MediumId)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        'search: while let Some(cur) = queue.pop_front() {
            let mut neighbors: Vec<(MediumId, OperatorId)> = Vec::new();
            for &m in &self.op_links[cur.0] {
                for &o in &self.med_links[m.0] {
                    if o != cur {
                        neighbors.push((m, o));
                    }
                }
            }
            neighbors.sort();
            for (m, o) in neighbors {
                if o != from && !prev.contains_key(&o) {
                    prev.insert(o, (cur, m));
                    if o == to {
                        break 'search;
                    }
                    queue.push_back(o);
                }
            }
        }
        if !prev.contains_key(&to) {
            return Err(GraphError::NoRoute {
                from: self.operator(from).name.clone(),
                to: self.operator(to).name.clone(),
            });
        }
        let mut media = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, m) = prev[&cur];
            media.push(m);
            cur = p;
        }
        media.reverse();
        Ok(Route { media })
    }

    /// Routes from one operator to *every* operator, indexed by destination
    /// id (`None` when unreachable; entry `from` is the empty local route).
    ///
    /// One full BFS instead of one per destination. The search visits
    /// neighbours in the same sorted order as [`ArchGraph::route`] and the
    /// predecessor of each operator is fixed at first discovery, so every
    /// returned route is *identical* to what the pairwise query yields —
    /// the early exit in `route` never changes which `prev` entries exist
    /// along the shortest path to a given destination.
    pub fn routes_from(&self, from: OperatorId) -> Vec<Option<Route>> {
        let mut prev: HashMap<OperatorId, (OperatorId, MediumId)> = HashMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(cur) = queue.pop_front() {
            let mut neighbors: Vec<(MediumId, OperatorId)> = Vec::new();
            for &m in &self.op_links[cur.0] {
                for &o in &self.med_links[m.0] {
                    if o != cur {
                        neighbors.push((m, o));
                    }
                }
            }
            neighbors.sort();
            for (m, o) in neighbors {
                if o != from && !prev.contains_key(&o) {
                    prev.insert(o, (cur, m));
                    queue.push_back(o);
                }
            }
        }
        (0..self.operators.len())
            .map(|i| {
                let to = OperatorId(i);
                if to == from {
                    return Some(Route { media: Vec::new() });
                }
                prev.contains_key(&to).then(|| {
                    let mut media = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, m) = prev[&cur];
                        media.push(m);
                        cur = p;
                    }
                    media.reverse();
                    Route { media }
                })
            })
            .collect()
    }

    /// Validate connectivity: every operator can reach every other.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (a, _) in self.operators() {
            for (b, _) in self.operators() {
                if a != b {
                    self.route(a, b)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dsp --SHB-- fpga_static --IL-- {d1, d2}
    fn fig1_like() -> (ArchGraph, OperatorId, OperatorId, OperatorId, OperatorId) {
        let mut a = ArchGraph::new("fig1");
        let dsp = a.add_operator("dsp", OperatorKind::Processor).unwrap();
        let f1 = a.add_operator("f1", OperatorKind::FpgaStatic).unwrap();
        let d1 = a
            .add_operator("d1", OperatorKind::FpgaDynamic { host: "f1".into() })
            .unwrap();
        let d2 = a
            .add_operator("d2", OperatorKind::FpgaDynamic { host: "f1".into() })
            .unwrap();
        let shb = a
            .add_medium("shb", MediumKind::Bus, 400_000_000, TimePs::from_ns(500))
            .unwrap();
        let il = a
            .add_medium(
                "il",
                MediumKind::InternalLink,
                800_000_000,
                TimePs::from_ns(40),
            )
            .unwrap();
        a.link(dsp, shb).unwrap();
        a.link(f1, shb).unwrap();
        a.link(f1, il).unwrap();
        a.link(d1, il).unwrap();
        a.link(d2, il).unwrap();
        (a, dsp, f1, d1, d2)
    }

    #[test]
    fn build_and_validate() {
        let (a, ..) = fig1_like();
        a.validate().unwrap();
        assert_eq!(a.operator_count(), 4);
        assert_eq!(a.medium_count(), 2);
        assert_eq!(a.dynamic_operators().len(), 2);
    }

    #[test]
    fn dynamic_host_must_exist_and_be_static() {
        let mut a = ArchGraph::new("t");
        assert!(matches!(
            a.add_operator("d", OperatorKind::FpgaDynamic { host: "f".into() }),
            Err(GraphError::UnknownVertex(_))
        ));
        a.add_operator("p", OperatorKind::Processor).unwrap();
        assert!(matches!(
            a.add_operator("d", OperatorKind::FpgaDynamic { host: "p".into() }),
            Err(GraphError::Structural(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut a = ArchGraph::new("t");
        a.add_operator("x", OperatorKind::Processor).unwrap();
        assert!(a.add_operator("x", OperatorKind::FpgaStatic).is_err());
        assert!(a.add_medium("x", MediumKind::Bus, 1, TimePs::ZERO).is_err());
        a.add_medium("m", MediumKind::Bus, 1, TimePs::ZERO).unwrap();
        assert!(a.add_operator("m", OperatorKind::Processor).is_err());
    }

    #[test]
    fn zero_bandwidth_rejected() {
        let mut a = ArchGraph::new("t");
        assert!(a.add_medium("m", MediumKind::Bus, 0, TimePs::ZERO).is_err());
    }

    #[test]
    fn local_route_is_empty() {
        let (a, dsp, ..) = fig1_like();
        let r = a.route(dsp, dsp).unwrap();
        assert!(r.is_local());
        assert_eq!(r.transfer_time(&a, 1_000_000), TimePs::ZERO);
    }

    #[test]
    fn single_hop_route() {
        let (a, dsp, f1, ..) = fig1_like();
        let r = a.route(dsp, f1).unwrap();
        assert_eq!(r.hops(), 1);
        assert_eq!(a.medium(r.media[0]).name, "shb");
    }

    #[test]
    fn multi_hop_route_dsp_to_dynamic() {
        let (a, dsp, _, d1, _) = fig1_like();
        let r = a.route(dsp, d1).unwrap();
        assert_eq!(r.hops(), 2);
        let names: Vec<_> = r.media.iter().map(|&m| a.medium(m).name.clone()).collect();
        assert_eq!(names, ["shb", "il"]);
    }

    #[test]
    fn no_route_error() {
        let mut a = ArchGraph::new("t");
        let p = a.add_operator("p", OperatorKind::Processor).unwrap();
        let q = a.add_operator("q", OperatorKind::Processor).unwrap();
        assert!(matches!(a.route(p, q), Err(GraphError::NoRoute { .. })));
        assert!(a.validate().is_err());
    }

    #[test]
    fn transfer_time_accounts_bandwidth_and_latency() {
        let (a, dsp, f1, ..) = fig1_like();
        let r = a.route(dsp, f1).unwrap();
        // 400 Mbit/s, 500 ns latency: 4000 bits -> 10 us + 0.5 us.
        let t = r.transfer_time(&a, 4_000);
        assert_eq!(t, TimePs::from_ns(10_500));
    }

    #[test]
    fn route_is_deterministic_with_parallel_media() {
        let mut a = ArchGraph::new("t");
        let p = a.add_operator("p", OperatorKind::Processor).unwrap();
        let q = a.add_operator("q", OperatorKind::FpgaStatic).unwrap();
        let m1 = a
            .add_medium("m1", MediumKind::Bus, 100, TimePs::ZERO)
            .unwrap();
        let m2 = a
            .add_medium("m2", MediumKind::Bus, 100, TimePs::ZERO)
            .unwrap();
        for m in [m1, m2] {
            a.link(p, m).unwrap();
            a.link(q, m).unwrap();
        }
        // Lowest medium id wins deterministically.
        assert_eq!(a.route(p, q).unwrap().media, vec![m1]);
    }

    #[test]
    fn medium_transfer_rounds_up() {
        let m = Medium {
            name: "m".into(),
            kind: MediumKind::Bus,
            bits_per_sec: 3,
            latency: TimePs::ZERO,
        };
        // 1 bit at 3 bps = 333333333333.33.. ps, rounded up.
        assert_eq!(m.transfer_time(1).as_ps(), 333_333_333_334);
    }

    #[test]
    fn names_are_interned_at_construction() {
        let (a, dsp, _, d1, _) = fig1_like();
        assert_eq!(a.symbols().len(), a.operator_count() + a.medium_count());
        assert_eq!(a.operator_sym(dsp).resolve(a.symbols()), "dsp");
        assert_eq!(a.operator_sym(d1).resolve(a.symbols()), "d1");
        let shb = a.medium_by_name("shb").unwrap();
        assert_eq!(a.medium_sym(shb).resolve(a.symbols()), "shb");
    }

    #[test]
    fn routes_from_matches_pairwise_route() {
        let (a, ..) = fig1_like();
        for (from, _) in a.operators() {
            let table = a.routes_from(from);
            assert_eq!(table.len(), a.operator_count());
            for (to, _) in a.operators() {
                assert_eq!(table[to.0].as_ref(), a.route(from, to).ok().as_ref());
            }
        }
    }

    #[test]
    fn routes_from_marks_unreachable_operators() {
        let mut a = ArchGraph::new("t");
        let p = a.add_operator("p", OperatorKind::Processor).unwrap();
        let q = a.add_operator("q", OperatorKind::Processor).unwrap();
        let table = a.routes_from(p);
        assert!(table[p.0].as_ref().unwrap().is_local());
        assert!(table[q.0].is_none());
    }

    #[test]
    fn link_is_idempotent() {
        let (mut a, dsp, ..) = fig1_like();
        let shb = a.medium_by_name("shb").unwrap();
        a.link(dsp, shb).unwrap();
        assert_eq!(a.media_of(dsp).len(), 1);
        assert_eq!(a.operators_on(shb).len(), 2);
    }
}
