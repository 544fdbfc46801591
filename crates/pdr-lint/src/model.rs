//! Exhaustive interleaving-level model checking (PDR004, PDR013–PDR017).
//!
//! The greedy abstract scheduler in [`crate::deadlock`] explores *one*
//! interleaving of the §3 synchronized executive. That is complete for
//! deadlock (the executive's rendezvous semantics is confluent: all
//! enabled transitions at a state are pairwise independent, so there is
//! exactly one terminal state), but it cannot see properties that only
//! hold in *some* interleavings — a `Configure` racing a `Compute` on the
//! region it rewrites, or a result handed off after its module was
//! evicted. This module explores **all** cross-operator interleavings.
//!
//! ## State vector
//!
//! One explicit state is
//!
//! * a program counter per operator stream,
//! * the resident module per dynamic region (from the §4 constraints),
//! * the in-flight datum per stream: which tracked module produced the
//!   data the stream is about to send, if any.
//!
//! Transitions are `Local` (a `Compute`/`Configure` advances one stream)
//! or `Rendezvous` (a matched `Send`/`Receive` pair advances both
//! streams at once, as in the synchronized executive's semantics).
//!
//! A state is packed into a fixed-width record: 4 bytes per program
//! counter, 1 byte per residency slot and per in-flight datum. Every
//! visited record sits in one arena and a node id is its record index.
//! Breadth-first search hands out ids in discovery order, so the FIFO
//! frontier is a cursor over ids, and the explorer expands a state by
//! copying its record into one reused buffer per side (current, next)
//! with one reused list of enabled transitions: exploring allocates only
//! when the arena, the id table or a witness grows. A state's hash is
//! the XOR of a strong 64-bit mix of each (slot, value) pair; a
//! transition changes at most three slots (two program counters and a
//! datum) and updates the hash by XORing their old contributions out
//! and the new ones in. Nodes are found through an open-addressed table
//! of ids keyed by that hash, and equality is always decided on the full
//! record, so the hash only picks where probing starts: state counts,
//! search order and witnesses are those of any exact visited set.
//!
//! ## Partial-order reduction
//!
//! Breadth-first search with a visibility-aware ample set: at a state
//! where some enabled transition is *invisible* (a static `Compute`, an
//! untracked `Configure`, or a rendezvous carrying no tracked datum),
//! only the first such transition is expanded; otherwise every enabled
//! transition is. All enabled transitions are pairwise independent
//! (each stream contributes at most one), the state space is acyclic
//! (program counters strictly increase), and the checked predicates
//! only read *visible* state (residency, produced data, enabledness of
//! visible transitions), so the reduction preserves every reported
//! property — the classic ample-set conditions C0–C3 with C3 vacuous.
//! `synthetic_large` (512 instructions, 8 streams) verifies in under a
//! thousand states instead of the unreduced combinatorial blow-up
//! (hundreds of thousands of states — see `bench_model`).
//!
//! ## Soundness and completeness
//!
//! On an executive with clean rendezvous matching the checker is sound
//! and complete for PDR004/PDR013/PDR014 *within the state budget*
//! ([`ModelConfig::max_states`]): every report is a real reachable
//! defect (each carries a concrete minimal-length schedule witness,
//! replayable via [`crate::replay`]), and a clean report means no
//! reachable state violates the property. When the budget is exhausted
//! the run stops early and says so explicitly (PDR017) instead of
//! silently under-reporting. Witness floods are capped at
//! [`MAX_WITNESSES_PER_CODE`] distinct sites per code.
//!
//! PDR015 is a separate `[best, worst]`-clock abstract interpretation
//! ([`check_timing`]) over the happens-before structure: reconfiguration
//! latency is counted at worst-case (the `Configure`'s carried time) in
//! the upper clock and zero in the lower clock (§4 prefetching can hide
//! it entirely), and rendezvous join both clocks with `max` plus the
//! medium transfer time. A module's §4 `deadline_us` is violated for
//! certain when even the best-case completion clock exceeds it (error)
//! and violated possibly when only the worst-case clock does (warning).

use crate::diag::{Code, Diagnostic, Location};
use crate::rendezvous::RendezvousPair;
use pdr_fabric::TimePs;
use pdr_graph::{ArchGraph, Characterization, ConstraintsFile, Medium};
use pdr_ir::{IrExecutive, IrInstr, ModuleId, SymbolTable};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// "no module" sentinel in the dense residency/produced tables.
const NONE: u8 = u8::MAX;

/// At most this many dense module/region indices are tracked; a
/// constraints file larger than this disables residency tracking (the
/// exploration still runs for deadlock).
const MAX_TRACKED: usize = 250;

/// Distinct defect sites reported per code before further witnesses of
/// that code are dropped (they would restate the same root cause).
pub const MAX_WITNESSES_PER_CODE: usize = 16;

/// Schedule steps rendered into a diagnostic's notes before eliding;
/// [`Witness::schedule`] always carries the full schedule.
const MAX_RENDERED_STEPS: usize = 24;

/// Tuning knobs for the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Distinct states explored before giving up with PDR017.
    pub max_states: usize,
    /// Apply the ample-set partial-order reduction (disable only to
    /// measure the reduction factor).
    pub por: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            max_states: 1 << 20,
            por: true,
        }
    }
}

impl ModelConfig {
    /// Override the state budget.
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Disable the partial-order reduction.
    pub fn without_por(mut self) -> Self {
        self.por = false;
        self
    }
}

/// Everything the explorer looks at. `pairs` must come from a rendezvous
/// pass with no errors (as [`crate::lint_ir`] guarantees); constraints
/// are optional — without them only deadlock and reachability are
/// checked.
pub struct ModelInput<'a> {
    /// The lowered executive.
    pub ir: &'a IrExecutive,
    /// Symbol table resolving its interned names.
    pub table: &'a SymbolTable,
    /// Matched rendezvous pairs.
    pub pairs: &'a [RendezvousPair],
    /// §4 constraints — enables residency tracking (PDR013/PDR014).
    pub constraints: Option<&'a ConstraintsFile>,
}

/// One step of a schedule witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A local instruction of one stream fires.
    Local {
        /// Stream index.
        stream: usize,
        /// Instruction index within the stream.
        index: usize,
    },
    /// A matched rendezvous completes, advancing both streams.
    Rendezvous {
        /// The completed pair.
        pair: RendezvousPair,
    },
}

/// What a witness demonstrates, in stream/instruction coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessDetail {
    /// PDR004: the schedule ends in a state with no enabled transition;
    /// these streams are stuck at these instruction indices.
    Deadlock {
        /// `(stream, pc)` per unfinished stream.
        stuck: Vec<(usize, usize)>,
    },
    /// PDR013: at the schedule's final state, the `Configure` at
    /// `configure` and the `Compute` at `compute` are both enabled, and
    /// the computed module is resident on the configured region.
    Race {
        /// `(stream, index)` of the racing `Configure`.
        configure: (usize, usize),
        /// `(stream, index)` of the racing `Compute`.
        compute: (usize, usize),
        /// The module being computed (and currently resident).
        module: ModuleId,
        /// The raced region's name.
        region: String,
    },
    /// PDR014: the schedule's final step is a rendezvous whose sender
    /// hands off data produced by `producer`, whose region no longer
    /// holds it.
    StaleData {
        /// `(stream, index)` of the `Send`.
        send: (usize, usize),
        /// The module that produced the handed-off data.
        producer: ModuleId,
        /// The region that was reconfigured away from it.
        region: String,
    },
}

/// A concrete counterexample: a minimal-length schedule (BFS order)
/// reaching the defect, plus what the defect is. Replay it with
/// [`crate::replay::replay_witness`] and corroborate it against the
/// timed simulator with [`crate::replay::confirm_in_sim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The code this witness supports.
    pub code: Code,
    /// The schedule from the initial state to the defect.
    pub schedule: Vec<Step>,
    /// The defect demonstrated at the schedule's end.
    pub detail: WitnessDetail,
}

/// Exploration statistics (what `bench_model` reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions applied (edges of the explored graph).
    pub transitions: u64,
    /// Did the state budget cut the exploration short?
    pub truncated: bool,
}

/// The checker's full result. [`crate::lint_ir`] folds `diagnostics`
/// into the report; benches and tests also read `stats`/`witnesses`.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Findings, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
    /// Exploration statistics.
    pub stats: ModelStats,
    /// One replayable witness per PDR004/PDR013/PDR014 finding, in the
    /// same order as their diagnostics.
    pub witnesses: Vec<Witness>,
}

/// Dense per-instruction classification, precomputed once.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Invisible local instruction (static compute, untracked configure).
    Local,
    /// Compute of a tracked dynamic module: sets the stream's produced
    /// datum. Visible.
    ComputeTracked { module: u8 },
    /// Configure of a tracked module: rewrites its region's residency.
    /// Visible.
    ConfigureTracked { module: u8, region: u8 },
    /// Send side of a matched rendezvous (fires the pair when the peer
    /// is co-positioned). Visible only while carrying a tracked datum.
    Send { pair: u32 },
    /// Receive side of a matched rendezvous (fired from the send side),
    /// or an unpaired communication: never fires by itself.
    Wait,
}

/// Byte layout of one packed state record: a little-endian `u32`
/// program counter per stream, then the resident module per tracked
/// region, then the in-flight datum per stream (one byte each, [`NONE`]
/// when empty). A slot's byte offset doubles as its identity in the
/// state hash.
#[derive(Debug, Clone, Copy)]
struct Layout {
    streams: usize,
    regions: usize,
}

impl Layout {
    fn width(self) -> usize {
        5 * self.streams + self.regions
    }

    fn resident(self, region: usize) -> usize {
        4 * self.streams + region
    }

    fn produced(self, stream: usize) -> usize {
        4 * self.streams + self.regions + stream
    }
}

/// Program counter of `stream` in a packed record.
fn pc(rec: &[u8], stream: usize) -> usize {
    let b = &rec[4 * stream..4 * stream + 4];
    u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
}

/// Hash contribution of one record slot: the splitmix64 finalizer (a
/// bijection) over `(byte offset, value)`. A state's hash is the XOR of
/// its slots' contributions, so a transition updates it by XORing out
/// each changed slot's old contribution and XORing in the new one.
fn slot_hash(offset: usize, value: u32) -> u64 {
    let mut z = ((offset as u64) << 32 | u64::from(value)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Full hash of a packed record (the root; successors hash
/// incrementally through [`NextState`]).
fn record_hash(layout: Layout, rec: &[u8]) -> u64 {
    let pcs = (0..layout.streams).map(|s| slot_hash(4 * s, pc(rec, s) as u32));
    let bytes = (4 * layout.streams..rec.len()).map(|at| slot_hash(at, u32::from(rec[at])));
    pcs.chain(bytes).fold(0, |h, x| h ^ x)
}

/// The successor under construction: a packed record plus its
/// incrementally maintained hash.
struct NextState {
    rec: Vec<u8>,
    hash: u64,
}

impl NextState {
    fn advance(&mut self, stream: usize) {
        let at = 4 * stream;
        let old = pc(&self.rec, stream) as u32;
        let new = old + 1;
        self.hash ^= slot_hash(at, old) ^ slot_hash(at, new);
        self.rec[at..at + 4].copy_from_slice(&new.to_le_bytes());
    }

    fn set(&mut self, at: usize, value: u8) {
        self.hash ^= slot_hash(at, u32::from(self.rec[at])) ^ slot_hash(at, u32::from(value));
        self.rec[at] = value;
    }
}

/// Empty slot of the [`Visited`] probe table.
const EMPTY: u32 = u32::MAX;

/// Every visited state. Records sit back to back in one arena, so a node
/// id is a record index; breadth-first search assigns ids in discovery
/// order, which turns its FIFO queue into a cursor over ids. Lookup goes
/// through an open-addressed (linear-probing) table of ids keyed by each
/// node's stored hash; equality is always decided on the full record, so
/// the hash only picks where probing starts.
struct Visited {
    width: usize,
    records: Vec<u8>,
    hashes: Vec<u64>,
    /// Power-of-two sized, at most half full.
    table: Vec<u32>,
}

impl Visited {
    fn new(width: usize) -> Visited {
        Visited {
            width,
            records: Vec::new(),
            hashes: Vec::new(),
            table: vec![EMPTY; 1024],
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn record(&self, id: usize) -> &[u8] {
        &self.records[id * self.width..(id + 1) * self.width]
    }

    /// `Ok(id)` of the node holding `rec`, or `Err(slot)`: the empty
    /// table slot where it belongs.
    fn find(&self, rec: &[u8], hash: u64) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.table[slot];
            if id == EMPTY {
                return Err(slot);
            }
            let id = id as usize;
            if self.hashes[id] == hash && self.record(id) == rec {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Store `rec` as the next node id, in the empty `slot` that
    /// [`Visited::find`] just returned for it.
    fn insert(&mut self, slot: usize, rec: &[u8], hash: u64) {
        self.table[slot] = self.len() as u32;
        self.records.extend_from_slice(rec);
        self.hashes.push(hash);
        if 2 * self.len() > self.table.len() {
            let mask = 2 * self.table.len() - 1;
            self.table.clear();
            self.table.resize(mask + 1, EMPTY);
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut slot = h as usize & mask;
                while self.table[slot] != EMPTY {
                    slot = (slot + 1) & mask;
                }
                self.table[slot] = id as u32;
            }
        }
    }
}

/// The tracked-module universe derived from the constraints file.
struct Tracked {
    /// Dense module index -> interned symbol.
    modules: Vec<ModuleId>,
    /// Dense module index -> dense region index.
    region_of: Vec<u8>,
    /// Dense region index -> region name.
    regions: Vec<String>,
    /// Reverse map for classification.
    module_ix: HashMap<ModuleId, u8>,
}

impl Tracked {
    fn build(table: &SymbolTable, constraints: Option<&ConstraintsFile>) -> Tracked {
        let mut t = Tracked {
            modules: Vec::new(),
            region_of: Vec::new(),
            regions: Vec::new(),
            module_ix: HashMap::new(),
        };
        let Some(cons) = constraints else { return t };
        if cons.modules().len() > MAX_TRACKED {
            return t;
        }
        let mut region_ix: HashMap<&str, u8> = HashMap::new();
        for mc in cons.modules() {
            // A module name the executive never interned cannot appear in
            // any instruction; skip it.
            let Some(sym) = table.lookup(&mc.module) else {
                continue;
            };
            let region = *region_ix.entry(mc.region.as_str()).or_insert_with(|| {
                t.regions.push(mc.region.clone());
                (t.regions.len() - 1) as u8
            });
            let ix = t.modules.len() as u8;
            t.modules.push(ModuleId::new(sym));
            t.region_of.push(region);
            t.module_ix.insert(ModuleId::new(sym), ix);
        }
        t
    }
}

/// A node's incoming step, stored compactly; [`Explorer::step`] rebuilds
/// the [`Step`] for witnesses.
#[derive(Debug, Clone, Copy)]
enum Edge {
    Local { stream: u32, index: u32 },
    Rendezvous { pair: u32 },
}

/// An enabled transition at some state.
#[derive(Debug, Clone, Copy)]
struct Trans {
    edge: Edge,
    action: Action,
    stream: usize,
}

struct Explorer<'a> {
    ir: &'a IrExecutive,
    pairs: &'a [RendezvousPair],
    /// Stream `s` owns `actions[starts[s]..starts[s + 1]]` (and the same
    /// range of `executed`).
    starts: Vec<usize>,
    actions: Vec<Action>,
    tracked: Tracked,
    layout: Layout,
    config: ModelConfig,
    /// `(parent node, incoming step)` per visited state; the root's
    /// parent is `u32::MAX`.
    nodes: Vec<(u32, Edge)>,
    executed: Vec<bool>,
    stats: ModelStats,
}

impl<'a> Explorer<'a> {
    fn new(input: &ModelInput<'a>, config: ModelConfig) -> Explorer<'a> {
        let ir = input.ir;
        let streams = ir.operator_count();
        let tracked = Tracked::build(input.table, input.constraints);
        let mut starts = Vec::with_capacity(streams + 1);
        let mut actions = Vec::with_capacity(ir.len());
        for stream in 0..streams {
            starts.push(actions.len());
            actions.extend(ir.program(stream).iter().map(|instr| match instr {
                IrInstr::Compute { function, .. } => match tracked.module_ix.get(function) {
                    Some(&m) => Action::ComputeTracked { module: m },
                    None => Action::Local,
                },
                IrInstr::Configure { module, .. } => match tracked.module_ix.get(module) {
                    Some(&m) => Action::ConfigureTracked {
                        module: m,
                        region: tracked.region_of[m as usize],
                    },
                    None => Action::Local,
                },
                IrInstr::Send { .. } | IrInstr::Receive { .. } => Action::Wait,
            }));
        }
        starts.push(actions.len());
        // Arm the send side of every pair (a later pair on the same send
        // wins). A pair with out-of-range coordinates (possible only when
        // a caller hands in pairs that did not come from the rendezvous
        // pass) is dropped: its send side then stays `Wait`, i.e.
        // permanently blocked, instead of indexing out of bounds.
        let valid = |stream: usize, index: usize| {
            stream < streams && index < starts[stream + 1] - starts[stream]
        };
        for (k, p) in input.pairs.iter().enumerate() {
            if valid(p.send_stream, p.send_idx)
                && valid(p.recv_stream, p.recv_idx)
                && matches!(ir.program(p.send_stream)[p.send_idx], IrInstr::Send { .. })
            {
                actions[starts[p.send_stream] + p.send_idx] = Action::Send { pair: k as u32 };
            }
        }
        let layout = Layout {
            streams,
            regions: tracked.regions.len(),
        };
        Explorer {
            ir,
            pairs: input.pairs,
            executed: vec![false; actions.len()],
            starts,
            actions,
            tracked,
            layout,
            config,
            nodes: Vec::new(),
            stats: ModelStats::default(),
        }
    }

    fn initial(&self) -> Vec<u8> {
        let mut rec = vec![NONE; self.layout.width()];
        rec[..4 * self.layout.streams].fill(0);
        rec
    }

    fn len(&self, stream: usize) -> usize {
        self.starts[stream + 1] - self.starts[stream]
    }

    /// All enabled transitions at `rec` into `out`, in stream order
    /// (rendezvous enumerated at their send side).
    fn enabled(&self, rec: &[u8], out: &mut Vec<Trans>) {
        out.clear();
        for stream in 0..self.layout.streams {
            let at = pc(rec, stream);
            if at >= self.len(stream) {
                continue;
            }
            let action = self.actions[self.starts[stream] + at];
            match action {
                Action::Wait => {}
                Action::Send { pair } => {
                    let p = &self.pairs[pair as usize];
                    if pc(rec, p.recv_stream) == p.recv_idx {
                        out.push(Trans {
                            edge: Edge::Rendezvous { pair },
                            action,
                            stream,
                        });
                    }
                }
                _ => out.push(Trans {
                    edge: Edge::Local {
                        stream: stream as u32,
                        index: at as u32,
                    },
                    action,
                    stream,
                }),
            }
        }
    }

    /// Is `t` invisible to every checked predicate at `rec`?
    fn invisible(&self, rec: &[u8], t: &Trans) -> bool {
        match t.action {
            Action::Local => true,
            Action::Send { .. } => rec[self.layout.produced(t.stream)] == NONE,
            _ => false,
        }
    }

    /// Apply `t` to `next` (a copy of its source state); the defect hook
    /// reports a stale hand-off (PDR014).
    fn apply(&mut self, next: &mut NextState, t: &Trans) -> Option<(usize, usize, u8)> {
        let layout = self.layout;
        let mut stale = None;
        match t.edge {
            Edge::Local { stream, index } => {
                let stream = stream as usize;
                self.executed[self.starts[stream] + index as usize] = true;
                next.advance(stream);
                match t.action {
                    Action::ComputeTracked { module } => next.set(layout.produced(stream), module),
                    Action::ConfigureTracked { module, region } => {
                        next.set(layout.resident(region as usize), module);
                    }
                    _ => {}
                }
            }
            Edge::Rendezvous { pair } => {
                let p = self.pairs[pair as usize];
                self.executed[self.starts[p.send_stream] + p.send_idx] = true;
                self.executed[self.starts[p.recv_stream] + p.recv_idx] = true;
                next.advance(p.send_stream);
                next.advance(p.recv_stream);
                let produced = next.rec[layout.produced(p.send_stream)];
                if produced != NONE {
                    let region = self.tracked.region_of[produced as usize] as usize;
                    if next.rec[layout.resident(region)] != produced {
                        stale = Some((p.send_stream, p.send_idx, produced));
                    }
                    next.set(layout.produced(p.send_stream), NONE);
                }
            }
        }
        self.stats.transitions += 1;
        stale
    }

    fn step(&self, edge: Edge) -> Step {
        match edge {
            Edge::Local { stream, index } => Step::Local {
                stream: stream as usize,
                index: index as usize,
            },
            Edge::Rendezvous { pair } => Step::Rendezvous {
                pair: self.pairs[pair as usize],
            },
        }
    }

    /// Reconstruct the schedule from the root to `node`.
    fn schedule_to(&self, node: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut cur = node as u32;
        while cur != u32::MAX {
            let (parent, edge) = self.nodes[cur as usize];
            if parent == u32::MAX {
                break;
            }
            steps.push(self.step(edge));
            cur = parent;
        }
        steps.reverse();
        steps
    }
}

/// Run the explorer and report PDR004, PDR013, PDR014, PDR016, PDR017.
pub fn check(input: &ModelInput<'_>, config: &ModelConfig) -> ModelOutcome {
    let mut ex = Explorer::new(input, *config);
    let layout = ex.layout;
    let mut visited = Visited::new(layout.width());

    let mut cur = ex.initial();
    let root_hash = record_hash(layout, &cur);
    if let Err(slot) = visited.find(&cur, root_hash) {
        visited.insert(slot, &cur, root_hash);
    }
    ex.nodes.push((
        u32::MAX,
        Edge::Local {
            stream: 0,
            index: 0,
        },
    ));
    let mut next = NextState {
        rec: cur.clone(),
        hash: root_hash,
    };
    let mut enabled: Vec<Trans> = Vec::new();

    let mut deadlock: Option<Witness> = None;
    let mut races: BTreeMap<(usize, usize, usize, usize), Witness> = BTreeMap::new();
    let mut stales: BTreeMap<(usize, usize, u8), Witness> = BTreeMap::new();

    // Breadth-first: ids are handed out in discovery order, so visiting
    // them in id order is the FIFO queue.
    let mut cursor = 0;
    while cursor < visited.len() {
        let node = cursor;
        cursor += 1;
        cur.copy_from_slice(visited.record(node));
        let hash = visited.hashes[node];
        ex.enabled(&cur, &mut enabled);

        // PDR004: terminal state with unfinished streams.
        if enabled.is_empty() {
            if deadlock.is_none() {
                let stuck: Vec<(usize, usize)> = (0..layout.streams)
                    .map(|s| (s, pc(&cur, s)))
                    .filter(|&(s, at)| at < ex.len(s))
                    .collect();
                if !stuck.is_empty() {
                    deadlock = Some(Witness {
                        code: Code::Deadlock,
                        schedule: ex.schedule_to(node),
                        detail: WitnessDetail::Deadlock { stuck },
                    });
                }
            }
            continue;
        }

        // PDR013: a Configure co-enabled with a Compute of the module its
        // target region currently holds, on different streams.
        for c in &enabled {
            let Action::ConfigureTracked { region, .. } = c.action else {
                continue;
            };
            for w in &enabled {
                let Action::ComputeTracked { module } = w.action else {
                    continue;
                };
                if w.stream == c.stream
                    || ex.tracked.region_of[module as usize] != region
                    || cur[layout.resident(region as usize)] != module
                {
                    continue;
                }
                let (ci, wi) = (pc(&cur, c.stream), pc(&cur, w.stream));
                let site = (c.stream, ci, w.stream, wi);
                if races.len() < MAX_WITNESSES_PER_CODE && !races.contains_key(&site) {
                    races.insert(
                        site,
                        Witness {
                            code: Code::ReconfigRace,
                            schedule: ex.schedule_to(node),
                            detail: WitnessDetail::Race {
                                configure: (c.stream, ci),
                                compute: (w.stream, wi),
                                module: ex.tracked.modules[module as usize],
                                region: ex.tracked.regions[region as usize].clone(),
                            },
                        },
                    );
                }
            }
        }

        // Ample set: expand one invisible transition when possible.
        let first_invisible = if ex.config.por {
            enabled.iter().position(|t| ex.invisible(&cur, t))
        } else {
            None
        };
        let ample = match first_invisible {
            Some(k) => &enabled[k..=k],
            None => &enabled[..],
        };

        for t in ample {
            next.rec.copy_from_slice(&cur);
            next.hash = hash;
            if let Some((send_stream, send_idx, produced)) = ex.apply(&mut next, t) {
                let site = (send_stream, send_idx, produced);
                if stales.len() < MAX_WITNESSES_PER_CODE && !stales.contains_key(&site) {
                    let mut schedule = ex.schedule_to(node);
                    schedule.push(ex.step(t.edge));
                    stales.insert(
                        site,
                        Witness {
                            code: Code::UseAfterReconfigure,
                            schedule,
                            detail: WitnessDetail::StaleData {
                                send: (send_stream, send_idx),
                                producer: ex.tracked.modules[produced as usize],
                                region: ex.tracked.regions
                                    [ex.tracked.region_of[produced as usize] as usize]
                                    .clone(),
                            },
                        },
                    );
                }
            }
            let Err(slot) = visited.find(&next.rec, next.hash) else {
                continue;
            };
            if visited.len() >= ex.config.max_states {
                ex.stats.truncated = true;
                continue;
            }
            visited.insert(slot, &next.rec, next.hash);
            ex.nodes.push((node as u32, t.edge));
        }
    }

    ex.stats.states = ex.nodes.len() as u64;

    // Assemble diagnostics + witnesses in deterministic order.
    let mut diagnostics = Vec::new();
    let mut witnesses = Vec::new();
    if let Some(w) = deadlock {
        diagnostics.push(render_deadlock(ex.ir, input.table, ex.pairs, &w));
        witnesses.push(w);
    }
    for w in races.into_values() {
        diagnostics.push(render_race(ex.ir, input.table, &w));
        witnesses.push(w);
    }
    for w in stales.into_values() {
        diagnostics.push(render_stale(ex.ir, input.table, &w));
        witnesses.push(w);
    }
    if !ex.stats.truncated {
        diagnostics.extend(unreachable_instrs(
            ex.ir,
            input.table,
            &ex.starts,
            &ex.executed,
        ));
    } else {
        diagnostics.push(Diagnostic::new(
            Code::StateBudgetExceeded,
            format!(
                "state budget exhausted: {} states explored (budget {}); \
                 findings above are sound but the exploration is incomplete",
                ex.nodes.len(),
                ex.config.max_states
            ),
        ));
    }

    ModelOutcome {
        diagnostics,
        stats: ex.stats,
        witnesses,
    }
}

/// PDR016: instructions no explored interleaving ever executed. Only
/// meaningful on a complete exploration; one finding per stream, at the
/// first dead instruction. Stream `s`'s marks are
/// `executed[starts[s]..starts[s + 1]]`.
fn unreachable_instrs(
    ir: &IrExecutive,
    table: &SymbolTable,
    starts: &[usize],
    executed: &[bool],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (stream, span) in starts.windows(2).enumerate() {
        let marks = &executed[span[0]..span[1]];
        let Some(first) = marks.iter().position(|&e| !e) else {
            continue;
        };
        let dead = marks.len() - first;
        let operator = ir.operator_sym(stream).resolve(table);
        out.push(
            Diagnostic::new(
                Code::UnreachableInstr,
                format!(
                    "{dead} instruction{} of `{operator}` can never execute \
                     in any interleaving (dead macro-code behind a blocked \
                     rendezvous)",
                    if dead == 1 { "" } else { "s" }
                ),
            )
            .at(Location::instr(operator, first)),
        );
    }
    out
}

/// Render one schedule step for a witness trace note.
fn render_step(ir: &IrExecutive, table: &SymbolTable, step: &Step) -> String {
    match step {
        Step::Local { stream, index } => {
            let op = ir.operator_sym(*stream).resolve(table);
            match ir.program(*stream).get(*index) {
                Some(IrInstr::Compute { function, .. }) => {
                    format!("{op}[{index}] compute {}", function.resolve(table))
                }
                Some(IrInstr::Configure { module, .. }) => {
                    format!("{op}[{index}] configure {}", module.resolve(table))
                }
                _ => format!("{op}[{index}]"),
            }
        }
        Step::Rendezvous { pair } => {
            let s = ir.operator_sym(pair.send_stream).resolve(table);
            let r = ir.operator_sym(pair.recv_stream).resolve(table);
            format!(
                "rendezvous tag {}: {s}[{}] -> {r}[{}]",
                pair.tag, pair.send_idx, pair.recv_idx
            )
        }
    }
}

/// Append the witness schedule to a diagnostic, eliding long middles.
fn note_schedule(
    mut d: Diagnostic,
    ir: &IrExecutive,
    table: &SymbolTable,
    schedule: &[Step],
) -> Diagnostic {
    d = d.note(format!(
        "witness schedule ({} step{}):",
        schedule.len(),
        if schedule.len() == 1 { "" } else { "s" }
    ));
    for (k, step) in schedule.iter().take(MAX_RENDERED_STEPS).enumerate() {
        d = d.note(format!("  {k}: {}", render_step(ir, table, step)));
    }
    if schedule.len() > MAX_RENDERED_STEPS {
        d = d.note(format!(
            "  … {} more steps elided",
            schedule.len() - MAX_RENDERED_STEPS
        ));
    }
    d
}

fn render_deadlock(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    w: &Witness,
) -> Diagnostic {
    let WitnessDetail::Deadlock { stuck } = &w.detail else {
        unreachable!("deadlock witness carries deadlock detail");
    };
    let peer_of: BTreeMap<(usize, usize), &RendezvousPair> = pairs
        .iter()
        .flat_map(|p| {
            [
                ((p.send_stream, p.send_idx), p),
                ((p.recv_stream, p.recv_idx), p),
            ]
        })
        .collect();
    let op = |s: usize| ir.operator_sym(s).resolve(table);
    let names: Vec<&str> = stuck.iter().map(|&(s, _)| op(s)).collect();
    let (s0, i0) = stuck[0];
    let mut d = Diagnostic::new(
        Code::Deadlock,
        format!(
            "deadlock: {} operator{} can never finish in any interleaving \
             ({})",
            stuck.len(),
            if stuck.len() == 1 { "" } else { "s" },
            names.join(", "),
        ),
    )
    .at(Location::instr(op(s0), i0));
    for &(stream, idx) in stuck {
        let (verb, tag) = match ir.program(stream).get(idx) {
            Some(IrInstr::Send { tag, .. }) => ("send", Some(*tag)),
            Some(IrInstr::Receive { tag, .. }) => ("receive", Some(*tag)),
            _ => ("instruction", None),
        };
        let name = op(stream);
        let mut line = match tag {
            Some(tag) => format!("{name}[{idx}] blocks on {verb} tag {tag}"),
            None => format!("{name}[{idx}] blocks on {verb}"),
        };
        if let Some(p) = peer_of.get(&(stream, idx)) {
            let (peer, pidx) = if p.send_stream == stream {
                (p.recv_stream, p.recv_idx)
            } else {
                (p.send_stream, p.send_idx)
            };
            line.push_str(&format!(", waiting for {}[{pidx}]", op(peer)));
        }
        d = d.note(line);
    }
    note_schedule(d, ir, table, &w.schedule)
}

fn render_race(ir: &IrExecutive, table: &SymbolTable, w: &Witness) -> Diagnostic {
    let WitnessDetail::Race {
        configure,
        compute,
        module,
        region,
    } = &w.detail
    else {
        unreachable!("race witness carries race detail");
    };
    let cfg_op = ir.operator_sym(configure.0).resolve(table);
    let cmp_op = ir.operator_sym(compute.0).resolve(table);
    let cfg_target = match ir.program(configure.0).get(configure.1) {
        Some(IrInstr::Configure { module, .. }) => module.resolve(table),
        _ => "?",
    };
    let module = module.resolve(table);
    let d = Diagnostic::new(
        Code::ReconfigRace,
        format!(
            "reconfiguration race: configure of `{cfg_target}` at \
             {cfg_op}[{}] can interleave with the compute of `{module}` at \
             {cmp_op}[{}] while region `{region}` holds `{module}` — the \
             fabric can be rewritten mid-computation",
            configure.1, compute.1
        ),
    )
    .at(Location::instr(cfg_op, configure.1))
    .note(
        "both instructions are enabled after the witness schedule below; \
         no rendezvous orders the configure after the compute",
    );
    note_schedule(d, ir, table, &w.schedule)
}

fn render_stale(ir: &IrExecutive, table: &SymbolTable, w: &Witness) -> Diagnostic {
    let WitnessDetail::StaleData {
        send,
        producer,
        region,
    } = &w.detail
    else {
        unreachable!("stale witness carries stale detail");
    };
    let op = ir.operator_sym(send.0).resolve(table);
    let producer = producer.resolve(table);
    let d = Diagnostic::new(
        Code::UseAfterReconfigure,
        format!(
            "use-after-reconfigure: the send at {op}[{}] hands off data \
             produced by `{producer}` after region `{region}` was \
             reconfigured away from it in some interleaving",
            send.1
        ),
    )
    .at(Location::instr(op, send.1));
    note_schedule(d, ir, table, &w.schedule)
}

// ---------------------------------------------------------------- timing

/// PDR015: `[best, worst]`-clock abstract interpretation against the §4
/// `deadline_us` constraints.
///
/// Clocks advance along the executive's happens-before structure (the
/// fixpoint co-advance is sound because the semantics is confluent):
/// `Compute` adds its characterized duration to both clocks, `Configure`
/// adds its worst-case time to the upper clock only (§4 prefetching can
/// hide a reconfiguration completely, so the lower bound is zero), and a
/// rendezvous joins both sides with `max` plus the medium's transfer
/// time. A deadlined module's compute that cannot meet its deadline even
/// in the best case is an error; one that misses it only in the worst
/// case is a warning.
pub fn check_timing(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    arch: &ArchGraph,
    constraints: &ConstraintsFile,
) -> Vec<Diagnostic> {
    let deadlines: BTreeMap<&str, TimePs> = constraints
        .modules()
        .iter()
        .filter_map(|mc| {
            mc.deadline_us
                .map(|us| (mc.module.as_str(), TimePs::from_us(us)))
        })
        .collect();
    if deadlines.is_empty() {
        return Vec::new();
    }

    // Each executive medium's architecture medium, resolved once; a
    // medium the architecture does not know transfers in zero time.
    let media: Vec<Option<&Medium>> = ir
        .media()
        .iter()
        .map(|m| {
            arch.medium_by_name(m.resolve(table))
                .map(|id| arch.medium(id))
        })
        .collect();
    // Each pair is charged its own payload's transfer time.
    let transfer = |p: &RendezvousPair| -> TimePs {
        match ir.program(p.send_stream).get(p.send_idx) {
            Some(IrInstr::Send { medium, bits, .. }) => media[medium.0 as usize]
                .map(|med| med.transfer_time(*bits))
                .unwrap_or(TimePs::ZERO),
            _ => TimePs::ZERO,
        }
    };

    let streams = ir.operator_count();
    let mut pc = vec![0usize; streams];
    let mut best = vec![TimePs::ZERO; streams];
    let mut worst = vec![TimePs::ZERO; streams];
    let mut diagnostics = Vec::new();
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();

    loop {
        let mut progressed = false;
        for stream in 0..streams {
            let program = ir.program(stream);
            while pc[stream] < program.len() && !program[pc[stream]].is_comm() {
                match &program[pc[stream]] {
                    IrInstr::Compute {
                        function, duration, ..
                    } => {
                        let (eb, ew) = (best[stream] + *duration, worst[stream] + *duration);
                        let name = function.resolve(table);
                        if let Some(&deadline) = deadlines.get(name) {
                            if eb > deadline && reported.insert((stream, pc[stream])) {
                                let operator = ir.operator_sym(stream).resolve(table);
                                diagnostics.push(
                                    Diagnostic::new(
                                        Code::TimingViolation,
                                        format!(
                                            "compute of `{name}` finishes at {eb} at the \
                                             earliest — past its §4 deadline of {deadline}"
                                        ),
                                    )
                                    .at(Location::instr(operator, pc[stream]))
                                    .note(format!("completion clock interval: [{eb}, {ew}]")),
                                );
                            } else if ew > deadline && reported.insert((stream, pc[stream])) {
                                let operator = ir.operator_sym(stream).resolve(table);
                                diagnostics.push(
                                    Diagnostic::new(
                                        Code::TimingViolation,
                                        format!(
                                            "compute of `{name}` can finish as late as {ew}, \
                                             past its §4 deadline of {deadline} (best case \
                                             {eb} meets it)"
                                        ),
                                    )
                                    .with_severity(crate::diag::Severity::Warning)
                                    .at(Location::instr(operator, pc[stream]))
                                    .note(format!("completion clock interval: [{eb}, {ew}]"))
                                    .note(
                                        "worst case counts every reconfiguration at its \
                                         carried worst-case time; best case assumes §4 \
                                         prefetching hides them all",
                                    ),
                                );
                            }
                        }
                        best[stream] = eb;
                        worst[stream] = ew;
                    }
                    IrInstr::Configure { worst_case, .. } => {
                        worst[stream] += *worst_case;
                    }
                    _ => unreachable!("is_comm filtered"),
                }
                pc[stream] += 1;
                progressed = true;
            }
        }
        for p in pairs {
            if pc[p.send_stream] == p.send_idx && pc[p.recv_stream] == p.recv_idx {
                let t = transfer(p);
                let eb = best[p.send_stream].max(best[p.recv_stream]) + t;
                let ew = worst[p.send_stream].max(worst[p.recv_stream]) + t;
                best[p.send_stream] = eb;
                best[p.recv_stream] = eb;
                worst[p.send_stream] = ew;
                worst[p.recv_stream] = ew;
                pc[p.send_stream] += 1;
                pc[p.recv_stream] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    diagnostics
}

/// Convenience for `lint_ir`: everything the model layer contributes.
pub(crate) fn run_for_lint(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    arch: Option<&ArchGraph>,
    _chars: Option<&Characterization>,
    constraints: Option<&ConstraintsFile>,
    config: &ModelConfig,
) -> Vec<Diagnostic> {
    let input = ModelInput {
        ir,
        table,
        pairs,
        constraints,
    };
    let mut diagnostics = check(&input, config).diagnostics;
    if let (Some(arch), Some(constraints)) = (arch, constraints) {
        diagnostics.extend(check_timing(ir, table, pairs, arch, constraints));
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous;
    use pdr_ir::IrBuilder;

    fn pairs_of(ir: &IrExecutive, table: &SymbolTable) -> Vec<RendezvousPair> {
        let r = rendezvous::check(ir, table);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        r.pairs
    }

    fn run(ir: &IrExecutive, table: &SymbolTable, cons: Option<&ConstraintsFile>) -> ModelOutcome {
        let pairs = pairs_of(ir, table);
        check(
            &ModelInput {
                ir,
                table,
                pairs: &pairs,
                constraints: cons,
            },
            &ModelConfig::default(),
        )
    }

    fn cons_two_regions() -> ConstraintsFile {
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_b", "d2",
        ))
        .unwrap();
        f
    }

    #[test]
    fn straight_pipeline_is_clean_and_small() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.compute("x", "f", TimePs::from_us(1));
            b.send("b", "m", 8, 1);
            b.begin_operator("b");
            b.receive("a", "m", 8, 1);
            b.compute("y", "g", TimePs::from_us(1));
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
        assert!(!out.stats.truncated);
        assert!(out.stats.states >= 2);
    }

    #[test]
    fn crossed_waits_deadlock_with_minimal_schedule() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.send("b", "m", 8, 1);
            b.receive("b", "m", 8, 2);
            b.begin_operator("b");
            b.send("a", "m", 8, 2);
            b.receive("a", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, None);
        assert_eq!(out.witnesses.len(), 1);
        let w = &out.witnesses[0];
        assert_eq!(w.code, Code::Deadlock);
        // The initial state already deadlocks: minimal schedule is empty.
        assert!(w.schedule.is_empty(), "{:?}", w.schedule);
        let WitnessDetail::Deadlock { stuck } = &w.detail else {
            panic!("deadlock detail");
        };
        assert_eq!(stuck.len(), 2);
        let d = &out.diagnostics[0];
        assert_eq!(d.code, Code::Deadlock);
        assert!(d.notes.iter().any(|n| n.contains("blocks on")), "{d}");
        // PDR016 rides along: the dead instructions behind the deadlock.
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnreachableInstr));
    }

    #[test]
    fn reorder_dependent_race_is_found_with_witness() {
        // d1 computes mod_a (resident); a *different* stream configures
        // mod_a concurrently — no rendezvous orders them.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("ctl");
            b.configure("mod_a", TimePs::from_ms(4));
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.finish()
        };
        let cons = cons_two_regions();
        let out = run(&ir, &table, Some(&cons));
        let races: Vec<_> = out
            .witnesses
            .iter()
            .filter(|w| w.code == Code::ReconfigRace)
            .collect();
        assert_eq!(races.len(), 1, "{:?}", out.diagnostics);
        let WitnessDetail::Race { region, .. } = &races[0].detail else {
            panic!("race detail");
        };
        assert_eq!(region, "d1");
    }

    #[test]
    fn sequential_use_after_reconfigure_is_found() {
        // d1 computes mod_a, reconfigures to mod_c on the same region,
        // then sends the (now stale) result.
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_c", "d1",
        ))
        .unwrap();
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.configure("mod_c", TimePs::from_ms(4));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, Some(&f));
        let stale: Vec<_> = out
            .witnesses
            .iter()
            .filter(|w| w.code == Code::UseAfterReconfigure)
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", out.diagnostics);
        // The schedule's final step is the stale hand-off itself.
        assert!(matches!(
            stale[0].schedule.last(),
            Some(Step::Rendezvous { .. })
        ));
    }

    #[test]
    fn clean_configure_compute_send_is_clean() {
        let mut f = ConstraintsFile::new();
        f.add(pdr_graph::constraints::ModuleConstraints::new(
            "mod_a", "d1",
        ))
        .unwrap();
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let out = run(&ir, &table, Some(&f));
        assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
    }

    #[test]
    fn tiny_budget_reports_pdr017() {
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            for k in 0..8 {
                b.send("b", "m", 8, k);
            }
            b.begin_operator("b");
            for k in 0..8 {
                b.receive("a", "m", 8, k);
            }
            b.finish()
        };
        let pairs = pairs_of(&ir, &table);
        let out = check(
            &ModelInput {
                ir: &ir,
                table: &table,
                pairs: &pairs,
                constraints: None,
            },
            &ModelConfig::default().with_max_states(2),
        );
        assert!(out.stats.truncated);
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == Code::StateBudgetExceeded));
    }

    #[test]
    fn por_and_full_exploration_agree_on_findings() {
        // Same race fixture, with and without reduction: identical codes,
        // strictly fewer states under POR.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("ctl");
            b.compute("pad0", "soft", TimePs::from_us(1));
            b.configure("mod_a", TimePs::from_ms(4));
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.send("sink", "m", 8, 1);
            b.begin_operator("sink");
            b.compute("pad1", "soft", TimePs::from_us(1));
            b.receive("d1", "m", 8, 1);
            b.finish()
        };
        let cons = cons_two_regions();
        let pairs = pairs_of(&ir, &table);
        let input = ModelInput {
            ir: &ir,
            table: &table,
            pairs: &pairs,
            constraints: Some(&cons),
        };
        let with_por = check(&input, &ModelConfig::default());
        let without = check(&input, &ModelConfig::default().without_por());
        let codes = |o: &ModelOutcome| -> Vec<&'static str> {
            let mut v: Vec<_> = o.diagnostics.iter().map(|d| d.code.as_str()).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(codes(&with_por), codes(&without));
        assert!(with_por.stats.states <= without.stats.states);
    }

    #[test]
    fn timing_deadline_violations_split_error_and_warning() {
        let mut arch = ArchGraph::new("t");
        arch.add_operator("d1", pdr_graph::OperatorKind::FpgaStatic)
            .unwrap();
        let mut f = ConstraintsFile::new();
        let mut mc = pdr_graph::constraints::ModuleConstraints::new("mod_a", "d1");
        mc.deadline_us = Some(10);
        f.add(mc).unwrap();

        // Worst case misses (configure 4 ms), best case meets: warning.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.finish()
        };
        let ds = check_timing(&ir, &table, &[], &arch, &f);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::TimingViolation);
        assert_eq!(ds[0].severity, crate::diag::Severity::Warning);

        // Even the best case misses (compute alone 20 us): error.
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("d1");
            b.configure("mod_a", TimePs::from_ms(4));
            b.compute("eq", "mod_a", TimePs::from_us(20));
            b.finish()
        };
        let ds = check_timing(&ir, &table, &[], &arch, &f);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, crate::diag::Severity::Error);

        // No deadline: nothing to check.
        let ds = check_timing(&ir, &table, &[], &arch, &ConstraintsFile::new());
        assert!(ds.is_empty());
    }

    /// `a` sends `first_bits` (tag 1) then `second_bits` (tag 2) to `b`
    /// over a shared 1 Mbit/s medium; `b` receives tag 1, computes
    /// `mod_a` for 1 µs against `deadline_us`, then receives tag 2.
    fn mixed_width_timing(first_bits: u64, second_bits: u64, deadline_us: u64) -> Vec<Diagnostic> {
        let mut arch = ArchGraph::new("t");
        arch.add_medium("bus", pdr_graph::MediumKind::Bus, 1_000_000, TimePs::ZERO)
            .unwrap();
        let mut f = ConstraintsFile::new();
        let mut mc = pdr_graph::constraints::ModuleConstraints::new("mod_a", "d1");
        mc.deadline_us = Some(deadline_us);
        f.add(mc).unwrap();
        let mut table = SymbolTable::new();
        let ir = {
            let mut b = IrBuilder::new(&mut table);
            b.begin_operator("a");
            b.send("b", "bus", first_bits, 1);
            b.send("b", "bus", second_bits, 2);
            b.begin_operator("b");
            b.receive("a", "bus", first_bits, 1);
            b.compute("eq", "mod_a", TimePs::from_us(1));
            b.receive("a", "bus", second_bits, 2);
            b.finish()
        };
        let pairs = pairs_of(&ir, &table);
        check_timing(&ir, &table, &pairs, &arch, &f)
    }

    #[test]
    fn timing_charges_each_transfer_its_own_payload() {
        // 8 bits take 8 µs: the compute ends at 9 µs, well inside 100 µs,
        // although the medium's other transfer (8 Mbit) takes 8 s.
        let ds = mixed_width_timing(8, 8_000_000, 100);
        assert!(ds.is_empty(), "{ds:?}");

        // 80 bits take 80 µs: the compute ends at 81 µs, past 50 µs,
        // although the medium's other transfer (8 bits) takes 8 µs.
        let ds = mixed_width_timing(80, 8, 50);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].severity, crate::diag::Severity::Error);
        assert_eq!(
            ds[0].to_string(),
            "error[PDR015] b[1]: compute of `mod_a` finishes at 81.000 us at the \
             earliest — past its §4 deadline of 50.000 us\n    \
             | completion clock interval: [81.000 us, 81.000 us]"
        );
    }
}
