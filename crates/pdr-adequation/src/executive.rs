//! Synchronized-executive (macro-code) generation.
//!
//! §3: *"The result is a synchronized executive represented by a macro-code
//! for each vertex of the architecture."* §5 then translates each
//! macro-code into VHDL (or C, for processors).
//!
//! The executive of an operator is a straight-line instruction sequence —
//! one iteration's worth, repeated infinitely by the run-time — drawn from:
//!
//! * [`MacroInstr::Compute`] — run a function for a known duration;
//! * [`MacroInstr::Send`] / [`MacroInstr::Receive`] — rendezvous transfers
//!   over a named medium, matched by tag. Multi-hop routes materialize as
//!   receive-then-send pairs on the relay operator (the FPGA static part
//!   relays DSP ↔ dynamic-region traffic in the paper's platform);
//! * [`MacroInstr::Configure`] — (dynamic operators only) ensure the named
//!   module is resident before the following compute; at run time this is a
//!   request to the configuration manager, which may already have satisfied
//!   it by prefetching.
//!
//! Instruction order per operator is the schedule's time order, so a simple
//! in-order interpreter (see `pdr-sim`) reproduces the schedule exactly when
//! nothing varies at run time.

use crate::error::AdequationError;
use crate::mapping::Mapping;
use crate::schedule::{ItemKind, Schedule, ScheduledItem};
use pdr_fabric::TimePs;
use pdr_graph::{AlgorithmGraph, ArchGraph, Characterization, MediumId, OpId, OperatorId, Route};
use pdr_ir::{IrBuilder, IrExecutive, ModuleId, Sym, SymbolTable};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One macro-code instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MacroInstr {
    /// Execute `function` (the operation's WCET-labeled implementation).
    Compute {
        /// Operation name (diagnostic).
        op: String,
        /// Function symbol.
        function: String,
        /// Characterized duration.
        duration: TimePs,
    },
    /// Send `bits` to `to` over `medium`; blocks until the peer receives.
    Send {
        /// Receiving operator name.
        to: String,
        /// Medium name.
        medium: String,
        /// Payload bits.
        bits: u64,
        /// Rendezvous tag (unique per transfer hop).
        tag: u32,
    },
    /// Receive `bits` from `from` over `medium`; blocks until sent.
    Receive {
        /// Sending operator name.
        from: String,
        /// Medium name.
        medium: String,
        /// Payload bits.
        bits: u64,
        /// Rendezvous tag.
        tag: u32,
    },
    /// Ensure `module` is configured on this (dynamic) operator before
    /// proceeding. `worst_case` is the characterized full reconfiguration
    /// time; the runtime may do better (cache hit, prefetch).
    Configure {
        /// Module (function) that must be resident.
        module: String,
        /// Characterized worst-case reconfiguration time.
        worst_case: TimePs,
    },
}

impl MacroInstr {
    /// Is this a communication instruction?
    pub fn is_comm(&self) -> bool {
        matches!(self, MacroInstr::Send { .. } | MacroInstr::Receive { .. })
    }
}

/// Macro-code for every operator of an architecture: the synchronized
/// executive.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Executive {
    /// Instruction streams keyed by operator name (stable order).
    pub per_operator: BTreeMap<String, Vec<MacroInstr>>,
}

impl Executive {
    /// Instruction stream of one operator (empty if none).
    pub fn of(&self, operator: &str) -> &[MacroInstr] {
        self.per_operator
            .get(operator)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.per_operator.values().map(Vec::len).sum()
    }

    /// Is the executive empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sanity check: every `Send` has exactly one matching `Receive` with
    /// the same tag, medium, bits, and mirrored endpoints — and no tag is
    /// used twice within one operator's sequence (a send and a receive of
    /// the same tag on one operator is a self-rendezvous that blocks
    /// forever). Cross-operator properties beyond tag matching — deadlock
    /// freedom, reconfiguration safety — are `pdr-lint`'s job.
    pub fn validate(&self) -> Result<(), AdequationError> {
        let mut sends: BTreeMap<u32, (&str, &str, &str, u64)> = BTreeMap::new();
        let mut recvs: BTreeMap<u32, (&str, &str, &str, u64)> = BTreeMap::new();
        for (opr, instrs) in &self.per_operator {
            let mut local_tags: BTreeSet<u32> = BTreeSet::new();
            for i in instrs {
                if let MacroInstr::Send { tag, .. } | MacroInstr::Receive { tag, .. } = i {
                    if !local_tags.insert(*tag) {
                        return Err(AdequationError::InvalidSchedule(format!(
                            "operator `{opr}` uses rendezvous tag {tag} more than \
                             once in its sequence"
                        )));
                    }
                }
                match i {
                    MacroInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } if sends
                        .insert(*tag, (opr.as_str(), to.as_str(), medium.as_str(), *bits))
                        .is_some() =>
                    {
                        return Err(AdequationError::InvalidSchedule(format!(
                            "duplicate send tag {tag}"
                        )));
                    }
                    MacroInstr::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } if recvs
                        .insert(*tag, (from.as_str(), opr.as_str(), medium.as_str(), *bits))
                        .is_some() =>
                    {
                        return Err(AdequationError::InvalidSchedule(format!(
                            "duplicate receive tag {tag}"
                        )));
                    }
                    _ => {}
                }
            }
        }
        if sends != recvs {
            // A tag on both sides with differing pairs is listed once.
            let missing: BTreeSet<u32> = sends
                .keys()
                .chain(recvs.keys())
                .filter(|t| sends.get(t) != recvs.get(t))
                .copied()
                .collect();
            return Err(AdequationError::InvalidSchedule(format!(
                "unmatched send/receive pairs for tags {:?}",
                Vec::from_iter(missing)
            )));
        }
        Ok(())
    }

    /// Lower to the interned, fully index-based [`IrExecutive`],
    /// interning every name through `table`. Streams are emitted in this
    /// executive's (alphabetical) operator order, so
    /// `IrExecutive::render` reproduces [`Executive::render`]
    /// byte-for-byte and index order equals name order everywhere
    /// downstream. The flow builds its IR with [`generate_executive_ir`]
    /// instead; this string-driven lowering is the oracle that one is
    /// held equal to, and lowers hand-edited executives.
    pub fn lower(&self, table: &mut SymbolTable) -> IrExecutive {
        let mut b = IrBuilder::new(table);
        for (opr, instrs) in &self.per_operator {
            b.begin_operator(opr);
            for i in instrs {
                match i {
                    MacroInstr::Compute {
                        op,
                        function,
                        duration,
                    } => b.compute(op, function, *duration),
                    MacroInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => b.send(to, medium, *bits, *tag),
                    MacroInstr::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => b.receive(from, medium, *bits, *tag),
                    MacroInstr::Configure { module, worst_case } => {
                        b.configure(module, *worst_case)
                    }
                }
            }
        }
        b.finish()
    }

    /// Pretty-print the executive (one block per operator) — the human
    /// artifact of the §3 "macro-code".
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (opr, instrs) in &self.per_operator {
            out.push_str(&format!("operator {opr}:\n"));
            for i in instrs {
                let line = match i {
                    MacroInstr::Compute {
                        op,
                        function,
                        duration,
                    } => format!("  compute {op} [{function}] ({duration})"),
                    MacroInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => format!("  send -> {to} via {medium} ({bits} bits, tag {tag})"),
                    MacroInstr::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => format!("  recv <- {from} via {medium} ({bits} bits, tag {tag})"),
                    MacroInstr::Configure { module, worst_case } => {
                        format!("  configure {module} (wcet {worst_case})")
                    }
                };
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }
}

/// Generate the synchronized executive from a single-iteration schedule.
pub fn generate_executive(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    mapping: &Mapping,
    schedule: &Schedule,
) -> Result<Executive, AdequationError> {
    let plan = plan(algo, arch, chars, mapping, schedule)?;
    Ok(plan.to_executive(algo, arch))
}

/// [`generate_executive`] plus its lowered form, in one pass from the
/// schedule: the string [`Executive`], the [`IrExecutive`], and the
/// [`SymbolTable`] that resolves it. The table is the architecture's,
/// extended by [`SymbolTable::absorb`] of the algorithm's; the IR is
/// built from graph ids, never from the executive's strings. All three
/// equal what [`generate_executive`] followed by [`Executive::lower`]
/// through that seeded table produces.
pub fn generate_executive_ir(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    mapping: &Mapping,
    schedule: &Schedule,
) -> Result<(Executive, IrExecutive, SymbolTable), AdequationError> {
    let plan = plan(algo, arch, chars, mapping, schedule)?;
    let executive = plan.to_executive(algo, arch);
    let mut symbols = arch.symbols().clone();
    let remap = symbols.absorb(algo.symbols());
    let ir = plan.to_ir(algo, arch, &mut symbols, &remap);
    Ok((executive, ir, symbols))
}

/// Event sort key (see [`plan`]) packed into one integer with the same
/// order: the stamp of `time` in the high 64 bits, `rank` in the next 2,
/// the stamp of the tie-breaking transfer bound in the low 62.
type EventKey = u128;

/// How timestamps enter [`EventKey`]s: as picoseconds, or — when some
/// timestamp of the schedule needs more than 62 bits — as its rank among
/// the schedule's distinct timestamps, which has the same order.
enum Stamps {
    Ps,
    Ranked(Vec<TimePs>),
}

impl Stamps {
    fn new(schedule: &Schedule) -> Self {
        let items = || {
            let operators = schedule.operator_items.values();
            operators.chain(schedule.medium_items.values()).flatten()
        };
        let latest = items().map(|i| i.start.max(i.end)).max();
        if latest.is_none_or(|t| t.as_ps() < 1 << 62) {
            return Stamps::Ps;
        }
        let mut times: Vec<TimePs> = items().flat_map(|i| [i.start, i.end]).collect();
        times.sort_unstable();
        times.dedup();
        Stamps::Ranked(times)
    }

    fn key(&self, time: TimePs, rank: u8, other: TimePs) -> EventKey {
        let stamp = |t: TimePs| match self {
            Stamps::Ps => t.as_ps(),
            Stamps::Ranked(times) => times.binary_search(&t).unwrap_or_else(|i| i) as u64,
        };
        (u128::from(stamp(time)) << 64) | (u128::from(rank) << 62) | u128::from(stamp(other))
    }
}

const RANK_RECEIVE: u8 = 0;
const RANK_SEND: u8 = 1;
const RANK_CONFIGURE: u8 = 2;
const RANK_COMPUTE: u8 = 3;

/// Which function a compute or configure step runs: a declared function
/// of its operation, by position in `op.kind.functions()` (the order of
/// [`AlgorithmGraph::function_syms`]), or a name no operation declares (a
/// hand-edited schedule), by slot in [`Plan::undeclared`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Function {
    Declared(u32),
    Undeclared(u32),
}

/// One macro-instruction as graph ids — the form both emitters read.
/// `Copy`, no string, 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Compute {
        op: OpId,
        function: Function,
        duration: TimePs,
    },
    Send {
        to: OperatorId,
        medium: MediumId,
        bits: u64,
        tag: u32,
    },
    Receive {
        from: OperatorId,
        medium: MediumId,
        bits: u64,
        tag: u32,
    },
    Configure {
        op: OpId,
        function: Function,
        worst_case: TimePs,
    },
}

/// One operator's instruction stream, sorted on the event key.
#[derive(Debug)]
struct Stream {
    opr: OperatorId,
    events: Vec<(EventKey, Step)>,
}

impl Stream {
    fn steps(&self) -> impl Iterator<Item = Step> + '_ {
        self.events.iter().map(|&(_, step)| step)
    }
}

/// A validated executive over graph ids: the streams of every operator
/// with instructions, in operator-name order (the string form's
/// `BTreeMap` order), one past the highest rendezvous tag, and the
/// scheduled function names no operation declares.
#[derive(Debug)]
struct Plan<'a> {
    streams: Vec<Stream>,
    tags: u32,
    undeclared: Vec<&'a str>,
}

impl Plan<'_> {
    /// The name of `op`'s function `f`.
    fn function_name<'g>(&'g self, algo: &'g AlgorithmGraph, op: OpId, f: Function) -> &'g str {
        match f {
            Function::Declared(k) => &algo.op(op).kind.functions()[k as usize],
            Function::Undeclared(i) => self.undeclared[i as usize],
        }
    }
}

/// Build and validate the id-based executive.
fn plan<'a>(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
    mapping: &Mapping,
    schedule: &'a Schedule,
) -> Result<Plan<'a>, AdequationError> {
    // Timed event stream per operator. The sort key must order every
    // operator's events along one consistent global timeline, or two
    // operators can disagree on the order of their shared rendezvous and
    // the executive deadlocks under the synchronous Send/Receive
    // semantics. Key: (time, rank, start, end, seq) where
    //   * time — when the event binds the operator: a Send at the
    //     transfer's start, a Receive at its end, Configure/Compute at
    //     their scheduled start;
    //   * rank — at equal timestamps, complete incoming rendezvous (0)
    //     before initiating outgoing ones (1), then Configure (2) before
    //     the Compute it guards (3). A tie between a Receive ending at t
    //     and a Send starting at t always means the received transfer
    //     finished first, so receive-before-send is the chronological
    //     order; the old insertion-order tie-break could invert it and
    //     cross the rendezvous (a real deadlock the linter caught);
    //   * start/end — the transfer's interval, identical on both
    //     endpoints, so peers break remaining ties identically;
    //   * seq — insertion order, a final deterministic tie-break.
    // At equal (time, rank) a Send's start and a Receive's end are that
    // time, and a Configure/Compute has no interval, so only the other
    // bound can still differ: the packed key holds (time, rank, other
    // bound), and a stable sort keeps insertion order for `seq`.
    let stamps = Stamps::new(schedule);
    let mut events: Vec<Vec<(EventKey, Step)>> = vec![Vec::new(); arch.operator_count()];

    // Transfers: walk each algorithm edge's route; hop k of the medium
    // timeline tells us the times. We re-derive hop endpoints from the
    // route (deterministic, same call the scheduler made).
    let transfers = TransferIndex::new(algo.len(), schedule);
    // Routes from one BFS per source operator, filled on first use.
    let mut route_rows: Vec<Option<Vec<Option<Route>>>> = vec![None; arch.operator_count()];
    let mut endpoints: Vec<OperatorId> = Vec::new();
    let mut tag: u32 = 0;
    let assigned = |op: OpId| {
        mapping
            .operator_of(op)
            .ok_or_else(|| AdequationError::Unmappable {
                operation: algo.op(op).name.clone(),
                reason: "not assigned".into(),
            })
    };
    for e in algo.edges() {
        let src = assigned(e.from)?;
        let dst = assigned(e.to)?;
        if src == dst {
            continue;
        }
        let row = route_rows[src.0].get_or_insert_with(|| arch.routes_from(src));
        let unrouted;
        let route = match &row[dst.0] {
            Some(route) => route,
            // No path: `route` builds the typed `NoRoute` error.
            None => {
                unrouted = arch.route(src, dst)?;
                &unrouted
            }
        };
        // Endpoints of each hop: src, relays..., dst. A relay between media
        // m1 and m2 is the (unique, lowest-id) operator on both.
        endpoints.clear();
        endpoints.push(src);
        for w in route.media.windows(2) {
            let relay = arch
                .operators_on(w[0])
                .iter()
                .find(|o| arch.operators_on(w[1]).contains(o))
                .copied()
                .ok_or_else(|| {
                    AdequationError::InvalidSchedule(format!(
                        "no relay operator between media {} and {}",
                        arch.medium(w[0]).name,
                        arch.medium(w[1]).name
                    ))
                })?;
            endpoints.push(relay);
        }
        endpoints.push(dst);

        // This edge's hop items in the schedule give the timing.
        for (hop, &m) in route.media.iter().enumerate() {
            let item = transfers.first(m, e.from, e.to).ok_or_else(|| {
                AdequationError::InvalidSchedule(format!(
                    "edge {} -> {} missing from medium {} timeline",
                    algo.op(e.from).name,
                    algo.op(e.to).name,
                    arch.medium(m).name
                ))
            })?;
            tag += 1;
            let sender = endpoints[hop];
            let receiver = endpoints[hop + 1];
            events[sender.0].push((
                stamps.key(item.start, RANK_SEND, item.end),
                Step::Send {
                    to: receiver,
                    medium: m,
                    bits: e.bits,
                    tag,
                },
            ));
            events[receiver.0].push((
                stamps.key(item.end, RANK_RECEIVE, item.start),
                Step::Receive {
                    from: sender,
                    medium: m,
                    bits: e.bits,
                    tag,
                },
            ));
        }
    }

    // Computations (with Configure prologues on dynamic operators). Each
    // names its function by position among its operation's functions; a
    // name the operation does not declare gets an undeclared slot.
    let mut undeclared: Vec<&'a str> = Vec::new();
    for (&opr, items) in &schedule.operator_items {
        for item in items {
            if let ItemKind::Compute { op, function, .. } = &item.kind {
                let (op, at, name) = (*op, item.start, &**function);
                let declared = algo.op(op).kind.functions();
                let function = match declared.iter().position(|f| f == name) {
                    Some(k) => Function::Declared(k as u32),
                    None => {
                        undeclared.push(name);
                        Function::Undeclared(undeclared.len() as u32 - 1)
                    }
                };
                if algo.op(op).kind.is_conditioned() && arch.operator(opr).kind.is_dynamic() {
                    let wc = chars.reconfig_time(name, &arch.operator(opr).name)?;
                    events[opr.0].push((
                        stamps.key(at, RANK_CONFIGURE, at),
                        Step::Configure {
                            op,
                            function,
                            worst_case: wc,
                        },
                    ));
                }
                events[opr.0].push((
                    stamps.key(at, RANK_COMPUTE, at),
                    Step::Compute {
                        op,
                        function,
                        duration: item.duration(),
                    },
                ));
            }
        }
    }

    let mut streams: Vec<Stream> = events
        .into_iter()
        .enumerate()
        .filter(|(_, evs)| !evs.is_empty())
        .map(|(o, mut evs)| {
            evs.sort_by_key(|&(key, _)| key);
            Stream {
                opr: OperatorId(o),
                events: evs,
            }
        })
        .collect();
    streams.sort_unstable_by(|a, b| arch.operator(a.opr).name.cmp(&arch.operator(b.opr).name));
    let plan = Plan {
        streams,
        tags: tag + 1,
        undeclared,
    };
    plan.validate(|o| &arch.operator(o).name)?;
    Ok(plan)
}

/// The schedule's transfer items grouped by producer operation (CSR),
/// each group in medium order then timeline order. Only the *first* item
/// of a `(medium, from, to)` key is ever found: parallel duplicate edges
/// `a -> b` share a key, and a scan of the timeline in order binds every
/// one of them to that first item.
struct TransferIndex<'a> {
    /// Group offsets, one per producer operation plus a final end.
    base: Vec<u32>,
    /// `(medium, consumer, item)`; every slot is filled.
    items: Vec<Option<(MediumId, OpId, &'a ScheduledItem)>>,
}

impl<'a> TransferIndex<'a> {
    fn new(ops: usize, schedule: &'a Schedule) -> Self {
        let transfers = || {
            schedule.medium_items.iter().flat_map(|(&m, items)| {
                items.iter().filter_map(move |item| match item.kind {
                    // Items of operations outside the graph are never
                    // looked up.
                    ItemKind::Transfer { from, to, .. } if from.0 < ops => {
                        Some((m, from, to, item))
                    }
                    _ => None,
                })
            })
        };
        let mut base = vec![0u32; ops + 1];
        for (_, from, ..) in transfers() {
            base[from.0 + 1] += 1;
        }
        for i in 0..ops {
            base[i + 1] += base[i];
        }
        let mut fill = base.clone();
        let mut items = vec![None; base[ops] as usize];
        for (m, from, to, item) in transfers() {
            items[fill[from.0] as usize] = Some((m, to, item));
            fill[from.0] += 1;
        }
        TransferIndex { base, items }
    }

    /// The first item of `from -> to` on medium `m`'s timeline.
    fn first(&self, m: MediumId, from: OpId, to: OpId) -> Option<&'a ScheduledItem> {
        let group = &self.items[self.base[from.0] as usize..self.base[from.0 + 1] as usize];
        group
            .iter()
            .flatten()
            .find(|&&(gm, gto, _)| gm == m && gto == to)
            .map(|&(.., item)| item)
    }
}

/// A rendezvous endpoint record: `(sender, receiver, medium, bits)`, ids
/// narrowed to `u32` to keep the per-tag table small.
type Endpoints = (u32, u32, u32, u64);

/// What validation has seen of one tag.
#[derive(Debug, Clone, Copy, Default)]
struct TagSlot {
    send: Option<Endpoints>,
    recv: Option<Endpoints>,
    /// 1 + the position (in name order) of the last stream using the tag;
    /// 0 when none has.
    owner: u32,
}

impl Plan<'_> {
    /// [`Executive::validate`] over ids, with dense per-tag slots in place
    /// of its tag maps: the same walk (streams in name order), the same
    /// first error with the same text, the same unmatched-tag list.
    /// Operator and medium ids name operators and media one to one, so
    /// comparing ids compares the names.
    fn validate<'n>(&self, name_of: impl Fn(OperatorId) -> &'n str) -> Result<(), AdequationError> {
        let mut slots = vec![TagSlot::default(); self.tags as usize];
        for (k, stream) in self.streams.iter().enumerate() {
            let stamp = k as u32 + 1;
            let opr = stream.opr;
            for step in stream.steps() {
                let (tag, record) = match step {
                    Step::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => (tag, (opr.0 as u32, to.0 as u32, medium.0 as u32, bits)),
                    Step::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => (tag, (from.0 as u32, opr.0 as u32, medium.0 as u32, bits)),
                    _ => continue,
                };
                let slot = &mut slots[tag as usize];
                if slot.owner == stamp {
                    return Err(AdequationError::InvalidSchedule(format!(
                        "operator `{}` uses rendezvous tag {tag} more than \
                         once in its sequence",
                        name_of(opr)
                    )));
                }
                slot.owner = stamp;
                let (side, what) = match step {
                    Step::Send { .. } => (&mut slot.send, "send"),
                    _ => (&mut slot.recv, "receive"),
                };
                if side.replace(record).is_some() {
                    return Err(AdequationError::InvalidSchedule(format!(
                        "duplicate {what} tag {tag}"
                    )));
                }
            }
        }
        let missing: Vec<u32> = (0..self.tags)
            .filter(|&t| slots[t as usize].send != slots[t as usize].recv)
            .collect();
        if !missing.is_empty() {
            return Err(AdequationError::InvalidSchedule(format!(
                "unmatched send/receive pairs for tags {missing:?}"
            )));
        }
        Ok(())
    }

    /// The string executive: names cloned out of the graphs.
    fn to_executive(&self, algo: &AlgorithmGraph, arch: &ArchGraph) -> Executive {
        let opr_name = |o: OperatorId| arch.operator(o).name.clone();
        let med_name = |m: MediumId| arch.medium(m).name.clone();
        let per_operator = self
            .streams
            .iter()
            .map(|stream| {
                let instrs = stream
                    .steps()
                    .map(|step| match step {
                        Step::Compute {
                            op,
                            function,
                            duration,
                        } => MacroInstr::Compute {
                            op: algo.op(op).name.clone(),
                            function: self.function_name(algo, op, function).to_string(),
                            duration,
                        },
                        Step::Send {
                            to,
                            medium,
                            bits,
                            tag,
                        } => MacroInstr::Send {
                            to: opr_name(to),
                            medium: med_name(medium),
                            bits,
                            tag,
                        },
                        Step::Receive {
                            from,
                            medium,
                            bits,
                            tag,
                        } => MacroInstr::Receive {
                            from: opr_name(from),
                            medium: med_name(medium),
                            bits,
                            tag,
                        },
                        Step::Configure {
                            op,
                            function,
                            worst_case,
                        } => MacroInstr::Configure {
                            module: self.function_name(algo, op, function).to_string(),
                            worst_case,
                        },
                    })
                    .collect();
                (opr_name(stream.opr), instrs)
            })
            .collect();
        Executive { per_operator }
    }

    /// The lowered executive, through `table` — the architecture's table
    /// extended by the algorithm's, whose handles `remap` translates.
    /// Operator and medium symbols are the architecture's own (its table
    /// is the prefix of `table`), and a declared function's is its
    /// operation's function symbol; an undeclared function is interned by
    /// name, where lowering would intern it.
    fn to_ir(
        &self,
        algo: &AlgorithmGraph,
        arch: &ArchGraph,
        table: &mut SymbolTable,
        remap: &[Sym],
    ) -> IrExecutive {
        let oprs: Vec<pdr_ir::OperatorId> = (0..arch.operator_count())
            .map(|o| arch.operator_sym(OperatorId(o)))
            .collect();
        let media: Vec<pdr_ir::MediumId> = (0..arch.medium_count())
            .map(|m| arch.medium_sym(MediumId(m)))
            .collect();
        let declared = |op: OpId, k: u32| {
            ModuleId::new(remap[algo.function_syms(op)[k as usize].sym().index()])
        };
        let mut b = IrBuilder::new(table);
        for stream in &self.streams {
            b.begin_operator_id(oprs[stream.opr.0]);
            for step in stream.steps() {
                match step {
                    Step::Compute {
                        op,
                        function,
                        duration,
                    } => match function {
                        Function::Declared(k) => {
                            let f = declared(op, k);
                            let op = pdr_ir::OpId::new(remap[algo.op_sym(op).sym().index()]);
                            b.compute_id(op, f, duration);
                        }
                        Function::Undeclared(i) => {
                            b.compute(&algo.op(op).name, self.undeclared[i as usize], duration)
                        }
                    },
                    Step::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => b.send_id(oprs[to.0], media[medium.0], bits, tag),
                    Step::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => b.receive_id(oprs[from.0], media[medium.0], bits, tag),
                    Step::Configure {
                        op,
                        function,
                        worst_case,
                    } => match function {
                        Function::Declared(k) => b.configure_id(declared(op, k), worst_case),
                        Function::Undeclared(i) => {
                            b.configure(self.undeclared[i as usize], worst_case)
                        }
                    },
                }
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{adequate, AdequationOptions};
    use pdr_graph::paper;

    fn paper_executive() -> (Executive, ArchGraph) {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        let e = generate_executive(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        (e, arch)
    }

    #[test]
    fn executive_validates_and_covers_operators() {
        let (e, _) = paper_executive();
        e.validate().unwrap();
        assert!(!e.is_empty());
        // DSP sends, FPGA static computes, op_dyn configures+computes.
        assert!(e
            .of("dsp")
            .iter()
            .any(|i| matches!(i, MacroInstr::Send { .. })));
        assert!(e
            .of("fpga_static")
            .iter()
            .any(|i| matches!(i, MacroInstr::Compute { .. })));
        assert!(e
            .of("op_dyn")
            .iter()
            .any(|i| matches!(i, MacroInstr::Configure { .. })));
    }

    #[test]
    fn configure_precedes_the_conditioned_compute() {
        let (e, _) = paper_executive();
        let stream = e.of("op_dyn");
        let cfg = stream
            .iter()
            .position(|i| matches!(i, MacroInstr::Configure { .. }))
            .expect("configure present");
        let cmp = stream
            .iter()
            .position(|i| matches!(i, MacroInstr::Compute { op, .. } if op == "modulation"))
            .expect("modulation compute present");
        assert!(cfg < cmp);
    }

    #[test]
    fn relay_operator_receives_then_sends() {
        // DSP -> op_dyn traffic relays through fpga_static: its stream must
        // contain a Receive from dsp and a Send to op_dyn.
        let (e, _) = paper_executive();
        let fs = e.of("fpga_static");
        assert!(fs
            .iter()
            .any(|i| matches!(i, MacroInstr::Receive { from, .. } if from == "dsp")));
        assert!(fs
            .iter()
            .any(|i| matches!(i, MacroInstr::Send { to, .. } if to == "op_dyn")));
    }

    #[test]
    fn render_is_readable() {
        let (e, _) = paper_executive();
        let text = e.render();
        assert!(text.contains("operator dsp:"));
        assert!(text.contains("configure"));
        assert!(text.contains("compute"));
    }

    #[test]
    fn lowering_renders_byte_identically() {
        let (e, arch) = paper_executive();
        let mut table = arch.symbols().clone();
        let ir = e.lower(&mut table);
        assert_eq!(ir.render(&table), e.render());
        assert_eq!(ir.len(), e.len());
        assert_eq!(ir.operator_count(), e.per_operator.len());
        // Stream order equals the string form's alphabetical order.
        for (i, opr) in e.per_operator.keys().enumerate() {
            assert_eq!(ir.operator_sym(i).resolve(&table), opr);
        }
    }

    #[test]
    fn mismatched_tags_fail_validation() {
        let mut e = Executive::default();
        e.per_operator.insert(
            "a".into(),
            vec![MacroInstr::Send {
                to: "b".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        assert!(e.validate().is_err());
        // Matching receive fixes it.
        e.per_operator.insert(
            "b".into(),
            vec![MacroInstr::Receive {
                from: "a".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        e.validate().unwrap();
        // Wrong bits breaks it again.
        e.per_operator.insert(
            "b".into(),
            vec![MacroInstr::Receive {
                from: "a".into(),
                medium: "m".into(),
                bits: 9,
                tag: 1,
            }],
        );
        // The tag sits in both maps with differing pairs: listed once.
        assert_eq!(
            e.validate().unwrap_err().to_string(),
            "invalid schedule: unmatched send/receive pairs for tags [1]"
        );
    }

    #[test]
    fn per_operator_duplicate_tag_rejected() {
        // A send and a receive of the same tag on ONE operator is a
        // self-rendezvous: globally the tag maps still pair up, so only
        // the per-operator check can reject it.
        let mut e = Executive::default();
        e.per_operator.insert(
            "a".into(),
            vec![
                MacroInstr::Send {
                    to: "a".into(),
                    medium: "m".into(),
                    bits: 8,
                    tag: 7,
                },
                MacroInstr::Receive {
                    from: "a".into(),
                    medium: "m".into(),
                    bits: 8,
                    tag: 7,
                },
            ],
        );
        let err = e.validate().unwrap_err();
        assert!(err.to_string().contains("more than"), "{err}");
    }

    /// The id-based validator run on a string executive: operators and
    /// media numbered in name order, function names dropped (validation
    /// never reads them).
    fn validate_by_ids(e: &Executive) -> Result<(), AdequationError> {
        let mut names: Vec<&str> = e.per_operator.keys().map(String::as_str).collect();
        let mut media: Vec<&str> = Vec::new();
        for i in e.per_operator.values().flatten() {
            if let MacroInstr::Send {
                to: peer, medium, ..
            }
            | MacroInstr::Receive {
                from: peer, medium, ..
            } = i
            {
                names.push(peer);
                media.push(medium);
            }
        }
        names.sort_unstable();
        names.dedup();
        media.sort_unstable();
        media.dedup();
        let opr = |n: &str| OperatorId(names.binary_search(&n).unwrap());
        let med = |n: &str| MediumId(media.binary_search(&n).unwrap());
        let mut tags = 0;
        let streams = e
            .per_operator
            .iter()
            .map(|(name, instrs)| {
                let events = instrs
                    .iter()
                    .enumerate()
                    .map(|(seq, i)| {
                        let step = match i {
                            MacroInstr::Compute { duration, .. } => Step::Compute {
                                op: OpId(0),
                                function: Function::Declared(0),
                                duration: *duration,
                            },
                            MacroInstr::Configure { worst_case, .. } => Step::Configure {
                                op: OpId(0),
                                function: Function::Declared(0),
                                worst_case: *worst_case,
                            },
                            MacroInstr::Send {
                                to,
                                medium,
                                bits,
                                tag,
                            } => Step::Send {
                                to: opr(to),
                                medium: med(medium),
                                bits: *bits,
                                tag: *tag,
                            },
                            MacroInstr::Receive {
                                from,
                                medium,
                                bits,
                                tag,
                            } => Step::Receive {
                                from: opr(from),
                                medium: med(medium),
                                bits: *bits,
                                tag: *tag,
                            },
                        };
                        if let Step::Send { tag, .. } | Step::Receive { tag, .. } = step {
                            tags = tags.max(tag + 1);
                        }
                        (seq as EventKey, step)
                    })
                    .collect();
                Stream {
                    opr: opr(name),
                    events,
                }
            })
            .collect();
        let undeclared = Vec::new();
        Plan {
            streams,
            tags,
            undeclared,
        }
        .validate(|o| names[o.0])
    }

    fn send(to: &str, medium: &str, bits: u64, tag: u32) -> MacroInstr {
        MacroInstr::Send {
            to: to.into(),
            medium: medium.into(),
            bits,
            tag,
        }
    }

    fn recv(from: &str, medium: &str, bits: u64, tag: u32) -> MacroInstr {
        MacroInstr::Receive {
            from: from.into(),
            medium: medium.into(),
            bits,
            tag,
        }
    }

    fn executive(streams: &[(&str, Vec<MacroInstr>)]) -> Executive {
        Executive {
            per_operator: streams
                .iter()
                .map(|(name, instrs)| (name.to_string(), instrs.clone()))
                .collect(),
        }
    }

    /// Each defect `Executive::validate` reports, built by hand, gets the
    /// same error (text included) from the id-based validator.
    #[test]
    fn id_validation_reports_the_oracle_error_on_each_defect() {
        let ok = || {
            vec![
                ("a", vec![send("b", "m", 8, 1), recv("b", "n", 16, 2)]),
                ("b", vec![recv("a", "m", 8, 1), send("a", "n", 16, 2)]),
            ]
        };
        let mut cases: Vec<(&str, Executive)> = vec![("matched", executive(&ok()))];
        // A send and a receive of one tag on one operator.
        let mut s = ok();
        s[0].1.push(recv("a", "m", 8, 1));
        cases.push(("local duplicate", executive(&s)));
        // Two operators send tag 1.
        let mut s = ok();
        s.push(("c", vec![send("b", "m", 8, 1)]));
        cases.push(("duplicate send", executive(&s)));
        // Two operators receive tag 2.
        let mut s = ok();
        s.push(("c", vec![recv("b", "n", 16, 2)]));
        cases.push(("duplicate receive", executive(&s)));
        // Each field of a pair disagrees in turn.
        for (what, bad) in [
            ("endpoint", recv("c", "m", 8, 1)),
            ("medium", recv("a", "n", 8, 1)),
            ("bits", recv("a", "m", 9, 1)),
        ] {
            let mut s = ok();
            s[1].1[0] = bad;
            s.push(("c", vec![]));
            cases.push((what, executive(&s)));
        }
        // Unpaired sends and receives on several tags: the list is sorted.
        let mut s = ok();
        s[0].1.push(send("b", "m", 8, 9));
        s[1].1.push(recv("a", "m", 8, 0));
        s[1].1[1] = send("a", "n", 32, 2);
        cases.push(("several unmatched", executive(&s)));
        // Defects on two operators: the first in name order wins.
        let mut s = ok();
        s[1].1.push(send("a", "m", 8, 2));
        s.push(("c", vec![send("a", "m", 8, 1)]));
        cases.push(("first in name order", executive(&s)));

        for (what, e) in &cases {
            let oracle = e.validate();
            assert_eq!(validate_by_ids(e), oracle, "{what}");
            assert_eq!(oracle.is_ok(), *what == "matched", "{what}: {oracle:?}");
        }
        assert_eq!(
            validate_by_ids(&cases[1].1).unwrap_err().to_string(),
            "invalid schedule: operator `a` uses rendezvous tag 1 more than once in its sequence"
        );
        assert_eq!(
            validate_by_ids(&cases[7].1).unwrap_err().to_string(),
            "invalid schedule: unmatched send/receive pairs for tags [0, 2, 9]"
        );
    }

    /// Seeded random edits of the paper executive — retagged, rewidened,
    /// rerouted, duplicated, moved and dropped communications — validate
    /// alike through both validators.
    #[test]
    fn id_validation_agrees_with_the_oracle_on_random_edits() {
        let (base, _) = paper_executive();
        let names: Vec<String> = base.per_operator.keys().cloned().collect();
        let mut rng: u64 = 0x5eed;
        let mut next = move |n: usize| {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let mut failures = 0;
        for _ in 0..400 {
            let mut e = base.clone();
            for _ in 0..1 + next(3) {
                let opr = &names[next(names.len())];
                let stream = e.per_operator.get_mut(opr).unwrap();
                let Some(at) = (0..stream.len()).find(|_| next(3) == 0) else {
                    continue;
                };
                let edit = next(6);
                let instr = &mut stream[at];
                if let MacroInstr::Send {
                    to: peer,
                    medium,
                    bits,
                    tag,
                }
                | MacroInstr::Receive {
                    from: peer,
                    medium,
                    bits,
                    tag,
                } = instr
                {
                    match edit {
                        0 => *tag = next(12) as u32,
                        1 => *bits += 1,
                        2 => *peer = names[next(names.len())].clone(),
                        3 => *medium = format!("{medium}_x"),
                        _ => {}
                    }
                }
                let instr = stream[at].clone();
                match edit {
                    4 => stream.push(instr),
                    5 => {
                        stream.remove(at);
                        let to = &names[next(names.len())];
                        e.per_operator.get_mut(to).unwrap().push(instr);
                    }
                    _ => {}
                }
            }
            let oracle = e.validate();
            failures += usize::from(oracle.is_err());
            assert_eq!(validate_by_ids(&e), oracle, "{}", e.render());
        }
        assert!(failures > 200, "only {failures} edits broke validation");
    }

    #[test]
    fn steps_stay_small() {
        assert!(std::mem::size_of::<Step>() <= 32);
    }

    #[test]
    fn is_comm_classifier() {
        assert!(MacroInstr::Send {
            to: "x".into(),
            medium: "m".into(),
            bits: 1,
            tag: 0
        }
        .is_comm());
        assert!(!MacroInstr::Compute {
            op: "o".into(),
            function: "f".into(),
            duration: TimePs::ZERO
        }
        .is_comm());
    }
}
