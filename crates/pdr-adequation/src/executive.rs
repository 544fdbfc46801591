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
use pdr_graph::prelude::*;
use pdr_ir::{IrBuilder, IrExecutive, SymbolTable};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
    /// downstream.
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
    type EventKey = (TimePs, u8, TimePs, TimePs, u32);
    let mut events: BTreeMap<OperatorId, Vec<(EventKey, MacroInstr)>> = BTreeMap::new();
    let mut seq: u32 = 0;
    let next = |s: &mut u32| {
        *s += 1;
        *s
    };
    const RANK_RECEIVE: u8 = 0;
    const RANK_SEND: u8 = 1;
    const RANK_CONFIGURE: u8 = 2;
    const RANK_COMPUTE: u8 = 3;

    // Transfers: walk each algorithm edge's route; hop k of the medium
    // timeline tells us the times. We re-derive hop endpoints from the
    // route (deterministic, same call the scheduler made).
    //
    // Each medium's transfers are indexed once, keyed by (medium, edge
    // endpoints). Only the *first* item of a key is kept: parallel
    // duplicate edges `a -> b` share a key, and a scan of the timeline in
    // order binds every one of them to that first item.
    let mut transfers: HashMap<(MediumId, OpId, OpId), &ScheduledItem> =
        HashMap::with_capacity(schedule.medium_items.values().map(Vec::len).sum());
    for (&m, items) in &schedule.medium_items {
        for item in items {
            if let ItemKind::Transfer { from, to, .. } = item.kind {
                transfers.entry((m, from, to)).or_insert(item);
            }
        }
    }
    // Routes from one BFS per source operator, filled on first use.
    let mut route_rows: Vec<Option<Vec<Option<Route>>>> = vec![None; arch.operator_count()];
    let mut endpoints: Vec<OperatorId> = Vec::new();
    let mut tag: u32 = 0;
    for e in algo.edges() {
        let src = mapping
            .operator_of(e.from)
            .ok_or_else(|| AdequationError::Unmappable {
                operation: algo.op(e.from).name.clone(),
                reason: "not assigned".into(),
            })?;
        let dst = mapping
            .operator_of(e.to)
            .ok_or_else(|| AdequationError::Unmappable {
                operation: algo.op(e.to).name.clone(),
                reason: "not assigned".into(),
            })?;
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
            let item = transfers.get(&(m, e.from, e.to)).ok_or_else(|| {
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
            let med_name = arch.medium(m).name.clone();
            events.entry(sender).or_default().push((
                (item.start, RANK_SEND, item.start, item.end, next(&mut seq)),
                MacroInstr::Send {
                    to: arch.operator(receiver).name.clone(),
                    medium: med_name.clone(),
                    bits: e.bits,
                    tag,
                },
            ));
            events.entry(receiver).or_default().push((
                (item.end, RANK_RECEIVE, item.start, item.end, next(&mut seq)),
                MacroInstr::Receive {
                    from: arch.operator(sender).name.clone(),
                    medium: med_name,
                    bits: e.bits,
                    tag,
                },
            ));
        }
    }

    // Computations (with Configure prologues on dynamic operators).
    for (&opr, items) in &schedule.operator_items {
        for item in items {
            if let ItemKind::Compute { op, function, .. } = &item.kind {
                let op_name = algo.op(*op).name.clone();
                if algo.op(*op).kind.is_conditioned() && arch.operator(opr).kind.is_dynamic() {
                    let wc = chars.reconfig_time(function, &arch.operator(opr).name)?;
                    events.entry(opr).or_default().push((
                        (
                            item.start,
                            RANK_CONFIGURE,
                            item.start,
                            item.start,
                            next(&mut seq),
                        ),
                        MacroInstr::Configure {
                            module: function.clone(),
                            worst_case: wc,
                        },
                    ));
                }
                events.entry(opr).or_default().push((
                    (
                        item.start,
                        RANK_COMPUTE,
                        item.start,
                        item.start,
                        next(&mut seq),
                    ),
                    MacroInstr::Compute {
                        op: op_name,
                        function: function.clone(),
                        duration: item.duration(),
                    },
                ));
            }
        }
    }

    let mut exec = Executive::default();
    for (opr, mut evs) in events {
        evs.sort_by_key(|a| a.0);
        exec.per_operator.insert(
            arch.operator(opr).name.clone(),
            evs.into_iter().map(|(_, i)| i).collect(),
        );
    }
    exec.validate()?;
    Ok(exec)
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
