//! Model checker and rendezvous pass vs their hash-map oracles.
//!
//! `pdr_lint::model::check` walks a single-transition prefix in place on
//! an incremental enabled set, then keeps every visited state as a
//! fixed-width record in one arena, finds states through an
//! incrementally hashed open-addressed table and walks the breadth-first
//! frontier as a cursor over node ids; `pdr_lint::rendezvous::check`
//! matches tags by sorting
//! `(tag, walk position)` once. Both are optimizations, not behaviour
//! changes. The explorer they replaced (a cloned `State` per transition,
//! a `HashMap<Vec<u8>, u32>` visited set, a `VecDeque` frontier) and the
//! hash-map rendezvous pass are kept below as test-only oracles, rebuilt
//! from public items only, and every output is pinned equal:
//!
//! * model checker — equal `stats`, equal witnesses (full schedules) and
//!   equal diagnostic code/location sequences, with PDR016 locations
//!   taken from the oracle's own executed marks; on every gallery flow,
//!   seeded 64–512-op generated flows, the generated 10k-op flow, POR off
//!   (`synthetic_large`'s full 610 566 states included), tight state
//!   budgets (PDR017), hand-built deadlock / race / stale hand-off
//!   executives, an executive whose path hands off to the search mid-run
//!   and random executives over two tracked regions;
//! * rendezvous pass — equal diagnostics (rendered and structural) and
//!   equal `pairs` on random malformed executives.

use pdr_adequation::adequate;
use pdr_adequation::executive::{generate_executive, MacroInstr};
use pdr_core::gallery::{self, synthetic, SyntheticParams};
use pdr_core::{DesignFlow, FlowArtifacts};
use pdr_fabric::TimePs;
use pdr_graph::constraints::{ConstraintsFile, ModuleConstraints};
use pdr_ir::{IrBuilder, IrExecutive, SymbolTable};
use pdr_lint::model::{self, ModelInput, ModelOutcome, ModelStats, Step, Witness, WitnessDetail};
use pdr_lint::rendezvous::{self, RendezvousAnalysis};
use pdr_lint::{Code, Diagnostic, Location, ModelConfig, RendezvousPair};
use proptest::prelude::*;

/// The pre-arena explorer, verbatim in its algorithm: one cloned `State`
/// per transition, packed into a fresh byte key for a SipHashed
/// `HashMap<Vec<u8>, u32>`, with a `VecDeque` of `(node, State)` as the
/// breadth-first frontier.
mod oracle_model {
    use super::*;
    use pdr_ir::{IrInstr, ModuleId};
    use std::collections::{BTreeMap, HashMap, VecDeque};

    const NONE: u8 = u8::MAX;
    const MAX_TRACKED: usize = 250;

    /// What the oracle reports: the production outcome minus rendered
    /// text (diagnostics as code + location).
    pub struct Outcome {
        pub stats: ModelStats,
        pub witnesses: Vec<Witness>,
        pub sites: Vec<(Code, Option<Location>)>,
    }

    #[derive(Clone, Copy)]
    enum Action {
        Local,
        ComputeTracked { module: u8 },
        ConfigureTracked { module: u8, region: u8 },
        Send { pair: u32 },
        Wait,
    }

    #[derive(Clone)]
    struct State {
        pcs: Vec<u32>,
        resident: Vec<u8>,
        produced: Vec<u8>,
    }

    impl State {
        fn pack(&self, buf: &mut Vec<u8>) {
            buf.clear();
            for pc in &self.pcs {
                buf.extend_from_slice(&pc.to_le_bytes());
            }
            buf.extend_from_slice(&self.resident);
            buf.extend_from_slice(&self.produced);
        }
    }

    #[derive(Clone, Copy)]
    struct Trans {
        step: Step,
        action: Action,
        stream: usize,
    }

    struct Tracked {
        modules: Vec<ModuleId>,
        region_of: Vec<u8>,
        regions: Vec<String>,
        module_ix: HashMap<ModuleId, u8>,
    }

    fn tracked(table: &SymbolTable, constraints: Option<&ConstraintsFile>) -> Tracked {
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

    pub fn check(input: &ModelInput<'_>, config: &ModelConfig) -> Outcome {
        let ir = input.ir;
        let pairs = input.pairs;
        let n = ir.operator_count();
        let tr = tracked(input.table, input.constraints);
        let op = |s: usize| ir.operator_sym(s).resolve(input.table).to_string();

        let mut send_at: HashMap<(usize, usize), u32> = HashMap::new();
        for (k, p) in pairs.iter().enumerate() {
            if p.recv_stream < n && p.recv_idx < ir.program(p.recv_stream).len() {
                send_at.insert((p.send_stream, p.send_idx), k as u32);
            }
        }
        let actions: Vec<Vec<Action>> = (0..n)
            .map(|stream| {
                ir.program(stream)
                    .iter()
                    .enumerate()
                    .map(|(index, instr)| match instr {
                        IrInstr::Compute { function, .. } => match tr.module_ix.get(function) {
                            Some(&m) => Action::ComputeTracked { module: m },
                            None => Action::Local,
                        },
                        IrInstr::Configure { module, .. } => match tr.module_ix.get(module) {
                            Some(&m) => Action::ConfigureTracked {
                                module: m,
                                region: tr.region_of[m as usize],
                            },
                            None => Action::Local,
                        },
                        IrInstr::Send { .. } => match send_at.get(&(stream, index)) {
                            Some(&pair) => Action::Send { pair },
                            None => Action::Wait,
                        },
                        IrInstr::Receive { .. } => Action::Wait,
                    })
                    .collect()
            })
            .collect();
        let mut executed: Vec<Vec<bool>> =
            (0..n).map(|s| vec![false; ir.program(s).len()]).collect();
        let mut nodes: Vec<(u32, Step)> = Vec::new();
        let mut stats = ModelStats::default();

        let enabled = |state: &State| -> Vec<Trans> {
            let mut out = Vec::new();
            for (stream, list) in actions.iter().enumerate() {
                let pc = state.pcs[stream] as usize;
                if pc >= list.len() {
                    continue;
                }
                let action = list[pc];
                match action {
                    Action::Wait => {}
                    Action::Send { pair } => {
                        let p = pairs[pair as usize];
                        if state.pcs[p.recv_stream] as usize == p.recv_idx {
                            out.push(Trans {
                                step: Step::Rendezvous { pair: p },
                                action,
                                stream,
                            });
                        }
                    }
                    _ => out.push(Trans {
                        step: Step::Local { stream, index: pc },
                        action,
                        stream,
                    }),
                }
            }
            out
        };
        let invisible = |state: &State, t: &Trans| match t.action {
            Action::Local => true,
            Action::Send { .. } => state.produced[t.stream] == NONE,
            _ => false,
        };
        let schedule_to = |nodes: &[(u32, Step)], node: u32| {
            let mut steps = Vec::new();
            let mut cur = node;
            while cur != u32::MAX {
                let (parent, step) = nodes[cur as usize];
                if parent == u32::MAX {
                    break;
                }
                steps.push(step);
                cur = parent;
            }
            steps.reverse();
            steps
        };

        let mut seen: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut queue: VecDeque<(u32, State)> = VecDeque::new();
        let mut key = Vec::new();
        let root = State {
            pcs: vec![0; n],
            resident: vec![NONE; tr.regions.len()],
            produced: vec![NONE; n],
        };
        root.pack(&mut key);
        seen.insert(key.clone(), 0);
        nodes.push((
            u32::MAX,
            Step::Local {
                stream: 0,
                index: 0,
            },
        ));
        queue.push_back((0, root));

        let mut deadlock: Option<Witness> = None;
        let mut races: BTreeMap<(usize, usize, usize, usize), Witness> = BTreeMap::new();
        let mut stales: BTreeMap<(usize, usize, u8), Witness> = BTreeMap::new();

        while let Some((node, state)) = queue.pop_front() {
            let enabled = enabled(&state);
            if enabled.is_empty() {
                let stuck: Vec<(usize, usize)> = state
                    .pcs
                    .iter()
                    .enumerate()
                    .filter(|&(s, &pc)| (pc as usize) < ir.program(s).len())
                    .map(|(s, &pc)| (s, pc as usize))
                    .collect();
                if !stuck.is_empty() && deadlock.is_none() {
                    deadlock = Some(Witness {
                        code: Code::Deadlock,
                        schedule: schedule_to(&nodes, node),
                        detail: WitnessDetail::Deadlock { stuck },
                    });
                }
                continue;
            }
            for c in &enabled {
                let Action::ConfigureTracked { region, .. } = c.action else {
                    continue;
                };
                for w in &enabled {
                    let Action::ComputeTracked { module } = w.action else {
                        continue;
                    };
                    if w.stream == c.stream
                        || tr.region_of[module as usize] != region
                        || state.resident[region as usize] != module
                    {
                        continue;
                    }
                    let (ci, wi) = (state.pcs[c.stream] as usize, state.pcs[w.stream] as usize);
                    let site = (c.stream, ci, w.stream, wi);
                    if races.len() < model::MAX_WITNESSES_PER_CODE && !races.contains_key(&site) {
                        races.insert(
                            site,
                            Witness {
                                code: Code::ReconfigRace,
                                schedule: schedule_to(&nodes, node),
                                detail: WitnessDetail::Race {
                                    configure: (c.stream, ci),
                                    compute: (w.stream, wi),
                                    module: tr.modules[module as usize],
                                    region: tr.regions[region as usize].clone(),
                                },
                            },
                        );
                    }
                }
            }
            let ample: Vec<Trans> = if config.por {
                match enabled.iter().find(|t| invisible(&state, t)) {
                    Some(t) => vec![*t],
                    None => enabled,
                }
            } else {
                enabled
            };
            for t in &ample {
                let mut next = state.clone();
                let mut stale = None;
                match t.step {
                    Step::Local { stream, index } => {
                        executed[stream][index] = true;
                        next.pcs[stream] += 1;
                        match t.action {
                            Action::ComputeTracked { module } => next.produced[stream] = module,
                            Action::ConfigureTracked { module, region } => {
                                next.resident[region as usize] = module;
                            }
                            _ => {}
                        }
                    }
                    Step::Rendezvous { pair } => {
                        executed[pair.send_stream][pair.send_idx] = true;
                        executed[pair.recv_stream][pair.recv_idx] = true;
                        next.pcs[pair.send_stream] += 1;
                        next.pcs[pair.recv_stream] += 1;
                        let produced = state.produced[pair.send_stream];
                        if produced != NONE {
                            let region = tr.region_of[produced as usize] as usize;
                            if next.resident[region] != produced {
                                stale = Some((pair.send_stream, pair.send_idx, produced));
                            }
                            next.produced[pair.send_stream] = NONE;
                        }
                    }
                }
                stats.transitions += 1;
                if let Some((send_stream, send_idx, produced)) = stale {
                    let site = (send_stream, send_idx, produced);
                    if stales.len() < model::MAX_WITNESSES_PER_CODE && !stales.contains_key(&site) {
                        let mut schedule = schedule_to(&nodes, node);
                        schedule.push(t.step);
                        stales.insert(
                            site,
                            Witness {
                                code: Code::UseAfterReconfigure,
                                schedule,
                                detail: WitnessDetail::StaleData {
                                    send: (send_stream, send_idx),
                                    producer: tr.modules[produced as usize],
                                    region: tr.regions[tr.region_of[produced as usize] as usize]
                                        .clone(),
                                },
                            },
                        );
                    }
                }
                next.pack(&mut key);
                if seen.contains_key(&key) {
                    continue;
                }
                if nodes.len() >= config.max_states {
                    stats.truncated = true;
                    continue;
                }
                let id = nodes.len() as u32;
                seen.insert(key.clone(), id);
                nodes.push((node, t.step));
                queue.push_back((id, next));
            }
        }
        stats.states = nodes.len() as u64;

        let mut witnesses = Vec::new();
        let mut sites = Vec::new();
        for w in deadlock
            .into_iter()
            .chain(races.into_values())
            .chain(stales.into_values())
        {
            let (stream, index) = match &w.detail {
                WitnessDetail::Deadlock { stuck } => stuck[0],
                WitnessDetail::Race { configure, .. } => *configure,
                WitnessDetail::StaleData { send, .. } => *send,
            };
            sites.push((w.code, Some(Location::instr(op(stream), index))));
            witnesses.push(w);
        }
        if stats.truncated {
            sites.push((Code::StateBudgetExceeded, None));
        } else {
            for (stream, marks) in executed.iter().enumerate() {
                if let Some(first) = marks.iter().position(|&e| !e) {
                    sites.push((
                        Code::UnreachableInstr,
                        Some(Location::instr(op(stream), first)),
                    ));
                }
            }
        }
        Outcome {
            stats,
            witnesses,
            sites,
        }
    }
}

/// The hash-map rendezvous pass: one walk with per-role `HashMap`s of
/// first endpoints and a per-operator map of the latest use per tag.
mod oracle_rendezvous {
    use super::*;
    use pdr_ir::{IrInstr, MediumRef, PeerRef};
    use std::collections::HashMap;

    #[derive(Clone, Copy)]
    struct Endpoint {
        stream: usize,
        index: usize,
        peer: PeerRef,
        medium: MediumRef,
        bits: u64,
    }

    pub fn check(ir: &IrExecutive, table: &SymbolTable) -> RendezvousAnalysis {
        let mut diagnostics = Vec::new();
        let mut sends: HashMap<u32, Endpoint> = HashMap::new();
        let mut recvs: HashMap<u32, Endpoint> = HashMap::new();
        let mut local_tags: HashMap<u32, usize> = HashMap::new();
        let op_name = |stream: usize| ir.operator_sym(stream).resolve(table);

        for stream in 0..ir.operator_count() {
            let operator = op_name(stream);
            local_tags.clear();
            for (index, instr) in ir.program(stream).iter().enumerate() {
                let (tag, peer, medium, bits, role_map, role) = match instr {
                    IrInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => (*tag, *to, *medium, *bits, &mut sends, "send"),
                    IrInstr::Receive {
                        from,
                        medium,
                        bits,
                        tag,
                    } => (*tag, *from, *medium, *bits, &mut recvs, "receive"),
                    _ => continue,
                };
                if let Some(&first) = local_tags.get(&tag) {
                    diagnostics.push(
                        Diagnostic::new(
                            Code::DuplicateTag,
                            format!(
                                "tag {tag} used twice within operator `{operator}` \
                                 (first at {operator}[{first}]); a tag names exactly \
                                 one transfer hop between two operators"
                            ),
                        )
                        .at(Location::instr(operator, index)),
                    );
                }
                local_tags.insert(tag, index);
                let ep = Endpoint {
                    stream,
                    index,
                    peer,
                    medium,
                    bits,
                };
                if let Some(prev) = role_map.get(&tag) {
                    if prev.stream != stream {
                        diagnostics.push(
                            Diagnostic::new(
                                Code::DuplicateTag,
                                format!(
                                    "tag {tag} has a second {role} at \
                                     {operator}[{index}] (first at {}[{}])",
                                    op_name(prev.stream),
                                    prev.index
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        );
                    }
                } else {
                    role_map.insert(tag, ep);
                }
            }
        }

        let peer_name = |peer: PeerRef| ir.peer_sym(peer).resolve(table);
        let medium_name = |m: MediumRef| ir.medium_sym(m).resolve(table);
        let mut send_tags: Vec<u32> = sends.keys().copied().collect();
        send_tags.sort_unstable();
        let mut recv_only: Vec<u32> = recvs
            .keys()
            .filter(|t| !sends.contains_key(t))
            .copied()
            .collect();
        recv_only.sort_unstable();
        let mut pairs = Vec::new();
        for tag in send_tags.into_iter().chain(recv_only) {
            match (sends.get(&tag), recvs.get(&tag)) {
                (Some(s), None) => diagnostics.push(
                    Diagnostic::new(
                        Code::DanglingRendezvous,
                        format!(
                            "send tag {tag} to `{}` over `{}` has no matching \
                             receive anywhere; the sender blocks forever",
                            peer_name(s.peer),
                            medium_name(s.medium)
                        ),
                    )
                    .at(Location::instr(op_name(s.stream), s.index)),
                ),
                (None, Some(r)) => diagnostics.push(
                    Diagnostic::new(
                        Code::DanglingRendezvous,
                        format!(
                            "receive tag {tag} from `{}` over `{}` has no matching \
                             send anywhere; the receiver blocks forever",
                            peer_name(r.peer),
                            medium_name(r.medium)
                        ),
                    )
                    .at(Location::instr(op_name(r.stream), r.index)),
                ),
                (Some(s), Some(r)) => {
                    let mut problems = Vec::new();
                    if s.medium != r.medium {
                        problems.push(format!(
                            "medium differs: send over `{}`, receive over `{}`",
                            medium_name(s.medium),
                            medium_name(r.medium)
                        ));
                    }
                    if s.bits != r.bits {
                        problems.push(format!(
                            "payload differs: send {} bits, receive {} bits",
                            s.bits, r.bits
                        ));
                    }
                    if ir.peer_sym(s.peer) != ir.operator_sym(r.stream) {
                        problems.push(format!(
                            "send targets `{}` but the receive sits on `{}`",
                            peer_name(s.peer),
                            op_name(r.stream)
                        ));
                    }
                    if ir.peer_sym(r.peer) != ir.operator_sym(s.stream) {
                        problems.push(format!(
                            "receive expects `{}` but the send sits on `{}`",
                            peer_name(r.peer),
                            op_name(s.stream)
                        ));
                    }
                    if !problems.is_empty() {
                        let mut d = Diagnostic::new(
                            Code::RendezvousMismatch,
                            format!(
                                "rendezvous tag {tag} is mismatched between \
                                 {}[{}] and {}[{}]",
                                op_name(s.stream),
                                s.index,
                                op_name(r.stream),
                                r.index
                            ),
                        )
                        .at(Location::instr(op_name(s.stream), s.index));
                        for p in problems {
                            d = d.note(p);
                        }
                        diagnostics.push(d);
                    }
                    if s.stream != r.stream {
                        pairs.push(RendezvousPair {
                            tag,
                            send_stream: s.stream,
                            send_idx: s.index,
                            recv_stream: r.stream,
                            recv_idx: r.index,
                        });
                    }
                }
                (None, None) => unreachable!("tag came from one of the maps"),
            }
        }
        RendezvousAnalysis { diagnostics, pairs }
    }
}

/// Model-check `input` both ways and pin every output equal; hands back
/// the production outcome for further assertions.
fn assert_model_equal(label: &str, input: &ModelInput<'_>, config: &ModelConfig) -> ModelOutcome {
    let fast = model::check(input, config);
    let oracle = oracle_model::check(input, config);
    assert_eq!(fast.stats, oracle.stats, "{label}: stats");
    assert_eq!(fast.witnesses, oracle.witnesses, "{label}: witnesses");
    let sites: Vec<(Code, Option<Location>)> = fast
        .diagnostics
        .iter()
        .map(|d| (d.code, d.location.clone()))
        .collect();
    assert_eq!(sites, oracle.sites, "{label}: diagnostic codes/locations");
    fast
}

/// Run the rendezvous pass both ways and pin diagnostics and pairs equal;
/// hands back the production pairs.
fn assert_rendezvous_equal(
    label: &str,
    ir: &IrExecutive,
    table: &SymbolTable,
) -> Vec<RendezvousPair> {
    let fast = rendezvous::check(ir, table);
    let oracle = oracle_rendezvous::check(ir, table);
    let render = |ds: &[Diagnostic]| ds.iter().map(|d| d.to_string()).collect::<Vec<_>>();
    assert_eq!(
        render(&fast.diagnostics),
        render(&oracle.diagnostics),
        "{label}: rendered diagnostics"
    );
    assert_eq!(fast.diagnostics, oracle.diagnostics, "{label}: diagnostics");
    assert_eq!(fast.pairs, oracle.pairs, "{label}: pairs");
    fast.pairs
}

/// Both passes over one lowered executive, at one model configuration.
fn assert_verify_equal(
    label: &str,
    ir: &IrExecutive,
    table: &SymbolTable,
    constraints: Option<&ConstraintsFile>,
    config: &ModelConfig,
) -> ModelOutcome {
    let pairs = assert_rendezvous_equal(label, ir, table);
    let input = ModelInput {
        ir,
        table,
        pairs: &pairs,
        constraints,
    };
    assert_model_equal(label, &input, config)
}

/// Schedule a flow and lower its executive (no codegen or deployment).
fn lowered(flow: &DesignFlow) -> (IrExecutive, SymbolTable) {
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    let r = adequate(
        algo,
        arch,
        chars,
        flow.constraints(),
        flow.adequation_options(),
    )
    .expect("flow schedules");
    let executive =
        generate_executive(algo, arch, chars, &r.mapping, &r.schedule).expect("executive builds");
    let mut table = SymbolTable::new();
    let ir = executive.lower(&mut table);
    (ir, table)
}

#[test]
fn gallery_flows_verify_like_the_oracles() {
    for g in gallery::all() {
        let art = g.flow.run().expect("gallery flow runs");
        let out = assert_verify_equal(
            g.name,
            &art.ir_executive,
            &art.symbols,
            Some(g.flow.constraints()),
            &ModelConfig::default(),
        );
        assert!(
            out.diagnostics.is_empty(),
            "{}: {:?}",
            g.name,
            out.diagnostics
        );
    }
}

/// Without the partial-order reduction the explorer visits every
/// interleaving — on `synthetic_large`, 610 566 states, the volume that
/// stresses table growth and probing.
#[test]
fn unreduced_explorations_equal_the_oracle() {
    for name in ["paper", "synthetic_large"] {
        let g = gallery::by_name(name).expect("gallery flow");
        let art = g.flow.run().expect("gallery flow runs");
        let pairs = rendezvous::check(&art.ir_executive, &art.symbols).pairs;
        let input = ModelInput {
            ir: &art.ir_executive,
            table: &art.symbols,
            pairs: &pairs,
            constraints: None,
        };
        let out = assert_model_equal(name, &input, &ModelConfig::default().without_por());
        if name == "synthetic_large" {
            assert_eq!(out.stats.states, 610_566);
        }
    }
}

#[test]
fn state_budgets_truncate_like_the_oracle() {
    let g = gallery::by_name("synthetic_large").expect("gallery flow");
    let art = g.flow.run().expect("gallery flow runs");
    for budget in [0, 1, 4, 100] {
        for config in [
            ModelConfig::default().with_max_states(budget),
            ModelConfig::default().with_max_states(budget).without_por(),
        ] {
            let out = assert_verify_equal(
                &format!("budget {budget}, por {}", config.por),
                &art.ir_executive,
                &art.symbols,
                Some(g.flow.constraints()),
                &config,
            );
            assert!(out.stats.truncated, "budget {budget}");
            assert!(out
                .diagnostics
                .iter()
                .any(|d| d.code == Code::StateBudgetExceeded));
        }
    }
}

/// A generated 10k-operation flow, model-checked as `DesignFlow::verify`
/// checks it: its own lowered executive, symbol table and constraints,
/// the rendezvous pass's pairs, the default configuration. Its ample set
/// is one transition at every state, so the checker walks one path.
#[test]
fn generated_10k_flow_verifies_like_the_oracles() {
    let flow = synthetic(&SyntheticParams::sized(10_000));
    let art = flow.run().expect("generated flow runs");
    let out = assert_verify_equal(
        "generated 10k",
        &art.ir_executive,
        &art.symbols,
        Some(flow.constraints()),
        &ModelConfig::default(),
    );
    assert_eq!((out.stats.states, out.stats.transitions), (20_885, 20_884));
    assert!(out.diagnostics.is_empty(), "{:?}", out.diagnostics);
}

/// Static computes on `a` between its stale hand-off and its tracked
/// configure in [`late_branching_executive`].
const PREFIX: usize = 24;

/// An executive whose state graph is one long path before it branches.
/// `a` alone can move at first: it computes `mod_c`, reconfigures region
/// `d2` to `mod_d` and hands the stale result to `c` (PDR014), runs
/// [`PREFIX`] static computes, configures `mod_a` on `d1` and passes a
/// token to `b`. Then `a` computes `mod_a`, `b` forwards a token to `d`
/// and reconfigures `d1` to `mod_b` (PDR013 against that compute, and a
/// second PDR014 when `a` sends its result after it), and `d` runs three
/// static computes. Without the reduction the search branches right
/// after the first token; with it, after `d`'s computes (the race is
/// found before that, while `d`'s invisible computes are the ample set).
fn late_branching_executive() -> (IrExecutive, SymbolTable) {
    let mut table = SymbolTable::new();
    let mut b = IrBuilder::new(&mut table);
    b.begin_operator("a");
    b.configure("mod_c", TimePs::from_ms(1));
    b.compute("x", "mod_c", TimePs::from_us(1));
    b.configure("mod_d", TimePs::from_ms(1));
    b.send("c", "m", 8, 0);
    for _ in 0..PREFIX {
        b.compute("pad", "soft", TimePs::from_us(1));
    }
    b.configure("mod_a", TimePs::from_ms(1));
    b.send("b", "m", 8, 1);
    b.compute("y", "mod_a", TimePs::from_us(1));
    b.send("c", "m", 8, 2);
    b.begin_operator("b");
    b.receive("a", "m", 8, 1);
    b.send("d", "m", 8, 3);
    b.configure("mod_b", TimePs::from_ms(1));
    b.begin_operator("c");
    b.receive("a", "m", 8, 0);
    b.receive("a", "m", 8, 2);
    b.begin_operator("d");
    b.receive("b", "m", 8, 3);
    for _ in 0..3 {
        b.compute("pad", "soft", TimePs::from_us(1));
    }
    let ir = b.finish();
    (ir, table)
}

/// The checker walks the single path in place and hands its last state to
/// the breadth-first search: witnesses found on the path and after the
/// hand-off, with and without the reduction, and state budgets that run
/// out inside the path, one state before the hand-off state, exactly at
/// it and one state after it, all equal the oracle's.
#[test]
fn late_branches_explore_like_the_oracle() {
    let (ir, table) = late_branching_executive();
    let cons = two_region_constraints();
    // States up to and including the first one that expands two
    // transitions: `a` fires 4 + PREFIX + 2 transitions first, then `b`
    // one and `d` three more under the reduction.
    for (config, handoff) in [
        (ModelConfig::default(), PREFIX + 11),
        (ModelConfig::default().without_por(), PREFIX + 7),
    ] {
        let label = format!("late branch, por {}", config.por);
        let out = assert_verify_equal(&label, &ir, &table, Some(&cons), &config);
        let codes: Vec<Code> = out.witnesses.iter().map(|w| w.code).collect();
        assert_eq!(
            codes,
            [
                Code::ReconfigRace,
                Code::UseAfterReconfigure,
                Code::UseAfterReconfigure
            ],
            "{label}"
        );
        assert!(
            out.stats.transitions >= out.stats.states,
            "{label}: branches"
        );
        for budget in [PREFIX / 2, handoff - 1, handoff, handoff + 1] {
            let out = assert_verify_equal(
                &format!("{label}, budget {budget}"),
                &ir,
                &table,
                Some(&cons),
                &config.with_max_states(budget),
            );
            assert!(out.stats.truncated, "{label}, budget {budget}");
            assert_eq!(out.stats.states, budget as u64, "{label}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated flows of 64–512 compute operations verify identically.
    /// A failure quotes the seed.
    #[test]
    fn generated_flows_verify_like_the_oracles(
        seed in 0u64..10_000,
        ops in 64usize..513,
        regions in 1usize..3,
    ) {
        let flow = synthetic(&SyntheticParams {
            seed,
            regions,
            ..SyntheticParams::sized(ops)
        });
        let (ir, table) = lowered(&flow);
        assert_verify_equal(
            &format!("seed {seed}, {ops} ops"),
            &ir,
            &table,
            Some(flow.constraints()),
            &ModelConfig::default(),
        );
    }
}

// ------------------------------------------------- seeded defects

/// The paper flow's artifacts, with `mutate` applied to the string
/// executive and the lowered twin rebuilt.
fn mutated_paper(mutate: impl FnOnce(&mut FlowArtifacts)) -> (DesignFlow, FlowArtifacts) {
    let g = gallery::by_name("paper").expect("gallery flow");
    let mut art = g.flow.run().expect("flow runs");
    mutate(&mut art);
    art.ir_executive = art.executive.lower(&mut art.symbols);
    (g.flow, art)
}

fn stream_mut<'a>(art: &'a mut FlowArtifacts, operator: &str) -> &'a mut Vec<MacroInstr> {
    art.executive
        .per_operator
        .get_mut(operator)
        .expect("operator stream exists")
}

/// Deadlock (swapped receives), reconfiguration race (an unordered
/// configure of the computing module) and stale hand-off (a configure
/// between a compute and its result send), each with POR on and off:
/// the witnesses, their schedules and the PDR016 marks behind them match.
#[test]
fn seeded_defects_produce_the_oracle_witnesses() {
    let deadlock = mutated_paper(|art| {
        let stream = stream_mut(art, "op_dyn");
        let recvs: Vec<usize> = stream
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, MacroInstr::Receive { .. }))
            .map(|(idx, _)| idx)
            .collect();
        stream.swap(recvs[0], recvs[1]);
    });
    let race = mutated_paper(|art| {
        stream_mut(art, "dsp").push(MacroInstr::Configure {
            module: "mod_qam16".to_string(),
            worst_case: TimePs::from_ms(10),
        });
    });
    let stale = mutated_paper(|art| {
        let stream = stream_mut(art, "op_dyn");
        let send_at = stream
            .iter()
            .position(|i| matches!(i, MacroInstr::Send { .. }))
            .expect("op_dyn sends its result");
        stream.insert(
            send_at,
            MacroInstr::Configure {
                module: "mod_qpsk".to_string(),
                worst_case: TimePs::from_ms(4),
            },
        );
    });
    for (label, (flow, art), code) in [
        ("deadlock", deadlock, Code::Deadlock),
        ("race", race, Code::ReconfigRace),
        ("stale", stale, Code::UseAfterReconfigure),
    ] {
        for config in [ModelConfig::default(), ModelConfig::default().without_por()] {
            let out = assert_verify_equal(
                label,
                &art.ir_executive,
                &art.symbols,
                Some(flow.constraints()),
                &config,
            );
            assert!(
                out.witnesses.iter().any(|w| w.code == code),
                "{label}: no {code:?} witness"
            );
        }
    }
}

/// Two regions, two tracked modules each, plus an untracked static
/// function: enough for races, stale hand-offs and deadlocks to arise at
/// random.
fn two_region_constraints() -> ConstraintsFile {
    let mut f = ConstraintsFile::new();
    for (module, region) in [
        ("mod_a", "d1"),
        ("mod_b", "d1"),
        ("mod_c", "d2"),
        ("mod_d", "d2"),
    ] {
        f.add(ModuleConstraints::new(module, region))
            .expect("distinct modules");
    }
    f
}

const OPERATORS: [&str; 4] = ["a", "b", "c", "d"];
const FUNCTIONS: [&str; 5] = ["mod_a", "mod_b", "mod_c", "mod_d", "soft"];

/// Lower a random communication list: each `(operator, bits)` entry
/// appends one `Send` or `Receive` to that operator's stream, its peer,
/// tag, medium and width decoded from `bits`. Small tag, peer and medium
/// ranges make duplicate tags (within and across operators),
/// self-rendezvous, attribute mismatches and receive-only tags below
/// send tags common.
fn random_comm_executive(spec: &[(usize, u64)]) -> (IrExecutive, SymbolTable) {
    let mut table = SymbolTable::new();
    let mut b = IrBuilder::new(&mut table);
    for (op, name) in OPERATORS.iter().enumerate() {
        b.begin_operator(name);
        for &(_, bits) in spec.iter().filter(|&&(o, _)| o == op) {
            let peer = OPERATORS[(bits >> 3) as usize % OPERATORS.len()];
            let tag = (bits >> 8) as u32 % 8;
            let medium = ["m", "n"][(bits >> 16) as usize % 2];
            let width = [8, 16][(bits >> 17) as usize % 2];
            if bits % 2 == 0 {
                b.send(peer, medium, width, tag);
            } else {
                b.receive(peer, medium, width, tag);
            }
        }
    }
    let ir = b.finish();
    (ir, table)
}

/// Lower a random well-tagged program: each `(operator, bits)` entry is
/// either a rendezvous from that operator to another one (a fresh tag;
/// the receive usually lands at the end of the peer's stream, sometimes
/// earlier, which can cross two rendezvous into a deadlock), or a
/// compute or configure of one of [`FUNCTIONS`] on that operator.
fn random_program(spec: &[(usize, u64)]) -> (IrExecutive, SymbolTable) {
    enum Instr {
        Send(usize, u32),
        Receive(usize, u32),
        Compute(&'static str),
        Configure(&'static str),
    }
    let mut streams: Vec<Vec<Instr>> = OPERATORS.iter().map(|_| Vec::new()).collect();
    for (tag, &(op, bits)) in spec.iter().enumerate() {
        let function = FUNCTIONS[(bits >> 8) as usize % FUNCTIONS.len()];
        match bits % 8 {
            0..=3 => {
                let peer = (op + 1 + (bits >> 3) as usize % 3) % OPERATORS.len();
                streams[op].push(Instr::Send(peer, tag as u32));
                let len = streams[peer].len();
                let at = if (bits >> 16) % 8 == 0 {
                    (bits >> 20) as usize % (len + 1)
                } else {
                    len
                };
                streams[peer].insert(at, Instr::Receive(op, tag as u32));
            }
            4 | 5 => streams[op].push(Instr::Compute(function)),
            _ => streams[op].push(Instr::Configure(function)),
        }
    }
    let mut table = SymbolTable::new();
    let mut b = IrBuilder::new(&mut table);
    for (name, stream) in OPERATORS.iter().zip(&streams) {
        b.begin_operator(name);
        for instr in stream {
            match *instr {
                Instr::Send(peer, tag) => b.send(OPERATORS[peer], "m", 8, tag),
                Instr::Receive(peer, tag) => b.receive(OPERATORS[peer], "m", 8, tag),
                Instr::Compute(function) => b.compute("op", function, TimePs::from_us(1)),
                Instr::Configure(module) => b.configure(module, TimePs::from_ms(1)),
            }
        }
    }
    let ir = b.finish();
    (ir, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random malformed executives: the sort-based matcher reports the
    /// hash-map pass's diagnostics, byte for byte and in order, and the
    /// same pairs.
    #[test]
    fn random_executives_match_rendezvous_like_the_oracle(
        spec in prop::collection::vec((0usize..4, any::<u64>()), 0..40),
    ) {
        let (ir, table) = random_comm_executive(&spec);
        assert_rendezvous_equal(&format!("{spec:?}"), &ir, &table);
    }

    /// Random programs with computes and configures of tracked modules
    /// on two regions, model-checked with and without the reduction.
    #[test]
    fn random_programs_model_check_like_the_oracle(
        spec in prop::collection::vec((0usize..4, any::<u64>()), 0..20),
    ) {
        let (ir, table) = random_program(&spec);
        let cons = two_region_constraints();
        for config in [ModelConfig::default(), ModelConfig::default().without_por()] {
            assert_verify_equal(&format!("{spec:?}"), &ir, &table, Some(&cons), &config);
        }
    }
}
