//! Indexed vs reference adequation: exact-equivalence suite.
//!
//! The `AdequationIndex` tentpole rewrote the §3 scheduler on top of
//! precomputed tables (dense WCET matrix, all-pairs routes, CSR
//! adjacency, heap-based ready queue). These tests prove the rewrite is
//! an *optimization*, not a behaviour change: on every gallery flow and
//! on random layered DAGs, `adequate` must return an
//! [`pdr_adequation::AdequationResult`] identical — mapping, schedule,
//! makespan and finish times — to the retained pre-index path
//! [`pdr_adequation::reference::adequate_reference`].
//!
//! Executive generation is held to the same standard: the indexed
//! [`generate_executive`] (one transfer index per schedule, one route row
//! per source operator) must equal, executive for executive and error
//! for error, the per-edge route plus linear timeline scan kept below as
//! a test-only oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;

use pdr_adequation::executive::generate_executive;
use pdr_adequation::{
    adequate, adequate_reference, adequate_with_index, AdequationError, AdequationIndex,
    AdequationOptions, AdequationResult, Executive, IndexOptions, ItemKind, MacroInstr, Mapping,
    Schedule,
};
use pdr_core::gallery::{self, synthetic, SyntheticParams};
use pdr_core::DesignFlow;
use pdr_fabric::TimePs;
use pdr_graph::prelude::*;

/// Every gallery flow — both §6 case-study variants, the two-region
/// designs and the 512-op synthetic — schedules identically on both
/// paths.
#[test]
fn gallery_flows_schedule_identically() {
    for g in gallery::all() {
        let reference = adequate_reference(
            g.flow.algorithm(),
            g.flow.architecture(),
            g.flow.characterization(),
            g.flow.constraints(),
            g.flow.adequation_options(),
        )
        .unwrap_or_else(|e| panic!("reference fails on `{}`: {e}", g.name));
        let indexed = adequate(
            g.flow.algorithm(),
            g.flow.architecture(),
            g.flow.characterization(),
            g.flow.constraints(),
            g.flow.adequation_options(),
        )
        .unwrap_or_else(|e| panic!("indexed fails on `{}`: {e}", g.name));
        assert_eq!(reference.mapping, indexed.mapping, "{}", g.name);
        assert_eq!(reference.schedule, indexed.schedule, "{}", g.name);
        assert_eq!(reference.makespan, indexed.makespan, "{}", g.name);
        assert_eq!(reference.finish_times, indexed.finish_times, "{}", g.name);
        assert_eq!(reference, indexed, "{}", g.name);
    }
}

/// Regression pin of the §6 case-study adequation: the dynamic
/// modulation lands on the reconfigurable region, the pinned interfaces
/// stay put, and the makespan is reproduced exactly by both paths.
#[test]
fn paper_case_study_mapping_is_pinned() {
    let g = gallery::by_name("paper").expect("paper flow");
    let algo = g.flow.algorithm();
    let arch = g.flow.architecture();
    let indexed = adequate(
        algo,
        arch,
        g.flow.characterization(),
        g.flow.constraints(),
        g.flow.adequation_options(),
    )
    .expect("paper flow schedules");
    let placed = |op: &str| {
        let id = algo.by_name(op).expect("op exists");
        let opr = indexed.mapping.operator_of(id).expect("mapped");
        arch.operator(opr).name.clone()
    };
    assert_eq!(placed("modulation"), "op_dyn");
    assert_eq!(placed("interface_in"), "dsp");
    assert_eq!(placed("interface_out"), "fpga_static");
    assert!(indexed.makespan > TimePs::ZERO);

    let reference = adequate_reference(
        algo,
        arch,
        g.flow.characterization(),
        g.flow.constraints(),
        g.flow.adequation_options(),
    )
    .expect("reference schedules");
    assert_eq!(reference.makespan, indexed.makespan);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered DAGs on the paper platform: both paths agree on
    /// the complete result, including every tie-break (ready-list order,
    /// equal-EFT operator choice, equal-WCET function choice).
    #[test]
    fn random_layered_graphs_schedule_identically(
        layers in 1usize..6,
        width in 1usize..6,
        wcets in prop::collection::vec(1u64..50, 25),
        edge_mask in prop::collection::vec(any::<bool>(), 64),
    ) {
        let arch = pdr_graph::paper::sundance_architecture();
        let mut g = AlgorithmGraph::new("prop");
        let mut chars = Characterization::new();
        let src = g.add_op("src", OpKind::Source).unwrap();
        let mut prev = vec![src];
        let mut mask = edge_mask.iter().cycle();
        let mut wcet = wcets.iter().cycle();
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let name = format!("n_{l}_{w}");
                let id = g.add_compute(&name).unwrap();
                let us = *wcet.next().unwrap();
                chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
                chars.set_duration(&name, "dsp", TimePs::from_us(us * 10));
                layer.push(id);
            }
            for (i, &b) in layer.iter().enumerate() {
                g.connect(prev[i % prev.len()], b, 32).unwrap();
                for &a in &prev {
                    if *mask.next().unwrap() && !g.predecessors(b).contains(&a) {
                        g.connect(a, b, 32).unwrap();
                    }
                }
            }
            prev = layer;
        }
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        for &a in &prev {
            g.connect(a, sink, 32).unwrap();
        }
        let cons = ConstraintsFile::new();
        let opts = AdequationOptions::default();
        let reference = adequate_reference(&g, &arch, &chars, &cons, &opts).unwrap();
        let indexed = adequate(&g, &arch, &chars, &cons, &opts).unwrap();
        prop_assert_eq!(reference, indexed);
    }

    /// Ties everywhere: identical WCETs on every operation force the
    /// scheduler through its tie-break rules on every step, where a
    /// heap/scan divergence would show first.
    #[test]
    fn all_equal_wcets_still_schedule_identically(
        layers in 1usize..5,
        width in 1usize..5,
        us in 1u64..20,
    ) {
        let arch = pdr_graph::paper::sundance_architecture();
        let mut g = AlgorithmGraph::new("ties");
        let mut chars = Characterization::new();
        let src = g.add_op("src", OpKind::Source).unwrap();
        let mut prev = vec![src];
        for l in 0..layers {
            let mut layer = Vec::new();
            for w in 0..width {
                let name = format!("t_{l}_{w}");
                let id = g.add_compute(&name).unwrap();
                chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
                chars.set_duration(&name, "dsp", TimePs::from_us(us));
                layer.push(id);
            }
            for &b in &layer {
                for &a in &prev {
                    g.connect(a, b, 32).unwrap();
                }
            }
            prev = layer;
        }
        let sink = g.add_op("sink", OpKind::Sink).unwrap();
        for &a in &prev {
            g.connect(a, sink, 32).unwrap();
        }
        let cons = ConstraintsFile::new();
        let opts = AdequationOptions::default();
        let reference = adequate_reference(&g, &arch, &chars, &cons, &opts).unwrap();
        let indexed = adequate(&g, &arch, &chars, &cons, &opts).unwrap();
        prop_assert_eq!(reference, indexed);
    }

    /// Differential check over the seeded flow generator: complete flows
    /// (conditioned operations, region constraints, heterogeneous WCETs)
    /// drawn from [`gallery::synthetic`] schedule identically through the
    /// pre-index reference, the overhauled indexed core, and the indexed
    /// core over a *parallel-built* index. A failure quotes the seed, so
    /// any divergence is a one-line reproducer.
    #[test]
    fn generated_flows_schedule_identically_on_every_path(
        seed in 0u64..10_000,
        layers in 1usize..5,
        width in 1usize..5,
        regions in 1usize..3,
    ) {
        let params = SyntheticParams {
            seed,
            layers,
            width,
            cpus: 2,
            regions,
            fn_pool: 6,
            ..SyntheticParams::default()
        };
        let flow = synthetic(&params);
        let (algo, arch) = (flow.algorithm(), flow.architecture());
        let chars = flow.characterization();
        let (cons, opts) = (flow.constraints(), flow.adequation_options());

        let reference = adequate_reference(algo, arch, chars, cons, opts).unwrap();
        let indexed = adequate(algo, arch, chars, cons, opts).unwrap();
        prop_assert_eq!(&reference, &indexed, "seed {}", seed);

        let seq = AdequationIndex::build(algo, arch, chars).unwrap();
        let par = AdequationIndex::build_with(algo, arch, chars, &IndexOptions { threads: 3 })
            .unwrap();
        prop_assert!(par == seq, "parallel index diverges at seed {}", seed);
        let via_par = adequate_with_index(algo, arch, chars, cons, opts, &par).unwrap();
        prop_assert_eq!(&reference, &via_par, "seed {}", seed);
    }
}

/// Executive generation as it was before the transfer index and the route
/// rows: a fresh `route` BFS per cross-operator edge and a linear `find`
/// over the medium timeline per hop. Kept verbatim as the oracle.
fn generate_executive_oracle(
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
        let route = arch.route(src, dst)?;
        // Endpoints of each hop: src, relays..., dst. A relay between media
        // m1 and m2 is the (unique, lowest-id) operator on both.
        let mut endpoints = vec![src];
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

        // Find this edge's hop items in the schedule for timing.
        for (hop, &m) in route.media.iter().enumerate() {
            let item = schedule
                .of_medium(m)
                .iter()
                .find(|i| {
                    matches!(&i.kind, ItemKind::Transfer { from, to, .. }
                        if *from == e.from && *to == e.to)
                })
                .ok_or_else(|| {
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

fn adequate_flow(flow: &DesignFlow) -> AdequationResult {
    adequate(
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
        flow.constraints(),
        flow.adequation_options(),
    )
    .expect("flow schedules")
}

/// Both generators on one mapping and schedule: equal executives, or
/// equal errors.
fn executives(
    flow: &DesignFlow,
    mapping: &Mapping,
    schedule: &Schedule,
) -> (
    Result<Executive, AdequationError>,
    Result<Executive, AdequationError>,
) {
    let (algo, arch, chars) = (
        flow.algorithm(),
        flow.architecture(),
        flow.characterization(),
    );
    (
        generate_executive(algo, arch, chars, mapping, schedule),
        generate_executive_oracle(algo, arch, chars, mapping, schedule),
    )
}

/// Every gallery flow generates the oracle's executive. The paper flow
/// relays DSP ↔ `op_dyn` traffic through `fpga_static`, so multi-hop
/// routes are covered.
#[test]
fn gallery_executives_equal_the_oracle() {
    for g in gallery::all() {
        let r = adequate_flow(&g.flow);
        let (fast, oracle) = executives(&g.flow, &r.mapping, &r.schedule);
        let fast = fast.unwrap_or_else(|e| panic!("`{}`: {e}", g.name));
        assert_eq!(fast, oracle.unwrap(), "{}", g.name);
        if g.name == "paper" {
            assert!(fast
                .of("fpga_static")
                .iter()
                .any(|i| matches!(i, MacroInstr::Receive { from, .. } if from == "dsp")));
        }
    }
}

/// Two parallel `a -> b` edges share one transfer key: both bind to the
/// first matching item of each medium timeline, as the oracle's scan
/// does. `b` sits on `op_dyn`, so each edge relays through
/// `fpga_static`. On `op_dyn`, `f` starts after the first `a -> b` item
/// ends on `LIO` but before the second one does, so binding either edge
/// to the second item would move its receive behind `f`'s compute.
#[test]
fn parallel_edges_bind_to_the_first_transfer() {
    let arch = pdr_graph::paper::sundance_architecture();
    let mut algo = AlgorithmGraph::new("parallel");
    let mut chars = Characterization::new();
    let src = algo.add_op("src", OpKind::Source).unwrap();
    let local = algo.add_op("local", OpKind::Source).unwrap();
    let a = algo.add_compute("a").unwrap();
    let b = algo.add_compute("b").unwrap();
    let e = algo.add_compute("e").unwrap();
    let f = algo.add_compute("f").unwrap();
    let sink = algo.add_op("sink", OpKind::Sink).unwrap();
    chars.set_duration("a", "dsp", TimePs::from_us(5));
    chars.set_duration("b", "op_dyn", TimePs::from_us(5));
    chars.set_duration("e", "op_dyn", TimePs::from_ns(5_800));
    chars.set_duration("f", "op_dyn", TimePs::from_us(10));
    algo.connect(src, a, 32).unwrap();
    algo.connect(a, b, 32).unwrap();
    algo.connect(a, b, 64).unwrap();
    algo.connect(local, e, 32).unwrap();
    algo.connect(e, f, 32).unwrap();
    algo.connect(b, sink, 32).unwrap();
    algo.connect(f, sink, 32).unwrap();
    let cons = ConstraintsFile::new();
    let opts = AdequationOptions::default()
        .pin("src", "dsp")
        .pin("a", "dsp")
        .pin("local", "op_dyn")
        .pin("b", "op_dyn")
        .pin("e", "op_dyn")
        .pin("f", "op_dyn")
        .pin("sink", "op_dyn");
    let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
    let fast = generate_executive(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
    let oracle = generate_executive_oracle(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
    assert_eq!(fast, oracle);
    // Only the two `a -> b` edges cross operators: two hops each, each
    // hop a send and a receive.
    let comms = fast
        .per_operator
        .values()
        .flatten()
        .filter(|i| i.is_comm())
        .count();
    assert_eq!(comms, 8);
    // Both receives on `op_dyn` precede `f`.
    let dyn_stream = fast.of("op_dyn");
    let f_at = dyn_stream
        .iter()
        .position(|i| matches!(i, MacroInstr::Compute { op, .. } if op == "f"))
        .expect("f computes on op_dyn");
    let receives_before_f = dyn_stream[..f_at]
        .iter()
        .filter(|i| matches!(i, MacroInstr::Receive { .. }))
        .count();
    assert_eq!(receives_before_f, 2, "{dyn_stream:#?}");
}

/// A transfer dropped from a medium timeline and an operation left
/// unassigned fail with the oracle's errors, word for word.
#[test]
fn broken_inputs_fail_like_the_oracle() {
    let g = gallery::by_name("paper").expect("paper flow");
    let r = adequate_flow(&g.flow);

    let mut schedule = r.schedule.clone();
    let timeline = schedule
        .medium_items
        .values_mut()
        .find(|items| !items.is_empty())
        .expect("paper flow has transfers");
    let dropped = timeline
        .iter()
        .position(|i| matches!(i.kind, ItemKind::Transfer { .. }))
        .expect("a transfer item");
    timeline.remove(dropped);
    let (fast, oracle) = executives(&g.flow, &r.mapping, &schedule);
    let (fast, oracle) = (fast.unwrap_err(), oracle.unwrap_err());
    assert_eq!(fast, oracle);
    assert_eq!(fast.to_string(), oracle.to_string());
    assert!(fast.to_string().contains("missing from medium"), "{fast}");

    let last = g.flow.algorithm().edges().last().expect("edges").to;
    let mut mapping = Mapping::new();
    for (op, opr) in r.mapping.iter().filter(|&(op, _)| op != last) {
        mapping.assign(op, opr);
    }
    let (fast, oracle) = executives(&g.flow, &mapping, &r.schedule);
    let (fast, oracle) = (fast.unwrap_err(), oracle.unwrap_err());
    assert!(matches!(fast, AdequationError::Unmappable { .. }), "{fast}");
    assert_eq!(fast, oracle);
    assert_eq!(fast.to_string(), oracle.to_string());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated flows of 64–512 compute operations generate the
    /// oracle's executive. A failure quotes the seed.
    #[test]
    fn generated_executives_equal_the_oracle(
        seed in 0u64..10_000,
        ops in 64usize..513,
        regions in 1usize..3,
    ) {
        let flow = synthetic(&SyntheticParams {
            seed,
            regions,
            ..SyntheticParams::sized(ops)
        });
        let r = adequate_flow(&flow);
        let (fast, oracle) = executives(&flow, &r.mapping, &r.schedule);
        prop_assert_eq!(fast.unwrap(), oracle.unwrap(), "seed {}", seed);
    }
}
