//! Indexed vs reference adequation: exact-equivalence suite.
//!
//! The `AdequationIndex` tentpole rewrote the §3 scheduler on top of
//! precomputed tables (dense WCET matrix, all-pairs routes, CSR
//! adjacency, heap-based ready queue). These tests prove the rewrite is
//! an *optimization*, not a behaviour change: on every gallery flow and
//! on random layered DAGs, `adequate` must return an
//! [`pdr_adequation::AdequationResult`] identical — mapping, schedule,
//! makespan and finish times — to the retained pre-index path
//! [`pdr_bench::reference::adequate_reference`].
//!
//! Executive generation is held to the same standard: the indexed
//! [`generate_executive`] (one transfer index per schedule, one route row
//! per source operator) must equal, executive for executive and error
//! for error, the per-edge route plus linear timeline scan kept below as
//! a test-only oracle. The one-pass `generate_executive_ir` must equal
//! that executive plus its lowering through the flow's seeded symbol
//! table on the same seeded flows.

use proptest::prelude::*;
use std::collections::BTreeMap;

use pdr_adequation::executive::{generate_executive, generate_executive_ir};
use pdr_adequation::{
    adequate, adequate_with_index, AdequationError, AdequationIndex, AdequationOptions,
    AdequationResult, Executive, ItemKind, MacroInstr, Mapping, Schedule,
};
use pdr_bench::index_oracle::{self, IndexTables};
use pdr_bench::reference::adequate_reference;
use pdr_core::gallery::{self, synthetic, SyntheticParams};
use pdr_core::DesignFlow;
use pdr_fabric::TimePs;
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, MediumKind, OpId, OpKind,
    OperatorId, OperatorKind,
};

/// The `finish_times` field of an adequation result's JSON.
fn finish_times_json(r: &AdequationResult) -> serde::json::Value {
    use serde::Serialize;
    let serde::json::Value::Object(fields) = r.to_json() else {
        panic!("an adequation result serializes as an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["mapping", "schedule", "makespan", "finish_times"]);
    fields
        .into_iter()
        .find(|(k, _)| k == "finish_times")
        .unwrap()
        .1
}

/// `finish_times` serializes as the `[[op, time], …]` pairs of the
/// `BTreeMap<OpId, TimePs>` it once was, byte for byte on every gallery
/// flow (digests taken from the map form), and indexing it by `id.0`
/// reads the time those pairs give operation `id`.
#[test]
fn finish_times_serialize_and_index_as_the_map_did() {
    use pdr_fabric::digest::{to_hex, Fnv64};
    let pins = [
        ("paper", "45aa06ba90da4ff7"),
        ("paper_fixed_qpsk", "7ee1f9991ef78f27"),
        ("paper_fixed_qam16", "8d9987f4b55c2f3d"),
        ("two_regions", "b7c1fbe7a8fbac7b"),
        ("two_regions_xc2v4000", "b7c1fbe7a8fbac7b"),
        ("synthetic_large", "8a7c76aab16439f0"),
        ("sdr_series7", "b7c1fbe7a8fbac7b"),
    ];
    let mut got = Vec::new();
    for g in gallery::all() {
        let f = &g.flow;
        let r = adequate(
            f.algorithm(),
            f.architecture(),
            f.characterization(),
            f.constraints(),
            f.adequation_options(),
        )
        .unwrap();
        let pairs = finish_times_json(&r);
        let serde::json::Value::Array(pairs_list) = &pairs else {
            panic!("{}: finish_times is not an array", g.name);
        };
        let map: BTreeMap<u64, u64> = pairs_list
            .iter()
            .map(|pair| match pair {
                serde::json::Value::Array(kv) => match kv.as_slice() {
                    [serde::json::Value::UInt(op), serde::json::Value::UInt(t)] => (*op, *t),
                    _ => panic!("{}: malformed pair {kv:?}", g.name),
                },
                _ => panic!("{}: malformed pair {pair:?}", g.name),
            })
            .collect();
        assert_eq!(map.len(), f.algorithm().len(), "{}", g.name);
        assert_eq!(r.finish_times.len(), f.algorithm().len(), "{}", g.name);
        for (id, _) in f.algorithm().ops() {
            assert_eq!(
                r.finish_times[id.0].as_ps(),
                map[&(id.0 as u64)],
                "{}: {id}",
                g.name
            );
        }
        let json = serde::json::to_string(&pairs);
        got.push((g.name, to_hex(Fnv64::new().eat_str(&json).finish())));
    }
    let pins: Vec<(&str, String)> = pins.iter().map(|(n, p)| (*n, p.to_string())).collect();
    assert_eq!(got, pins);
}

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

/// The index holds exactly the per-cell string-probe oracle's tables on
/// every gallery flow and every generated flow of the 512 → 10k sweep.
#[test]
fn index_tables_equal_the_oracle_on_gallery_and_sweep_flows() {
    for (name, flow) in pdr_bench::scale::flows() {
        let (algo, arch, chars) = (
            flow.algorithm(),
            flow.architecture(),
            flow.characterization(),
        );
        let index = AdequationIndex::build(algo, arch, chars).unwrap();
        let oracle = index_oracle::build(algo, arch, chars).unwrap();
        assert!(IndexTables::of(&index) == oracle, "{name}");
    }
}

/// A conditioned operation whose alternatives tie (first-max and last-max
/// differ), are infeasible on one operator, and carry different
/// reconfiguration times; a compute operation reuses one of its function
/// symbols. The index equals the oracle and the cells read as expected.
#[test]
fn tied_and_infeasible_alternatives_index_like_the_oracle() {
    let mut algo = AlgorithmGraph::new("ties");
    let src = algo.add_op("src", OpKind::Source).unwrap();
    let cond = algo
        .add_op(
            "cond",
            OpKind::Conditioned {
                alternatives: vec!["f0".into(), "f1".into(), "f2".into()],
            },
        )
        .unwrap();
    let k = algo
        .add_op(
            "k",
            OpKind::Compute {
                function: "f1".into(),
            },
        )
        .unwrap();
    let sink = algo.add_op("sink", OpKind::Sink).unwrap();
    algo.connect(src, cond, 8).unwrap();
    algo.connect(cond, k, 8).unwrap();
    algo.connect(k, sink, 8).unwrap();

    let mut arch = ArchGraph::new("ties");
    let cpu = arch.add_operator("cpu", OperatorKind::Processor).unwrap();
    let fs = arch.add_operator("fs", OperatorKind::FpgaStatic).unwrap();
    let d1 = arch
        .add_operator("d1", OperatorKind::FpgaDynamic { host: "fs".into() })
        .unwrap();
    let bus = arch
        .add_medium("bus", MediumKind::Bus, 1_000_000, TimePs::ZERO)
        .unwrap();
    for o in [cpu, fs, d1] {
        arch.link(o, bus).unwrap();
    }

    let us = TimePs::from_us;
    let mut chars = Characterization::new();
    for (f, cpu_t, d1_t) in [("f0", 5, 2), ("f1", 5, 7), ("f2", 3, 7)] {
        chars.set_duration(f, "cpu", us(cpu_t));
        chars.set_duration(f, "d1", us(d1_t));
    }
    chars.set_duration("f0", "fs", us(4));
    chars
        .set_reconfig_default("d1", TimePs::from_ms(4))
        .set_reconfig_override("f0", "d1", TimePs::from_ms(1))
        .set_reconfig_override("f1", "d1", TimePs::from_ms(6));

    let index = AdequationIndex::build(&algo, &arch, &chars).unwrap();
    let oracle = index_oracle::build(&algo, &arch, &chars).unwrap();
    assert_eq!(IndexTables::of(&index), oracle);

    let cell = |op, opr| index.wcet(op, opr).map(|e| (e.dur, e.first_fn()));
    assert_eq!(cell(cond, cpu), Some((us(5), Some(0))));
    assert_eq!(cell(cond, d1), Some((us(7), Some(1))));
    assert_eq!(cell(cond, fs), None);
    assert_eq!(cell(src, fs), Some((TimePs::ZERO, None)));
    // The annealing scheduler's last-max tie-break, computed bench-side.
    let last =
        |op: OpId, opr: &str| index_oracle::last_max_fn(algo.op(op).kind.functions(), opr, &chars);
    assert_eq!(last(cond, "cpu"), Some(1));
    assert_eq!(last(cond, "d1"), Some(2));
    assert_eq!(last(cond, "fs"), None);
    assert_eq!(last(src, "fs"), None);
    assert_eq!(index.reconfig_worst(cond, d1), TimePs::from_ms(6));
    assert_eq!(index.reconfig_worst(cond, cpu), TimePs::ZERO);
    assert_eq!(index.reconfig_worst(k, d1), TimePs::ZERO);
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
    /// pre-index reference and the overhauled indexed core, and their
    /// index equals the per-cell string-probe oracle's tables. A failure
    /// quotes the seed, so any divergence is a one-line reproducer.
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

        let index = AdequationIndex::build(algo, arch, chars).unwrap();
        let oracle = index_oracle::build(algo, arch, chars).unwrap();
        prop_assert!(
            IndexTables::of(&index) == oracle,
            "index diverges from the oracle at seed {}",
            seed
        );
        let via_index = adequate_with_index(algo, arch, chars, cons, opts, &index).unwrap();
        prop_assert_eq!(&reference, &via_index, "seed {}", seed);
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
                            module: function.to_string(),
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
                        function: function.to_string(),
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
/// equal errors. The one-pass generator's executive or error is checked
/// equal to `generate_executive`'s on the way.
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
    let fast = generate_executive(algo, arch, chars, mapping, schedule);
    let one_pass = generate_executive_ir(algo, arch, chars, mapping, schedule);
    assert_eq!(one_pass.map(|(executive, ..)| executive), fast);
    (
        fast,
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

/// A schedule whose timestamps need more than 62 bits (every gallery
/// schedule shifted by 2^62 ps) orders its events as the oracle does:
/// the packed event key then ranks the timestamps instead of storing
/// them.
#[test]
fn timestamps_past_62_bits_order_like_the_oracle() {
    let shift = TimePs::from_ps(1 << 62);
    for g in gallery::all() {
        let r = adequate_flow(&g.flow);
        let mut schedule = r.schedule.clone();
        let timelines = schedule.operator_items.values_mut();
        for item in timelines
            .chain(schedule.medium_items.values_mut())
            .flatten()
        {
            item.start += shift;
            item.end += shift;
        }
        let (fast, oracle) = executives(&g.flow, &r.mapping, &schedule);
        let fast = fast.unwrap_or_else(|e| panic!("`{}`: {e}", g.name));
        assert_eq!(fast, oracle.unwrap(), "{}", g.name);
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

/// A cyclic graph and an acyclic one with a dangling operation fail
/// `adequate()`, the reference scheduler and `DesignFlow::run` with the
/// error `AlgorithmGraph::validate` names first, word for word: the flow
/// sorts the graph while it builds the index, and the scheduler then
/// checks only its structure.
#[test]
fn broken_graphs_fail_with_the_first_validation_error() {
    let g = gallery::by_name("paper").expect("paper flow");
    let flow = &g.flow;
    let is_compute =
        |algo: &AlgorithmGraph, id: OpId| matches!(algo.op(id).kind, OpKind::Compute { .. });

    let mut cyclic = flow.algorithm().clone();
    let back = cyclic
        .edges()
        .iter()
        .find(|e| is_compute(&cyclic, e.from) && is_compute(&cyclic, e.to))
        .map(|e| (e.to, e.from))
        .expect("a compute-to-compute edge");
    cyclic
        .connect(back.0, back.1, 8)
        .expect("back edge connects");

    let mut dangling = flow.algorithm().clone();
    let function = flow
        .algorithm()
        .ops()
        .find_map(|(_, op)| match &op.kind {
            OpKind::Compute { function } => Some(function.clone()),
            _ => None,
        })
        .expect("a compute operation");
    dangling
        .add_op("lonely", OpKind::Compute { function })
        .expect("operation adds");

    for (case, algo, text) in [
        ("cyclic", cyclic, "cycle"),
        (
            "dangling",
            dangling,
            "`lonely` must have inputs and outputs",
        ),
    ] {
        let expected = AdequationError::from(algo.validate().expect_err(case));
        assert!(expected.to_string().contains(text), "{case}: {expected}");
        let (arch, chars) = (flow.architecture(), flow.characterization());
        let (cons, opts) = (flow.constraints(), flow.adequation_options());
        let fast = adequate(&algo, arch, chars, cons, opts).expect_err(case);
        let oracle = adequate_reference(&algo, arch, chars, cons, opts).expect_err(case);
        assert_eq!(fast, expected, "{case}: adequate");
        assert_eq!(oracle, expected, "{case}: reference");
        assert_eq!(fast.to_string(), expected.to_string(), "{case}");
        let broken = DesignFlow::new(algo, arch.clone(), chars.clone(), flow.device().clone())
            .with_constraints(cons.clone())
            .with_adequation_options(opts.clone());
        let Err(err) = broken.run() else {
            panic!("{case}: the flow runs");
        };
        assert_eq!(
            err.to_string(),
            pdr_core::FlowError::from(expected).to_string(),
            "{case}: DesignFlow::run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated flows of 64–512 compute operations generate the
    /// oracle's executive, and the one-pass generator returns it along
    /// with its lowering through the flow's seeded table. A failure
    /// quotes the seed.
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
        let fast = fast.unwrap();
        prop_assert_eq!(&fast, &oracle.unwrap(), "seed {}", seed);

        let (algo, arch) = (flow.algorithm(), flow.architecture());
        let (executive, ir, symbols) = generate_executive_ir(
            algo,
            arch,
            flow.characterization(),
            &r.mapping,
            &r.schedule,
        )
        .unwrap();
        let mut table = arch.symbols().clone();
        table.absorb(algo.symbols());
        let lowered = fast.lower(&mut table);
        prop_assert!(executive == fast, "string executive drift at seed {}", seed);
        prop_assert!(ir == lowered, "IR drift at seed {}", seed);
        prop_assert!(symbols == table, "symbol table drift at seed {}", seed);
    }
}
