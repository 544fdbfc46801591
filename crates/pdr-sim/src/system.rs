//! The synchronized-executive interpreter.
//!
//! [`SimSystem`] executes one [`Executive`] on one [`ArchGraph`]:
//! every operator steps through its macro-code in order; `Send`/`Receive`
//! pairs rendezvous by (tag, iteration) and occupy their medium for the
//! characterized transfer time (FCFS contention); `Configure` instructions
//! are served by the attached per-region
//! [`ConfigurationManager`] — or, when none is attached, by the
//! instruction's characterized worst case. The whole program repeats for
//! [`SimConfig::iterations`] iterations.
//!
//! Per-iteration module *selections* (the DSP writing the `Select`
//! register in §6) override the statically-labeled `Configure` module, so
//! one executive serves every selector trace. Compute durations remain the
//! executive's WCET labels — the synchronized-executive contract (§3) is
//! that timing is validated against worst cases.
//!
//! The interpreter is deterministic: the event queue breaks time ties by
//! insertion order and all map iterations are over ordered containers.

use crate::engine::EventQueue;
use crate::error::SimError;
use crate::report::{ReconfigEvent, SimReport, TraceEvent, TraceKind};
use pdr_adequation::{Executive, MacroInstr};
use pdr_fabric::TimePs;
use pdr_graph::{ArchGraph, MediumId};
use pdr_rtr::ConfigurationManager;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Simulation parameters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SimConfig {
    /// Number of executive iterations to run.
    pub iterations: u32,
    /// Capture the full event trace (costs memory on long runs).
    pub capture_trace: bool,
    /// Per dynamic operator: the module to configure at each iteration
    /// (overrides the executive's static `Configure` label). Length must
    /// equal `iterations`.
    pub selections: BTreeMap<String, Vec<String>>,
}

impl SimConfig {
    /// Config for `iterations` iterations, no overrides, no trace.
    pub fn iterations(iterations: u32) -> Self {
        SimConfig {
            iterations,
            ..Default::default()
        }
    }

    /// Attach a per-iteration module selection for a dynamic operator.
    pub fn with_selection(mut self, operator: &str, modules: Vec<String>) -> Self {
        self.selections.insert(operator.to_string(), modules);
        self
    }

    /// Enable trace capture.
    pub fn with_trace(mut self) -> Self {
        self.capture_trace = true;
        self
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Status {
    /// Schedulable at the operator's next wakeup.
    Ready,
    /// Blocked waiting for a rendezvous partner.
    Blocked(String),
    /// All iterations executed.
    Done,
}

struct OpRuntime {
    name: String,
    program: Vec<MacroInstr>,
    pc: usize,
    iteration: u32,
    status: Status,
    busy: TimePs,
}

/// The error for an instruction of `operator`, issued at `now`, whose wake
/// time would fall past `u64::MAX` picoseconds.
fn time_overflow(operator: &str, now: TimePs) -> SimError {
    SimError::TimeOverflow {
        operator: operator.to_string(),
        at_ps: now.as_ps(),
    }
}

/// A runnable system: architecture + executive + configuration managers.
pub struct SimSystem<'a> {
    arch: &'a ArchGraph,
    executive: &'a Executive,
    managers: BTreeMap<String, ConfigurationManager>,
}

impl<'a> SimSystem<'a> {
    /// Build a system; attach managers with [`SimSystem::add_manager`].
    pub fn new(arch: &'a ArchGraph, executive: &'a Executive) -> Self {
        SimSystem {
            arch,
            executive,
            managers: BTreeMap::new(),
        }
    }

    /// Attach the configuration manager serving the named dynamic operator.
    pub fn add_manager(&mut self, operator: &str, manager: ConfigurationManager) -> &mut Self {
        self.managers.insert(operator.to_string(), manager);
        self
    }

    /// Run the system and produce a report.
    pub fn run(&mut self, config: &SimConfig) -> Result<SimReport, SimError> {
        // Validate selections.
        for (opr, mods) in &config.selections {
            if self.arch.operator_by_name(opr).is_none() {
                return Err(SimError::BadSelection(format!("unknown operator `{opr}`")));
            }
            if mods.len() != config.iterations as usize {
                return Err(SimError::BadSelection(format!(
                    "selection for `{opr}` has {} entries, expected {}",
                    mods.len(),
                    config.iterations
                )));
            }
        }
        // Build operator runtimes (every operator with a program; operators
        // without macro-code are trivially done).
        let mut ops: Vec<OpRuntime> = Vec::new();
        for (opr, program) in &self.executive.per_operator {
            if self.arch.operator_by_name(opr).is_none() {
                return Err(SimError::UnknownName(opr.clone()));
            }
            ops.push(OpRuntime {
                name: opr.clone(),
                program: program.clone(),
                pc: 0,
                iteration: 0,
                status: if config.iterations == 0 {
                    Status::Done
                } else {
                    Status::Ready
                },
                busy: TimePs::ZERO,
            });
        }
        let medium_id_of = |name: &str| -> Result<MediumId, SimError> {
            self.arch
                .medium_by_name(name)
                .ok_or_else(|| SimError::UnknownName(name.to_string()))
        };

        let mut queue: EventQueue<usize> = EventQueue::new();
        for i in 0..ops.len() {
            queue.schedule(TimePs::ZERO, i);
        }

        // Rendezvous bookkeeping: (tag, iteration) -> (op index, arrival).
        let mut pending_send: HashMap<(u32, u32), (usize, TimePs)> = HashMap::new();
        let mut pending_recv: HashMap<(u32, u32), (usize, TimePs)> = HashMap::new();
        let mut medium_free: BTreeMap<String, TimePs> = BTreeMap::new();
        let mut medium_busy: BTreeMap<String, TimePs> = BTreeMap::new();
        let mut reconfigs: Vec<ReconfigEvent> = Vec::new();
        let mut trace: Vec<TraceEvent> = Vec::new();
        let mut makespan = TimePs::ZERO;
        let mut iteration_ends = vec![TimePs::ZERO; config.iterations as usize];

        while let Some((now, i)) = queue.pop() {
            makespan = makespan.max(now);
            if ops[i].status == Status::Done {
                continue;
            }
            ops[i].status = Status::Ready;
            // Step instructions until the operator blocks or finishes.
            'step: loop {
                if ops[i].pc >= ops[i].program.len() {
                    if !ops[i].program.is_empty() {
                        let done = ops[i].iteration as usize;
                        if done < iteration_ends.len() {
                            iteration_ends[done] = iteration_ends[done].max(now);
                        }
                    }
                    ops[i].iteration += 1;
                    ops[i].pc = 0;
                    if ops[i].iteration >= config.iterations {
                        ops[i].status = Status::Done;
                        break 'step;
                    }
                    if ops[i].program.is_empty() {
                        ops[i].iteration = config.iterations;
                        ops[i].status = Status::Done;
                        break 'step;
                    }
                    continue 'step;
                }
                let instr = ops[i].program[ops[i].pc].clone();
                let iter = ops[i].iteration;
                match instr {
                    MacroInstr::Compute {
                        op,
                        function,
                        duration,
                        ..
                    } => {
                        let end = now
                            .checked_add(duration)
                            .ok_or_else(|| time_overflow(&ops[i].name, now))?;
                        ops[i].pc += 1;
                        ops[i].busy += duration;
                        if config.capture_trace {
                            trace.push(TraceEvent {
                                site: ops[i].name.clone(),
                                iteration: iter,
                                start: now,
                                end,
                                kind: TraceKind::Compute { op, function },
                            });
                        }
                        if duration.is_zero() {
                            continue 'step;
                        }
                        queue.schedule(end, i);
                        break 'step;
                    }
                    MacroInstr::Configure { module, worst_case } => {
                        // Selection vectors are validated against the
                        // iteration count up front, but index defensively:
                        // a short vector is a typed error, not a panic.
                        let chosen = match config.selections.get(&ops[i].name) {
                            Some(mods) => mods.get(iter as usize).cloned().ok_or_else(|| {
                                SimError::BadSelection(format!(
                                    "selection for `{}` has no entry for iteration {iter}",
                                    ops[i].name
                                ))
                            })?,
                            None => module,
                        };
                        let (ready_at, hidden) = match self.managers.get_mut(&ops[i].name) {
                            Some(mgr) => {
                                let out = mgr
                                    .request(&chosen, now)
                                    .map_err(|e| SimError::Manager(e.to_string()))?;
                                if out.already_loaded {
                                    ops[i].pc += 1;
                                    continue 'step;
                                }
                                (out.ready_at, out.fetch_hidden)
                            }
                            // No manager: charge the characterized worst case
                            // on first touch and every change (we cannot know
                            // residency without a manager, so be pessimistic).
                            None => (
                                now.checked_add(worst_case)
                                    .ok_or_else(|| time_overflow(&ops[i].name, now))?,
                                false,
                            ),
                        };
                        if ready_at < now {
                            // A manager's ready time wrapped past u64::MAX.
                            return Err(time_overflow(&ops[i].name, now));
                        }
                        ops[i].pc += 1;
                        ops[i].busy += ready_at - now;
                        reconfigs.push(ReconfigEvent {
                            operator: ops[i].name.clone(),
                            module: chosen.clone(),
                            iteration: iter,
                            requested_at: now,
                            ready_at,
                            fetch_hidden: hidden,
                        });
                        if config.capture_trace {
                            trace.push(TraceEvent {
                                site: ops[i].name.clone(),
                                iteration: iter,
                                start: now,
                                end: ready_at,
                                kind: TraceKind::Reconfigure {
                                    module: chosen,
                                    fetch_hidden: hidden,
                                },
                            });
                        }
                        if ready_at == now {
                            continue 'step;
                        }
                        queue.schedule(ready_at, i);
                        break 'step;
                    }
                    MacroInstr::Send {
                        to,
                        medium,
                        bits,
                        tag,
                    } => {
                        let key = (tag, iter);
                        if let Some((j, _)) = pending_recv.remove(&key) {
                            let med = medium_id_of(&medium)?;
                            let free = medium_free.get(&medium).copied().unwrap_or(TimePs::ZERO);
                            let start = now.max(free);
                            let end = start
                                .checked_add(self.arch.medium(med).transfer_time(bits))
                                .ok_or_else(|| time_overflow(&ops[i].name, now))?;
                            medium_free.insert(medium.clone(), end);
                            *medium_busy.entry(medium.clone()).or_default() += end - start;
                            if config.capture_trace {
                                trace.push(TraceEvent {
                                    site: medium.clone(),
                                    iteration: iter,
                                    start,
                                    end,
                                    kind: TraceKind::Transfer {
                                        from: ops[i].name.clone(),
                                        to: to.clone(),
                                        medium: medium.clone(),
                                        bits,
                                    },
                                });
                            }
                            ops[i].pc += 1;
                            ops[j].pc += 1;
                            ops[j].status = Status::Ready;
                            queue.schedule(end, i);
                            queue.schedule(end, j);
                            break 'step;
                        }
                        pending_send.insert(key, (i, now));
                        ops[i].status = Status::Blocked(format!("send tag {tag} iter {iter}"));
                        break 'step;
                    }
                    MacroInstr::Receive {
                        tag,
                        medium,
                        bits,
                        from,
                    } => {
                        let key = (tag, iter);
                        if let Some((j, _)) = pending_send.remove(&key) {
                            let med = medium_id_of(&medium)?;
                            let free = medium_free.get(&medium).copied().unwrap_or(TimePs::ZERO);
                            let start = now.max(free);
                            let end = start
                                .checked_add(self.arch.medium(med).transfer_time(bits))
                                .ok_or_else(|| time_overflow(&ops[i].name, now))?;
                            medium_free.insert(medium.clone(), end);
                            *medium_busy.entry(medium.clone()).or_default() += end - start;
                            if config.capture_trace {
                                trace.push(TraceEvent {
                                    site: medium.clone(),
                                    iteration: iter,
                                    start,
                                    end,
                                    kind: TraceKind::Transfer {
                                        from,
                                        to: ops[i].name.clone(),
                                        medium: medium.clone(),
                                        bits,
                                    },
                                });
                            }
                            ops[i].pc += 1;
                            ops[j].pc += 1;
                            ops[j].status = Status::Ready;
                            queue.schedule(end, i);
                            queue.schedule(end, j);
                            break 'step;
                        }
                        pending_recv.insert(key, (i, now));
                        ops[i].status = Status::Blocked(format!("recv tag {tag} iter {iter}"));
                        break 'step;
                    }
                }
            }
        }

        // Every operator must have finished.
        let blocked: Vec<(String, String)> = ops
            .iter()
            .filter(|o| o.status != Status::Done)
            .map(|o| {
                let why = match &o.status {
                    Status::Blocked(w) => w.clone(),
                    s => format!("{s:?}"),
                };
                (o.name.clone(), why)
            })
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                at_ps: makespan.as_ps(),
                blocked,
            });
        }

        let mut operator_busy = BTreeMap::new();
        for o in &ops {
            operator_busy.insert(o.name.clone(), o.busy);
        }
        let manager_stats = self
            .managers
            .iter()
            .map(|(k, m)| (k.clone(), m.stats()))
            .collect();
        Ok(SimReport {
            makespan,
            iterations: config.iterations,
            operator_busy,
            medium_busy,
            reconfigs,
            manager_stats,
            iteration_ends,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::executive::generate_executive;
    use pdr_adequation::{adequate, AdequationOptions};
    use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion};
    use pdr_graph::paper;
    use pdr_rtr::{BitstreamCache, BitstreamStore, MemoryModel, PrefetchSpec, ProtocolBuilder};

    struct Setup {
        arch: ArchGraph,
        executive: Executive,
    }

    fn paper_setup() -> Setup {
        let algo = paper::mccdma_algorithm();
        let arch = paper::sundance_architecture();
        let chars = paper::mccdma_characterization();
        let cons = paper::mccdma_constraints();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        let executive = generate_executive(&algo, &arch, &chars, &r.mapping, &r.schedule).unwrap();
        Setup { arch, executive }
    }

    fn paper_manager_with_cache(
        cache_modules: usize,
        prefetch_seq: Option<Vec<String>>,
    ) -> ConfigurationManager {
        let d = Device::xc2v2000();
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let mut store = BitstreamStore::new();
        let qpsk = Bitstream::partial_for_region(&d, &region, 1);
        let bytes = qpsk.len_bytes();
        store.insert("mod_qpsk", qpsk);
        store.insert("mod_qam16", Bitstream::partial_for_region(&d, &region, 2));
        let builder = ProtocolBuilder::new(d, PortProfile::icap_virtex2());
        let mut mgr = ConfigurationManager::new(
            builder,
            store,
            BitstreamCache::sized_for(cache_modules, bytes),
            MemoryModel::paper_flash(),
            "op_dyn",
        );
        if let Some(seq) = prefetch_seq {
            mgr = mgr.with_prefetch(PrefetchSpec::Schedule(seq));
        }
        mgr.preload("mod_qpsk").unwrap();
        mgr
    }

    fn paper_manager(prefetch_seq: Option<Vec<String>>) -> ConfigurationManager {
        paper_manager_with_cache(2, prefetch_seq)
    }

    fn alternating(n: u32) -> Vec<String> {
        (0..n)
            .map(|i| {
                if (i / 4) % 2 == 0 {
                    "mod_qpsk".to_string()
                } else {
                    "mod_qam16".to_string()
                }
            })
            .collect()
    }

    #[test]
    fn steady_state_runs_without_reconfiguration() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager(None));
        let cfg =
            SimConfig::iterations(16).with_selection("op_dyn", vec!["mod_qpsk".to_string(); 16]);
        let report = sys.run(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), 0);
        assert_eq!(report.iterations, 16);
        assert!(report.makespan > TimePs::ZERO);
        // Symbol period is tens of microseconds: 16 iterations < 2 ms.
        assert!(report.makespan < TimePs::from_ms(2), "{}", report.makespan);
    }

    #[test]
    fn switching_triggers_reconfigurations_with_4ms_latency() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        // 1-module cache: every switch evicts the other module, so each
        // reconfiguration is cold — the paper's request-to-ready path.
        sys.add_manager("op_dyn", paper_manager_with_cache(1, None));
        let cfg = SimConfig::iterations(16).with_selection("op_dyn", alternating(16));
        let report = sys.run(&cfg).unwrap();
        // Switches at iterations 4, 8, 12 → 3 reconfigurations.
        assert_eq!(report.reconfig_count(), 3);
        // Cold fetch (~3 ms) + ICAP load (~1 ms) ≈ 4 ms each: §6's number.
        for rc in &report.reconfigs {
            let ms = rc.latency().as_millis_f64();
            assert!((3.5..4.6).contains(&ms), "latency {ms} ms");
        }
        assert!(report.lockup_time() > TimePs::from_ms(10));
    }

    #[test]
    fn warm_cache_cuts_repeat_switches_to_load_only() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager(None)); // 2-module cache
        let cfg = SimConfig::iterations(16).with_selection("op_dyn", alternating(16));
        let report = sys.run(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), 3);
        // The first two switches fetch cold (the preloaded module was never
        // staged in the cache); once both modules are cached, the third
        // switch pays only the ~1 ms ICAP load.
        for rc in &report.reconfigs[..2] {
            let ms = rc.latency().as_millis_f64();
            assert!((3.5..4.6).contains(&ms), "cold {ms} ms");
        }
        let warm = report.reconfigs[2].latency().as_millis_f64();
        assert!((0.8..1.3).contains(&warm), "warm {warm} ms");
        assert!(report.reconfigs[2].fetch_hidden);
    }

    #[test]
    fn prefetching_cuts_lockup_time() {
        let s = paper_setup();
        // Baseline: no predictor, tiny cache (no reuse): every switch pays
        // the fetch.
        let mut base_sys = SimSystem::new(&s.arch, &s.executive);
        let d = Device::xc2v2000();
        let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let mut store = BitstreamStore::new();
        let qpsk = Bitstream::partial_for_region(&d, &region, 1);
        let bytes = qpsk.len_bytes();
        store.insert("mod_qpsk", qpsk);
        store.insert("mod_qam16", Bitstream::partial_for_region(&d, &region, 2));
        let mut tiny = ConfigurationManager::new(
            ProtocolBuilder::new(d, PortProfile::icap_virtex2()),
            store,
            BitstreamCache::sized_for(1, bytes),
            MemoryModel::paper_flash(),
            "op_dyn",
        );
        tiny.preload("mod_qpsk").unwrap();
        base_sys.add_manager("op_dyn", tiny);
        let cfg = SimConfig::iterations(24).with_selection("op_dyn", alternating(24));
        let base = base_sys.run(&cfg).unwrap();

        // Prefetching: schedule-driven predictor + 2-module cache.
        let loads: Vec<String> = {
            // The switch sequence after the preloaded qpsk.
            let mut seq = Vec::new();
            let sel = alternating(24);
            let mut cur = "mod_qpsk".to_string();
            for m in sel {
                if m != cur {
                    seq.push(m.clone());
                    cur = m;
                }
            }
            seq
        };
        let mut pf_sys = SimSystem::new(&s.arch, &s.executive);
        pf_sys.add_manager("op_dyn", paper_manager(Some(loads)));
        let pf = pf_sys.run(&cfg).unwrap();

        assert_eq!(base.reconfig_count(), pf.reconfig_count());
        assert!(
            pf.lockup_time() < base.lockup_time(),
            "prefetch lockup {} !< baseline {}",
            pf.lockup_time(),
            base.lockup_time()
        );
        assert!(pf.makespan < base.makespan);
        assert!(pf.hidden_fetches() > 0);
    }

    #[test]
    fn no_manager_uses_worst_case() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        let cfg = SimConfig::iterations(2);
        let report = sys.run(&cfg).unwrap();
        // Without a manager every Configure is charged the 4 ms WCET.
        assert_eq!(report.reconfig_count(), 2);
        for rc in &report.reconfigs {
            assert_eq!(rc.latency(), TimePs::from_ms(4));
        }
    }

    #[test]
    fn trace_capture_records_events() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager(None));
        let cfg = SimConfig::iterations(2)
            .with_selection("op_dyn", vec!["mod_qpsk".into(), "mod_qam16".into()])
            .with_trace();
        let report = sys.run(&cfg).unwrap();
        assert!(!report.trace.is_empty());
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Transfer { .. })));
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Compute { .. })));
        assert!(report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Reconfigure { .. })));
        // Trace events are well-formed.
        for e in &report.trace {
            assert!(e.end >= e.start);
        }
    }

    #[test]
    fn bad_selection_length_rejected() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        let cfg =
            SimConfig::iterations(4).with_selection("op_dyn", vec!["mod_qpsk".to_string(); 3]);
        assert!(matches!(sys.run(&cfg), Err(SimError::BadSelection(_))));
        let cfg = SimConfig::iterations(1).with_selection("ghost", vec!["mod_qpsk".to_string()]);
        assert!(matches!(sys.run(&cfg), Err(SimError::BadSelection(_))));
    }

    #[test]
    fn unknown_module_in_selection_surfaces_manager_error() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager(None));
        let cfg = SimConfig::iterations(1).with_selection("op_dyn", vec!["mod_ghost".to_string()]);
        assert!(matches!(sys.run(&cfg), Err(SimError::Manager(_))));
    }

    #[test]
    fn deadlock_detected_on_unmatched_rendezvous() {
        let mut arch = ArchGraph::new("t");
        arch.add_operator("a", pdr_graph::OperatorKind::Processor)
            .unwrap();
        arch.add_operator("b", pdr_graph::OperatorKind::Processor)
            .unwrap();
        let a_id = arch.operator_by_name("a").unwrap();
        let b_id = arch.operator_by_name("b").unwrap();
        let m = arch
            .add_medium("m", pdr_graph::MediumKind::Bus, 1_000_000, TimePs::ZERO)
            .unwrap();
        arch.link(a_id, m).unwrap();
        arch.link(b_id, m).unwrap();
        let mut exec = Executive::default();
        exec.per_operator.insert(
            "a".into(),
            vec![MacroInstr::Send {
                to: "b".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        // b never receives.
        exec.per_operator.insert("b".into(), vec![]);
        let mut sys = SimSystem::new(&arch, &exec);
        let err = sys.run(&SimConfig::iterations(1)).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
        assert!(err.to_string().contains("send tag 1"));
    }

    #[test]
    fn zero_iterations_is_empty_success() {
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        let report = sys.run(&SimConfig::iterations(0)).unwrap();
        assert_eq!(report.makespan, TimePs::ZERO);
        assert_eq!(report.reconfig_count(), 0);
    }

    #[test]
    fn reconfigurations_show_up_as_period_jitter() {
        // Steady state: tight period distribution. Switching every 8
        // symbols: the p99 period carries the ~4 ms reconfiguration spike
        // while the median stays at the steady-state period.
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager_with_cache(1, None));
        let cfg = SimConfig::iterations(64).with_selection("op_dyn", alternating(64));
        let report = sys.run(&cfg).unwrap();
        assert_eq!(report.iteration_ends.len(), 64);
        // Completion times are monotone.
        assert!(report.iteration_ends.windows(2).all(|w| w[0] <= w[1]));
        let p50 = report.period_percentile(50.0).unwrap();
        let p99 = report.period_percentile(99.0).unwrap();
        assert!(
            p99 > p50 * 10,
            "reconfig spikes must dominate the tail: p50 {p50}, p99 {p99}"
        );
        assert!(p99 > TimePs::from_ms(3), "p99 {p99} carries the 4 ms spike");
        assert!(p50 < TimePs::from_us(200), "p50 {p50} is steady-state");
    }

    #[test]
    fn determinism_across_runs() {
        let s = paper_setup();
        let run = || {
            let mut sys = SimSystem::new(&s.arch, &s.executive);
            sys.add_manager("op_dyn", paper_manager(None));
            let cfg = SimConfig::iterations(12).with_selection("op_dyn", alternating(12));
            sys.run(&cfg).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.reconfigs, b.reconfigs);
        assert_eq!(a.operator_busy, b.operator_busy);
    }

    #[test]
    fn pipelining_across_iterations_shrinks_period() {
        // Throughput over many iterations beats the single-iteration
        // latency because independent resources overlap across iterations.
        let s = paper_setup();
        let mut sys = SimSystem::new(&s.arch, &s.executive);
        sys.add_manager("op_dyn", paper_manager(None));
        let one = sys
            .run(&SimConfig::iterations(1).with_selection("op_dyn", alternating(1)))
            .unwrap();
        let mut sys2 = SimSystem::new(&s.arch, &s.executive);
        sys2.add_manager("op_dyn", paper_manager(None));
        let many = sys2
            .run(
                &SimConfig::iterations(64)
                    .with_selection("op_dyn", vec!["mod_qpsk".to_string(); 64]),
            )
            .unwrap();
        assert!(many.avg_period() <= one.makespan);
    }
}
