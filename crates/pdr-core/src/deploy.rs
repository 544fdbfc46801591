//! Deployment: flow artifacts → a runnable simulated system.
//!
//! [`DeployedSystem`] wires the generated bitstreams into one indexed
//! [`RtrEngine`] (external store + staging cache + protocol builder on the
//! chosen port, for every dynamic region) and runs the lowered executive
//! on the discrete-event simulator. [`RuntimeOptions`] selects the Fig. 2
//! reconfiguration chain and the prefetching and eviction policies. The
//! per-region reference [`ConfigurationManager`]s stay reachable through
//! [`DeployedSystem::managers`], the differential oracle.

use crate::error::FlowError;
use crate::flow::FlowArtifacts;
use parking_lot::Mutex;
use pdr_fabric::{Bitstream, Device, PortProfile};
use pdr_graph::ArchGraph;
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, DeviceLoader, EvictionSpec,
    ExclusionLedger, FirstOrderMarkov, LastValue, LoaderStats, MemoryModel, Predictor,
    PrefetchSpec, ProtocolBuilder, RegionSpec, RtrEngine, RtrEngineBuilder, ScheduleDriven,
};
use pdr_sim::{IrSimSystem, SimConfig, SimReport};
use std::sync::Arc;

/// Staging-cache eviction policy selection, honored by
/// [`DeployedSystem::simulate`], [`DeployedSystem::simulate_verified`] and
/// [`DeployedSystem::rtr_engine`]. The
/// offline Belady oracle needs a per-region future trace and is therefore
/// built directly through [`RtrEngineBuilder`] (the `bench_rtr` study does
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionChoice {
    /// Least recently used (the reference behavior).
    #[default]
    Lru,
    /// Least frequently used.
    Lfu,
}

/// Runtime plumbing choices for deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOptions {
    /// Configuration-port timing (Fig. 2 chain).
    pub port: PortProfile,
    /// External bitstream memory.
    pub memory: MemoryModel,
    /// Staging-cache capacity in module-sized units.
    pub cache_modules: usize,
    /// Prefetching policy.
    pub prefetch: PrefetchSpec,
    /// Staging-cache eviction policy.
    pub eviction: EvictionChoice,
    /// Store bitstreams zero-RLE-compressed in external memory (an on-chip
    /// decompressor restores them before the port; only the fetch leg
    /// shrinks).
    pub compressed_storage: bool,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            port: PortProfile::icap_virtex2(),
            memory: MemoryModel::paper_flash(),
            cache_modules: 1,
            prefetch: PrefetchSpec::None,
            eviction: EvictionChoice::Lru,
            compressed_storage: false,
        }
    }
}

impl RuntimeOptions {
    /// The paper's §6 chain: self-reconfiguration over ICAP from board
    /// flash, no prefetching — the configuration whose request-to-ready
    /// time is "about 4 ms".
    pub fn paper_baseline() -> Self {
        Self::default()
    }

    /// The prefetching configuration promised by the abstract:
    /// schedule-driven prediction into a 2-module staging cache.
    pub fn paper_prefetch(load_sequence: Vec<String>) -> Self {
        RuntimeOptions {
            cache_modules: 2,
            prefetch: PrefetchSpec::Schedule(load_sequence),
            ..Self::default()
        }
    }
}

/// One region's generated `(module, bitstream)` pairs.
type ModuleStreams<'a> = Vec<(&'a str, &'a Bitstream)>;

/// A deployed system ready to simulate.
pub struct DeployedSystem<'a> {
    arch: &'a ArchGraph,
    artifacts: &'a FlowArtifacts,
    device: Device,
    options: RuntimeOptions,
}

impl<'a> DeployedSystem<'a> {
    /// Deploy flow artifacts onto their architecture.
    pub fn new(
        arch: &'a ArchGraph,
        artifacts: &'a FlowArtifacts,
        device: Device,
        options: RuntimeOptions,
    ) -> Self {
        DeployedSystem {
            arch,
            artifacts,
            device,
            options,
        }
    }

    /// The generated `(module, bitstream)` pairs of one region, and the
    /// size of its largest module in bytes.
    fn region_modules(&self, region: &str) -> Result<(ModuleStreams<'a>, usize), FlowError> {
        let floorplan = &self.artifacts.design.floorplan;
        let mut modules = Vec::new();
        let mut module_bytes = 0usize;
        for (module, target) in &floorplan.region_of {
            if target == region {
                let bs = floorplan.bitstream_of(module).ok_or_else(|| {
                    FlowError::Config(format!("no bitstream generated for `{module}`"))
                })?;
                module_bytes = module_bytes.max(bs.len_bytes());
                modules.push((module.as_str(), bs));
            }
        }
        if modules.is_empty() {
            return Err(FlowError::Config(format!(
                "region `{region}` has no modules"
            )));
        }
        Ok((modules, module_bytes))
    }

    /// Build the configuration manager for one region from the generated
    /// bitstreams.
    fn manager_for(&self, region: &str) -> Result<ConfigurationManager, FlowError> {
        let mut store = if self.options.compressed_storage {
            BitstreamStore::with_compression()
        } else {
            BitstreamStore::new()
        };
        let (modules, module_bytes) = self.region_modules(region)?;
        for (module, bs) in modules {
            store.insert(module, bs.clone());
        }
        let cache = BitstreamCache::sized_for(self.options.cache_modules.max(1), module_bytes);
        let builder = ProtocolBuilder::new(self.device.clone(), self.options.port.clone());
        let mut mgr = ConfigurationManager::new(builder, store, cache, self.options.memory, region);
        let predictor: Option<Box<dyn Predictor>> = match &self.options.prefetch {
            PrefetchSpec::None => None,
            PrefetchSpec::Schedule(seq) => Some(Box::new(ScheduleDriven::new(seq.clone()))),
            PrefetchSpec::LastValue => Some(Box::new(LastValue)),
            PrefetchSpec::Markov => Some(Box::new(FirstOrderMarkov::new())),
        };
        if let Some(p) = predictor {
            mgr = mgr.with_predictor(p);
        }
        // Honor load = at_start from the constraints file.
        let constraints = pdr_graph::ConstraintsFile::parse(&self.artifacts.constraints_text)
            .map_err(FlowError::Graph)?;
        for mc in constraints.modules_in_region(region) {
            if mc.load == pdr_graph::LoadPolicy::AtStart {
                mgr.preload(&mc.module).map_err(FlowError::Runtime)?;
            }
        }
        Ok(mgr)
    }

    /// Build every region's reference configuration manager, with the
    /// shared exclusion ledger attached — ready to hand to the string
    /// [`pdr_sim::SimSystem`]. This is the differential oracle for
    /// [`DeployedSystem::simulate`], and separates deployment setup from
    /// interpretation (the `bench_ir_sim` benchmark times `run()` alone).
    pub fn managers(&self) -> Result<Vec<(String, ConfigurationManager)>, FlowError> {
        let constraints = pdr_graph::ConstraintsFile::parse(&self.artifacts.constraints_text)
            .map_err(FlowError::Graph)?;
        let ledger = Arc::new(Mutex::new(ExclusionLedger::from_constraints(&constraints)));
        let mut out = Vec::new();
        for region in self.artifacts.design.floorplan.floorplan.regions() {
            out.push((
                region.name.clone(),
                self.manager_for(&region.name)?
                    .with_exclusions(ledger.clone()),
            ));
        }
        Ok(out)
    }

    /// Build the indexed [`RtrEngine`] over *all* regions from the
    /// generated bitstreams: the allocation-free equivalent of
    /// [`DeployedSystem::managers`], with every stream validated once at
    /// construction, exclusions imported from the constraints file, and
    /// `load = at_start` modules preloaded.
    pub fn rtr_engine(&self) -> Result<RtrEngine, FlowError> {
        let constraints = pdr_graph::ConstraintsFile::parse(&self.artifacts.constraints_text)
            .map_err(FlowError::Graph)?;
        let mut builder = RtrEngineBuilder::new(
            self.device.clone(),
            self.options.port.clone(),
            self.options.memory,
        )
        .compressed_storage(self.options.compressed_storage);
        for region in self.artifacts.design.floorplan.floorplan.regions() {
            let (modules, module_bytes) = self.region_modules(&region.name)?;
            let mut spec = RegionSpec::new(
                &region.name,
                self.options.cache_modules.max(1) * module_bytes,
            );
            for (module, bs) in modules {
                spec = spec.module(module, bs.clone());
            }
            spec.prefetch = self.options.prefetch.clone();
            spec.eviction = match self.options.eviction {
                EvictionChoice::Lru => EvictionSpec::Lru,
                EvictionChoice::Lfu => EvictionSpec::Lfu,
            };
            builder = builder.region(spec);
        }
        for m in constraints.modules() {
            for other in &m.exclusive_with {
                builder = builder.exclude(&m.module, other);
            }
        }
        let mut engine = builder.build().map_err(FlowError::Runtime)?;
        for region in self.artifacts.design.floorplan.floorplan.regions() {
            let rid = engine.region_index(&region.name).ok_or_else(|| {
                FlowError::Runtime(pdr_rtr::RtrError::Internal(format!(
                    "runtime engine lacks region `{}`",
                    region.name
                )))
            })?;
            for mc in constraints.modules_in_region(&region.name) {
                if mc.load == pdr_graph::LoadPolicy::AtStart {
                    let mid = engine.module_index(&mc.module).ok_or_else(|| {
                        FlowError::Runtime(pdr_rtr::RtrError::UnknownModule(mc.module.clone()))
                    })?;
                    engine.preload(rid, mid).map_err(FlowError::Runtime)?;
                }
            }
        }
        Ok(engine)
    }

    /// Simulate the deployed system: the lowered executive runs on the
    /// interned interpreter ([`IrSimSystem`]) with one indexed
    /// [`RtrEngine`] serving every dynamic region, so a reconfiguration
    /// request performs no heap allocation. Every bitstream is validated
    /// once when the engine is built; cross-region exclusions from the
    /// constraints file are enforced by the engine.
    ///
    /// The report equals what the string [`pdr_sim::SimSystem`] produces
    /// over the reference managers of [`DeployedSystem::managers`] (LRU
    /// eviction); `tests/ir_equivalence.rs` and the `bench_rtr` parity
    /// gate hold the two to that.
    pub fn simulate(&self, config: &SimConfig) -> Result<SimReport, FlowError> {
        let mut sys = IrSimSystem::new(
            self.arch,
            &self.artifacts.ir_executive,
            &self.artifacts.symbols,
        );
        sys.attach_engine(self.rtr_engine()?);
        sys.run(config).map_err(FlowError::Sim)
    }

    /// Simulate with *functional fidelity*: [`DeployedSystem::simulate`],
    /// then every reconfiguration of the report is replayed, in order,
    /// through one [`DeviceLoader`], which applies its bitstream to a real
    /// [`pdr_fabric::ConfigMemory`] and readback-verifies it. Returns the
    /// loader statistics next to the report, which is the one `simulate`
    /// returns.
    ///
    /// The timing model and the device are separate (§5), so a failed
    /// readback does not stop the run: it surfaces after the run as a
    /// [`FlowError::Runtime`], not as a `SimError::Manager` in the middle
    /// of it.
    pub fn simulate_verified(
        &self,
        config: &SimConfig,
    ) -> Result<(SimReport, LoaderStats), FlowError> {
        let floorplan = &self.artifacts.design.floorplan;
        let mut loader = DeviceLoader::new(self.device.clone());
        for region in floorplan.floorplan.regions() {
            loader
                .add_region(region.clone())
                .map_err(FlowError::Runtime)?;
        }
        let report = self.simulate(config)?;
        for rc in &report.reconfigs {
            let bs = floorplan.bitstream_of(&rc.module).ok_or_else(|| {
                FlowError::Config(format!("no bitstream generated for `{}`", rc.module))
            })?;
            loader
                .load(&rc.operator, &rc.module, bs)
                .map_err(FlowError::Runtime)?;
        }
        Ok((report, loader.stats()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::DesignFlow;
    use pdr_adequation::AdequationOptions;
    use pdr_fabric::TimePs;
    use pdr_graph::paper;

    fn build() -> (ArchGraph, FlowArtifacts) {
        let arch = paper::sundance_architecture();
        let art = DesignFlow::new(
            paper::mccdma_algorithm(),
            arch.clone(),
            paper::mccdma_characterization(),
            Device::xc2v2000(),
        )
        .with_constraints(paper::mccdma_constraints())
        .with_adequation_options(
            AdequationOptions::default()
                .pin("interface_in", "dsp")
                .pin("select", "dsp")
                .pin("interface_out", "fpga_static"),
        )
        .run()
        .unwrap();
        (arch, art)
    }

    fn switching(n: u32) -> Vec<String> {
        (0..n)
            .map(|i| {
                if (i / 8) % 2 == 0 {
                    "mod_qpsk".to_string()
                } else {
                    "mod_qam16".to_string()
                }
            })
            .collect()
    }

    #[test]
    fn baseline_deployment_reconfigures_in_about_4ms() {
        let (arch, art) = build();
        let dep = DeployedSystem::new(
            &arch,
            &art,
            Device::xc2v2000(),
            RuntimeOptions::paper_baseline(),
        );
        let cfg = SimConfig::iterations(32).with_selection("op_dyn", switching(32));
        let report = dep.simulate(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), 3);
        for rc in &report.reconfigs {
            let ms = rc.latency().as_millis_f64();
            assert!((3.5..4.6).contains(&ms), "latency {ms} ms");
        }
    }

    #[test]
    fn prefetch_deployment_beats_baseline() {
        let (arch, art) = build();
        let cfg = SimConfig::iterations(32).with_selection("op_dyn", switching(32));
        let base = DeployedSystem::new(
            &arch,
            &art,
            Device::xc2v2000(),
            RuntimeOptions::paper_baseline(),
        )
        .simulate(&cfg)
        .unwrap();
        // The load sequence after the preloaded qpsk: qam16, qpsk, qam16...
        let loads: Vec<String> = (0..3)
            .map(|i| {
                if i % 2 == 0 {
                    "mod_qam16".to_string()
                } else {
                    "mod_qpsk".to_string()
                }
            })
            .collect();
        let pf = DeployedSystem::new(
            &arch,
            &art,
            Device::xc2v2000(),
            RuntimeOptions::paper_prefetch(loads),
        )
        .simulate(&cfg)
        .unwrap();
        assert_eq!(base.reconfig_count(), pf.reconfig_count());
        assert!(pf.lockup_time() < base.lockup_time());
        assert!(pf.makespan < base.makespan);
    }

    /// The differential oracle: the string interpreter over the reference
    /// managers of the same deployment.
    fn simulate_reference(
        arch: &ArchGraph,
        art: &FlowArtifacts,
        dep: &DeployedSystem,
    ) -> SimReport {
        let mut sys = pdr_sim::SimSystem::new(arch, &art.executive);
        for (region, mgr) in dep.managers().unwrap() {
            sys.add_manager(&region, mgr);
        }
        sys.run(&traced_switching()).unwrap()
    }

    fn traced_switching() -> SimConfig {
        SimConfig::iterations(32)
            .with_selection("op_dyn", switching(32))
            .with_trace()
    }

    #[test]
    fn interned_deployment_matches_string_deployment() {
        let (arch, art) = build();
        let dep = DeployedSystem::new(
            &arch,
            &art,
            Device::xc2v2000(),
            RuntimeOptions::paper_baseline(),
        );
        let report = dep.simulate(&traced_switching()).unwrap();
        assert!(!report.trace.is_empty());
        assert_eq!(report, simulate_reference(&arch, &art, &dep));
    }

    #[test]
    fn engine_deployment_matches_manager_deployment() {
        let (arch, art) = build();
        let loads: Vec<String> = (0..3)
            .map(|i| {
                if i % 2 == 0 {
                    "mod_qam16".to_string()
                } else {
                    "mod_qpsk".to_string()
                }
            })
            .collect();
        for options in [
            RuntimeOptions::paper_baseline(),
            RuntimeOptions::paper_prefetch(loads),
            RuntimeOptions {
                cache_modules: 2,
                prefetch: PrefetchSpec::Markov,
                compressed_storage: true,
                ..RuntimeOptions::default()
            },
        ] {
            let dep = DeployedSystem::new(&arch, &art, Device::xc2v2000(), options);
            let via_engine = dep.simulate(&traced_switching()).unwrap();
            assert_eq!(via_engine, simulate_reference(&arch, &art, &dep));
        }
    }

    /// One region with three alternatives and room for two in the staging
    /// cache; `a` (alternative 0) starts resident but uncached. The
    /// selection trace a, b, a, b, a, c, b, a leaves `a` (cached, two uses)
    /// older than `c` (one use) when `b` returns: LRU evicts `a` and must
    /// fetch it again, LFU evicts `c` and hits.
    fn eviction_flow() -> (crate::flow::DesignFlow, FlowArtifacts, SimConfig) {
        let flow = crate::gallery::synthetic(&crate::gallery::SyntheticParams {
            layers: 2,
            width: 4,
            cpus: 2,
            regions: 1,
            alternatives: 3,
            ..Default::default()
        });
        let art = flow.run().unwrap();
        let alt = |a: usize| format!("pr_region0_alt{a}_bitstream");
        let trace = [0, 1, 0, 1, 0, 2, 1, 0].map(alt).to_vec();
        let cfg = SimConfig::iterations(8).with_selection("d1", trace);
        (flow, art, cfg)
    }

    fn eviction_options(eviction: EvictionChoice) -> RuntimeOptions {
        RuntimeOptions {
            cache_modules: 2,
            eviction,
            ..RuntimeOptions::default()
        }
    }

    #[test]
    fn simulate_honors_lfu_eviction() {
        let (flow, art, cfg) = eviction_flow();
        let fetches = |eviction| {
            let dep = DeployedSystem::new(
                flow.architecture(),
                &art,
                flow.device().clone(),
                eviction_options(eviction),
            );
            let report = dep.simulate(&cfg).unwrap();
            assert_eq!(report.reconfig_count(), 7);
            report.manager_stats["d1"].fetches
        };
        assert_eq!(fetches(EvictionChoice::Lru), 5);
        assert_eq!(fetches(EvictionChoice::Lfu), 4);
    }

    #[test]
    fn simulate_verified_honors_lfu_eviction() {
        let (flow, art, cfg) = eviction_flow();
        let dep = DeployedSystem::new(
            flow.architecture(),
            &art,
            flow.device().clone(),
            eviction_options(EvictionChoice::Lfu),
        );
        let (report, loader_stats) = dep.simulate_verified(&cfg).unwrap();
        assert_eq!(report.manager_stats["d1"].fetches, 4);
        assert_eq!(report, dep.simulate(&cfg).unwrap());
        assert_eq!(loader_stats.loads, 7);
        assert_eq!(loader_stats.verify_failures, 0);
    }

    #[test]
    fn at_start_module_is_preloaded() {
        let (arch, art) = build();
        let dep = DeployedSystem::new(
            &arch,
            &art,
            Device::xc2v2000(),
            RuntimeOptions::paper_baseline(),
        );
        // All-qpsk: the preloaded module means zero reconfigurations.
        let cfg =
            SimConfig::iterations(8).with_selection("op_dyn", vec!["mod_qpsk".to_string(); 8]);
        let report = dep.simulate(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), 0);
        assert_eq!(report.lockup_time(), TimePs::ZERO);
    }

    #[test]
    fn markov_prefetch_learns_alternation() {
        let (arch, art) = build();
        let opts = RuntimeOptions {
            cache_modules: 2,
            prefetch: PrefetchSpec::Markov,
            ..RuntimeOptions::default()
        };
        let dep = DeployedSystem::new(&arch, &art, Device::xc2v2000(), opts);
        // Fast alternation: after training, Markov predicts the follower.
        let sel: Vec<String> = (0..64)
            .map(|i| {
                if (i / 4) % 2 == 0 {
                    "mod_qpsk".to_string()
                } else {
                    "mod_qam16".to_string()
                }
            })
            .collect();
        let cfg = SimConfig::iterations(64).with_selection("op_dyn", sel);
        let report = dep.simulate(&cfg).unwrap();
        assert!(report.reconfig_count() > 10);
        // Later reconfigurations benefit from learned prefetches (and the
        // 2-module cache): at least half the fetches are hidden.
        assert!(
            report.hidden_fetches() * 2 >= report.reconfig_count(),
            "{} of {} hidden",
            report.hidden_fetches(),
            report.reconfig_count()
        );
    }
}

#[cfg(test)]
mod verified_tests {
    use super::*;
    use crate::paper::PaperCaseStudy;
    use pdr_sim::SimConfig;

    #[test]
    fn verified_simulation_applies_and_checks_every_load() {
        let study = PaperCaseStudy::build().unwrap();
        let sel: Vec<String> = (0..24u32)
            .map(|i| {
                if (i / 6) % 2 == 0 {
                    "mod_qpsk".to_string()
                } else {
                    "mod_qam16".to_string()
                }
            })
            .collect();
        let dep = study.deploy(RuntimeOptions::paper_baseline());
        let cfg = SimConfig::iterations(24).with_selection("op_dyn", sel);
        let (report, loader_stats) = dep.simulate_verified(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), 3);
        assert_eq!(loader_stats.loads, 3);
        assert_eq!(loader_stats.verifications, 3);
        assert_eq!(loader_stats.verify_failures, 0);
        // The report is the unverified run's (fidelity is free).
        let plain = study
            .deploy(RuntimeOptions::paper_baseline())
            .simulate(&cfg)
            .unwrap();
        assert_eq!(plain, report);
    }
}
