//! The [`DesignFlow`] builder: Fig. 3 end to end.

use crate::error::FlowError;
use pdr_adequation::executive::generate_executive;
use pdr_adequation::{
    adequate_with_index, AdequationIndex, AdequationOptions, AdequationResult, Executive,
    IndexOptions,
};
use pdr_codegen::{generate_design, ucf, vhdl, CostModel, GeneratedDesign};
use pdr_fabric::Device;
use pdr_graph::prelude::*;
use pdr_ir::{IrExecutive, SymbolTable};
use pdr_sweep::digest::Fnv64;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Every artifact the flow produces, stage by stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowArtifacts {
    /// Stage 1: mapping + schedule (the adequation).
    pub adequation: AdequationResult,
    /// Stage 2: the synchronized executive (macro-code) — the
    /// human-readable render/golden surface.
    pub executive: Executive,
    /// Stage 2: the same executive lowered to the interned, index-based
    /// form — what verification and deployment actually run on.
    pub ir_executive: IrExecutive,
    /// The symbol table the whole flow interns through: seeded with the
    /// graphs' names at modelisation, extended by lowering. Resolves every
    /// id in [`FlowArtifacts::ir_executive`].
    pub symbols: SymbolTable,
    /// Stage 2b: the §4 constraints file, serialized (travels with the
    /// design to the placement step, as in Fig. 3).
    pub constraints_text: String,
    /// Stage 3+4: structural design, floorplan, bitstreams, estimates.
    pub design: GeneratedDesign,
    /// Stage 3 artifact: VHDL-like source per entity and module.
    pub vhdl: BTreeMap<String, String>,
    /// Stage 4 artifact: the UCF-style placement constraints (area groups
    /// + bus-macro LOCs) handed to the Modular Design analog.
    pub ucf: String,
}

impl FlowArtifacts {
    /// Total generated VHDL-like source size (a Fig. 3 "artifact size"
    /// metric for the flow benchmark).
    pub fn vhdl_bytes(&self) -> usize {
        self.vhdl.values().map(String::len).sum()
    }

    /// Canonical content digest of the compiled result: FNV-1a over the
    /// interned executive (rendered through the symbol table, so it is
    /// byte-identical to the string executive's render, and hashed as it
    /// is written rather than collected into a `String`) followed by the
    /// §4 constraints text. The hasher is [`pdr_sweep::digest::Fnv64`] —
    /// the same implementation behind the sweep engine's outcome digests
    /// and `pdr-server`'s content-addressed cache, so the layers can
    /// never drift apart on what a digest means.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        // Hashing never fails.
        let _ = self.ir_executive.render_to(&self.symbols, &mut h);
        h.eat_str(&self.constraints_text);
        h.finish()
    }
}

/// The top-down flow builder.
#[derive(Debug, Clone)]
pub struct DesignFlow {
    algo: AlgorithmGraph,
    arch: ArchGraph,
    chars: Characterization,
    constraints: ConstraintsFile,
    device: Device,
    adequation_options: AdequationOptions,
    cost_model: CostModel,
}

impl DesignFlow {
    /// A flow over the given models, targeting `device`.
    pub fn new(
        algo: AlgorithmGraph,
        arch: ArchGraph,
        chars: Characterization,
        device: Device,
    ) -> Self {
        DesignFlow {
            algo,
            arch,
            chars,
            constraints: ConstraintsFile::new(),
            device,
            adequation_options: AdequationOptions::default(),
            cost_model: CostModel::default(),
        }
    }

    /// Attach the §4 dynamic-constraints file.
    pub fn with_constraints(mut self, constraints: ConstraintsFile) -> Self {
        self.constraints = constraints;
        self
    }

    /// Override the adequation options (pins, reconfiguration awareness).
    pub fn with_adequation_options(mut self, options: AdequationOptions) -> Self {
        self.adequation_options = options;
        self
    }

    /// Override the synthesis-analog cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost_model = cost;
        self
    }

    /// The algorithm graph.
    pub fn algorithm(&self) -> &AlgorithmGraph {
        &self.algo
    }

    /// The architecture graph.
    pub fn architecture(&self) -> &ArchGraph {
        &self.arch
    }

    /// The characterization tables.
    pub fn characterization(&self) -> &Characterization {
        &self.chars
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The §4 constraints file.
    pub fn constraints(&self) -> &ConstraintsFile {
        &self.constraints
    }

    /// The adequation options (pins, reconfiguration awareness).
    pub fn adequation_options(&self) -> &AdequationOptions {
        &self.adequation_options
    }

    /// Absorb the [`AdequationIndex`] inputs — algorithm, architecture,
    /// characterization — into `h`, element by element in id order
    /// (characterization tables in sorted order; their backing maps are
    /// unordered).
    fn eat_index_inputs(&self, h: &mut Fnv64) {
        h.eat_str(&self.algo.name);
        for (_, op) in self.algo.ops() {
            h.eat_str(&format!("{op:?}"));
        }
        for e in self.algo.edges() {
            h.eat_str(&format!("{e:?}"));
        }
        h.eat_str(&self.arch.name);
        for (id, o) in self.arch.operators() {
            h.eat_str(&format!("{o:?}"));
            for m in self.arch.media_of(id) {
                h.eat_u64(m.0 as u64);
            }
        }
        for (_, m) in self.arch.media() {
            h.eat_str(&format!("{m:?}"));
        }
        for (f, o, t) in self.chars.sorted_durations() {
            h.eat_str(f);
            h.eat_str(o);
            h.eat_u64(t.as_ps());
        }
        for (f, r) in self.chars.sorted_resources() {
            h.eat_str(f);
            h.eat_str(&format!("{r:?}"));
        }
        for (o, f, t) in self.chars.sorted_reconfig() {
            h.eat_str(o);
            h.eat_str(f);
            h.eat_u64(t.as_ps());
        }
    }

    /// Canonical digest of the [`AdequationIndex`] inputs. Two flows with
    /// equal `index_digest` produce identical indexes, so a service can
    /// build the index once and schedule both against it (the index is a
    /// pure function of algorithm + architecture + characterization;
    /// constraints, device and options don't enter it).
    pub fn index_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.eat_index_inputs(&mut h);
        h.finish()
    }

    /// Canonical digest of the *complete* model content: everything that
    /// determines this flow's artifacts — the index inputs plus device,
    /// constraints file, adequation options and cost model. This is the
    /// content address `pdr-server` keys its result cache on: equal
    /// digests ⇒ byte-identical [`FlowArtifacts`].
    pub fn model_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.eat_index_inputs(&mut h);
        h.eat_str(&self.device.name);
        h.eat_str(&self.constraints.to_string());
        h.eat_str(&format!("{:?}", self.adequation_options));
        h.eat_str(&format!("{:?}", self.cost_model));
        h.finish()
    }

    /// Build the scheduler's precomputation index for this flow's models.
    /// Expensive relative to scheduling a small flow — share it across
    /// [`DesignFlow::run_with_index`] calls whenever
    /// [`DesignFlow::index_digest`] matches.
    pub fn build_index(&self) -> Result<AdequationIndex, FlowError> {
        Ok(AdequationIndex::build(&self.algo, &self.arch, &self.chars)?)
    }

    /// [`DesignFlow::build_index`] with explicit build options (thread
    /// count); the result is identical for every option value.
    pub fn build_index_with(&self, options: &IndexOptions) -> Result<AdequationIndex, FlowError> {
        Ok(AdequationIndex::build_with(
            &self.algo,
            &self.arch,
            &self.chars,
            options,
        )?)
    }

    /// Run the complete pipeline.
    pub fn run(&self) -> Result<FlowArtifacts, FlowError> {
        let index = self.build_index()?;
        self.run_with_index(&index)
    }

    /// Run the complete pipeline against a caller-supplied (typically
    /// shared) [`AdequationIndex`] — it must come from models with this
    /// flow's [`DesignFlow::index_digest`]. Artifacts are byte-identical
    /// to [`DesignFlow::run`].
    pub fn run_with_index(&self, index: &AdequationIndex) -> Result<FlowArtifacts, FlowError> {
        // 1. Modelisation is validated inside adequation; run it.
        let adequation = adequate_with_index(
            &self.algo,
            &self.arch,
            &self.chars,
            &self.constraints,
            &self.adequation_options,
            index,
        )?;
        // 2. Macro-code generation.
        let executive = generate_executive(
            &self.algo,
            &self.arch,
            &self.chars,
            &adequation.mapping,
            &adequation.schedule,
        )?;
        // 3+4. VHDL generation + Modular Design analog.
        let design = generate_design(
            &self.algo,
            &self.arch,
            &self.chars,
            &self.constraints,
            &adequation.mapping,
            &executive,
            &self.device,
            &self.cost_model,
        )?;
        let mut vhdl_out = BTreeMap::new();
        for (name, entity) in &design.entities {
            vhdl_out.insert(format!("{name}.vhd"), vhdl::emit_entity(entity));
        }
        for module in &design.modules {
            vhdl_out.insert(
                format!("dyn_{}.vhd", module.module),
                vhdl::emit_module(module),
            );
        }
        let ucf_text = ucf::emit_ucf(&design.floorplan);
        // Lower through one symbol table seeded with every name the graphs
        // interned at construction, so ids stay shared across the flow.
        let mut symbols = self.arch.symbols().clone();
        symbols.absorb(self.algo.symbols());
        let ir_executive = executive.lower(&mut symbols);
        Ok(FlowArtifacts {
            adequation,
            executive,
            ir_executive,
            symbols,
            constraints_text: self.constraints.to_string(),
            design,
            vhdl: vhdl_out,
            ucf: ucf_text,
        })
    }

    /// Statically analyze produced artifacts with `pdr-lint`: rendezvous
    /// matching, deadlock freedom, reconfiguration safety and floorplan
    /// legality — the verification stage between generation and
    /// deployment. Runs over the lowered executive through the artifacts'
    /// symbol table, with the exhaustive interleaving model checker
    /// (PDR013–PDR017) at its default state budget; [`Self::verify_with`]
    /// tunes or disables it.
    pub fn verify(&self, artifacts: &FlowArtifacts) -> pdr_lint::Report {
        self.verify_with(artifacts, Some(pdr_lint::ModelConfig::default()))
    }

    /// [`Self::verify`] with explicit model-checker control: `None` keeps
    /// the greedy single-interleaving deadlock pass (byte-identical to
    /// the historical output), `Some(config)` runs the exhaustive checker
    /// under that configuration.
    pub fn verify_with(
        &self,
        artifacts: &FlowArtifacts,
        model: Option<pdr_lint::ModelConfig>,
    ) -> pdr_lint::Report {
        let mut input = pdr_lint::IrLintInput::new(&artifacts.ir_executive, &artifacts.symbols)
            .with_arch(&self.arch)
            .with_chars(&self.chars)
            .with_constraints(&self.constraints)
            .with_floorplan(&artifacts.design.floorplan);
        input.model = model;
        pdr_lint::lint_ir(&input)
    }

    /// Run the pipeline and gate the artifacts on a clean static
    /// analysis: any error-level diagnostic aborts with
    /// [`FlowError::Lint`] carrying the rendered report.
    pub fn run_verified(&self) -> Result<FlowArtifacts, FlowError> {
        let artifacts = self.run()?;
        let report = self.verify(&artifacts);
        if report.has_errors() {
            return Err(FlowError::Lint(pdr_lint::render::to_text(&report)));
        }
        Ok(artifacts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_graph::paper;

    fn paper_flow() -> DesignFlow {
        DesignFlow::new(
            paper::mccdma_algorithm(),
            paper::sundance_architecture(),
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
    }

    #[test]
    fn full_pipeline_produces_all_artifacts() {
        let art = paper_flow().run().unwrap();
        assert!(art.adequation.makespan > pdr_fabric::TimePs::ZERO);
        assert!(!art.executive.is_empty());
        assert!(art.constraints_text.contains("[module mod_qpsk]"));
        assert_eq!(art.design.floorplan.bitstreams.len(), 3);
        // VHDL for the static entity and both dynamic modules.
        assert!(art.vhdl.contains_key("fpga_static.vhd"));
        assert!(art.vhdl.contains_key("dyn_mod_qpsk.vhd"));
        assert!(art.vhdl.contains_key("dyn_mod_qam16.vhd"));
        assert!(art.vhdl_bytes() > 1000);
        // The UCF pins the paper region and its bus macros.
        assert!(art.ucf.contains("AG_op_dyn"));
        assert!(art.ucf.contains("MODE = RECONFIG"));
        assert!(art.ucf.matches("LOC = ").count() >= 10);
    }

    #[test]
    fn constraints_text_roundtrips() {
        let art = paper_flow().run().unwrap();
        let parsed = ConstraintsFile::parse(&art.constraints_text).unwrap();
        assert_eq!(parsed, paper::mccdma_constraints());
    }

    #[test]
    fn paper_flow_verifies_clean() {
        let flow = paper_flow();
        let art = flow.run_verified().unwrap();
        let report = flow.verify(&art);
        assert!(report.is_clean(), "{}", pdr_lint::render::to_text(&report));
    }

    #[test]
    fn run_verified_rejects_corrupted_artifacts() {
        use pdr_adequation::executive::MacroInstr;
        let flow = paper_flow();
        let mut art = flow.run().unwrap();
        // Seed a dangling rendezvous into the executive, and re-lower so
        // the index-based twin verification runs on sees the corruption.
        art.executive
            .per_operator
            .get_mut("dsp")
            .unwrap()
            .push(MacroInstr::Receive {
                from: "nowhere".into(),
                medium: "shb".into(),
                bits: 1,
                tag: 9_999,
            });
        art.ir_executive = art.executive.lower(&mut art.symbols);
        let report = flow.verify(&art);
        assert!(report.has_errors());
        assert!(report.has_code(pdr_lint::Code::DanglingRendezvous));
    }

    #[test]
    fn flow_is_deterministic() {
        let a = paper_flow().run().unwrap();
        let b = paper_flow().run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn run_with_shared_index_is_byte_identical() {
        let flow = paper_flow();
        let index = flow.build_index().unwrap();
        let fresh = flow.run().unwrap();
        let shared = flow.run_with_index(&index).unwrap();
        let again = flow.run_with_index(&index).unwrap();
        assert_eq!(fresh, shared);
        assert_eq!(shared, again);
        assert_eq!(fresh.digest(), shared.digest());
    }

    #[test]
    fn model_digest_is_stable_and_content_sensitive() {
        let flow = paper_flow();
        assert_eq!(flow.model_digest(), paper_flow().model_digest());
        assert_eq!(flow.index_digest(), paper_flow().index_digest());
        // Dropping the constraints file changes the model digest but not
        // the index digest (constraints don't enter the index).
        let unconstrained = paper_flow().with_constraints(ConstraintsFile::new());
        assert_ne!(flow.model_digest(), unconstrained.model_digest());
        assert_eq!(flow.index_digest(), unconstrained.index_digest());
        // A different pin set changes the model digest too.
        let repinned = paper_flow()
            .with_adequation_options(AdequationOptions::default().pin("interface_in", "dsp"));
        assert_ne!(flow.model_digest(), repinned.model_digest());
    }

    #[test]
    fn artifact_digest_tracks_content() {
        let a = paper_flow().run().unwrap();
        // Streaming the render hashes exactly the rendered text.
        let mut whole = Fnv64::new();
        whole.eat_str(&a.ir_executive.render(&a.symbols));
        whole.eat_str(&a.constraints_text);
        assert_eq!(a.digest(), whole.finish());
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.constraints_text.push('x');
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn same_models_on_two_devices_share_an_index() {
        let g3 = crate::gallery::by_name("two_regions").unwrap().flow;
        let g4 = crate::gallery::by_name("two_regions_xc2v4000")
            .unwrap()
            .flow;
        // Same algorithm/architecture/characterization, different device:
        // the scheduler index is shareable, the full model address is not.
        assert_eq!(g3.index_digest(), g4.index_digest());
        assert_ne!(g3.model_digest(), g4.model_digest());
        let shared = g3.build_index().unwrap();
        let a = g4.run_with_index(&shared).unwrap();
        assert_eq!(a, g4.run().unwrap());
    }

    #[test]
    fn lowered_executive_renders_like_the_string_one() {
        let art = paper_flow().run().unwrap();
        assert_eq!(
            art.ir_executive.render(&art.symbols),
            art.executive.render()
        );
        // The table is seeded from the graphs: every architecture name is
        // resolvable even if the executive never mentions it.
        assert!(art.symbols.lookup("dsp").is_some());
    }

    #[test]
    fn fixed_variant_produces_no_dynamic_modules() {
        // The same flow over the fixed-QPSK graph: everything static.
        let flow = DesignFlow::new(
            paper::mccdma_fixed("mod_qpsk"),
            paper::sundance_architecture(),
            paper::mccdma_characterization(),
            Device::xc2v2000(),
        )
        .with_adequation_options(
            AdequationOptions::default()
                .pin("interface_in", "dsp")
                .pin("interface_out", "fpga_static")
                // Keep the fixed modulation out of the dynamic region.
                .pin("modulation", "fpga_static"),
        );
        let art = flow.run().unwrap();
        assert!(art.design.modules.is_empty());
        assert!(art.design.floorplan.floorplan.regions().is_empty());
    }

    #[test]
    fn accessors() {
        let flow = paper_flow();
        assert_eq!(flow.device().name, "XC2V2000");
        assert_eq!(flow.algorithm().name, "mccdma_tx");
        assert_eq!(flow.architecture().name, "sundance_c6201_xc2v2000");
        assert!(flow.characterization().duration_entries() > 0);
    }
}
