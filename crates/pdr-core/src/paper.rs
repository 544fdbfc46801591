//! The §6 case study, pre-assembled.
//!
//! One call builds the complete reconfigurable MC-CDMA transmitter of
//! Fig. 4: the Fig. 4 algorithm graph on the Sundance platform (TI C6201 +
//! XC2V2000), adequated, generated, floorplanned (the `op_dyn` region
//! pinned to ~8 % of the device) and ready to deploy. Helpers translate an
//! SNR trace through the adaptive policy into the per-iteration module
//! selections the simulator consumes — the full loop the paper describes:
//! *SNR → Select → reconfiguration request → ICAP*.

use crate::deploy::{DeployedSystem, RuntimeOptions};
use crate::error::FlowError;
use crate::flow::{DesignFlow, FlowArtifacts};
use pdr_adequation::AdequationOptions;
use pdr_mccdma::{AdaptivePolicy, Modulation};

/// The built case study.
pub struct PaperCaseStudy {
    /// The flow that produced the artifacts.
    pub flow: DesignFlow,
    /// All pipeline artifacts.
    pub artifacts: FlowArtifacts,
}

impl PaperCaseStudy {
    /// The adequation pins of the case study: interfaces on their physical
    /// sides (data and `Select` originate at the DSP; the air interface
    /// leaves through the FPGA).
    pub fn adequation_options() -> AdequationOptions {
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static")
    }

    /// Build the complete case study (runs the whole Fig. 3 pipeline).
    pub fn build() -> Result<Self, FlowError> {
        let flow = crate::gallery::paper_flow();
        let artifacts = flow.run()?;
        Ok(PaperCaseStudy { flow, artifacts })
    }

    /// Deploy onto the simulator with the given runtime options.
    pub fn deploy(&self, options: RuntimeOptions) -> DeployedSystem<'_> {
        DeployedSystem::new(
            self.flow.architecture(),
            &self.artifacts,
            self.flow.device().clone(),
            options,
        )
    }

    /// Run the adaptive policy over an SNR trace and return the
    /// per-OFDM-symbol module selections for the `op_dyn` region.
    pub fn selections_from_snr(policy: &AdaptivePolicy, snr_db: &[f64]) -> Vec<String> {
        policy
            .run(Modulation::Qpsk, snr_db)
            .into_iter()
            .map(|m| m.module_name().to_string())
            .collect()
    }

    /// The load sequence implied by a selection vector, given that
    /// `mod_qpsk` is preloaded (`load = at_start`): the inputs a
    /// schedule-driven prefetcher replays.
    pub fn load_sequence(selections: &[String]) -> Vec<String> {
        let mut seq = Vec::new();
        let mut current = "mod_qpsk".to_string();
        for s in selections {
            if *s != current {
                seq.push(s.clone());
                current = s.clone();
            }
        }
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_mccdma::SnrTrace;
    use pdr_sim::SimConfig;

    #[test]
    fn case_study_builds_with_paper_numbers() {
        let s = PaperCaseStudy::build().unwrap();
        // ~8 % dynamic area.
        let frac = s.artifacts.design.floorplan.floorplan.dynamic_fraction();
        assert!((frac - 4.0 / 48.0).abs() < 1e-9);
        // Both modulations generated.
        assert_eq!(s.artifacts.design.modules.len(), 2);
    }

    #[test]
    fn snr_trace_to_selections_and_loads() {
        let policy = AdaptivePolicy::paper_default();
        let snr = SnrTrace::sinusoidal(6.0, 20.0, 20, 60);
        let sel = PaperCaseStudy::selections_from_snr(&policy, &snr);
        assert_eq!(sel.len(), 60);
        assert!(sel.iter().any(|s| s == "mod_qam16"));
        let loads = PaperCaseStudy::load_sequence(&sel);
        assert!(!loads.is_empty());
        // Loads alternate by construction.
        for w in loads.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn end_to_end_adaptive_simulation() {
        let s = PaperCaseStudy::build().unwrap();
        let policy = AdaptivePolicy::paper_default();
        let snr = SnrTrace::sinusoidal(6.0, 20.0, 16, 48);
        let sel = PaperCaseStudy::selections_from_snr(&policy, &snr);
        let loads = PaperCaseStudy::load_sequence(&sel);
        let switches = loads.len();
        let dep = s.deploy(RuntimeOptions::paper_prefetch(loads));
        let cfg = SimConfig::iterations(48).with_selection("op_dyn", sel);
        let report = dep.simulate(&cfg).unwrap();
        assert_eq!(report.reconfig_count(), switches);
        assert!(report.hidden_fetches() > 0);
    }
}
