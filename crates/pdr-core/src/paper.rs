//! The §6 case study, pre-assembled.
//!
//! One call builds the complete reconfigurable MC-CDMA transmitter of
//! Fig. 4: the Fig. 4 algorithm graph on the Sundance platform (TI C6201 +
//! XC2V2000), adequated, generated, floorplanned (the `op_dyn` region
//! pinned to ~8 % of the device) and ready to deploy. `pdr-mccdma`'s
//! `AdaptivePolicy::module_selections` turns an SNR trace into the
//! per-iteration module selections the simulator consumes, and
//! [`PaperCaseStudy::load_sequence`] into the loads a prefetcher replays —
//! the full loop the paper describes: *SNR → Select → reconfiguration
//! request → ICAP*.

use crate::deploy::{DeployedSystem, RuntimeOptions};
use crate::error::FlowError;
use crate::flow::{DesignFlow, FlowArtifacts};
use pdr_adequation::AdequationOptions;

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

    #[test]
    fn case_study_builds_with_paper_numbers() {
        let s = PaperCaseStudy::build().unwrap();
        // ~8 % dynamic area.
        let frac = s.artifacts.design.floorplan.floorplan.dynamic_fraction();
        assert!((frac - 4.0 / 48.0).abs() < 1e-9);
        // Both modulations generated.
        assert_eq!(s.artifacts.design.modules.len(), 2);
    }
}
