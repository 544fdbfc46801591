//! Table 1 — "Fix-Dynamic modulation implementation comparison".
//!
//! The paper compares FPGA resources of the QPSK and QAM-16 modulation
//! blocks implemented (a) fixed in the static design vs (b) as runtime
//! reconfigurable modules, and reports the reconfiguration time row
//! (none for fixed, ≈ 4 ms for dynamic). §6: *"FPGA resources utilization
//! needed to implement QPSK and QAM-16 modulations are more important with
//! a dynamic reconfiguration scheme. This overhead is due to the generic
//! VHDL structure generation ... However this gap is decreasing with the
//! number of different reconfigurations needed."*
//!
//! [`run`] regenerates the table from the actual flow outputs: the fixed
//! columns come from the fixed-variant designs (conditioned vertex replaced
//! by a plain compute), the dynamic columns from the reconfigurable design's
//! priced modules. [`amortization`] regenerates the "gap decreasing with
//! the number of configurations" claim as a sweep over N alternatives.

use pdr_adequation::AdequationOptions;
use pdr_codegen::CostModel;
use pdr_core::{DesignFlow, FlowError};
use pdr_fabric::{Device, Resources, TimePs};
use pdr_graph::{paper, Characterization, ConstraintsFile};

/// The regenerated Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Rows: (label, resources, reconfiguration time).
    pub rows: Vec<(String, Resources, Option<TimePs>)>,
    /// Whole-design static totals per variant: (label, resources).
    pub totals: Vec<(String, Resources)>,
}

impl Table1 {
    /// Row lookup.
    pub fn row(&self, label: &str) -> Option<&(String, Resources, Option<TimePs>)> {
        self.rows.iter().find(|(l, ..)| l == label)
    }

    /// Render the paper-style table, rows in label order.
    pub fn render(&self) -> String {
        let mut out =
            String::from("Table 1 — Fix vs Dynamic modulation implementation comparison\n\n");
        out.push_str(&format!(
            "{:<28} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>12}\n",
            "design", "slices", "LUTs", "FFs", "BRAM", "mult", "tbuf", "reconfig"
        ));
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        for (label, r, t) in rows {
            let reconfig = t.map(|t| format!("{t}")).unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{:<28} {:>7} {:>7} {:>7} {:>6} {:>6} {:>6} {:>12}\n",
                label, r.slices, r.luts, r.ffs, r.brams, r.mults, r.tbufs, reconfig
            ));
        }
        out.push_str("\nWhole-design static totals:\n");
        for (label, r) in &self.totals {
            out.push_str(&format!("  {label:<28} {r}\n"));
        }
        out
    }
}

/// Build the fixed-variant flow for one modulation.
fn fixed_flow(alternative: &str) -> DesignFlow {
    DesignFlow::new(
        paper::mccdma_fixed(alternative),
        paper::sundance_architecture(),
        paper::mccdma_characterization(),
        Device::xc2v2000(),
    )
    .with_adequation_options(
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("interface_out", "fpga_static")
            .pin("modulation", "fpga_static"),
    )
}

/// Regenerate Table 1.
pub fn run() -> Result<Table1, FlowError> {
    let chars = paper::mccdma_characterization();
    let mut rows = Vec::new();
    let mut totals = Vec::new();

    // Fixed designs: the modulation block costs its bare footprint inside
    // the static entity.
    for alt in ["mod_qpsk", "mod_qam16"] {
        let art = fixed_flow(alt).run()?;
        rows.push((format!("fixed {alt}"), chars.resources(alt), None));
        totals.push((format!("fixed-{alt} design"), art.design.static_resources));
    }

    // The dynamic design: both alternatives as reconfigurable modules.
    let study_arch = paper::sundance_architecture();
    let dynamic = DesignFlow::new(
        paper::mccdma_algorithm(),
        study_arch,
        chars.clone(),
        Device::xc2v2000(),
    )
    .with_constraints(paper::mccdma_constraints())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static"),
    )
    .run()?;
    for alt in ["mod_qpsk", "mod_qam16"] {
        let r = dynamic.design.module_resources[alt];
        let t = chars.reconfig_time(alt, "op_dyn").ok();
        rows.push((format!("dynamic {alt}"), r, t));
    }
    totals.push((
        "dynamic design (static part)".to_string(),
        dynamic.design.static_resources,
    ));

    Ok(Table1 { rows, totals })
}

/// The amortization sweep: total FPGA area to support `n` alternative
/// configurations, fixed-all vs dynamic-shared. Returns rows of
/// `(n, fixed_all_slices, dynamic_slices)`.
///
/// Fixed-all instantiates every alternative side by side; the dynamic
/// scheme pays the shell once plus the *envelope* of the alternatives (they
/// share one region). The crossover reproduces the paper's "gap decreasing
/// with the number of different reconfigurations" claim.
pub fn amortization(max_n: usize) -> Vec<(usize, u32, u32)> {
    let cost = CostModel::default();
    let mut chars = Characterization::new();
    // Synthetic alternatives shaped like the paper's modulators.
    let footprint = Resources::logic(140, 240, 200);
    let mut out = Vec::with_capacity(max_n);
    for n in 1..=max_n {
        let names: Vec<String> = (0..n).map(|i| format!("alt_{i}")).collect();
        for name in &names {
            chars.set_resources(name, footprint);
        }
        let fixed_all: u32 = footprint.slices * n as u32;
        // Dynamic: envelope of the alternatives (same footprint) + shell,
        // priced exactly like the generator does.
        let module = pdr_codegen::DynamicModuleDesign {
            module: names[0].clone(),
            operation: "conditioned".into(),
            region: "region".into(),
            in_bits: 256,
            out_bits: 2048,
            bus_macros_in: cost.bus_macros_per_direction(),
            bus_macros_out: cost.bus_macros_per_direction(),
            shell: pdr_codegen::ProcessSpec {
                name: "shell".into(),
                kind: pdr_codegen::ProcessKind::OperatorBehaviour,
                states: 4,
            },
            has_in_reconf: true,
        };
        let dynamic = cost.module_cost(&module, footprint).slices;
        out.push((n, fixed_all, dynamic));
    }
    out
}

/// A full-flow Table 1 variant used by tests: the fixed-both design, where
/// the conditioned vertex (both alternatives) is forced into static logic.
pub fn fixed_both_static_slices() -> Result<u32, FlowError> {
    let art = DesignFlow::new(
        paper::mccdma_algorithm(),
        paper::sundance_architecture(),
        paper::mccdma_characterization(),
        Device::xc2v2000(),
    )
    .with_constraints(ConstraintsFile::new())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static")
            .pin("modulation", "fpga_static"),
    )
    .run()?;
    Ok(art.design.static_resources.slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_four_modulation_rows() {
        let t = run().unwrap();
        assert_eq!(t.rows.len(), 4);
        assert!(t.row("fixed mod_qpsk").is_some());
        assert!(t.row("dynamic mod_qam16").is_some());
        let text = t.render();
        assert!(text.contains("Table 1"));
        // Rows in label order; fixed rows have no reconfiguration time.
        let dynamic = text.find("dynamic mod_qam16").unwrap();
        let fixed = text.find("fixed mod_qam16").unwrap();
        assert!(dynamic < fixed);
        assert!(text.contains("4.000 ms"));
        assert!(text[fixed..].lines().next().unwrap().ends_with('-'));
    }

    #[test]
    fn dynamic_exceeds_fixed_per_modulation() {
        // The paper's headline comparison.
        let t = run().unwrap();
        for alt in ["mod_qpsk", "mod_qam16"] {
            let (_, fix, ft) = t.row(&format!("fixed {alt}")).unwrap();
            let (_, dy, dt) = t.row(&format!("dynamic {alt}")).unwrap();
            assert!(
                dy.slices > fix.slices,
                "{alt}: {} !> {}",
                dy.slices,
                fix.slices
            );
            assert!(dy.luts > fix.luts);
            assert!(ft.is_none());
            assert_eq!(*dt, Some(TimePs::from_ms(4)));
        }
    }

    #[test]
    fn qam16_dominates_qpsk_in_both_schemes() {
        let t = run().unwrap();
        let q_fix = t.row("fixed mod_qpsk").unwrap().1.slices;
        let a_fix = t.row("fixed mod_qam16").unwrap().1.slices;
        let q_dyn = t.row("dynamic mod_qpsk").unwrap().1.slices;
        let a_dyn = t.row("dynamic mod_qam16").unwrap().1.slices;
        assert!(a_fix > q_fix);
        assert!(a_dyn > q_dyn);
    }

    #[test]
    fn amortization_crosses_over() {
        // One configuration: dynamic is pure overhead. Many: dynamic wins.
        let sweep = amortization(6);
        let (_, fix1, dyn1) = sweep[0];
        assert!(dyn1 > fix1, "n=1: dynamic must cost more");
        let (_, fix6, dyn6) = sweep[5];
        assert!(dyn6 < fix6, "n=6: dynamic must amortize");
        // Dynamic cost is flat in n; fixed grows linearly.
        assert_eq!(sweep[0].2, sweep[5].2);
        assert_eq!(sweep[5].1, 6 * sweep[0].1);
    }

    #[test]
    fn fixed_both_costs_more_static_area_than_dynamic_static_part() {
        // Keeping both modulators in static logic costs more static area
        // than the dynamic scheme's static part (which hosts neither).
        let both = fixed_both_static_slices().unwrap();
        let t = run().unwrap();
        let dyn_static = t
            .totals
            .iter()
            .find(|(l, _)| l.starts_with("dynamic design"))
            .unwrap()
            .1
            .slices;
        assert!(both > dyn_static, "{both} !> {dyn_static}");
    }
}
