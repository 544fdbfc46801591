//! Ready-made models of the paper's figures.
//!
//! * [`fig1_architecture`] — the Fig. 1 model: one FPGA contributing a fixed
//!   operator `F1` and two runtime-reconfigurable operators `D1`, `D2`,
//!   joined by the internal medium `IL`.
//! * [`sundance_architecture`] — the §6 prototyping platform: TI C6201 DSP
//!   and XC2V2000 FPGA (static part + the `op_dyn` region) joined by the
//!   SHB board bus, with the internal link `LIO` between static and dynamic
//!   parts (Fig. 4 names the on-chip link `LIO`).
//! * [`mccdma_algorithm`] — the Fig. 4 transmitter data-flow: interface,
//!   FEC, adaptive `modulation` (QPSK | QAM-16 conditioned on `select`),
//!   Walsh–Hadamard spreading, chip mapping, OFDM modulation (IFFT), guard
//!   interval, framing.
//! * [`mccdma_characterization`] — durations / footprints / reconfiguration
//!   times for that application on that platform.
//! * [`mccdma_constraints`] — the §4 constraints file for the two
//!   modulation modules sharing the `op_dyn` area.
//!
//! One *iteration* of the algorithm graph processes one OFDM symbol, the
//! granularity at which the paper switches modulation.

use crate::algorithm::{AlgorithmGraph, OpKind};
use crate::architecture::{ArchGraph, MediumKind, OperatorKind};
use crate::characterization::Characterization;
use crate::constraints::{ConstraintsFile, LoadPolicy, ModuleConstraints};
use pdr_fabric::{Resources, TimePs};

/// Number of OFDM subcarriers in the case study (a 64-point IFFT).
pub const SUBCARRIERS: u64 = 64;
/// Bits per OFDM symbol entering the modulator at QAM-16 (worst case used
/// to size edges): 64 carriers × 4 bits.
pub const MOD_IN_BITS: u64 = SUBCARRIERS * 4;
/// Complex sample width (I + Q, 16 bits each).
pub const SAMPLE_BITS: u64 = 32;

/// The Fig. 1 architecture: `F1` static, `D1`/`D2` dynamic, `IL` internal.
pub fn fig1_architecture() -> ArchGraph {
    let mut a = ArchGraph::new("fig1");
    let f1 = a
        .add_operator("F1", OperatorKind::FpgaStatic)
        .expect("fresh graph");
    let d1 = a
        .add_operator("D1", OperatorKind::FpgaDynamic { host: "F1".into() })
        .expect("fresh graph");
    let d2 = a
        .add_operator("D2", OperatorKind::FpgaDynamic { host: "F1".into() })
        .expect("fresh graph");
    let il = a
        .add_medium(
            "IL",
            MediumKind::InternalLink,
            800_000_000,
            TimePs::from_ns(40),
        )
        .expect("fresh graph");
    a.link(f1, il).expect("valid ids");
    a.link(d1, il).expect("valid ids");
    a.link(d2, il).expect("valid ids");
    a
}

/// The §6 Sundance platform: DSP + FPGA(static, op_dyn), SHB bus, LIO link.
///
/// SHB is modeled at 32 bit × 50 MHz sustained (1.6 Gbit/s) with 500 ns of
/// arbitration latency; LIO is the on-chip link through bus macros, 8 bit ×
/// 100 MHz with negligible latency.
pub fn sundance_architecture() -> ArchGraph {
    let mut a = ArchGraph::new("sundance_c6201_xc2v2000");
    let dsp = a
        .add_operator("dsp", OperatorKind::Processor)
        .expect("fresh graph");
    let fs = a
        .add_operator("fpga_static", OperatorKind::FpgaStatic)
        .expect("fresh graph");
    let dy = a
        .add_operator(
            "op_dyn",
            OperatorKind::FpgaDynamic {
                host: "fpga_static".into(),
            },
        )
        .expect("fresh graph");
    let shb = a
        .add_medium("shb", MediumKind::Bus, 1_600_000_000, TimePs::from_ns(500))
        .expect("fresh graph");
    let lio = a
        .add_medium(
            "lio",
            MediumKind::InternalLink,
            800_000_000,
            TimePs::from_ns(20),
        )
        .expect("fresh graph");
    a.link(dsp, shb).expect("valid ids");
    a.link(fs, shb).expect("valid ids");
    a.link(fs, lio).expect("valid ids");
    a.link(dy, lio).expect("valid ids");
    a
}

/// The Fig. 4 MC-CDMA transmitter data-flow graph (one OFDM symbol per
/// iteration).
pub fn mccdma_algorithm() -> AlgorithmGraph {
    let mut g = AlgorithmGraph::new("mccdma_tx");
    let src = g.add_op("interface_in", OpKind::Source).expect("fresh");
    let sel = g.add_op("select", OpKind::Source).expect("fresh");
    let fec = g.add_compute("fec_conv").expect("fresh");
    let modu = g
        .add_op(
            "modulation",
            OpKind::Conditioned {
                alternatives: vec!["mod_qpsk".into(), "mod_qam16".into()],
            },
        )
        .expect("fresh");
    let spread = g.add_compute("spreading").expect("fresh");
    let chip = g.add_compute("chip_mapping").expect("fresh");
    let ifft = g.add_compute("ifft64").expect("fresh");
    let guard = g.add_compute("guard_interval").expect("fresh");
    let frame = g.add_compute("framing").expect("fresh");
    let dac = g.add_op("interface_out", OpKind::Sink).expect("fresh");

    // Interface feeds the coder with raw bits (coded at rate 1/2 into the
    // modulator's worst-case demand).
    g.connect(src, fec, MOD_IN_BITS / 2).expect("valid");
    g.connect(fec, modu, MOD_IN_BITS).expect("valid");
    // The Select conditional entry (2-bit control word).
    g.connect(sel, modu, 2).expect("valid");
    // Complex symbols from modulation onwards.
    g.connect(modu, spread, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(spread, chip, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(chip, ifft, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(ifft, guard, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(guard, frame, (SUBCARRIERS + SUBCARRIERS / 4) * SAMPLE_BITS)
        .expect("valid");
    g.connect(frame, dac, (SUBCARRIERS + SUBCARRIERS / 4) * SAMPLE_BITS)
        .expect("valid");
    g
}

/// A *fixed* (non-reconfigurable) variant of the Fig. 4 transmitter: the
/// conditioned `modulation` vertex is replaced by a plain compute vertex of
/// the given alternative (`"mod_qpsk"` or `"mod_qam16"`), and the `select`
/// entry disappears. These are the Table 1 baselines.
pub fn mccdma_fixed(alternative: &str) -> AlgorithmGraph {
    let mut g = AlgorithmGraph::new(format!("mccdma_tx_fixed_{alternative}"));
    let src = g.add_op("interface_in", OpKind::Source).expect("fresh");
    let fec = g.add_compute("fec_conv").expect("fresh");
    let modu = g
        .add_op(
            "modulation",
            OpKind::Compute {
                function: alternative.to_string(),
            },
        )
        .expect("fresh");
    let spread = g.add_compute("spreading").expect("fresh");
    let chip = g.add_compute("chip_mapping").expect("fresh");
    let ifft = g.add_compute("ifft64").expect("fresh");
    let guard = g.add_compute("guard_interval").expect("fresh");
    let frame = g.add_compute("framing").expect("fresh");
    let dac = g.add_op("interface_out", OpKind::Sink).expect("fresh");
    g.connect(src, fec, MOD_IN_BITS / 2).expect("valid");
    g.connect(fec, modu, MOD_IN_BITS).expect("valid");
    g.connect(modu, spread, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(spread, chip, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(chip, ifft, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(ifft, guard, SUBCARRIERS * SAMPLE_BITS)
        .expect("valid");
    g.connect(guard, frame, (SUBCARRIERS + SUBCARRIERS / 4) * SAMPLE_BITS)
        .expect("valid");
    g.connect(frame, dac, (SUBCARRIERS + SUBCARRIERS / 4) * SAMPLE_BITS)
        .expect("valid");
    g
}

/// Characterization of [`mccdma_algorithm`] on [`sundance_architecture`].
///
/// FPGA durations correspond to pipelined implementations at 50 MHz
/// (one OFDM symbol in a handful of microseconds); DSP durations are the
/// corresponding C6201 software costs, one to two orders slower for the
/// data-path blocks. Resource footprints are calibrated to land Table 1 in
/// the region the paper reports. The `op_dyn` reconfiguration default is the
/// paper's ≈ 4 ms.
pub fn mccdma_characterization() -> Characterization {
    let mut c = Characterization::new();
    let us = TimePs::from_us;

    // function, fpga_static time (us), dsp time (us)
    let table: &[(&str, u64, u64)] = &[
        ("fec_conv", 3, 40),
        ("spreading", 4, 120),
        ("chip_mapping", 2, 30),
        ("ifft64", 6, 300),
        ("guard_interval", 1, 15),
        ("framing", 2, 25),
    ];
    for &(f, fpga, dsp) in table {
        c.set_duration(f, "fpga_static", us(fpga));
        c.set_duration(f, "dsp", us(dsp));
    }
    // The modulation alternatives: feasible on the dynamic operator, the
    // static part (the "fixed" baseline of Table 1) and in software.
    for (f, fpga, dsp) in [("mod_qpsk", 2u64, 35u64), ("mod_qam16", 3, 60)] {
        c.set_duration(f, "op_dyn", us(fpga));
        c.set_duration(f, "fpga_static", us(fpga));
        c.set_duration(f, "dsp", us(dsp));
    }

    // Resource footprints of the bare (non-shell) function logic.
    c.set_resources("fec_conv", Resources::logic(120, 210, 180));
    c.set_resources("spreading", Resources::logic(150, 260, 240));
    c.set_resources("chip_mapping", Resources::logic(60, 100, 90));
    c.set_resources(
        "ifft64",
        Resources {
            slices: 600,
            luts: 1_050,
            ffs: 980,
            brams: 4,
            mults: 8,
            tbufs: 0,
        },
    );
    c.set_resources("guard_interval", Resources::logic(40, 60, 70));
    c.set_resources("framing", Resources::logic(70, 110, 120));
    c.set_resources("mod_qpsk", Resources::logic(90, 150, 130));
    c.set_resources("mod_qam16", Resources::logic(190, 330, 280));

    c.set_reconfig_default("op_dyn", TimePs::from_ms(4));
    c
}

/// The §4 constraints file of the case study: both modulations share the
/// `op_dyn` area, are mutually exclusive, and QPSK (the start-up mode) is
/// loaded at start; the area is pinned to 4 CLB columns from column 20
/// (the ≈ 8 % window).
pub fn mccdma_constraints() -> ConstraintsFile {
    let mut f = ConstraintsFile::new();
    let mut qpsk = ModuleConstraints::new("mod_qpsk", "op_dyn");
    qpsk.load = LoadPolicy::AtStart;
    qpsk.share_group = Some("modulation".into());
    qpsk.exclusive_with = vec!["mod_qam16".into()];
    qpsk.pin = Some((20, 4));
    let mut qam = ModuleConstraints::new("mod_qam16", "op_dyn");
    qam.share_group = Some("modulation".into());
    qam.exclusive_with = vec!["mod_qpsk".into()];
    f.add(qpsk).expect("fresh file");
    f.add(qam).expect("fresh file");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape() {
        let a = fig1_architecture();
        a.validate().unwrap();
        assert_eq!(a.operator_count(), 3);
        assert_eq!(a.dynamic_operators().len(), 2);
        assert_eq!(a.medium_count(), 1);
    }

    #[test]
    fn sundance_shape_and_routes() {
        let a = sundance_architecture();
        a.validate().unwrap();
        let dsp = a.operator_by_name("dsp").unwrap();
        let dyn_ = a.operator_by_name("op_dyn").unwrap();
        let r = a.route(dsp, dyn_).unwrap();
        assert_eq!(r.hops(), 2, "DSP reaches op_dyn via SHB then LIO");
    }

    #[test]
    fn mccdma_graph_is_valid_and_has_the_conditioned_modulation() {
        let g = mccdma_algorithm();
        g.validate().unwrap();
        let cond = g.conditioned_ops();
        assert_eq!(cond.len(), 1);
        assert_eq!(g.op(cond[0]).name, "modulation");
        assert_eq!(
            g.op(cond[0]).kind.functions(),
            ["mod_qpsk".to_string(), "mod_qam16".to_string()]
        );
        assert_eq!(g.len(), 10);
    }

    #[test]
    fn characterization_covers_every_function_on_some_operator() {
        let g = mccdma_algorithm();
        let c = mccdma_characterization();
        for (_, op) in g.ops() {
            for f in op.kind.functions() {
                assert!(
                    !c.feasible_operators(f).is_empty(),
                    "function `{f}` has no feasible operator"
                );
            }
        }
    }

    #[test]
    fn modulation_feasible_on_dynamic_operator() {
        let c = mccdma_characterization();
        assert!(c.feasible("mod_qpsk", "op_dyn"));
        assert!(c.feasible("mod_qam16", "op_dyn"));
        assert_eq!(
            c.reconfig_time("mod_qam16", "op_dyn").unwrap(),
            TimePs::from_ms(4)
        );
    }

    #[test]
    fn fpga_is_faster_than_dsp_everywhere() {
        let c = mccdma_characterization();
        for f in [
            "fec_conv",
            "spreading",
            "chip_mapping",
            "ifft64",
            "guard_interval",
            "framing",
        ] {
            assert!(
                c.duration(f, "fpga_static").unwrap() < c.duration(f, "dsp").unwrap(),
                "{f}"
            );
        }
    }

    #[test]
    fn constraints_validate_and_exclude() {
        let f = mccdma_constraints();
        f.validate().unwrap();
        assert!(f.mutually_exclusive("mod_qpsk", "mod_qam16"));
        assert_eq!(f.modules_in_region("op_dyn").len(), 2);
        // Round-trips through the text format.
        let back = ConstraintsFile::parse(&f.to_string()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn fixed_variants_validate_and_drop_select() {
        for alt in ["mod_qpsk", "mod_qam16"] {
            let g = mccdma_fixed(alt);
            g.validate().unwrap();
            assert!(g.by_name("select").is_none());
            assert!(g.conditioned_ops().is_empty());
            let modu = g.by_name("modulation").unwrap();
            assert_eq!(g.op(modu).kind.functions(), [alt.to_string()]);
        }
    }

    #[test]
    fn qam16_needs_more_area_than_qpsk() {
        let c = mccdma_characterization();
        assert!(c.resources("mod_qam16").slices > c.resources("mod_qpsk").slices);
        assert!(c.resources("mod_qam16").luts > c.resources("mod_qpsk").luts);
    }
}
