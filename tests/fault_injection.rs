//! Failure-path integration tests: every layer must reject bad inputs
//! loudly instead of producing silently-wrong systems.

use pdr_adequation::adequate;
use pdr_codegen::{generate_design, CostModel};
use pdr_core::paper::PaperCaseStudy;
use pdr_core::{DesignFlow, FlowError, RuntimeOptions};
use pdr_fabric::{Bitstream, Device, FabricError, PortProfile, ReconfigRegion, Resources, TimePs};
use pdr_graph::paper as models;
use pdr_graph::{ArchGraph, ConstraintsFile, MediumKind, OperatorKind};
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, MemoryModel, ProtocolBuilder, RtrError,
};
use pdr_sim::{IrSimSystem, SimConfig, SimError, SimSystem};

#[test]
fn corrupted_bitstream_rejected_by_protocol_builder() {
    let d = Device::xc2v2000();
    let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let good = Bitstream::partial_for_region(&d, &region, 1);
    // Re-decode a corrupted image: must fail on CRC.
    let mut bytes = good.encode();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let err = Bitstream::decode(&bytes, &d, good.kind, 1).unwrap_err();
    assert!(matches!(err, FabricError::MalformedBitstream { .. }));
}

#[test]
fn wrong_device_bitstream_rejected_by_manager() {
    let xc1000 = Device::by_name("XC2V1000").unwrap();
    let xc2000 = Device::xc2v2000();
    let region = ReconfigRegion::new("op_dyn", 10, 4).unwrap();
    let foreign = Bitstream::partial_for_region(&xc1000, &region, 1);
    let mut store = BitstreamStore::new();
    store.insert("mod_qpsk", foreign);
    let mut mgr = ConfigurationManager::new(
        ProtocolBuilder::new(xc2000, PortProfile::icap_virtex2()),
        store,
        BitstreamCache::new(1 << 20),
        MemoryModel::paper_flash(),
        "op_dyn",
    );
    let err = mgr.request("mod_qpsk", TimePs::ZERO).unwrap_err();
    assert!(matches!(
        err,
        RtrError::Fabric(FabricError::DeviceMismatch { .. })
    ));
}

#[test]
fn module_too_large_for_device_fails_floorplanning() {
    // Blow up the modulator footprints until nothing fits an XC2V40.
    let algo = models::mccdma_algorithm();
    let arch = models::sundance_architecture();
    let mut chars = models::mccdma_characterization();
    chars.set_resources("mod_qam16", Resources::logic(9_000, 16_000, 14_000));
    let flow = DesignFlow::new(algo, arch, chars, Device::by_name("XC2V40").unwrap())
        .with_adequation_options(PaperCaseStudy::adequation_options());
    let err = flow.run().unwrap_err();
    assert!(matches!(err, FlowError::Codegen(_)), "{err}");
}

#[test]
fn static_design_too_large_fails_floorplanning() {
    let algo = models::mccdma_algorithm();
    let arch = models::sundance_architecture();
    let mut chars = models::mccdma_characterization();
    chars.set_resources("ifft64", Resources::logic(11_000, 20_000, 20_000));
    let flow = DesignFlow::new(algo, arch, chars, Device::xc2v2000())
        .with_constraints(models::mccdma_constraints())
        .with_adequation_options(PaperCaseStudy::adequation_options());
    let err = flow.run().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("slices"), "{msg}");
}

#[test]
fn selection_of_unknown_module_fails_simulation() {
    let study = PaperCaseStudy::build().unwrap();
    let err = study
        .deploy(RuntimeOptions::paper_baseline())
        .simulate(&SimConfig::iterations(1).with_selection("op_dyn", vec!["mod_8psk".to_string()]))
        .unwrap_err();
    assert!(matches!(err, FlowError::Sim(_)), "{err}");
    assert!(err.to_string().contains("mod_8psk"));
}

#[test]
fn conflicting_pin_constraints_rejected() {
    // Pin both modulations to overlapping *different* regions: the share
    // group spans two regions -> constraints validation fails in the flow.
    let mut constraints = ConstraintsFile::new();
    let mut a = pdr_graph::constraints::ModuleConstraints::new("mod_qpsk", "op_dyn");
    a.share_group = Some("modulation".into());
    let mut b = pdr_graph::constraints::ModuleConstraints::new("mod_qam16", "elsewhere");
    b.share_group = Some("modulation".into());
    constraints.add(a).unwrap();
    constraints.add(b).unwrap();
    let flow = DesignFlow::new(
        models::mccdma_algorithm(),
        models::sundance_architecture(),
        models::mccdma_characterization(),
        Device::xc2v2000(),
    )
    .with_constraints(constraints)
    .with_adequation_options(PaperCaseStudy::adequation_options());
    let err = flow.run().unwrap_err();
    assert!(err.to_string().contains("share group"), "{err}");
}

#[test]
fn unroutable_architecture_fails_adequation() {
    // An architecture where the DSP is not connected to anything.
    let mut arch = ArchGraph::new("broken");
    arch.add_operator("dsp", OperatorKind::Processor).unwrap();
    let fs = arch
        .add_operator("fpga_static", OperatorKind::FpgaStatic)
        .unwrap();
    arch.add_operator(
        "op_dyn",
        OperatorKind::FpgaDynamic {
            host: "fpga_static".into(),
        },
    )
    .unwrap();
    let lio = arch
        .add_medium("lio", MediumKind::InternalLink, 1_000_000, TimePs::ZERO)
        .unwrap();
    arch.link(fs, lio).unwrap();
    arch.link(arch.operator_by_name("op_dyn").unwrap(), lio)
        .unwrap();
    let err = adequate(
        &models::mccdma_algorithm(),
        &arch,
        &models::mccdma_characterization(),
        &models::mccdma_constraints(),
        &PaperCaseStudy::adequation_options(),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("route") || msg.contains("routable"),
        "unexpected error: {msg}"
    );
}

#[test]
fn generate_design_catches_incomplete_mapping() {
    let algo = models::mccdma_algorithm();
    let arch = models::sundance_architecture();
    let chars = models::mccdma_characterization();
    let cons = models::mccdma_constraints();
    let r = adequate(
        &algo,
        &arch,
        &chars,
        &cons,
        &PaperCaseStudy::adequation_options(),
    )
    .unwrap();
    let exec = pdr_adequation::executive::generate_executive(
        &algo,
        &arch,
        &chars,
        &r.mapping,
        &r.schedule,
    )
    .unwrap();
    // Empty mapping: design generation must fail loudly, not emit an
    // empty design.
    let empty = pdr_adequation::Mapping::new();
    let err = generate_design(
        &algo,
        &arch,
        &chars,
        &cons,
        &empty,
        &exec,
        &Device::xc2v2000(),
        &CostModel::default(),
    );
    assert!(err.is_err());
}

#[test]
fn cache_smaller_than_module_is_caught_at_deploy_time() {
    // A manager whose staging cache cannot hold one module: the first
    // cold request fails with CacheTooSmall.
    let d = Device::xc2v2000();
    let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let bs = Bitstream::partial_for_region(&d, &region, 1);
    let mut store = BitstreamStore::new();
    store.insert("mod_qpsk", bs);
    let mut mgr = ConfigurationManager::new(
        ProtocolBuilder::new(d, PortProfile::icap_virtex2()),
        store,
        BitstreamCache::new(1024), // far too small
        MemoryModel::paper_flash(),
        "op_dyn",
    );
    let err = mgr.request("mod_qpsk", TimePs::ZERO).unwrap_err();
    assert!(matches!(err, RtrError::CacheTooSmall { .. }));
}

/// Executives whose wake times run past `u64::MAX` ps: a compute after a
/// near-maximal one, a transfer finishing past the end of time, and a
/// manager-less `Configure` charged a near-maximal worst case.
fn overflowing_executives() -> Vec<(&'static str, pdr_adequation::Executive)> {
    use pdr_adequation::{Executive, MacroInstr};
    let compute = |ps: u64| MacroInstr::Compute {
        op: "k".into(),
        function: "f".into(),
        duration: TimePs::from_ps(ps),
    };
    let with = |streams: Vec<(&str, Vec<MacroInstr>)>| {
        let mut exec = Executive::default();
        for (op, program) in streams {
            exec.per_operator.insert(op.into(), program);
        }
        exec
    };
    vec![
        (
            "compute",
            with(vec![("a", vec![compute(u64::MAX - 5), compute(10)])]),
        ),
        (
            "transfer",
            with(vec![
                (
                    "a",
                    vec![
                        compute(u64::MAX - 5),
                        MacroInstr::Send {
                            to: "b".into(),
                            medium: "m".into(),
                            bits: 8,
                            tag: 1,
                        },
                    ],
                ),
                (
                    "b",
                    vec![MacroInstr::Receive {
                        from: "a".into(),
                        medium: "m".into(),
                        bits: 8,
                        tag: 1,
                    }],
                ),
            ]),
        ),
        (
            "configure",
            with(vec![(
                "b",
                vec![
                    compute(7),
                    MacroInstr::Configure {
                        module: "mod".into(),
                        worst_case: TimePs::MAX,
                    },
                ],
            )]),
        ),
    ]
}

#[test]
fn hostile_durations_fail_typed_and_alike_in_both_interpreters() {
    let mut arch = ArchGraph::new("t");
    let a = arch.add_operator("a", OperatorKind::Processor).unwrap();
    let b = arch.add_operator("b", OperatorKind::Processor).unwrap();
    let m = arch
        .add_medium("m", MediumKind::Bus, 1_000_000, TimePs::from_ns(1))
        .unwrap();
    arch.link(a, m).unwrap();
    arch.link(b, m).unwrap();
    for (case, exec) in overflowing_executives() {
        let mut table = arch.symbols().clone();
        let ir = exec.lower(&mut table);
        for cfg in [
            SimConfig::iterations(1),
            SimConfig::iterations(2).with_trace(),
        ] {
            let s = SimSystem::new(&arch, &exec).run(&cfg).unwrap_err();
            let i = IrSimSystem::new(&arch, &ir, &table).run(&cfg).unwrap_err();
            assert!(
                matches!(s, SimError::TimeOverflow { .. }),
                "{case}: string interpreter returned {s}"
            );
            assert_eq!(s.to_string(), i.to_string(), "{case}");
        }
    }
}
