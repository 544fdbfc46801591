//! Integration: a custom system with *two* dynamic regions (the paper's
//! §7 outlook) built entirely through the public API — flow, floorplan,
//! deployment, simulation with two configuration managers.

use pdr_adequation::AdequationOptions;
use pdr_core::{DeployedSystem, DesignFlow, RuntimeOptions};
use pdr_fabric::{Device, Resources, TimePs};
use pdr_graph::constraints::{LoadPolicy, ModuleConstraints};
use pdr_graph::{
    AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, MediumKind, OpKind, OperatorKind,
};
use pdr_sim::SimConfig;

fn algorithm() -> AlgorithmGraph {
    let mut g = AlgorithmGraph::new("sdr_rx");
    let adc = g.add_op("adc", OpKind::Source).unwrap();
    let band = g.add_op("band_select", OpKind::Source).unwrap();
    let code = g.add_op("code_select", OpKind::Source).unwrap();
    let agc = g.add_compute("agc").unwrap();
    let filter = g
        .add_op(
            "channel_filter",
            OpKind::Conditioned {
                alternatives: vec!["fir_narrow".into(), "fir_wide".into()],
            },
        )
        .unwrap();
    let dec = g
        .add_op(
            "decoder",
            OpKind::Conditioned {
                alternatives: vec!["dec_viterbi".into(), "dec_turbo".into()],
            },
        )
        .unwrap();
    let out = g.add_op("out", OpKind::Sink).unwrap();
    g.connect(adc, agc, 4096).unwrap();
    g.connect(agc, filter, 4096).unwrap();
    g.connect(band, filter, 2).unwrap();
    g.connect(filter, dec, 1024).unwrap();
    g.connect(code, dec, 2).unwrap();
    g.connect(dec, out, 512).unwrap();
    g
}

fn architecture() -> ArchGraph {
    let mut a = ArchGraph::new("two_regions");
    let cpu = a.add_operator("cpu", OperatorKind::Processor).unwrap();
    let f1 = a.add_operator("f1", OperatorKind::FpgaStatic).unwrap();
    let d1 = a
        .add_operator("d1", OperatorKind::FpgaDynamic { host: "f1".into() })
        .unwrap();
    let d2 = a
        .add_operator("d2", OperatorKind::FpgaDynamic { host: "f1".into() })
        .unwrap();
    let bus = a
        .add_medium("bus", MediumKind::Bus, 800_000_000, TimePs::from_ns(300))
        .unwrap();
    let il = a
        .add_medium(
            "il",
            MediumKind::InternalLink,
            1_600_000_000,
            TimePs::from_ns(20),
        )
        .unwrap();
    a.link(cpu, bus).unwrap();
    a.link(f1, bus).unwrap();
    a.link(f1, il).unwrap();
    a.link(d1, il).unwrap();
    a.link(d2, il).unwrap();
    a
}

fn characterization() -> Characterization {
    let mut c = Characterization::new();
    c.set_duration("agc", "f1", TimePs::from_us(3));
    for (f, us, region) in [
        ("fir_narrow", 5u64, "d1"),
        ("fir_wide", 8, "d1"),
        ("dec_viterbi", 10, "d2"),
        ("dec_turbo", 18, "d2"),
    ] {
        c.set_duration(f, region, TimePs::from_us(us));
    }
    c.set_resources("agc", Resources::logic(80, 140, 120));
    c.set_resources("fir_narrow", Resources::logic(220, 380, 340));
    c.set_resources("fir_wide", Resources::logic(420, 760, 660));
    c.set_resources("dec_viterbi", Resources::logic(350, 620, 540));
    c.set_resources("dec_turbo", Resources::logic(780, 1_400, 1_180));
    c.set_reconfig_default("d1", TimePs::from_ms(3));
    c.set_reconfig_default("d2", TimePs::from_ms(6));
    c
}

fn constraints() -> ConstraintsFile {
    let mut f = ConstraintsFile::new();
    for (module, region, preload) in [
        ("fir_narrow", "d1", true),
        ("fir_wide", "d1", false),
        ("dec_viterbi", "d2", true),
        ("dec_turbo", "d2", false),
    ] {
        let mut mc = ModuleConstraints::new(module, region);
        if preload {
            mc.load = LoadPolicy::AtStart;
        }
        mc.share_group = Some(region.to_string());
        f.add(mc).unwrap();
    }
    f
}

fn build() -> (ArchGraph, pdr_core::FlowArtifacts) {
    let arch = architecture();
    let artifacts = DesignFlow::new(
        algorithm(),
        arch.clone(),
        characterization(),
        Device::by_name("XC2V3000").unwrap(),
    )
    .with_constraints(constraints())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("adc", "cpu")
            .pin("band_select", "cpu")
            .pin("code_select", "cpu")
            .pin("out", "f1"),
    )
    .run()
    .expect("two-region flow runs");
    (arch, artifacts)
}

#[test]
fn two_regions_floorplan_without_overlap() {
    let (_, art) = build();
    let fp = &art.design.floorplan.floorplan;
    let regions = fp.regions();
    assert_eq!(regions.len(), 2);
    assert!(!regions[0].overlaps(&regions[1]));
    // Four module bitstreams + the static stream.
    assert_eq!(art.design.floorplan.bitstreams.len(), 5);
    // d2 (decoder envelope 780 slices -> wider window) larger than d1.
    let d1 = fp.region("d1").unwrap();
    let d2 = fp.region("d2").unwrap();
    assert!(d2.clb_col_width > d1.clb_col_width);
    // Both region names appear in the UCF.
    assert!(art.ucf.contains("AG_d1"));
    assert!(art.ucf.contains("AG_d2"));
}

#[test]
fn independent_regions_reconfigure_independently() {
    let (arch, art) = build();
    let dep = DeployedSystem::new(
        &arch,
        &art,
        Device::by_name("XC2V3000").unwrap(),
        RuntimeOptions::paper_baseline(),
    );
    let filter_sel: Vec<String> = (0..24u32)
        .map(|i| {
            if (i / 6) % 2 == 0 {
                "fir_narrow".to_string()
            } else {
                "fir_wide".to_string()
            }
        })
        .collect();
    let decoder_sel: Vec<String> = (0..24u32)
        .map(|i| {
            if i < 12 {
                "dec_viterbi".to_string()
            } else {
                "dec_turbo".to_string()
            }
        })
        .collect();
    let report = dep
        .simulate(
            &SimConfig::iterations(24)
                .with_selection("d1", filter_sel)
                .with_selection("d2", decoder_sel),
        )
        .expect("simulation runs");
    // d1 switches at iterations 6, 12, 18; d2 once at 12.
    let d1_count = report
        .reconfigs
        .iter()
        .filter(|r| r.operator == "d1")
        .count();
    let d2_count = report
        .reconfigs
        .iter()
        .filter(|r| r.operator == "d2")
        .count();
    assert_eq!(d1_count, 3);
    assert_eq!(d2_count, 1);
    // d2's stream is larger (bigger region) and its chain slower: its
    // reconfiguration takes longer than d1's.
    let d1_lat = report
        .reconfigs
        .iter()
        .find(|r| r.operator == "d1")
        .unwrap()
        .latency();
    let d2_lat = report
        .reconfigs
        .iter()
        .find(|r| r.operator == "d2")
        .unwrap()
        .latency();
    assert!(d2_lat > d1_lat, "{d2_lat} !> {d1_lat}");
}

#[test]
fn verified_two_region_simulation() {
    let (arch, art) = build();
    let dep = DeployedSystem::new(
        &arch,
        &art,
        Device::by_name("XC2V3000").unwrap(),
        RuntimeOptions::paper_baseline(),
    );
    let cfg = SimConfig::iterations(8)
        .with_selection("d1", vec!["fir_wide".to_string(); 8])
        .with_selection("d2", vec!["dec_turbo".to_string(); 8]);
    let (report, loader) = dep.simulate_verified(&cfg).expect("verified sim runs");
    // One load each (preloaded modules differ from the selected ones).
    assert_eq!(report.reconfig_count(), 2);
    assert_eq!(loader.loads, 2);
    assert_eq!(loader.verify_failures, 0);
}
