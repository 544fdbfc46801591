//! A gallery of named, self-contained design flows.
//!
//! Every entry builds a complete [`DesignFlow`] from in-tree models, so
//! tools that need "all the example designs" — the `pdr-lint` CLI, ci.sh,
//! the lint regression suite — can enumerate them by name instead of
//! duplicating model-building code. The set covers both §6 case-study
//! variants (dynamic and the two fixed implementations) and the §7
//! outlook of multiple dynamic regions, on two device sizes.

use crate::flow::DesignFlow;
use crate::paper::PaperCaseStudy;
use pdr_adequation::AdequationOptions;
use pdr_fabric::bitstream::SplitMix64;
use pdr_fabric::{Device, Resources, TimePs};
use pdr_graph::{
    paper as models, AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, LoadPolicy,
    MediumKind, ModuleConstraints, OpId, OpKind, OperatorKind,
};

/// A named flow with a one-line description.
pub struct GalleryFlow {
    /// Stable flow name (CLI argument).
    pub name: &'static str,
    /// What the flow models.
    pub description: &'static str,
    /// The ready-to-run flow.
    pub flow: DesignFlow,
}

/// One gallery entry: name, description and the function that builds
/// its flow. Only the entries a caller asks for are ever built.
type Entry = (&'static str, &'static str, fn() -> DesignFlow);

/// The gallery, in gallery order.
const GALLERY: [Entry; 7] = [
    (
        "paper",
        "§6 MC-CDMA transmitter, dynamic modulation on op_dyn (XC2V2000)",
        paper_flow,
    ),
    (
        "paper_fixed_qpsk",
        "§6 case study, modulation fixed to mod_qpsk in static logic",
        || paper_fixed_flow("mod_qpsk"),
    ),
    (
        "paper_fixed_qam16",
        "§6 case study, modulation fixed to mod_qam16 in static logic",
        || paper_fixed_flow("mod_qam16"),
    ),
    (
        "two_regions",
        "§7 outlook: SDR receiver with two dynamic regions (XC2V3000)",
        || sdr_flow(Device::by_name("XC2V3000").expect("catalog device")),
    ),
    (
        "two_regions_xc2v4000",
        "the two-region SDR receiver on the larger XC2V4000",
        || sdr_flow(Device::by_name("XC2V4000").expect("catalog device")),
    ),
    (
        "synthetic_large",
        "512-op layered DAG over 8 operators with 2 dynamic regions (XC2V4000)",
        synthetic_large_flow,
    ),
    (
        "sdr_series7",
        "the two-region SDR receiver on a series7-like XC7A50T (2D rectangles)",
        sdr_series7_flow,
    ),
];

/// Build one entry's flow.
fn build(&(name, description, flow): &Entry) -> GalleryFlow {
    GalleryFlow {
        name,
        description,
        flow: flow(),
    }
}

/// Names of every gallery flow, in gallery order.
pub fn names() -> Vec<&'static str> {
    GALLERY.iter().map(|e| e.0).collect()
}

/// Look up one gallery flow by name, building only that flow.
pub fn by_name(name: &str) -> Option<GalleryFlow> {
    GALLERY.iter().find(|e| e.0 == name).map(build)
}

/// Build every gallery flow.
pub fn all() -> Vec<GalleryFlow> {
    GALLERY.iter().map(build).collect()
}

/// The §6 case-study flow (dynamic modulation), which
/// [`PaperCaseStudy::build`] runs.
pub(crate) fn paper_flow() -> DesignFlow {
    DesignFlow::new(
        models::mccdma_algorithm(),
        models::sundance_architecture(),
        models::mccdma_characterization(),
        Device::xc2v2000(),
    )
    .with_constraints(models::mccdma_constraints())
    .with_adequation_options(PaperCaseStudy::adequation_options())
}

/// The §6 case study with the modulation fixed to one implementation
/// (everything static; the paper's Table 2 comparison baseline).
fn paper_fixed_flow(module: &str) -> DesignFlow {
    DesignFlow::new(
        models::mccdma_fixed(module),
        models::sundance_architecture(),
        models::mccdma_characterization(),
        Device::xc2v2000(),
    )
    .with_adequation_options(
        AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("interface_out", "fpga_static")
            .pin("modulation", "fpga_static"),
    )
}

/// The two-region software-defined-radio receiver front end: a
/// conditioned channel filter on region `d1`, a conditioned decoder on
/// region `d2`, fixed AGC/sync blocks in the static part.
pub fn sdr_algorithm() -> AlgorithmGraph {
    let mut g = AlgorithmGraph::new("sdr_rx_front_end");
    let adc = g.add_op("adc", OpKind::Source).expect("fresh graph");
    let band_sel = g
        .add_op("band_select", OpKind::Source)
        .expect("fresh graph");
    let code_sel = g
        .add_op("code_select", OpKind::Source)
        .expect("fresh graph");
    let agc = g.add_compute("agc").expect("fresh graph");
    let filter = g
        .add_op(
            "channel_filter",
            OpKind::Conditioned {
                alternatives: vec!["fir_narrow".into(), "fir_wide".into()],
            },
        )
        .expect("fresh graph");
    let sync = g.add_compute("symbol_sync").expect("fresh graph");
    let decoder = g
        .add_op(
            "decoder",
            OpKind::Conditioned {
                alternatives: vec!["dec_viterbi".into(), "dec_turbo".into()],
            },
        )
        .expect("fresh graph");
    let sink = g.add_op("payload_out", OpKind::Sink).expect("fresh graph");
    g.connect(adc, agc, 4096).expect("valid edge");
    g.connect(agc, filter, 4096).expect("valid edge");
    g.connect(band_sel, filter, 2).expect("valid edge");
    g.connect(filter, sync, 2048).expect("valid edge");
    g.connect(sync, decoder, 1024).expect("valid edge");
    g.connect(code_sel, decoder, 2).expect("valid edge");
    g.connect(decoder, sink, 512).expect("valid edge");
    g
}

/// The two-region platform: one CPU and one FPGA whose fabric hosts two
/// independent dynamic regions behind the internal link.
pub fn sdr_architecture() -> ArchGraph {
    let mut a = ArchGraph::new("fig1_style_two_regions");
    let cpu = a
        .add_operator("cpu", OperatorKind::Processor)
        .expect("fresh graph");
    let f1 = a
        .add_operator("f1", OperatorKind::FpgaStatic)
        .expect("fresh graph");
    let d1 = a
        .add_operator("d1", OperatorKind::FpgaDynamic { host: "f1".into() })
        .expect("fresh graph");
    let d2 = a
        .add_operator("d2", OperatorKind::FpgaDynamic { host: "f1".into() })
        .expect("fresh graph");
    let bus = a
        .add_medium(
            "host_bus",
            MediumKind::Bus,
            800_000_000,
            TimePs::from_ns(300),
        )
        .expect("fresh graph");
    let il = a
        .add_medium(
            "il",
            MediumKind::InternalLink,
            1_600_000_000,
            TimePs::from_ns(20),
        )
        .expect("fresh graph");
    a.link(cpu, bus).expect("valid link");
    a.link(f1, bus).expect("valid link");
    a.link(f1, il).expect("valid link");
    a.link(d1, il).expect("valid link");
    a.link(d2, il).expect("valid link");
    a
}

/// Characterization of the SDR functions on the two-region platform.
pub fn sdr_characterization() -> Characterization {
    let mut c = Characterization::new();
    let us = TimePs::from_us;
    c.set_duration("agc", "f1", us(3))
        .set_duration("agc", "cpu", us(50))
        .set_duration("symbol_sync", "f1", us(4))
        .set_duration("symbol_sync", "cpu", us(70));
    for (f, wcet_us, region) in [
        ("fir_narrow", 5u64, "d1"),
        ("fir_wide", 8, "d1"),
        ("dec_viterbi", 10, "d2"),
        ("dec_turbo", 18, "d2"),
    ] {
        c.set_duration(f, region, us(wcet_us));
        c.set_duration(f, "cpu", us(wcet_us * 20));
    }
    c.set_resources("agc", Resources::logic(80, 140, 120));
    c.set_resources("symbol_sync", Resources::logic(110, 190, 160));
    c.set_resources("fir_narrow", Resources::logic(220, 380, 340));
    c.set_resources("fir_wide", Resources::logic(420, 760, 660));
    c.set_resources("dec_viterbi", Resources::logic(350, 620, 540));
    c.set_resources("dec_turbo", Resources::logic(780, 1_400, 1_180));
    c.set_reconfig_default("d1", TimePs::from_ms(3));
    c.set_reconfig_default("d2", TimePs::from_ms(6));
    c
}

/// Constraints of the SDR design: one share group per region, the
/// initially selected module of each region preloaded at start.
pub fn sdr_constraints() -> ConstraintsFile {
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
        f.add(mc).expect("unique module names");
    }
    f
}

/// The complete two-region SDR flow on the given device.
pub fn sdr_flow(device: Device) -> DesignFlow {
    DesignFlow::new(
        sdr_algorithm(),
        sdr_architecture(),
        sdr_characterization(),
        device,
    )
    .with_constraints(sdr_constraints())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("adc", "cpu")
            .pin("band_select", "cpu")
            .pin("code_select", "cpu")
            .pin("payload_out", "f1"),
    )
}

/// The SDR characterization re-targeted at a series7-like part: same
/// functions and timing, but the filter/decoder modules now declare
/// block-RAM and DSP demand — the resource axes a 2D rectangular region
/// must cover in addition to slices.
pub fn sdr_series7_characterization() -> Characterization {
    let mut c = sdr_characterization();
    c.set_resources(
        "fir_narrow",
        Resources {
            brams: 2,
            mults: 8,
            ..Resources::logic(220, 380, 340)
        },
    );
    c.set_resources(
        "fir_wide",
        Resources {
            brams: 4,
            mults: 16,
            ..Resources::logic(420, 760, 660)
        },
    );
    c.set_resources(
        "dec_viterbi",
        Resources {
            brams: 6,
            mults: 2,
            ..Resources::logic(350, 620, 540)
        },
    );
    c.set_resources(
        "dec_turbo",
        Resources {
            brams: 10,
            mults: 4,
            ..Resources::logic(780, 1_400, 1_180)
        },
    );
    c
}

/// The two-region SDR flow on the second device generation: clock-region
/// rectangles instead of full-height columns, heterogeneous BRAM/DSP
/// columns inside the windows.
pub fn sdr_series7_flow() -> DesignFlow {
    DesignFlow::new(
        sdr_algorithm(),
        sdr_architecture(),
        sdr_series7_characterization(),
        Device::by_name("XC7A50T").expect("catalog device"),
    )
    .with_constraints(sdr_constraints())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("adc", "cpu")
            .pin("band_select", "cpu")
            .pin("code_select", "cpu")
            .pin("payload_out", "f1"),
    )
}

/// Number of compute layers in the synthetic large algorithm.
const SYN_LAYERS: usize = 64;

/// Compute operations per layer (also the fan-in bound per operation).
const SYN_WIDTH: usize = 8;

/// The large synthetic algorithm: a 64×8 layered DAG of 512 compute
/// operations (each reading up to three operations of the previous
/// layer) feeding two conditioned operations — an equalizer on region
/// `d1` and a postcoder on region `d2`. Non-toy input for benches,
/// lints and sweeps; the structure is deterministic so every run and
/// every session sees the same graph.
pub fn synthetic_large_algorithm() -> AlgorithmGraph {
    let mut g = AlgorithmGraph::new("synthetic_large");
    let src = g.add_op("stream_in", OpKind::Source).expect("fresh graph");
    let mode_sel = g
        .add_op("mode_select", OpKind::Source)
        .expect("fresh graph");
    let rate_sel = g
        .add_op("rate_select", OpKind::Source)
        .expect("fresh graph");
    let prev = layered(&mut g, src, SYN_LAYERS, SYN_WIDTH, 6, |g, layer, slot| {
        let op = g
            .add_compute(&format!("c{layer:02}_{slot}"))
            .expect("fresh graph");
        let idx = layer * SYN_WIDTH + slot;
        (op, 256 + (idx as u64 % 5) * 128)
    });
    let equalizer = g
        .add_op(
            "equalizer",
            OpKind::Conditioned {
                alternatives: vec!["eq_short".into(), "eq_long".into()],
            },
        )
        .expect("fresh graph");
    let postcoder = g
        .add_op(
            "postcoder",
            OpKind::Conditioned {
                alternatives: vec!["pc_fast".into(), "pc_dense".into()],
            },
        )
        .expect("fresh graph");
    let sink = g.add_op("stream_out", OpKind::Sink).expect("fresh graph");
    for &op in &prev {
        g.connect(op, equalizer, 1024).expect("valid edge");
    }
    g.connect(mode_sel, equalizer, 2).expect("valid edge");
    g.connect(equalizer, postcoder, 2048).expect("valid edge");
    g.connect(rate_sel, postcoder, 2).expect("valid edge");
    g.connect(postcoder, sink, 512).expect("valid edge");
    g
}

/// Add a `layers` × `width` layered compute DAG fed by `src` and return
/// its last layer. `add` creates the operation at (layer, slot) and
/// returns it with the width of its input edges. Layer 0 reads `src`.
fn layered(
    g: &mut AlgorithmGraph,
    src: OpId,
    layers: usize,
    width: usize,
    coupling: usize,
    mut add: impl FnMut(&mut AlgorithmGraph, usize, usize) -> (OpId, u64),
) -> Vec<OpId> {
    let mut prev: Vec<OpId> = Vec::new();
    for layer in 0..layers {
        let mut row = Vec::with_capacity(width);
        for slot in 0..width {
            let (op, bits) = add(g, layer, slot);
            if layer == 0 {
                g.connect(src, op, bits).expect("valid edge");
            } else if coupling != 0 && layer % coupling == 0 {
                // Every `coupling`-th layer couples neighbouring slots (up
                // to three distinct predecessors chosen by a fixed
                // stride), so the graph is reproducible and never
                // decouples into embarrassingly parallel chains.
                let mut preds = vec![slot, (slot + 1) % width, (slot + layer) % width];
                preds.sort_unstable();
                preds.dedup();
                for p in preds {
                    g.connect(prev[p], op, bits).expect("valid edge");
                }
            } else {
                // The other layers are slot-local: runs of independent
                // computation between the coupling layers, which is what
                // gives the scheduled executive genuine cross-operator
                // concurrency (and interleaving-level analyses a state
                // space worth reducing).
                g.connect(prev[slot], op, bits).expect("valid edge");
            }
            row.push(op);
        }
        prev = row;
    }
    prev
}

/// The 8-operator synthetic platform: five processors and one static
/// FPGA on the host bus, two dynamic regions behind the FPGA's internal
/// link.
pub fn synthetic_large_architecture() -> ArchGraph {
    let mut a = ArchGraph::new("synthetic_large_platform");
    let bus = a
        .add_medium(
            "host_bus",
            MediumKind::Bus,
            800_000_000,
            TimePs::from_ns(300),
        )
        .expect("fresh graph");
    for i in 0..5 {
        let cpu = a
            .add_operator(format!("cpu{i}"), OperatorKind::Processor)
            .expect("fresh graph");
        a.link(cpu, bus).expect("valid link");
    }
    let f1 = a
        .add_operator("f1", OperatorKind::FpgaStatic)
        .expect("fresh graph");
    let d1 = a
        .add_operator("d1", OperatorKind::FpgaDynamic { host: "f1".into() })
        .expect("fresh graph");
    let d2 = a
        .add_operator("d2", OperatorKind::FpgaDynamic { host: "f1".into() })
        .expect("fresh graph");
    let il = a
        .add_medium(
            "il",
            MediumKind::InternalLink,
            1_600_000_000,
            TimePs::from_ns(20),
        )
        .expect("fresh graph");
    a.link(f1, bus).expect("valid link");
    a.link(f1, il).expect("valid link");
    a.link(d1, il).expect("valid link");
    a.link(d2, il).expect("valid link");
    a
}

/// Characterization of the synthetic functions: every layered compute is
/// feasible on the five processors with deterministic, varied WCETs (the
/// static FPGA only hosts the regions and the communication fabric, so
/// its entity stays within the device); the conditioned alternatives
/// live on their regions.
pub fn synthetic_large_characterization() -> Characterization {
    let mut c = Characterization::new();
    let us = TimePs::from_us;
    for layer in 0..SYN_LAYERS {
        for slot in 0..SYN_WIDTH {
            let idx = (layer * SYN_WIDTH + slot) as u64;
            let f = format!("c{layer:02}_{slot}");
            for k in 0..5u64 {
                // Each slot chain has a consistently cheapest processor
                // (slot-affine term) with per-op jitter on top: chains
                // stay put between coupling layers instead of hopping
                // processors, the way a pipeline stage sticks to the
                // core its kernel is tuned for.
                let affinity = if slot as u64 % 5 == k { 0 } else { 12 };
                c.set_duration(&f, &format!("cpu{k}"), us(6 + affinity + (idx * 7) % 5));
            }
        }
    }
    for (f, wcet_us, region) in [
        ("eq_short", 6u64, "d1"),
        ("eq_long", 9, "d1"),
        ("pc_fast", 11, "d2"),
        ("pc_dense", 17, "d2"),
    ] {
        c.set_duration(f, region, us(wcet_us));
        c.set_duration(f, "cpu0", us(wcet_us * 20));
    }
    c.set_resources("eq_short", Resources::logic(240, 420, 380));
    c.set_resources("eq_long", Resources::logic(460, 800, 700));
    c.set_resources("pc_fast", Resources::logic(380, 680, 560));
    c.set_resources("pc_dense", Resources::logic(820, 1_500, 1_260));
    c.set_reconfig_default("d1", TimePs::from_ms(3));
    c.set_reconfig_default("d2", TimePs::from_ms(6));
    c
}

/// Constraints of the synthetic design: one share group per region, the
/// initially selected module of each region preloaded at start.
pub fn synthetic_large_constraints() -> ConstraintsFile {
    let mut f = ConstraintsFile::new();
    for (module, region, preload) in [
        ("eq_short", "d1", true),
        ("eq_long", "d1", false),
        ("pc_fast", "d2", true),
        ("pc_dense", "d2", false),
    ] {
        let mut mc = ModuleConstraints::new(module, region);
        if preload {
            mc.load = LoadPolicy::AtStart;
        }
        mc.share_group = Some(region.to_string());
        f.add(mc).expect("unique module names");
    }
    f
}

/// The complete large synthetic flow on the XC2V4000.
pub fn synthetic_large_flow() -> DesignFlow {
    DesignFlow::new(
        synthetic_large_algorithm(),
        synthetic_large_architecture(),
        synthetic_large_characterization(),
        Device::by_name("XC2V4000").expect("catalog device"),
    )
    .with_constraints(synthetic_large_constraints())
    .with_adequation_options(
        AdequationOptions::default()
            .pin("stream_in", "cpu0")
            .pin("mode_select", "cpu0")
            .pin("rate_select", "cpu1")
            .pin("stream_out", "cpu0"),
    )
}

/// Parameters for the seeded flow generator [`synthetic`].
///
/// Everything is derived from `seed` through a splitmix64 stream, so a
/// given parameter set names exactly one flow — across runs, sessions and
/// thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticParams {
    /// PRNG seed; every structural and timing choice derives from it.
    pub seed: u64,
    /// Compute layers in the DAG.
    pub layers: usize,
    /// Compute operations per layer.
    pub width: usize,
    /// Every `coupling`-th layer reads up to three slots of the previous
    /// layer instead of one (`0` disables coupling entirely).
    pub coupling: usize,
    /// Processor count on the host bus.
    pub cpus: usize,
    /// Dynamic regions behind the static FPGA (each gets one conditioned
    /// tail operation and its own selector source).
    pub regions: usize,
    /// Function symbols the plain computes draw from: realistic designs
    /// instantiate a handful of kernels many times, and the pool is what
    /// makes characterization probes repeat.
    pub fn_pool: usize,
    /// Alternatives per conditioned tail operation (≥ 2).
    pub alternatives: usize,
    /// Base WCET of a pool kernel, microseconds.
    pub wcet_base_us: u64,
    /// Uniform jitter added on top of the base, microseconds.
    pub wcet_spread_us: u64,
}

impl Default for SyntheticParams {
    fn default() -> Self {
        SyntheticParams {
            seed: 1,
            layers: 32,
            width: 16,
            coupling: 6,
            cpus: 16,
            regions: 2,
            fn_pool: 64,
            alternatives: 4,
            wcet_base_us: 6,
            wcet_spread_us: 5,
        }
    }
}

impl SyntheticParams {
    /// A parameter set with roughly `n_ops` compute operations (width 16,
    /// defaults elsewhere) — the size-sweep constructor.
    pub fn sized(n_ops: usize) -> Self {
        let width = 16;
        SyntheticParams {
            layers: n_ops.div_ceil(width).max(1),
            width,
            ..SyntheticParams::default()
        }
    }
}

/// Generate a complete, lint-clean design flow from `params`.
///
/// The shape is `synthetic_large`'s — the same layered compute DAG with
/// periodic coupling layers, feeding one conditioned operation per
/// dynamic region — but every count is a parameter and the edge widths,
/// kernel assignment and WCET tables are drawn from the seed. The same
/// `params` always yields the same flow (see the determinism test), which
/// is what lets differential suites quote failures by seed.
pub fn synthetic(params: &SyntheticParams) -> DesignFlow {
    assert!(params.width >= 1 && params.layers >= 1, "non-empty DAG");
    assert!(params.cpus >= 1, "at least one processor");
    assert!(params.regions >= 1, "at least one dynamic region");
    assert!(params.alternatives >= 2, "conditioned ops need ≥ 2 alts");
    assert!(params.fn_pool >= 1, "non-empty kernel pool");
    let mut rng = SplitMix64::new(params.seed ^ 0xa076_1d64_78bd_642f);

    // --- algorithm -----------------------------------------------------
    let mut g = AlgorithmGraph::new("synthetic_gen");
    let src = g.add_op("stream_in", OpKind::Source).expect("fresh graph");
    let prev = layered(
        &mut g,
        src,
        params.layers,
        params.width,
        params.coupling,
        |g, layer, slot| {
            let kern = rng.next_u64() % params.fn_pool as u64;
            let op = g
                .add_op(
                    format!("g{layer:03}_{slot:02}"),
                    OpKind::Compute {
                        function: format!("synth_block_{kern:02}_fir_decim_q15"),
                    },
                )
                .expect("fresh graph");
            (op, 256 + rng.next_u64() % 5 * 128)
        },
    );
    // One conditioned stage per region, chained after the compute block.
    let mut stage_prev: Option<OpId> = None;
    for r in 0..params.regions {
        let sel = g
            .add_op(format!("sel{r}"), OpKind::Source)
            .expect("fresh graph");
        let stage = g
            .add_op(
                format!("stage{r}"),
                OpKind::Conditioned {
                    alternatives: (0..params.alternatives)
                        .map(|a| format!("pr_region{r}_alt{a}_bitstream"))
                        .collect(),
                },
            )
            .expect("fresh graph");
        match stage_prev {
            None => {
                for &op in &prev {
                    g.connect(op, stage, 1024).expect("valid edge");
                }
            }
            Some(p) => {
                g.connect(p, stage, 2048).expect("valid edge");
            }
        }
        g.connect(sel, stage, 2).expect("valid edge");
        stage_prev = Some(stage);
    }
    let sink = g.add_op("stream_out", OpKind::Sink).expect("fresh graph");
    g.connect(stage_prev.expect("≥ 1 region"), sink, 512)
        .expect("valid edge");

    // --- architecture --------------------------------------------------
    let mut a = ArchGraph::new("synthetic_gen_platform");
    let bus = a
        .add_medium(
            "host_bus",
            MediumKind::Bus,
            800_000_000,
            TimePs::from_ns(300),
        )
        .expect("fresh graph");
    for i in 0..params.cpus {
        let cpu = a
            .add_operator(format!("cpu{i}"), OperatorKind::Processor)
            .expect("fresh graph");
        a.link(cpu, bus).expect("valid link");
    }
    let f1 = a
        .add_operator("f1", OperatorKind::FpgaStatic)
        .expect("fresh graph");
    let il = a
        .add_medium(
            "il",
            MediumKind::InternalLink,
            1_600_000_000,
            TimePs::from_ns(20),
        )
        .expect("fresh graph");
    a.link(f1, bus).expect("valid link");
    a.link(f1, il).expect("valid link");
    for r in 0..params.regions {
        let d = a
            .add_operator(
                format!("d{}", r + 1),
                OperatorKind::FpgaDynamic { host: "f1".into() },
            )
            .expect("fresh graph");
        a.link(d, il).expect("valid link");
    }

    // --- characterization ----------------------------------------------
    let us = TimePs::from_us;
    let mut c = Characterization::new();
    for k in 0..params.fn_pool {
        let f = format!("synth_block_{k:02}_fir_decim_q15");
        let jitter = rng.next_u64() % params.wcet_spread_us.max(1);
        for i in 0..params.cpus {
            // Each kernel has a home processor it is tuned for; everywhere
            // else costs a fixed detuning penalty (same shape as
            // `synthetic_large`'s slot affinity).
            let affinity = if k % params.cpus == i { 0 } else { 12 };
            c.set_duration(
                &f,
                &format!("cpu{i}"),
                us(params.wcet_base_us + affinity + jitter),
            );
        }
    }
    let mut constraints = ConstraintsFile::new();
    for r in 0..params.regions {
        let region = format!("d{}", r + 1);
        for aidx in 0..params.alternatives {
            let f = format!("pr_region{r}_alt{aidx}_bitstream");
            let w = 6 + rng.next_u64() % 12;
            c.set_duration(&f, &region, us(w));
            c.set_duration(&f, "cpu0", us(w * 20));
            let step = aidx as u32;
            c.set_resources(
                &f,
                Resources::logic(240 + step * 140, 420 + step * 260, 380 + step * 220),
            );
            let mut mc = ModuleConstraints::new(&f, &region);
            if aidx == 0 {
                mc.load = LoadPolicy::AtStart;
            }
            mc.share_group = Some(region.clone());
            constraints.add(mc).expect("unique module names");
        }
        c.set_reconfig_default(&region, TimePs::from_ms(3 * (r as u64 + 1)));
    }

    // --- flow ----------------------------------------------------------
    let mut options = AdequationOptions::default()
        .pin("stream_in", "cpu0")
        .pin("stream_out", "cpu0");
    for r in 0..params.regions {
        options = options.pin(&format!("sel{r}"), &format!("cpu{}", r % params.cpus));
    }
    DesignFlow::new(
        g,
        a,
        c,
        Device::by_name("XC2V4000").expect("catalog device"),
    )
    .with_constraints(constraints)
    .with_adequation_options(options)
}

/// The 10 000-compute-operation flow the scale benchmarks run on
/// (625 × 16 layered DAG over 19 operators, 2 dynamic regions).
///
/// Deliberately *not* part of [`all`]: gallery-wide tests and lints stay
/// fast, and the scale tooling names it explicitly.
pub fn synthetic_10k() -> DesignFlow {
    synthetic(&SyntheticParams::sized(10_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let names = names();
        assert_eq!(names.len(), 7);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        // `by_name` builds one entry; it must build what `all` builds.
        let all = all();
        assert_eq!(names, all.iter().map(|g| g.name).collect::<Vec<_>>());
        for g in &all {
            let one = by_name(g.name).expect("listed name resolves");
            assert_eq!(one.name, g.name);
            assert_eq!(one.description, g.description);
            assert_eq!(one.flow.model_digest(), g.flow.model_digest(), "{}", g.name);
        }
        for unknown in ["nonsense", "", "Paper", "paper ", "synthetic_10k"] {
            assert!(by_name(unknown).is_none(), "`{unknown}`");
        }
    }

    #[test]
    fn every_gallery_flow_runs() {
        for g in all() {
            let art = g.flow.run().unwrap_or_else(|e| {
                panic!("gallery flow `{}` failed: {e}", g.name);
            });
            assert!(!art.executive.is_empty(), "{}", g.name);
        }
    }

    #[test]
    fn generated_flow_is_deterministic_by_seed() {
        let p = SyntheticParams {
            layers: 6,
            width: 4,
            cpus: 3,
            fn_pool: 8,
            ..SyntheticParams::default()
        };
        assert_eq!(synthetic(&p).model_digest(), synthetic(&p).model_digest());
        let other = SyntheticParams { seed: 2, ..p };
        assert_ne!(
            synthetic(&p).model_digest(),
            synthetic(&other).model_digest()
        );
    }

    #[test]
    fn small_generated_flow_runs_and_verifies_clean() {
        let p = SyntheticParams {
            layers: 4,
            width: 4,
            cpus: 3,
            fn_pool: 6,
            ..SyntheticParams::default()
        };
        let flow = synthetic(&p);
        let art = flow.run().unwrap();
        assert!(!art.executive.is_empty());
        let report = flow.verify(&art);
        assert!(report.is_clean(), "{}", pdr_lint::render::to_text(&report));
    }

    #[test]
    fn sized_params_hit_the_requested_op_count() {
        let p = SyntheticParams::sized(10_000);
        assert_eq!(p.layers * p.width, 10_000);
        let flow = synthetic(&SyntheticParams::sized(512));
        let computes = flow
            .algorithm()
            .ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Compute { .. }))
            .count();
        assert_eq!(computes, 512);
        // 16 CPUs + static FPGA + 2 regions.
        assert_eq!(flow.architecture().operators().count(), 19);
    }

    #[test]
    fn synthetic_10k_is_not_in_the_gallery_listing() {
        // The scale flow is named explicitly by the benches; keeping it
        // out of `all()` keeps gallery-wide suites fast.
        assert_eq!(names().len(), 7);
        let flow = synthetic_10k();
        assert_eq!(
            flow.algorithm()
                .ops()
                .filter(|(_, op)| matches!(op.kind, OpKind::Compute { .. }))
                .count(),
            10_000
        );
    }

    #[test]
    fn synthetic_large_flow_has_advertised_shape() {
        let g = by_name("synthetic_large").unwrap();
        let algo = g.flow.algorithm();
        let computes = algo
            .ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Compute { .. }))
            .count();
        assert_eq!(computes, SYN_LAYERS * SYN_WIDTH);
        assert_eq!(g.flow.architecture().operators().count(), 8);
        let art = g.flow.run().unwrap();
        assert_eq!(art.design.floorplan.floorplan.regions().len(), 2);
        assert_eq!(art.design.modules.len(), 4);
    }

    #[test]
    fn two_region_flow_produces_two_regions() {
        let g = by_name("two_regions").unwrap();
        let art = g.flow.run().unwrap();
        assert_eq!(art.design.floorplan.floorplan.regions().len(), 2);
        assert_eq!(art.design.modules.len(), 4);
    }

    #[test]
    fn series7_flow_places_rectangles_that_cover_bram_demand() {
        let g = by_name("sdr_series7").unwrap();
        let art = g.flow.run().unwrap();
        let fp = &art.design.floorplan.floorplan;
        assert_eq!(fp.regions().len(), 2);
        let device = &fp.device;
        for r in fp.regions() {
            let span = r.rows.expect("series7 regions are rectangles");
            assert_eq!(span.clb_row_start % 50, 0);
            assert_eq!(span.clb_row_count % 50, 0);
            let have = r.resources(device);
            let need = &art.design.floorplan.region_envelopes[&r.name];
            assert!(have.covers(need), "{}: {have:?} !>= {need:?}", r.name);
        }
        // dec_turbo declared 10 BRAMs; its region's window must hold them.
        let d2 = fp.region("d2").unwrap();
        assert!(d2.resources(device).brams >= 10);
    }
}
