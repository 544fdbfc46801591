//! Fabric generations study: Virtex-II byte-parity + series7-like 2D placement.
//!
//! The fabric layer keeps the whole Virtex-II Modular Design path
//! byte-identical while opening a second device generation, each a row of
//! the family table. This study is the witness on both sides:
//!
//! * [`v2_flow_digest`] — one FNV-64 digest per Virtex-II gallery flow
//!   over every fabric-facing artifact byte: the UCF text, every region's
//!   geometry/frame/slice accounting, every bitstream's encoded image,
//!   the PDR008–PDR011 floorplan lint output, and the deployed
//!   `SimReport` of the switching workload. `benches/bench_fabric.rs`
//!   pins the digests computed before the second generation existed and
//!   asserts the table-driven path still produces them.
//! * the generation sweep — frames / bitstream bytes / reconfiguration
//!   latency per (family, device, region shape) point through the
//!   pdr-sweep engine, the area↔latency line across both generations.

use pdr_core::deploy::{DeployedSystem, RuntimeOptions};
use pdr_core::gallery;
use pdr_fabric::digest::Fnv64;
use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion, TimePs};
use pdr_sweep::{Scenario, SweepEngine, SweepReport};
use serde::json::Value;

/// The Virtex-II gallery flows whose artifacts the parity gate pins, with
/// the digest of each computed on the pre-refactor tree.
pub const V2_PINNED: &[(&str, u64)] = &[
    ("paper", 0xCEDC80BF814D2F2E),
    ("paper_fixed_qpsk", 0xCBE5DF147EFE45C1),
    ("paper_fixed_qam16", 0x662446CFE5CCBE61),
    ("two_regions", 0xE8E8A5FE00632B5E),
    ("two_regions_xc2v4000", 0xCE619A9BFE3926A9),
    ("synthetic_large", 0x026ECF09D0E2F01E),
];

/// FNV-64 digest of every fabric-facing artifact of one gallery flow:
/// UCF text, region geometry/frames/slices, encoded bitstreams, floorplan
/// lint diagnostics, and the `SimReport` of the standard switching
/// workload (24 iterations, full trace).
pub fn v2_flow_digest(name: &str) -> u64 {
    let g = gallery::by_name(name).expect("gallery flow");
    let art = g.flow.run().expect("flow runs");
    let fp = &art.design.floorplan;
    let device = &fp.floorplan.device;
    let mut h = Fnv64::new();
    h.eat_str(name);
    h.eat_str(&art.ucf);
    for r in fp.floorplan.regions() {
        h.eat_str(&r.name)
            .eat_u64(u64::from(r.clb_col_start))
            .eat_u64(u64::from(r.clb_col_width))
            .eat_u64(u64::from(r.frames(device)))
            .eat_u64(u64::from(r.slices(device)))
            .eat_u64(r.config_bits(device));
    }
    for bm in fp.floorplan.bus_macros() {
        h.eat_u64(u64::from(bm.clb_row))
            .eat_u64(u64::from(bm.boundary_clb_col));
    }
    for (module, bs) in &fp.bitstreams {
        h.eat_str(module)
            .eat_u64(u64::from(bs.frames()))
            .eat_bytes(&bs.encode());
    }
    for d in pdr_lint::floorplan::check(fp) {
        h.eat_str(&format!("{d:?}"));
    }
    let dep = DeployedSystem::new(
        g.flow.architecture(),
        &art,
        device.clone(),
        RuntimeOptions::paper_baseline(),
    );
    let cfg = crate::ir_sim::workload(g.name, 24).with_trace();
    let report = dep.simulate(&cfg).expect("deployed flow simulates");
    h.eat_str(&format!("{report:?}"));
    h.finish()
}

/// One row of the parity table: flow, recomputed digest, pinned digest.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityRow {
    /// Gallery flow name.
    pub flow: String,
    /// Digest computed on this tree.
    pub got: u64,
    /// Digest pinned from the pre-refactor tree.
    pub pinned: u64,
}

impl ParityRow {
    /// Does this tree still produce the pinned artifact bytes?
    pub fn ok(&self) -> bool {
        self.got == self.pinned
    }

    /// JSON for the bench artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.flow.clone())),
            ("digest", Value::String(format!("{:016x}", self.got))),
            ("pinned", Value::String(format!("{:016x}", self.pinned))),
            ("ok", Value::Bool(self.ok())),
        ])
    }
}

/// Recompute every pinned Virtex-II flow digest on this tree.
pub fn v2_parity() -> Vec<ParityRow> {
    V2_PINNED
        .iter()
        .map(|(flow, pinned)| ParityRow {
            flow: flow.to_string(),
            got: v2_flow_digest(flow),
            pinned: *pinned,
        })
        .collect()
}

/// One point of the generation sweep: a (family, device, region shape)
/// triple pushed through the real bitstream generator and the
/// paper-calibrated configuration port.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationPoint {
    /// Fabric generation name.
    pub family: String,
    /// Device name.
    pub device: String,
    /// Region shape label (`full-height` or `rect×N` clock regions).
    pub shape: String,
    /// Region width in CLB columns.
    pub width_cols: u32,
    /// Region height in CLB rows.
    pub region_rows: u32,
    /// Configuration frames the region covers.
    pub frames: u32,
    /// Partial-bitstream size in bytes.
    pub bitstream_bytes: usize,
    /// Reconfiguration time through the paper chain.
    pub reconfig_time: TimePs,
}

impl GenerationPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("family", Value::String(self.family.clone())),
            ("device", Value::String(self.device.clone())),
            ("shape", Value::String(self.shape.clone())),
            ("width_cols", Value::UInt(u64::from(self.width_cols))),
            ("region_rows", Value::UInt(u64::from(self.region_rows))),
            ("frames", Value::UInt(u64::from(self.frames))),
            ("bitstream_bytes", Value::UInt(self.bitstream_bytes as u64)),
            ("reconfig_time_ps", Value::UInt(self.reconfig_time.0)),
        ])
    }
}

/// Devices of the generation sweep: three Virtex-II parts (full-height
/// windows) and three series7-like parts (rectangles of one and, where
/// the device has them, two clock regions).
const GEN_V2_DEVICES: &[&str] = &["XC2V1000", "XC2V2000", "XC2V6000"];
const GEN_S7_DEVICES: &[&str] = &["XC7A15T", "XC7A50T", "XC7A100T"];

/// Width of every sweep region, the paper's 4-CLB-column module.
const GEN_WIDTH: u32 = 4;

/// Run the generation sweep on `engine`: one point per (device, shape)
/// pair, both families, all through [`Bitstream::partial_for_region`] and
/// the paper-calibrated port. Pure fabric arithmetic — bit-identical for
/// any worker count.
pub fn run_sweep(engine: &SweepEngine) -> SweepReport<GenerationPoint> {
    let port = PortProfile::paper_calibrated();
    let mut scenarios = Vec::new();
    let mut push = |device: Device, cr_span: Option<u32>| {
        let port = port.clone();
        let shape = match cr_span {
            None => "full-height".to_string(),
            Some(n) => format!("rect×{n}"),
        };
        let label = format!("gen/{}/{}/{shape}", device.table().name, device.name);
        let device_name = device.name.clone();
        scenarios.push(
            Scenario::new(label, u64::from(device.clb_rows), move || {
                let table = device.table();
                let start = (1..device.clb_cols - GEN_WIDTH)
                    .min_by_key(|&s| {
                        ReconfigRegion::new("gen", s, GEN_WIDTH)
                            .expect("width >= 2")
                            .frames(&device)
                    })
                    .expect("device wide enough");
                let region = match cr_span {
                    None => ReconfigRegion::new("gen", start, GEN_WIDTH),
                    Some(n) => ReconfigRegion::rect(
                        "gen",
                        start,
                        GEN_WIDTH,
                        0,
                        n * table.row_height(&device),
                    ),
                }
                .map_err(pdr_sweep::SweepError::scenario)?;
                region
                    .validate_on(&device)
                    .map_err(pdr_sweep::SweepError::scenario)?;
                let bs = Bitstream::partial_for_region(&device, &region, 0xFAB);
                let (_, region_rows) = region.rows_on(&device);
                Ok(GenerationPoint {
                    family: table.name.to_string(),
                    device: device.name.clone(),
                    shape: match cr_span {
                        None => "full-height".to_string(),
                        Some(n) => format!("rect×{n}"),
                    },
                    width_cols: GEN_WIDTH,
                    region_rows,
                    frames: region.frames(&device),
                    bitstream_bytes: bs.len_bytes(),
                    reconfig_time: port.transfer_time(bs.len_bytes()),
                })
            })
            .with_param("device", device_name)
            .with_param("shape", shape),
        );
    };
    for name in GEN_V2_DEVICES {
        push(Device::by_name(name).expect("catalog device"), None);
    }
    for name in GEN_S7_DEVICES {
        let device = Device::by_name(name).expect("catalog device");
        let regions = device.clock_regions();
        push(device.clone(), Some(1));
        if regions >= 2 {
            push(device, Some(2));
        }
    }
    engine.run(scenarios)
}

/// Text table of the generation sweep.
pub fn render_generations(points: &[GenerationPoint]) -> String {
    let mut out = format!(
        "Fabric generations: region shape vs frames and reconfiguration time\n\n{:<14} {:<10} {:<12} {:>5} {:>6} {:>8} {:>10} {:>12}\n",
        "family", "device", "shape", "cols", "rows", "frames", "KB", "reconfig"
    );
    for p in points {
        out.push_str(&format!(
            "{:<14} {:<10} {:<12} {:>5} {:>6} {:>8} {:>10.1} {:>12}\n",
            p.family,
            p.device,
            p.shape,
            p.width_cols,
            p.region_rows,
            p.frames,
            p.bitstream_bytes as f64 / 1024.0,
            p.reconfig_time.to_string()
        ));
    }
    out
}

/// Summary of the series7-like gallery flow driven end to end: compile →
/// lint → deploy → simulate, the acceptance witness that the 2D family is
/// a first-class citizen of the whole stack, not just the fabric crate.
#[derive(Debug, Clone, PartialEq)]
pub struct S7FlowCheck {
    /// Flow name (`sdr_series7`).
    pub flow: String,
    /// Device name.
    pub device: String,
    /// (region name, frames, rectangle covers its envelope) per region.
    pub regions: Vec<(String, u32, bool)>,
    /// Floorplan lint diagnostics (must be zero for a clean flow).
    pub lint_diagnostics: usize,
    /// FNV-64 digest of the deployed `SimReport`.
    pub sim_digest: u64,
}

impl S7FlowCheck {
    /// Every rectangle covers its module envelope and the lint is clean.
    pub fn clean(&self) -> bool {
        self.lint_diagnostics == 0 && self.regions.iter().all(|(_, _, covers)| *covers)
    }

    /// JSON for the bench artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.flow.clone())),
            ("device", Value::String(self.device.clone())),
            (
                "regions",
                Value::Array(
                    self.regions
                        .iter()
                        .map(|(name, frames, covers)| {
                            Value::obj(vec![
                                ("name", Value::String(name.clone())),
                                ("frames", Value::UInt(u64::from(*frames))),
                                ("covers_envelope", Value::Bool(*covers)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "lint_diagnostics",
                Value::UInt(self.lint_diagnostics as u64),
            ),
            (
                "sim_digest",
                Value::String(format!("{:016x}", self.sim_digest)),
            ),
        ])
    }
}

/// Drive the `sdr_series7` gallery flow end to end: run the design flow
/// (2D placement on the series7-like part), lint the floorplan, deploy
/// and simulate the switching workload.
pub fn s7_end_to_end() -> Result<S7FlowCheck, String> {
    let g = gallery::by_name("sdr_series7").ok_or("gallery flow `sdr_series7` missing")?;
    let art = g.flow.run().map_err(|e| e.to_string())?;
    let fp = &art.design.floorplan;
    let device = &fp.floorplan.device;
    let regions = fp
        .floorplan
        .regions()
        .iter()
        .map(|r| {
            let covers = r.resources(device).covers(&fp.region_envelopes[&r.name]);
            (r.name.clone(), r.frames(device), covers)
        })
        .collect();
    let lint_diagnostics = pdr_lint::floorplan::check(fp).len();
    let dep = DeployedSystem::new(
        g.flow.architecture(),
        &art,
        device.clone(),
        RuntimeOptions::paper_baseline(),
    );
    let cfg = crate::ir_sim::workload(g.name, 24).with_trace();
    let report = dep.simulate(&cfg).map_err(|e| e.to_string())?;
    let mut h = Fnv64::new();
    h.eat_str(&format!("{report:?}"));
    Ok(S7FlowCheck {
        flow: g.name.to_string(),
        device: device.name.clone(),
        regions,
        lint_diagnostics,
        sim_digest: h.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_digests_match_pre_refactor_pins() {
        for (name, pinned) in V2_PINNED {
            let got = v2_flow_digest(name);
            assert_eq!(
                got, *pinned,
                "flow `{name}` drifted from the pre-refactor artifact digest \
                 (got 0x{got:016X}, pinned 0x{pinned:016X})"
            );
        }
    }

    #[test]
    fn generation_sweep_spans_both_families() {
        let report = run_sweep(&SweepEngine::new());
        assert_eq!(report.stats.failed(), 0);
        let points: Vec<_> = report.ok_values().cloned().collect();
        assert!(points.iter().any(|p| p.family == "Virtex-II"));
        assert!(points.iter().any(|p| p.family == "series7-like"));
        // Two clock regions take twice the frames (and roughly twice the
        // latency) of one on the same device and width.
        let frames = |device: &str, shape: &str| {
            points
                .iter()
                .find(|p| p.device == device && p.shape == shape)
                .map(|p| p.frames)
                .expect("sweep point present")
        };
        assert_eq!(
            frames("XC7A100T", "rect×2"),
            2 * frames("XC7A100T", "rect×1")
        );
        let text = render_generations(&points);
        assert!(text.contains("full-height") && text.contains("rect×1"));
    }

    #[test]
    fn s7_flow_is_clean_end_to_end() {
        let check = s7_end_to_end().expect("series7 flow runs");
        assert!(check.clean(), "{check:?}");
        assert_eq!(check.device, "XC7A50T");
        assert_eq!(check.regions.len(), 2);
        // Determinism: a second run produces the identical SimReport.
        assert_eq!(check, s7_end_to_end().unwrap());
    }
}
