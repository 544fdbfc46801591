//! Area ↔ latency arithmetic — §6's "8 % ↔ ≈ 4 ms" generalized.
//!
//! Reconfiguration time is proportional to the frames of the region: this
//! sweep regenerates that line across region widths and devices, through
//! the real bitstream generator and the paper-calibrated port chain, and
//! verifies the paper's operating point sits on it. The sweep runs on
//! both device generations: full-height column windows on Virtex-II, and
//! one-clock-region rectangles on the series7-like family (the minimal 2D
//! reconfiguration unit, so the two lines compare like for like).

use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion, TimePs};
use pdr_sweep::{Scenario, SweepEngine, SweepReport};
use serde::json::Value;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaLatencyPoint {
    /// Device name.
    pub device: String,
    /// Device family (fabric generation).
    pub family: String,
    /// Region width in CLB columns.
    pub width_cols: u32,
    /// Device area fraction of the region.
    pub area_fraction: f64,
    /// Partial-bitstream size in bytes.
    pub bitstream_bytes: usize,
    /// Reconfiguration (load) time through the paper chain.
    pub reconfig_time: TimePs,
}

impl AreaLatencyPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("device", Value::String(self.device.clone())),
            ("family", Value::String(self.family.clone())),
            ("width_cols", Value::UInt(u64::from(self.width_cols))),
            ("area_fraction", Value::Float(self.area_fraction)),
            ("bitstream_bytes", Value::UInt(self.bitstream_bytes as u64)),
            ("reconfig_time_ps", Value::UInt(self.reconfig_time.0)),
        ])
    }
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaLatency {
    /// Points, grouped by device then width.
    pub points: Vec<AreaLatencyPoint>,
}

impl AreaLatency {
    /// Render the sweep.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Region area vs reconfiguration time (paper chain: memory-limited ICAP)\n\n{:<10} {:<14} {:>6} {:>8} {:>10} {:>12}\n",
            "device", "family", "cols", "area %", "KB", "reconfig"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:<14} {:>6} {:>8.2} {:>10.1} {:>12}\n",
                p.device,
                p.family,
                p.width_cols,
                100.0 * p.area_fraction,
                p.bitstream_bytes as f64 / 1024.0,
                p.reconfig_time.to_string()
            ));
        }
        out
    }

    /// The point closest to the paper's configuration (XC2V2000, 4 cols).
    pub fn paper_point(&self) -> Option<&AreaLatencyPoint> {
        self.points
            .iter()
            .find(|p| p.device == "XC2V2000" && p.width_cols == 4)
    }
}

/// Run the sweep on `engine`: one scenario per legal (device, width)
/// pair. Points are pure functions of the fabric model, so the sweep is
/// bit-identical for any worker count.
pub fn run_sweep(
    devices: &[&str],
    widths: &[u32],
    engine: &SweepEngine,
) -> SweepReport<AreaLatencyPoint> {
    let port = PortProfile::paper_calibrated();
    let resolved: Vec<Device> = devices
        .iter()
        .map(|name| Device::by_name(name).expect("catalog device"))
        .collect();
    let mut scenarios = Vec::new();
    for device in &resolved {
        for &w in widths {
            if w < 2 || w + 2 > device.clb_cols {
                continue;
            }
            let port = &port;
            scenarios.push(
                Scenario::new(
                    format!("area/{}/{w}", device.name),
                    u64::from(w),
                    move || {
                        // Place the window where it spans the fewest frames (a
                        // pure logic window, avoiding embedded BRAM/GCLK
                        // columns), so the sweep isolates the width→latency
                        // relationship.
                        let start = (1..device.clb_cols - w)
                            .min_by_key(|&s| {
                                ReconfigRegion::new("sweep", s, w)
                                    .expect("width >= 2")
                                    .frames(device)
                            })
                            .expect("device wide enough");
                        // One configuration row tall: the full height on
                        // Virtex-II, one clock region on a 2D family.
                        let region = ReconfigRegion::rect(
                            "sweep",
                            start,
                            w,
                            0,
                            device.table().row_height(device),
                        )
                        .expect("legal rect");
                        region
                            .validate_on(device)
                            .map_err(pdr_sweep::SweepError::scenario)?;
                        let bs = Bitstream::partial_for_region(device, &region, 0xA5);
                        Ok(AreaLatencyPoint {
                            device: device.name.clone(),
                            family: device.table().name.to_string(),
                            width_cols: w,
                            area_fraction: region.area_fraction(device),
                            bitstream_bytes: bs.len_bytes(),
                            reconfig_time: port.transfer_time(bs.len_bytes()),
                        })
                    },
                )
                .with_param("device", device.name.clone())
                .with_param("width_cols", w),
            );
        }
    }
    engine.run(scenarios)
}

/// Run the sweep over the given devices and widths. A point whose region
/// fails device validation is dropped, matching the pre-sweep behaviour.
pub fn run(devices: &[&str], widths: &[u32]) -> AreaLatency {
    let report = run_sweep(devices, widths, &SweepEngine::new());
    AreaLatency {
        points: report.ok_values().cloned().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> AreaLatency {
        run(&["XC2V500", "XC2V2000", "XC2V6000"], &[2, 4, 8, 16])
    }

    #[test]
    fn paper_point_is_8_percent_4ms() {
        let s = sweep();
        let p = s.paper_point().expect("paper point in sweep");
        assert!((p.area_fraction - 4.0 / 48.0).abs() < 1e-9);
        let ms = p.reconfig_time.as_millis_f64();
        assert!((3.5..4.5).contains(&ms), "{ms} ms");
    }

    #[test]
    fn latency_is_monotone_in_width_per_device() {
        let s = sweep();
        for dev in ["XC2V500", "XC2V2000", "XC2V6000"] {
            let times: Vec<TimePs> = s
                .points
                .iter()
                .filter(|p| p.device == dev)
                .map(|p| p.reconfig_time)
                .collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]), "{dev}: {times:?}");
        }
    }

    #[test]
    fn same_width_costs_more_on_taller_devices() {
        // Frames scale with device height: 4 columns of an XC2V6000 take
        // longer than 4 columns of an XC2V500.
        let s = sweep();
        let t = |dev: &str| {
            s.points
                .iter()
                .find(|p| p.device == dev && p.width_cols == 4)
                .unwrap()
                .reconfig_time
        };
        assert!(t("XC2V500") < t("XC2V2000"));
        assert!(t("XC2V2000") < t("XC2V6000"));
    }

    #[test]
    fn area_fraction_scales_inversely_with_device_size() {
        let s = sweep();
        let f = |dev: &str| {
            s.points
                .iter()
                .find(|p| p.device == dev && p.width_cols == 4)
                .unwrap()
                .area_fraction
        };
        assert!(f("XC2V500") > f("XC2V2000"));
        assert!(f("XC2V2000") > f("XC2V6000"));
    }

    #[test]
    fn render_contains_all_devices() {
        let text = sweep().render();
        for dev in ["XC2V500", "XC2V2000", "XC2V6000"] {
            assert!(text.contains(dev));
        }
    }

    #[test]
    fn oversized_widths_are_skipped_not_fatal() {
        let s = run(&["XC2V40"], &[2, 4, 32]);
        assert!(s.points.iter().all(|p| p.width_cols < 32));
    }

    #[test]
    fn series7_generation_sweeps_one_clock_region_rectangles() {
        let s = run(&["XC7A15T", "XC7A100T"], &[2, 4, 8]);
        assert_eq!(s.points.len(), 6);
        assert!(s.points.iter().all(|p| p.family == "series7-like"));
        // One clock region of an XC7A100T is 1/3 of the device; a 4-column
        // rectangle covers far less area than a full-height window would.
        let p = s
            .points
            .iter()
            .find(|p| p.device == "XC7A100T" && p.width_cols == 4)
            .unwrap();
        assert!(p.area_fraction < 4.0 / 40.0 / 2.0, "{}", p.area_fraction);
        // Latency still monotone in width within the generation.
        for dev in ["XC7A15T", "XC7A100T"] {
            let times: Vec<TimePs> = s
                .points
                .iter()
                .filter(|p| p.device == dev)
                .map(|p| p.reconfig_time)
                .collect();
            assert!(times.windows(2).all(|w| w[0] < w[1]), "{dev}: {times:?}");
        }
    }

    #[test]
    fn both_generations_share_one_sweep() {
        let s = run(&["XC2V2000", "XC7A50T"], &[4]);
        let families: Vec<&str> = s.points.iter().map(|p| p.family.as_str()).collect();
        assert!(families.contains(&"Virtex-II"));
        assert!(families.contains(&"series7-like"));
    }
}
