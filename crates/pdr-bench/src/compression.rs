//! Bitstream-compression study: shrinking the fetch leg.
//!
//! An extension beyond the paper's flow (its conclusion invites exactly
//! this kind of optimization): configuration frames are sparse, so storing
//! zero-RLE-compressed bitstreams in the external memory shortens the
//! 3-of-4-ms fetch leg, with a small on-chip decompressor restoring the
//! raw stream at port line rate. Compression composes with prefetching —
//! a cheaper fetch is also easier to hide.

use pdr_core::paper::PaperCaseStudy;
use pdr_core::{FlowError, RuntimeOptions};
use pdr_fabric::compress;
use pdr_fabric::{Bitstream, Device, ReconfigRegion, TimePs};
use pdr_rtr::PrefetchSpec;
use pdr_sim::SimConfig;

/// One sweep point: region width vs stored size.
#[derive(Debug, Clone, PartialEq)]
pub struct SizePoint {
    /// Region width in CLB columns.
    pub width_cols: u32,
    /// Raw bitstream bytes.
    pub raw_bytes: usize,
    /// Compressed bytes.
    pub compressed_bytes: usize,
    /// Compression ratio (raw / compressed).
    pub ratio: f64,
}

/// End-to-end effect on the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEffect {
    /// Runtime label.
    pub label: String,
    /// Total `In_Reconf` lock-up over the run.
    pub lockup: TimePs,
    /// Worst single reconfiguration.
    pub worst: TimePs,
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionStudy {
    /// Size sweep on the XC2V2000.
    pub sizes: Vec<SizePoint>,
    /// Four runtime combinations on the case study:
    /// {raw, compressed} × {no-prefetch, prefetch}.
    pub effects: Vec<SystemEffect>,
}

impl CompressionStudy {
    /// Render the study.
    pub fn render(&self) -> String {
        let mut out = String::from("Bitstream compression study (zero-RLE)\n\n");
        out.push_str(&format!(
            "{:>6} {:>10} {:>12} {:>7}\n",
            "cols", "raw KB", "packed KB", "ratio"
        ));
        for p in &self.sizes {
            out.push_str(&format!(
                "{:>6} {:>10.1} {:>12.1} {:>7.2}\n",
                p.width_cols,
                p.raw_bytes as f64 / 1024.0,
                p.compressed_bytes as f64 / 1024.0,
                p.ratio
            ));
        }
        out.push_str(&format!(
            "\n{:<36} {:>14} {:>14}\n",
            "runtime", "lock-up", "worst reconfig"
        ));
        for e in &self.effects {
            out.push_str(&format!(
                "{:<36} {:>14} {:>14}\n",
                e.label,
                e.lockup.to_string(),
                e.worst.to_string()
            ));
        }
        out
    }
}

/// Run the study: size sweep plus the end-to-end effect on the §6 system.
pub fn run(symbols: u32) -> Result<CompressionStudy, FlowError> {
    // Size sweep.
    let device = Device::xc2v2000();
    let mut sizes = Vec::new();
    for width in [2u32, 4, 8, 16] {
        let region = ReconfigRegion::new("sweep", 1, width).expect("legal");
        let bs = Bitstream::partial_for_region(&device, &region, 0xBEEF + width as u64);
        let raw = bs.encode();
        let packed = compress::compress(&raw);
        sizes.push(SizePoint {
            width_cols: width,
            raw_bytes: raw.len(),
            compressed_bytes: packed.len(),
            ratio: compress::ratio(raw.len(), packed.len()),
        });
    }

    // End-to-end effect.
    let study = PaperCaseStudy::build()?;
    let sel: Vec<String> = (0..symbols)
        .map(|i| {
            if (i / 16) % 2 == 0 {
                "mod_qpsk".to_string()
            } else {
                "mod_qam16".to_string()
            }
        })
        .collect();
    let loads = PaperCaseStudy::load_sequence(&sel);
    let mut effects = Vec::new();
    for (label, compressed, prefetch) in [
        ("raw, no prefetch", false, false),
        ("compressed, no prefetch", true, false),
        ("raw + prefetch", false, true),
        ("compressed + prefetch", true, true),
    ] {
        let options = RuntimeOptions {
            compressed_storage: compressed,
            cache_modules: 1,
            prefetch: if prefetch {
                PrefetchSpec::Schedule(loads.clone())
            } else {
                PrefetchSpec::None
            },
            ..RuntimeOptions::default()
        };
        let report = study
            .deploy(options)
            .simulate(&SimConfig::iterations(symbols).with_selection("op_dyn", sel.clone()))?;
        effects.push(SystemEffect {
            label: label.to_string(),
            lockup: report.lockup_time(),
            worst: report
                .reconfigs
                .iter()
                .map(|r| r.latency())
                .max()
                .unwrap_or(TimePs::ZERO),
        });
    }
    Ok(CompressionStudy { sizes, effects })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> CompressionStudy {
        run(96).unwrap()
    }

    #[test]
    fn compression_ratio_is_substantial_and_width_independent() {
        let s = study();
        for p in &s.sizes {
            assert!(p.ratio > 1.5, "width {}: ratio {}", p.width_cols, p.ratio);
            assert!(p.compressed_bytes < p.raw_bytes);
        }
        // Sparsity is uniform: ratios cluster.
        let ratios: Vec<f64> = s.sizes.iter().map(|p| p.ratio).collect();
        let spread = ratios.iter().cloned().fold(0.0f64, f64::max)
            - ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.5, "ratios {ratios:?}");
    }

    #[test]
    fn compression_shortens_cold_reconfigurations() {
        let s = study();
        let find = |label: &str| {
            s.effects
                .iter()
                .find(|e| e.label == label)
                .unwrap_or_else(|| panic!("{label}"))
        };
        let raw = find("raw, no prefetch");
        let packed = find("compressed, no prefetch");
        assert!(packed.lockup < raw.lockup);
        assert!(packed.worst < raw.worst);
        // The worst reconfiguration keeps the full ~1 ms port load but
        // fetches ~2.4x less: expect ~1.0 + 3.0/2.4 ≈ 2.2 ms, far below 4.
        assert!(packed.worst.as_millis_f64() < 3.0, "{}", packed.worst);
    }

    #[test]
    fn compression_composes_with_prefetching() {
        let s = study();
        let find = |label: &str| s.effects.iter().find(|e| e.label == label).unwrap();
        let best = find("compressed + prefetch");
        for other in &s.effects {
            assert!(
                best.lockup <= other.lockup,
                "{} beats {}? {} vs {}",
                best.label,
                other.label,
                best.lockup,
                other.lockup
            );
        }
    }

    #[test]
    fn render_contains_both_tables() {
        let text = study().render();
        assert!(text.contains("ratio"));
        assert!(text.contains("compressed + prefetch"));
    }
}
