//! Figure 4 + §6 — the reconfigurable MC-CDMA transmitter.
//!
//! Two halves, matching what the paper reports about its case study:
//!
//! * **System half** ([`run_system`]): the complete generated system on
//!   the simulator — dynamic-region area share (paper: ≈ 8 %),
//!   request-to-ready reconfiguration time (paper: ≈ 4 ms), plus
//!   reconfiguration counts, `In_Reconf` lock-up and throughput for an
//!   SNR-driven adaptive run, baseline vs prefetching.
//! * **Functional half** ([`run_ber`]): the reason modulation is the
//!   dynamic block — a BER/throughput sweep of QPSK vs QAM-16 vs the
//!   adaptive policy over the AWGN channel, produced by the bit-true
//!   `pdr-mccdma` chain.

use pdr_core::paper::PaperCaseStudy;
use pdr_core::{FlowError, RuntimeOptions};
use pdr_fabric::TimePs;
use pdr_mccdma::{
    AdaptivePolicy, AwgnChannel, McCdmaReceiver, McCdmaTransmitter, Modulation, Prbs, SnrTrace,
    TxConfig,
};
use pdr_sim::SimConfig;
use pdr_sweep::{Scenario, SweepEngine, SweepReport};
use serde::json::Value;

/// System-half result for one runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRun {
    /// Configuration label.
    pub label: String,
    /// OFDM symbols simulated.
    pub iterations: u32,
    /// Reconfigurations performed.
    pub reconfigurations: usize,
    /// Fetch-hidden reconfigurations.
    pub hidden: usize,
    /// Total `In_Reconf` lock-up.
    pub lockup: TimePs,
    /// Worst single reconfiguration latency.
    pub worst_latency: TimePs,
    /// Makespan.
    pub makespan: TimePs,
    /// Symbols per second achieved.
    pub throughput: f64,
    /// Median per-symbol period.
    pub p50_period: TimePs,
    /// 99th-percentile per-symbol period (carries the reconfiguration
    /// spikes).
    pub p99_period: TimePs,
}

/// The system half of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4System {
    /// Dynamic-region share of the device (paper: ≈ 0.08).
    pub dynamic_fraction: f64,
    /// Baseline and prefetch runs.
    pub runs: Vec<SystemRun>,
}

impl Fig4System {
    /// Render the report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Figure 4 — reconfigurable MC-CDMA transmitter (dynamic region {:.1} % of device)\n\n\
             {:<26} {:>6} {:>8} {:>7} {:>14} {:>14} {:>12} {:>12} {:>12}\n",
            100.0 * self.dynamic_fraction,
            "runtime",
            "iters",
            "reconf",
            "hidden",
            "lock-up",
            "worst",
            "symbols/s",
            "p50",
            "p99"
        );
        for r in &self.runs {
            out.push_str(&format!(
                "{:<26} {:>6} {:>8} {:>7} {:>14} {:>14} {:>12.0} {:>12} {:>12}\n",
                r.label,
                r.iterations,
                r.reconfigurations,
                r.hidden,
                r.lockup.to_string(),
                r.worst_latency.to_string(),
                r.throughput,
                r.p50_period.to_string(),
                r.p99_period.to_string()
            ));
        }
        out
    }
}

/// Run the system half over a fading scenario of `symbols` OFDM symbols.
pub fn run_system(symbols: u32) -> Result<Fig4System, FlowError> {
    let study = PaperCaseStudy::build()?;
    let policy = AdaptivePolicy::paper_default();
    let snr = SnrTrace::sinusoidal(6.0, 20.0, (symbols / 6).max(4) as usize, symbols as usize);
    let selections = policy.module_selections(&snr);
    let loads = PaperCaseStudy::load_sequence(&selections);

    let mut runs = Vec::new();
    for (label, options) in [
        ("baseline (no prefetch)", RuntimeOptions::paper_baseline()),
        (
            "prefetch (schedule-driven)",
            RuntimeOptions::paper_prefetch(loads),
        ),
    ] {
        let dep = study.deploy(options);
        let cfg = SimConfig::iterations(symbols).with_selection("op_dyn", selections.clone());
        let report = dep.simulate(&cfg)?;
        runs.push(SystemRun {
            label: label.to_string(),
            iterations: symbols,
            reconfigurations: report.reconfig_count(),
            hidden: report.hidden_fetches(),
            lockup: report.lockup_time(),
            worst_latency: report
                .reconfigs
                .iter()
                .map(|r| r.latency())
                .max()
                .unwrap_or(TimePs::ZERO),
            makespan: report.makespan,
            throughput: report.throughput_per_sec(),
            p50_period: report.period_percentile(50.0).unwrap_or(TimePs::ZERO),
            p99_period: report.period_percentile(99.0).unwrap_or(TimePs::ZERO),
        });
    }

    Ok(Fig4System {
        dynamic_fraction: study
            .artifacts
            .design
            .floorplan
            .floorplan
            .dynamic_fraction(),
        runs,
    })
}

/// One BER sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct BerPoint {
    /// Per-sample Es/N0 at the channel (dB).
    pub es_n0_db: f64,
    /// Measured QPSK BER.
    pub ber_qpsk: f64,
    /// Measured QAM-16 BER.
    pub ber_qam16: f64,
    /// Adaptive-policy BER (policy fed the post-despreading SNR).
    pub ber_adaptive: f64,
    /// Adaptive-policy info bits per OFDM symbol (throughput proxy).
    pub adaptive_bits_per_symbol: f64,
}

impl BerPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("es_n0_db", Value::Float(self.es_n0_db)),
            ("ber_qpsk", Value::Float(self.ber_qpsk)),
            ("ber_qam16", Value::Float(self.ber_qam16)),
            ("ber_adaptive", Value::Float(self.ber_adaptive)),
            (
                "adaptive_bits_per_symbol",
                Value::Float(self.adaptive_bits_per_symbol),
            ),
        ])
    }
}

/// The functional half: BER sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Ber {
    /// Sweep points, ascending Es/N0.
    pub points: Vec<BerPoint>,
}

impl Fig4Ber {
    /// Render the sweep.
    pub fn render(&self) -> String {
        let mut out = format!(
            "MC-CDMA BER sweep (uncoded, SF 32 → ~15 dB processing gain)\n\n{:>9} {:>12} {:>12} {:>12} {:>10}\n",
            "Es/N0 dB", "QPSK", "QAM-16", "adaptive", "bits/sym"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>9.1} {:>12.3e} {:>12.3e} {:>12.3e} {:>10.2}\n",
                p.es_n0_db, p.ber_qpsk, p.ber_qam16, p.ber_adaptive, p.adaptive_bits_per_symbol
            ));
        }
        out
    }
}

/// Measure one Es/N0 point: `frames` × 20 OFDM symbols per modulation,
/// strictly seeded from the point and frame index alone.
pub fn ber_point(db: f64, frames: usize) -> BerPoint {
    let cfg = TxConfig {
        use_fec: false,
        ..TxConfig::paper()
    };
    // SF-32 despreading adds 10·log10(32) ≈ 15 dB to the per-sample SNR.
    let processing_gain_db = 10.0 * 32f64.log10();
    let policy = AdaptivePolicy::paper_default();

    let tx = McCdmaTransmitter::new(cfg);
    let rx = McCdmaReceiver::new(cfg);
    let run_mod = |mods: &[Modulation], seed: u64| -> (u64, u64) {
        let mut prbs = Prbs::new(seed as u32 + 1);
        let info = prbs.take_bits(tx.info_bits_for(mods));
        let sent = tx.transmit(&info, mods);
        let received = AwgnChannel::new(db, seed).transmit(&sent);
        let decoded = rx.receive(&received, mods);
        let errors = info.iter().zip(&decoded).filter(|(a, b)| a != b).count() as u64;
        (errors, info.len() as u64)
    };
    let mut acc = [(0u64, 0u64); 3];
    let mut adaptive_bits = 0u64;
    let mut adaptive_symbols = 0u64;
    for f in 0..frames {
        let seed = ber_seed(db) + f as u64 * 7 + 1;
        let (e, b) = run_mod(&[Modulation::Qpsk; 20], seed);
        acc[0].0 += e;
        acc[0].1 += b;
        let (e, b) = run_mod(&[Modulation::Qam16; 20], seed + 1000);
        acc[1].0 += e;
        acc[1].1 += b;
        // Adaptive: the policy sees the post-despreading symbol SNR.
        let mods = policy.run(
            Modulation::Qpsk,
            &SnrTrace::constant(db + processing_gain_db, 20),
        );
        let (e, b) = run_mod(&mods, seed + 2000);
        acc[2].0 += e;
        acc[2].1 += b;
        adaptive_bits += b;
        adaptive_symbols += mods.len() as u64;
    }
    BerPoint {
        es_n0_db: db,
        ber_qpsk: acc[0].0 as f64 / acc[0].1 as f64,
        ber_qam16: acc[1].0 as f64 / acc[1].1 as f64,
        ber_adaptive: acc[2].0 as f64 / acc[2].1 as f64,
        adaptive_bits_per_symbol: adaptive_bits as f64 / adaptive_symbols as f64,
    }
}

/// Base RNG seed of one Es/N0 point.
fn ber_seed(db: f64) -> u64 {
    (db.abs() * 1000.0) as u64
}

/// The sweep as scenarios, one per Es/N0 point — exposed so callers can
/// extend the batch (e.g. the fault-isolation demo in `all_experiments`)
/// before handing it to an engine.
pub fn ber_scenarios(es_n0_points: &[f64], frames: usize) -> Vec<Scenario<'static, BerPoint>> {
    es_n0_points
        .iter()
        .map(|&db| {
            Scenario::new(format!("ber/{db}dB"), ber_seed(db), move || {
                Ok(ber_point(db, frames))
            })
            .with_param("es_n0_db", db)
            .with_param("frames", frames)
        })
        .collect()
}

/// Run the BER sweep on `engine` with full per-point observability.
pub fn ber_sweep(
    es_n0_points: &[f64],
    frames: usize,
    engine: &SweepEngine,
) -> SweepReport<BerPoint> {
    engine.run(ber_scenarios(es_n0_points, frames))
}

/// Run the BER sweep. `frames` × 20 OFDM symbols per point per modulation.
///
/// Points are embarrassingly parallel and strictly seeded, so the sweep
/// fans out across the sweep engine's worker pool and still reproduces
/// bit-for-bit.
pub fn run_ber(es_n0_points: &[f64], frames: usize) -> Fig4Ber {
    let report = ber_sweep(es_n0_points, frames, &SweepEngine::new());
    Fig4Ber {
        points: report.into_values().expect("BER scenarios are infallible"),
    }
}

/// Canonical digest of a BER sweep: FNV-1a over the raw IEEE-754 bits of
/// every point, in sweep order. Bit-exact — any change to the modulation /
/// spreading / OFDM arithmetic moves it.
pub fn ber_digest(sweep: &Fig4Ber) -> u64 {
    let mut h = pdr_fabric::digest::Fnv64::new();
    for p in &sweep.points {
        for v in [
            p.es_n0_db,
            p.ber_qpsk,
            p.ber_qam16,
            p.ber_adaptive,
            p.adaptive_bits_per_symbol,
        ] {
            h.eat_u64(v.to_bits());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_half_matches_paper_numbers() {
        let f = run_system(48).unwrap();
        // ≈ 8 % of the FPGA.
        assert!((f.dynamic_fraction - 0.0833).abs() < 0.005);
        let base = &f.runs[0];
        let pf = &f.runs[1];
        assert!(base.reconfigurations > 0);
        assert_eq!(base.reconfigurations, pf.reconfigurations);
        // Baseline cold reconfiguration ≈ 4 ms.
        let ms = base.worst_latency.as_millis_f64();
        assert!((3.5..4.6).contains(&ms), "worst {ms} ms");
        // Prefetch strictly improves lock-up and throughput.
        assert!(pf.lockup < base.lockup);
        assert!(pf.throughput > base.throughput);
        assert!(f.render().contains("prefetch"));
        // Jitter: the p99 period carries the reconfiguration spike; the
        // median stays at the steady-state symbol period. Prefetch cuts
        // the tail.
        assert!(base.p99_period > base.p50_period * 5);
        // The very first switch is cold in both runs, so the extreme tail
        // can tie; prefetching must never worsen it.
        assert!(pf.p99_period <= base.p99_period);
    }

    #[test]
    fn ber_half_has_the_right_shape() {
        // -12 dB → 3 dB post-despreading (QPSK territory); +1 dB → 16 dB
        // (above the 14 dB up-threshold: the policy moves to QAM-16).
        let sweep = run_ber(&[-12.0, -8.0, 1.0], 3);
        assert_eq!(sweep.points.len(), 3);
        for p in &sweep.points {
            // QPSK at least as robust as QAM-16 everywhere.
            assert!(
                p.ber_qpsk <= p.ber_qam16 + 1e-9,
                "at {} dB: {} vs {}",
                p.es_n0_db,
                p.ber_qpsk,
                p.ber_qam16
            );
        }
        // BER decreases with SNR for both.
        assert!(sweep.points[0].ber_qam16 > sweep.points[2].ber_qam16);
        // Adaptive throughput grows with SNR (switches to QAM-16).
        assert!(
            sweep.points[2].adaptive_bits_per_symbol > sweep.points[0].adaptive_bits_per_symbol
        );
        assert!(sweep.render().contains("adaptive"));
    }

    /// Pin of the BER waterfall bits. The value was captured *before* the
    /// pdr-mccdma inner loops were vectorized (flat slice iteration,
    /// hoisted per-chip allocations, reused scratch buffers) and must
    /// never move: the optimization is required to be bit-exact, not just
    /// statistically equivalent.
    #[test]
    fn ber_waterfall_digest_is_pinned() {
        let sweep = run_ber(&[-12.0, -6.0, 0.0], 2);
        assert_eq!(
            ber_digest(&sweep),
            209_253_832_394_521_988,
            "BER waterfall bits changed — the vectorized chain is no longer bit-exact"
        );
    }
}
