//! Adaptive modulation: the `Select` entry of Fig. 4.
//!
//! §6: the DSP *"can select modulation performed by the dynamic part by
//! sending this value to module Interface IN OUT"*, choosing the
//! modulation of each OFDM symbol *"according to the signal to noise
//! ratio"*. [`AdaptivePolicy`] is that decision rule (a threshold with
//! hysteresis so channel noise does not cause reconfiguration thrash), and
//! [`SnrTrace`] generates the channel-quality scenarios the experiments
//! replay.

use crate::modulation::Modulation;
use serde::Serialize;

/// SNR-threshold modulation selection with hysteresis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AdaptivePolicy {
    /// Switch up to QAM-16 when the SNR exceeds this (dB).
    pub up_threshold_db: f64,
    /// Switch down to QPSK when the SNR falls below this (dB).
    pub down_threshold_db: f64,
}

impl AdaptivePolicy {
    /// Policy with the given up/down thresholds.
    ///
    /// # Panics
    /// Panics when `down > up` (the hysteresis band would be inverted).
    pub fn new(up_threshold_db: f64, down_threshold_db: f64) -> Self {
        assert!(
            down_threshold_db <= up_threshold_db,
            "hysteresis band inverted"
        );
        AdaptivePolicy {
            up_threshold_db,
            down_threshold_db,
        }
    }

    /// A reasonable default: QAM-16 above 14 dB, QPSK below 11 dB.
    pub fn paper_default() -> Self {
        AdaptivePolicy::new(14.0, 11.0)
    }

    /// Decide the modulation for the next symbol given the current one.
    pub fn decide(&self, current: Modulation, snr_db: f64) -> Modulation {
        match current {
            Modulation::Qpsk if snr_db >= self.up_threshold_db => Modulation::Qam16,
            Modulation::Qam16 if snr_db < self.down_threshold_db => Modulation::Qpsk,
            m => m,
        }
    }

    /// Run the policy over an SNR trace, starting from `initial`; returns
    /// the per-symbol modulation sequence.
    pub fn run(&self, initial: Modulation, snr_db: &[f64]) -> Vec<Modulation> {
        let mut current = initial;
        snr_db
            .iter()
            .map(|&snr| {
                current = self.decide(current, snr);
                current
            })
            .collect()
    }

    /// Run the policy over an SNR trace from QPSK and return the
    /// per-symbol module selections of the `op_dyn` region.
    pub fn module_selections(&self, snr_db: &[f64]) -> Vec<String> {
        self.run(Modulation::Qpsk, snr_db)
            .into_iter()
            .map(|m| m.module_name().to_string())
            .collect()
    }

    /// Count modulation switches in a sequence.
    pub fn switches(seq: &[Modulation]) -> usize {
        seq.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// Generators of per-symbol SNR traces.
#[derive(Debug, Clone)]
pub struct SnrTrace;

impl SnrTrace {
    /// Constant SNR.
    pub fn constant(db: f64, len: usize) -> Vec<f64> {
        vec![db; len]
    }

    /// A slow sinusoidal fade between `lo` and `hi` dB with the given
    /// period (in symbols) — a vehicle passing through coverage.
    pub fn sinusoidal(lo: f64, hi: f64, period: usize, len: usize) -> Vec<f64> {
        assert!(period > 0);
        let mid = (lo + hi) / 2.0;
        let amp = (hi - lo) / 2.0;
        (0..len)
            .map(|i| mid + amp * (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_with_hysteresis() {
        let p = AdaptivePolicy::paper_default();
        // Below both thresholds: stay/settle on QPSK.
        assert_eq!(p.decide(Modulation::Qpsk, 8.0), Modulation::Qpsk);
        assert_eq!(p.decide(Modulation::Qam16, 8.0), Modulation::Qpsk);
        // Inside the band: keep the current modulation.
        assert_eq!(p.decide(Modulation::Qpsk, 12.5), Modulation::Qpsk);
        assert_eq!(p.decide(Modulation::Qam16, 12.5), Modulation::Qam16);
        // Above both: settle on QAM-16.
        assert_eq!(p.decide(Modulation::Qpsk, 15.0), Modulation::Qam16);
        assert_eq!(p.decide(Modulation::Qam16, 15.0), Modulation::Qam16);
    }

    #[test]
    fn hysteresis_prevents_thrash() {
        // SNR oscillating inside the band: zero switches after settling.
        let p = AdaptivePolicy::paper_default();
        let trace: Vec<f64> = (0..100)
            .map(|i| 12.5 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let seq = p.run(Modulation::Qpsk, &trace);
        assert_eq!(AdaptivePolicy::switches(&seq), 0);
        // A no-hysteresis policy (equal thresholds at 12.5) thrashes.
        let naive = AdaptivePolicy::new(12.5, 12.5);
        let seq = naive.run(Modulation::Qpsk, &trace);
        assert!(AdaptivePolicy::switches(&seq) > 90);
    }

    #[test]
    fn sinusoidal_fade_produces_periodic_switches() {
        let p = AdaptivePolicy::paper_default();
        let trace = SnrTrace::sinusoidal(6.0, 20.0, 50, 500);
        let seq = p.run(Modulation::Qpsk, &trace);
        let switches = AdaptivePolicy::switches(&seq);
        // Two switches per period, 10 periods.
        assert!((15..=25).contains(&switches), "switches {switches}");
    }

    #[test]
    fn constant_trace_never_switches_after_settling() {
        let p = AdaptivePolicy::paper_default();
        let seq = p.run(Modulation::Qpsk, &SnrTrace::constant(20.0, 50));
        // First decision switches up, then stays.
        assert_eq!(AdaptivePolicy::switches(&seq), 0);
        assert!(seq.iter().all(|&m| m == Modulation::Qam16));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_band_panics() {
        let _ = AdaptivePolicy::new(10.0, 14.0);
    }
}
