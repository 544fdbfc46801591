//! AWGN channel with exact Es/N0 accounting.

use crate::complex::Cplx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded additive-white-Gaussian-noise channel.
///
/// Noise is complex Gaussian with total variance `N0` per sample, where
/// `N0 = Es / (Es/N0)` and `Es` is measured from the actual signal (so the
/// constellation normalization cannot silently skew results).
#[derive(Debug)]
pub struct AwgnChannel {
    rng: StdRng,
    es_n0_db: f64,
}

impl AwgnChannel {
    /// Channel at the given Es/N0 (dB), with a deterministic seed.
    pub fn new(es_n0_db: f64, seed: u64) -> Self {
        AwgnChannel {
            rng: StdRng::seed_from_u64(seed),
            es_n0_db,
        }
    }

    /// The configured Es/N0 in dB.
    pub fn es_n0_db(&self) -> f64 {
        self.es_n0_db
    }

    /// A standard-normal sample (Box–Muller; two uniforms per call pair).
    fn gauss(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.random::<f64>();
            let u2: f64 = self.rng.random::<f64>();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Pass samples through the channel: measures Es from the input and
    /// adds complex Gaussian noise at the configured Es/N0.
    pub fn transmit(&mut self, samples: &[Cplx]) -> Vec<Cplx> {
        if samples.is_empty() {
            return Vec::new();
        }
        let es: f64 = samples.iter().map(|s| s.norm_sq()).sum::<f64>() / samples.len() as f64;
        let n0 = es / 10f64.powf(self.es_n0_db / 10.0);
        let sigma = (n0 / 2.0).sqrt(); // per real dimension
        samples
            .iter()
            .map(|&s| s + Cplx::new(self.gauss() * sigma, self.gauss() * sigma))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_power_matches_configuration() {
        let signal = vec![Cplx::ONE; 200_000];
        let mut ch = AwgnChannel::new(10.0, 42);
        let out = ch.transmit(&signal);
        let noise_power: f64 = out
            .iter()
            .zip(&signal)
            .map(|(y, x)| (*y - *x).norm_sq())
            .sum::<f64>()
            / signal.len() as f64;
        // Es = 1, Es/N0 = 10 dB -> N0 = 0.1.
        assert!((noise_power - 0.1).abs() < 0.005, "noise {noise_power}");
    }

    #[test]
    fn deterministic_per_seed() {
        let signal = vec![Cplx::new(0.5, -0.5); 64];
        let a = AwgnChannel::new(5.0, 7).transmit(&signal);
        let b = AwgnChannel::new(5.0, 7).transmit(&signal);
        let c = AwgnChannel::new(5.0, 8).transmit(&signal);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn high_snr_barely_perturbs() {
        let signal = vec![Cplx::ONE; 1000];
        let out = AwgnChannel::new(60.0, 1).transmit(&signal);
        for (y, x) in out.iter().zip(&signal) {
            assert!((*y - *x).abs() < 0.01);
        }
    }

    #[test]
    fn empty_input() {
        assert!(AwgnChannel::new(10.0, 1).transmit(&[]).is_empty());
    }

    #[test]
    fn gaussian_moments() {
        let mut ch = AwgnChannel::new(0.0, 3);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| ch.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
