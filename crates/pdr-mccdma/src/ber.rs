//! Bit-error-rate counting and theoretical references.

/// An accumulating bit-error counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BerCounter {
    /// Bits compared.
    pub bits: u64,
    /// Bit errors observed.
    pub errors: u64,
}

impl BerCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compare a transmitted/received bit pair.
    pub fn push(&mut self, tx: u8, rx: u8) {
        self.bits += 1;
        if tx != rx {
            self.errors += 1;
        }
    }

    /// Compare two equal-length blocks.
    pub fn push_block(&mut self, tx: &[u8], rx: &[u8]) {
        assert_eq!(tx.len(), rx.len(), "block length mismatch");
        self.bits += tx.len() as u64;
        self.errors += tx.iter().zip(rx).filter(|(a, b)| a != b).count() as u64;
    }

    /// The observed BER (0 when nothing counted).
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }
}

/// The Gaussian Q-function, via the complementary error function
/// (Abramowitz–Stegun 7.1.26 rational approximation, |ε| < 1.5e-7).
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        poly
    } else {
        2.0 - poly
    }
}

/// Theoretical uncoded QPSK BER over AWGN at the given Eb/N0 (dB):
/// `Q(sqrt(2 Eb/N0))`.
pub fn qpsk_ber_theory(eb_n0_db: f64) -> f64 {
    let ebn0 = 10f64.powf(eb_n0_db / 10.0);
    q_function((2.0 * ebn0).sqrt())
}

/// Theoretical uncoded Gray-mapped QAM-16 BER over AWGN at the given
/// Eb/N0 (dB): `(3/4) Q(sqrt(4/5 Eb/N0))` (nearest-neighbor approximation).
pub fn qam16_ber_theory(eb_n0_db: f64) -> f64 {
    let ebn0 = 10f64.powf(eb_n0_db / 10.0);
    0.75 * q_function((0.8 * ebn0).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = BerCounter::new();
        c.push(0, 0);
        c.push(1, 0);
        c.push_block(&[1, 1, 0, 0], &[1, 0, 0, 1]);
        assert_eq!(c.bits, 6);
        assert_eq!(c.errors, 3);
        assert!((c.ber() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counter_is_zero() {
        assert_eq!(BerCounter::new().ber(), 0.0);
    }

    #[test]
    fn erfc_reference_values() {
        // erfc(0) = 1, erfc(1) ≈ 0.157299, erfc(2) ≈ 0.004678.
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-5);
        assert!((erfc(2.0) - 0.004_678).abs() < 1e-5);
        // Symmetry: erfc(-x) = 2 - erfc(x).
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-12);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(3.0) - 0.001_349_9).abs() < 1e-6);
    }

    #[test]
    fn qpsk_beats_qam16_at_equal_ebn0() {
        for db in [0.0, 4.0, 8.0, 12.0] {
            assert!(qpsk_ber_theory(db) < qam16_ber_theory(db), "at {db} dB");
        }
    }

    #[test]
    fn theory_decreases_with_snr() {
        let mut prev = 1.0;
        for db in [0, 2, 4, 6, 8, 10] {
            let b = qpsk_ber_theory(db as f64);
            assert!(b < prev);
            prev = b;
        }
        // Known point: QPSK at 9.6 dB ≈ 1e-5.
        let b = qpsk_ber_theory(9.6);
        assert!((5e-6..2e-5).contains(&b), "{b}");
    }
}
