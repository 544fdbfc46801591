//! Bit sources.

/// A PRBS-23 pseudo-random bit sequence generator (x²³ + x¹⁸ + 1), the
//  classic telecom test pattern; seeded, deterministic.
#[derive(Debug, Clone)]
pub struct Prbs {
    state: u32,
}

impl Prbs {
    /// Seeded generator (seed must be nonzero; it is masked to 23 bits).
    pub fn new(seed: u32) -> Self {
        let state = (seed & 0x7F_FFFF).max(1);
        Prbs { state }
    }

    /// Next bit.
    pub fn next_bit(&mut self) -> u8 {
        // Taps at bits 23 and 18 (1-indexed).
        let bit = ((self.state >> 22) ^ (self.state >> 17)) & 1;
        self.state = ((self.state << 1) | bit) & 0x7F_FFFF;
        bit as u8
    }

    /// Generate `n` bits.
    pub fn take_bits(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs_is_deterministic_and_balanced() {
        let mut a = Prbs::new(0x1234);
        let mut b = Prbs::new(0x1234);
        let xs = a.take_bits(1 << 14);
        let ys = b.take_bits(1 << 14);
        assert_eq!(xs, ys);
        // Roughly half ones.
        let ones: usize = xs.iter().map(|&b| b as usize).sum();
        let frac = ones as f64 / xs.len() as f64;
        assert!((0.45..0.55).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn prbs_seeds_differ() {
        let xs = Prbs::new(1).take_bits(256);
        let ys = Prbs::new(2).take_bits(256);
        assert_ne!(xs, ys);
    }

    #[test]
    fn prbs_zero_seed_is_fixed_up() {
        // Seed 0 would lock the LFSR at zero; constructor masks it to 1.
        let xs = Prbs::new(0).take_bits(64);
        assert!(xs.contains(&1));
    }
}
