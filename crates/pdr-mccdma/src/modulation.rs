//! Gray-mapped QPSK and QAM-16 — the paper's two dynamic alternatives.
//!
//! §6: *"Block modulation performs either a QPSK or QAM-16 modulation.
//! This adaptive modulation is selected by the conditional entry Select
//! which defines the modulation of each OFDM symbol according to the
//! signal to noise ratio."*
//!
//! Both constellations are normalized to unit average symbol energy so the
//! AWGN channel's Eb/N0 accounting is exact, and both are Gray-mapped so
//! adjacent symbols differ in one bit (the standard BER-optimal labeling).

use crate::complex::Cplx;
use serde::Serialize;

/// The modulation alternatives of the conditioned `modulation` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Modulation {
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
}

impl Modulation {
    /// Bits carried per symbol.
    pub const fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
        }
    }

    /// The module (function) name used across the workspace for this
    /// alternative.
    pub const fn module_name(self) -> &'static str {
        match self {
            Modulation::Qpsk => "mod_qpsk",
            Modulation::Qam16 => "mod_qam16",
        }
    }

    /// Selector value (index into the conditioned operation's
    /// alternatives).
    pub const fn selector(self) -> usize {
        match self {
            Modulation::Qpsk => 0,
            Modulation::Qam16 => 1,
        }
    }

    /// Map a bit slice to symbols. Length must be a multiple of
    /// [`Modulation::bits_per_symbol`].
    pub fn modulate(self, bits: &[u8]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(bits.len() / self.bits_per_symbol().max(1));
        self.modulate_into(bits, &mut out);
        out
    }

    /// [`Modulation::modulate`] appending into a caller-owned buffer, so
    /// per-OFDM-symbol loops can reuse one allocation across a frame.
    pub fn modulate_into(self, bits: &[u8], out: &mut Vec<Cplx>) {
        let bps = self.bits_per_symbol();
        assert!(
            bits.len().is_multiple_of(bps),
            "{} bits is not a multiple of {bps}",
            bits.len()
        );
        out.extend(bits.chunks_exact(bps).map(|chunk| self.map_symbol(chunk)));
    }

    /// Map one symbol's bits.
    pub fn map_symbol(self, bits: &[u8]) -> Cplx {
        match self {
            Modulation::Qpsk => {
                // Gray: bit0 → I sign, bit1 → Q sign; unit energy needs
                // amplitude 1/√2 per axis.
                let a = std::f64::consts::FRAC_1_SQRT_2;
                let i = if bits[0] == 0 { a } else { -a };
                let q = if bits[1] == 0 { a } else { -a };
                Cplx::new(i, q)
            }
            Modulation::Qam16 => {
                // Gray per axis: 00→-3, 01→-1, 11→+1, 10→+3, scaled by
                // 1/√10 for unit average energy.
                let level = |b0: u8, b1: u8| -> f64 {
                    match (b0, b1) {
                        (0, 0) => -3.0,
                        (0, 1) => -1.0,
                        (1, 1) => 1.0,
                        (1, 0) => 3.0,
                        _ => unreachable!("bits are 0/1"),
                    }
                };
                let k = 1.0 / 10f64.sqrt();
                Cplx::new(level(bits[0], bits[1]) * k, level(bits[2], bits[3]) * k)
            }
        }
    }

    /// Hard-decision demap a symbol back to bits, appending into a
    /// caller-owned buffer — the allocation-free form the receiver's inner
    /// loop runs on.
    pub fn demap_into(self, s: Cplx, out: &mut Vec<u8>) {
        match self {
            Modulation::Qpsk => {
                out.push(u8::from(s.re < 0.0));
                out.push(u8::from(s.im < 0.0));
            }
            Modulation::Qam16 => {
                let k = 1.0 / 10f64.sqrt();
                let axis = |v: f64| -> (u8, u8) {
                    // Decision boundaries at -2k, 0, +2k.
                    if v < -2.0 * k {
                        (0, 0)
                    } else if v < 0.0 {
                        (0, 1)
                    } else if v < 2.0 * k {
                        (1, 1)
                    } else {
                        (1, 0)
                    }
                };
                let (b0, b1) = axis(s.re);
                let (b2, b3) = axis(s.im);
                out.push(b0);
                out.push(b1);
                out.push(b2);
                out.push(b3);
            }
        }
    }

    /// Demodulate a symbol slice to bits.
    pub fn demodulate(self, symbols: &[Cplx]) -> Vec<u8> {
        let mut out = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        self.demodulate_into(symbols, &mut out);
        out
    }

    /// [`Modulation::demodulate`] appending into a caller-owned buffer.
    pub fn demodulate_into(self, symbols: &[Cplx], out: &mut Vec<u8>) {
        for &s in symbols {
            self.demap_into(s, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpack `n` bits (MSB first) from a u64.
    fn unpack_bits(value: u64, n: usize) -> Vec<u8> {
        (0..n).rev().map(|i| ((value >> i) & 1) as u8).collect()
    }

    /// Average constellation energy over every bit pattern.
    fn avg_energy(m: Modulation) -> f64 {
        let n = 1u64 << m.bits_per_symbol();
        let sum: f64 = (0..n)
            .map(|v| m.map_symbol(&unpack_bits(v, m.bits_per_symbol())).norm_sq())
            .sum();
        sum / n as f64
    }

    #[test]
    fn both_constellations_are_unit_energy() {
        for m in [Modulation::Qpsk, Modulation::Qam16] {
            let e = avg_energy(m);
            assert!((e - 1.0).abs() < 1e-12, "{m:?} energy {e}");
        }
    }

    #[test]
    fn modulate_demodulate_roundtrip_noiseless() {
        for m in [Modulation::Qpsk, Modulation::Qam16] {
            let bps = m.bits_per_symbol();
            for v in 0..(1u64 << bps) {
                let bits = unpack_bits(v, bps);
                let sym = m.map_symbol(&bits);
                assert_eq!(m.demodulate(&[sym]), bits, "{m:?} value {v}");
            }
        }
    }

    #[test]
    fn gray_mapping_neighbors_differ_by_one_bit_qam16() {
        // Along each axis, adjacent levels differ in exactly one bit.
        let m = Modulation::Qam16;
        let levels = [(0u8, 0u8), (0, 1), (1, 1), (1, 0)]; // -3,-1,+1,+3
        for w in levels.windows(2) {
            let d = (w[0].0 ^ w[1].0) as u32 + (w[0].1 ^ w[1].1) as u32;
            assert_eq!(d, 1);
        }
        // And the mapped points are monotone along the axis.
        let xs: Vec<f64> = levels
            .iter()
            .map(|&(b0, b1)| m.map_symbol(&[b0, b1, 0, 0]).re)
            .collect();
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn stream_roundtrip() {
        let mut prbs = crate::bits::Prbs::new(7);
        for m in [Modulation::Qpsk, Modulation::Qam16] {
            let bits = prbs.take_bits(m.bits_per_symbol() * 100);
            let syms = m.modulate(&bits);
            assert_eq!(syms.len(), 100);
            assert_eq!(m.demodulate(&syms), bits);
        }
    }

    #[test]
    fn qam16_decisions_are_nearest_neighbor() {
        let m = Modulation::Qam16;
        // A point slightly off a constellation point decodes to it.
        let bits = [1u8, 0, 0, 1];
        let s = m.map_symbol(&bits);
        let noisy = s + Cplx::new(0.05, -0.05);
        assert_eq!(m.demodulate(&[noisy]), bits.to_vec());
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_bits_panic() {
        Modulation::Qam16.modulate(&[1, 0, 1]);
    }

    #[test]
    fn metadata() {
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
        assert_eq!(Modulation::Qpsk.module_name(), "mod_qpsk");
        assert_eq!(Modulation::Qam16.selector(), 1);
    }
}
