//! OFDM modulation: subcarrier mapping, IFFT, cyclic prefix.
//!
//! Fig. 4's `OFDM mod` + `guard interval` blocks: chips are mapped onto the
//! subcarriers of a 64-point IFFT and a cyclic prefix of a quarter symbol
//! is prepended (the guard interval against multipath).

use crate::complex::Cplx;
use crate::fft::{fft, ifft};

/// An OFDM modulator/demodulator for a fixed subcarrier count.
#[derive(Debug, Clone)]
pub struct OfdmModem {
    subcarriers: usize,
    cp_len: usize,
}

impl OfdmModem {
    /// Modem with `subcarriers` carriers (power of two) and a cyclic prefix
    /// of `cp_len` samples.
    pub fn new(subcarriers: usize, cp_len: usize) -> Self {
        assert!(
            subcarriers.is_power_of_two(),
            "subcarrier count must be a power of two"
        );
        assert!(cp_len < subcarriers, "CP must be shorter than the symbol");
        OfdmModem {
            subcarriers,
            cp_len,
        }
    }

    /// The paper's configuration: 64 carriers, 16-sample guard interval.
    pub fn paper_64() -> Self {
        OfdmModem::new(64, 16)
    }

    /// Subcarrier count.
    pub fn subcarriers(&self) -> usize {
        self.subcarriers
    }

    /// Cyclic-prefix length.
    pub fn cp_len(&self) -> usize {
        self.cp_len
    }

    /// Time-domain samples per OFDM symbol (incl. CP).
    pub fn symbol_len(&self) -> usize {
        self.subcarriers + self.cp_len
    }

    /// Modulate one OFDM symbol: `chips` (one per subcarrier) → time-domain
    /// samples with cyclic prefix. The IFFT runs in `scratch` (length
    /// `subcarriers`) and the CP + body are appended to `out`.
    pub fn modulate_symbol_into(&self, chips: &[Cplx], scratch: &mut [Cplx], out: &mut Vec<Cplx>) {
        assert_eq!(
            chips.len(),
            self.subcarriers,
            "need one chip per subcarrier"
        );
        assert_eq!(scratch.len(), self.subcarriers, "scratch sized to the FFT");
        scratch.copy_from_slice(chips);
        ifft(scratch);
        out.reserve(self.symbol_len());
        out.extend_from_slice(&scratch[self.subcarriers - self.cp_len..]);
        out.extend_from_slice(scratch);
    }

    /// Demodulate one OFDM symbol: strip CP, FFT back to subcarriers, into
    /// a caller-owned buffer of length `subcarriers` (the FFT runs in place
    /// there).
    pub fn demodulate_symbol_into(&self, samples: &[Cplx], out: &mut [Cplx]) {
        assert_eq!(samples.len(), self.symbol_len(), "one full symbol");
        assert_eq!(out.len(), self.subcarriers, "buffer sized to the FFT");
        out.copy_from_slice(&samples[self.cp_len..]);
        fft(out);
    }

    /// Modulate a chip stream (length a multiple of the carrier count).
    pub fn modulate(&self, chips: &[Cplx]) -> Vec<Cplx> {
        assert!(chips.len().is_multiple_of(self.subcarriers));
        let symbols = chips.len() / self.subcarriers;
        let mut scratch = vec![Cplx::ZERO; self.subcarriers];
        let mut out = Vec::with_capacity(symbols * self.symbol_len());
        for sym in chips.chunks_exact(self.subcarriers) {
            self.modulate_symbol_into(sym, &mut scratch, &mut out);
        }
        out
    }

    /// Demodulate a sample stream (length a multiple of the symbol length).
    pub fn demodulate(&self, samples: &[Cplx]) -> Vec<Cplx> {
        assert!(samples.len().is_multiple_of(self.symbol_len()));
        let symbols = samples.len() / self.symbol_len();
        let mut out = vec![Cplx::ZERO; symbols * self.subcarriers];
        for (sym, dst) in samples
            .chunks_exact(self.symbol_len())
            .zip(out.chunks_exact_mut(self.subcarriers))
        {
            self.demodulate_symbol_into(sym, dst);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chips(n: usize) -> Vec<Cplx> {
        (0..n)
            .map(|i| Cplx::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect()
    }

    fn modulate_symbol(m: &OfdmModem, chips: &[Cplx]) -> Vec<Cplx> {
        let mut scratch = vec![Cplx::ZERO; m.subcarriers()];
        let mut out = Vec::new();
        m.modulate_symbol_into(chips, &mut scratch, &mut out);
        out
    }

    #[test]
    fn paper_modem_geometry() {
        let m = OfdmModem::paper_64();
        assert_eq!(m.subcarriers(), 64);
        assert_eq!(m.cp_len(), 16);
        assert_eq!(m.symbol_len(), 80);
    }

    #[test]
    fn roundtrip_is_identity() {
        let m = OfdmModem::paper_64();
        let c = chips(64);
        let samples = modulate_symbol(&m, &c);
        assert_eq!(samples.len(), 80);
        let mut back = vec![Cplx::ZERO; 64];
        m.demodulate_symbol_into(&samples, &mut back);
        for (a, b) in c.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let m = OfdmModem::paper_64();
        let samples = modulate_symbol(&m, &chips(64));
        for i in 0..16 {
            assert!((samples[i] - samples[64 + i]).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_roundtrip_multiple_symbols() {
        let m = OfdmModem::new(32, 8);
        let c = chips(32 * 5);
        let samples = m.modulate(&c);
        assert_eq!(samples.len(), 40 * 5);
        let back = m.demodulate(&samples);
        for (a, b) in c.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn cp_makes_symbol_robust_to_cyclic_shift() {
        // The point of the guard interval: a delay within the CP keeps the
        // FFT window inside one symbol (up to a per-carrier phase rotation;
        // magnitudes are preserved).
        let m = OfdmModem::paper_64();
        let c = chips(64);
        let samples = modulate_symbol(&m, &c);
        let delayed: Vec<Cplx> = samples[..80].to_vec();
        // Take the window shifted 3 samples early (still inside the CP).
        let mut window = Vec::with_capacity(80);
        window.extend_from_slice(&delayed[0..80]);
        let shifted: Vec<Cplx> = window[13..13 + 64].to_vec();
        let mut spec = shifted;
        crate::fft::fft(&mut spec);
        for (a, b) in c.iter().zip(&spec) {
            assert!((a.abs() - b.abs()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_subcarriers_panics() {
        let _ = OfdmModem::new(48, 8);
    }

    #[test]
    #[should_panic(expected = "shorter")]
    fn oversized_cp_panics() {
        let _ = OfdmModem::new(64, 64);
    }
}
