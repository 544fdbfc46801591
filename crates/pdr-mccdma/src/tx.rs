//! The end-to-end MC-CDMA transmitter / receiver pair (Fig. 4).
//!
//! Per OFDM symbol the chain is exactly the paper's block list:
//! `interface → FEC → modulation (QPSK | QAM-16) → spreading →
//! chip mapping → IFFT → guard interval → framing`, and the receiver runs
//! it backwards. Modulation is chosen *per OFDM symbol* (the `Select`
//! conditional entry); a frame may therefore mix modulations, which is how
//! the adaptive experiments exercise the dynamic block.

use crate::complex::Cplx;
use crate::fec::{ConvEncoder, ViterbiDecoder, K};
use crate::modulation::Modulation;
use crate::ofdm::OfdmModem;
use crate::spreading::WalshHadamard;
use serde::Serialize;

/// Transmitter configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TxConfig {
    /// OFDM subcarriers (power of two).
    pub subcarriers: usize,
    /// Cyclic-prefix length in samples.
    pub cp_len: usize,
    /// Walsh–Hadamard spreading factor (divides `subcarriers`).
    pub spread_factor: usize,
    /// The user's code index.
    pub user: usize,
    /// Apply the rate-1/2 convolutional code.
    pub use_fec: bool,
}

impl TxConfig {
    /// The paper's configuration: 64 carriers, CP 16, SF 32, FEC on.
    pub fn paper() -> Self {
        TxConfig {
            subcarriers: 64,
            cp_len: 16,
            spread_factor: 32,
            user: 1,
            use_fec: true,
        }
    }

    /// Data symbols carried per OFDM symbol.
    pub fn data_symbols_per_ofdm(&self) -> usize {
        self.subcarriers / self.spread_factor
    }

    fn validate(&self) {
        assert!(
            self.subcarriers.is_multiple_of(self.spread_factor),
            "spreading factor must divide the subcarrier count"
        );
        assert!(self.user < self.spread_factor, "user exceeds code book");
    }
}

/// The transmitter.
#[derive(Debug, Clone)]
pub struct McCdmaTransmitter {
    cfg: TxConfig,
    wh: WalshHadamard,
    ofdm: OfdmModem,
}

impl McCdmaTransmitter {
    /// Build a transmitter.
    pub fn new(cfg: TxConfig) -> Self {
        cfg.validate();
        McCdmaTransmitter {
            cfg,
            wh: WalshHadamard::new(cfg.spread_factor),
            ofdm: OfdmModem::new(cfg.subcarriers, cfg.cp_len),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TxConfig {
        &self.cfg
    }

    /// Coded bits a frame of the given per-symbol modulations carries.
    pub fn coded_bits_for(&self, mods: &[Modulation]) -> usize {
        mods.iter()
            .map(|m| self.cfg.data_symbols_per_ofdm() * m.bits_per_symbol())
            .sum()
    }

    /// Information bits a frame of the given modulations carries (after
    /// FEC overhead and tail).
    ///
    /// # Panics
    /// Panics when the frame is too short to hold the FEC tail.
    pub fn info_bits_for(&self, mods: &[Modulation]) -> usize {
        let coded = self.coded_bits_for(mods);
        if self.cfg.use_fec {
            assert!(
                coded.is_multiple_of(2),
                "coded capacity must be even under FEC"
            );
            let info_plus_tail = coded / 2;
            assert!(
                info_plus_tail > K - 1,
                "frame too short for the FEC tail ({info_plus_tail} <= {})",
                K - 1
            );
            info_plus_tail - (K - 1)
        } else {
            coded
        }
    }

    /// Transmit a frame: `info` bits with one modulation per OFDM symbol.
    /// Returns the framed time-domain samples.
    ///
    /// # Panics
    /// Panics when `info.len() != self.info_bits_for(mods)`.
    pub fn transmit(&self, info: &[u8], mods: &[Modulation]) -> Vec<Cplx> {
        assert_eq!(
            info.len(),
            self.info_bits_for(mods),
            "info bit count must match the frame capacity"
        );
        let coded: Vec<u8> = if self.cfg.use_fec {
            ConvEncoder::encode_terminated(info)
        } else {
            info.to_vec()
        };
        let mut out = Vec::with_capacity(mods.len() * (self.cfg.subcarriers + self.cfg.cp_len));
        // Scratch buffers reused across the whole frame: the per-symbol
        // loop is allocation-free after the first OFDM symbol.
        let mut symbols = Vec::with_capacity(self.cfg.data_symbols_per_ofdm());
        let mut chips = Vec::with_capacity(self.cfg.subcarriers);
        let mut fft_scratch = vec![Cplx::ZERO; self.cfg.subcarriers];
        let mut cursor = 0usize;
        for &m in mods {
            let bits_this_symbol = self.cfg.data_symbols_per_ofdm() * m.bits_per_symbol();
            let chunk = &coded[cursor..cursor + bits_this_symbol];
            cursor += bits_this_symbol;
            // modulation
            symbols.clear();
            m.modulate_into(chunk, &mut symbols);
            // spreading + chip mapping
            chips.clear();
            self.wh.spread_into(self.cfg.user, &symbols, &mut chips);
            debug_assert_eq!(chips.len(), self.cfg.subcarriers);
            // OFDM (IFFT) + guard interval (framing = concatenation)
            self.ofdm
                .modulate_symbol_into(&chips, &mut fft_scratch, &mut out);
        }
        debug_assert_eq!(cursor, coded.len());
        out
    }
}

/// The matching receiver (demodulation + despreading + Viterbi).
#[derive(Debug, Clone)]
pub struct McCdmaReceiver {
    cfg: TxConfig,
    wh: WalshHadamard,
    ofdm: OfdmModem,
}

impl McCdmaReceiver {
    /// Build a receiver for the same configuration as the transmitter.
    pub fn new(cfg: TxConfig) -> Self {
        cfg.validate();
        McCdmaReceiver {
            cfg,
            wh: WalshHadamard::new(cfg.spread_factor),
            ofdm: OfdmModem::new(cfg.subcarriers, cfg.cp_len),
        }
    }

    /// Recover the information bits of a frame.
    ///
    /// # Panics
    /// Panics when the sample count does not match `mods`.
    pub fn receive(&self, samples: &[Cplx], mods: &[Modulation]) -> Vec<u8> {
        let sym_len = self.cfg.subcarriers + self.cfg.cp_len;
        assert_eq!(
            samples.len(),
            mods.len() * sym_len,
            "sample count must match the modulation sequence"
        );
        let mut coded = Vec::with_capacity(
            mods.iter()
                .map(|m| self.cfg.data_symbols_per_ofdm() * m.bits_per_symbol())
                .sum(),
        );
        // Per-symbol scratch reused across the frame (see `transmit`).
        let mut chips = vec![Cplx::ZERO; self.cfg.subcarriers];
        let mut symbols = Vec::with_capacity(self.cfg.data_symbols_per_ofdm());
        for (i, &m) in mods.iter().enumerate() {
            let sym = &samples[i * sym_len..(i + 1) * sym_len];
            self.ofdm.demodulate_symbol_into(sym, &mut chips);
            symbols.clear();
            self.wh.despread_into(self.cfg.user, &chips, &mut symbols);
            m.demodulate_into(&symbols, &mut coded);
        }
        if self.cfg.use_fec {
            ViterbiDecoder::decode(&coded)
        } else {
            coded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::BerCounter;
    use crate::bits::Prbs;
    use crate::channel::AwgnChannel;

    fn run_frame(
        cfg: TxConfig,
        mods: &[Modulation],
        es_n0_db: Option<f64>,
        seed: u64,
    ) -> (Vec<u8>, Vec<u8>) {
        let tx = McCdmaTransmitter::new(cfg);
        let rx = McCdmaReceiver::new(cfg);
        let mut prbs = Prbs::new(seed as u32);
        let info = prbs.take_bits(tx.info_bits_for(mods));
        let mut samples = tx.transmit(&info, mods);
        if let Some(db) = es_n0_db {
            samples = AwgnChannel::new(db, seed).transmit(&samples);
        }
        let decoded = rx.receive(&samples, mods);
        (info, decoded)
    }

    #[test]
    fn noiseless_roundtrip_qpsk() {
        let mods = vec![Modulation::Qpsk; 8];
        let (info, decoded) = run_frame(TxConfig::paper(), &mods, None, 1);
        assert_eq!(info, decoded);
    }

    #[test]
    fn noiseless_roundtrip_qam16() {
        let mods = vec![Modulation::Qam16; 8];
        let (info, decoded) = run_frame(TxConfig::paper(), &mods, None, 2);
        assert_eq!(info, decoded);
    }

    #[test]
    fn noiseless_roundtrip_mixed_modulations() {
        // The adaptive case: modulation changes mid-frame.
        let mods = vec![
            Modulation::Qpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam16,
            Modulation::Qpsk,
            Modulation::Qam16,
        ];
        let (info, decoded) = run_frame(TxConfig::paper(), &mods, None, 3);
        assert_eq!(info, decoded);
    }

    #[test]
    fn noiseless_roundtrip_without_fec() {
        let cfg = TxConfig {
            use_fec: false,
            ..TxConfig::paper()
        };
        let mods = vec![Modulation::Qam16; 4];
        let (info, decoded) = run_frame(cfg, &mods, None, 4);
        assert_eq!(info, decoded);
    }

    #[test]
    fn qam16_carries_twice_the_bits() {
        let tx = McCdmaTransmitter::new(TxConfig::paper());
        let qpsk = tx.coded_bits_for(&[Modulation::Qpsk; 10]);
        let qam = tx.coded_bits_for(&[Modulation::Qam16; 10]);
        assert_eq!(qam, 2 * qpsk);
        // Paper config: 2 data symbols per OFDM symbol.
        assert_eq!(tx.config().data_symbols_per_ofdm(), 2);
        assert_eq!(qpsk, 10 * 2 * 2);
    }

    #[test]
    fn fec_corrects_channel_errors() {
        // Note the ~15 dB processing gain of SF = 32 despreading: the
        // per-sample Es/N0 must sit well below 0 dB to stress the decoder.
        let mods = vec![Modulation::Qpsk; 50];
        let noisy_db = -9.0; // ≈ 6 dB post-despreading symbol SNR
        let coded_cfg = TxConfig::paper();
        let uncoded_cfg = TxConfig {
            use_fec: false,
            ..coded_cfg
        };
        let mut ber_c = BerCounter::new();
        let mut ber_u = BerCounter::new();
        for seed in 0..10 {
            let (i, d) = run_frame(coded_cfg, &mods, Some(noisy_db), 300 + seed);
            ber_c.push_block(&i, &d);
            let (i, d) = run_frame(uncoded_cfg, &mods, Some(noisy_db), 300 + seed);
            ber_u.push_block(&i, &d);
        }
        assert!(
            ber_u.ber() > 1e-3,
            "uncoded link must see errors: {}",
            ber_u.ber()
        );
        assert!(
            ber_c.ber() < ber_u.ber() / 2.0,
            "coded {} !< uncoded {}",
            ber_c.ber(),
            ber_u.ber()
        );
    }

    #[test]
    fn qpsk_more_robust_than_qam16_at_equal_esn0() {
        // The premise of adaptive modulation: at a noisy operating point
        // QPSK survives where QAM-16 breaks. Uncoded, same Es/N0.
        let cfg = TxConfig {
            use_fec: false,
            ..TxConfig::paper()
        };
        let db = -5.0; // ≈ 10 dB post-despreading symbol SNR
        let mut ber_qpsk = BerCounter::new();
        let mut ber_qam = BerCounter::new();
        for seed in 0..40 {
            let (i, d) = run_frame(cfg, &[Modulation::Qpsk; 20], Some(db), 100 + seed);
            ber_qpsk.push_block(&i, &d);
            let (i, d) = run_frame(cfg, &[Modulation::Qam16; 20], Some(db), 200 + seed);
            ber_qam.push_block(&i, &d);
        }
        assert!(
            ber_qpsk.ber() < ber_qam.ber() / 2.0,
            "qpsk {} vs qam16 {}",
            ber_qpsk.ber(),
            ber_qam.ber()
        );
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn wrong_info_length_panics() {
        let tx = McCdmaTransmitter::new(TxConfig::paper());
        let mods = vec![Modulation::Qpsk; 4];
        let _ = tx.transmit(&[0, 1, 0], &mods);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn frame_too_short_for_tail_panics() {
        let tx = McCdmaTransmitter::new(TxConfig::paper());
        // One QPSK OFDM symbol: 4 coded bits → 2 info+tail < 7.
        let _ = tx.info_bits_for(&[Modulation::Qpsk]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_spreading_factor_panics() {
        let cfg = TxConfig {
            spread_factor: 48,
            ..TxConfig::paper()
        };
        let _ = McCdmaTransmitter::new(cfg);
    }

    #[test]
    fn sample_counts_match_framing() {
        let tx = McCdmaTransmitter::new(TxConfig::paper());
        let mods = vec![Modulation::Qpsk; 5];
        let mut prbs = Prbs::new(5);
        let info = prbs.take_bits(tx.info_bits_for(&mods));
        let samples = tx.transmit(&info, &mods);
        assert_eq!(samples.len(), 5 * 80);
    }
}
