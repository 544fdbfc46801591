//! # pdr-mccdma — MC-CDMA baseband for the paper's case study
//!
//! §6 of the paper implements *"a transmitter system for future wireless
//! networks for 4G air interface ... based on MC-CDMA modulation scheme"*
//! (Lenours, Nouvel, Hélard, EURASIP JASP 2004): channel coding, adaptive
//! QPSK/QAM-16 symbol mapping (selected per OFDM symbol from the SNR),
//! Walsh–Hadamard spreading, chip mapping onto subcarriers, OFDM modulation
//! (IFFT), guard interval and framing.
//!
//! This crate is the bit-true functional model of that chain — the part the
//! paper runs on real hardware, for one user over one AWGN channel, and
//! nothing the paper does not describe. It provides both transmitter and
//! receiver plus that channel so the reproduction can *demonstrate* what the
//! paper assumes: QPSK and QAM-16 trade throughput against error rate,
//! which is exactly why the modulation block is worth reconfiguring at run
//! time.
//!
//! * [`complex`] — minimal complex arithmetic;
//! * [`bits`] — PRBS sources;
//! * [`fec`] — convolutional code (K = 7, rate 1/2) + Viterbi decoder;
//! * [`modulation`] — Gray-mapped QPSK and QAM-16 (energy-normalized);
//! * [`spreading`] — Walsh–Hadamard spreading/despreading;
//! * [`fft`] — radix-2 FFT/IFFT (the 64-point OFDM engine);
//! * [`ofdm`] — subcarrier mapping, IFFT, cyclic prefix;
//! * [`channel`] — AWGN with exact Eb/N0 accounting;
//! * [`ber`] — error counting + theoretical references;
//! * [`adaptive`] — the SNR-threshold modulation selector (the `Select`
//!   entry of Fig. 4) and SNR trace generators;
//! * [`tx`] — the end-to-end transmitter/receiver pair.
//!
//! ## Example: one adaptive frame, end to end
//!
//! ```
//! use pdr_mccdma::{McCdmaReceiver, McCdmaTransmitter, Modulation, Prbs, TxConfig};
//!
//! let cfg = TxConfig::paper();
//! let tx = McCdmaTransmitter::new(cfg);
//! let rx = McCdmaReceiver::new(cfg);
//! // Modulation changes mid-frame, as the paper's Select entry allows.
//! let mods = [Modulation::Qpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam16];
//! let info = Prbs::new(7).take_bits(tx.info_bits_for(&mods));
//! let air = tx.transmit(&info, &mods);
//! assert_eq!(rx.receive(&air, &mods), info);
//! ```

pub mod adaptive;
pub mod ber;
pub mod bits;
pub mod channel;
pub mod complex;
pub mod fec;
pub mod fft;
pub mod modulation;
pub mod ofdm;
pub mod spreading;
pub mod tx;

pub use adaptive::{AdaptivePolicy, SnrTrace};
pub use ber::BerCounter;
pub use bits::Prbs;
pub use channel::AwgnChannel;
pub use complex::Cplx;
pub use fec::{ConvEncoder, ViterbiDecoder};
pub use modulation::Modulation;
pub use ofdm::OfdmModem;
pub use spreading::WalshHadamard;
pub use tx::{McCdmaReceiver, McCdmaTransmitter, TxConfig};
