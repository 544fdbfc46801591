//! The full adaptive MC-CDMA loop of §6: channel SNR drives the `Select`
//! entry, `Select` drives reconfiguration of the modulation block, and the
//! bit-true baseband confirms what each modulation delivers on the air.
//!
//! ```text
//! cargo run --example adaptive_transmitter
//! ```
//!
//! The example runs the *same* SNR scenario through both halves of the
//! reproduction:
//!
//! 1. the **system half** — the generated design on the simulator, with
//!    and without configuration prefetching;
//! 2. the **functional half** — the actual MC-CDMA waveform through an
//!    AWGN channel at each point of the scenario, counting bit errors.

use pdr_core::paper::PaperCaseStudy;
use pdr_core::RuntimeOptions;
use pdr_mccdma::{
    AdaptivePolicy, AwgnChannel, BerCounter, McCdmaReceiver, McCdmaTransmitter, Modulation, Prbs,
    SnrTrace, TxConfig,
};
use pdr_sim::SimConfig;

fn main() {
    let symbols = 240usize;
    // A vehicle passing through coverage: SNR swings 6..20 dB.
    let snr = SnrTrace::sinusoidal(6.0, 20.0, 60, symbols);
    let policy = AdaptivePolicy::paper_default();
    let mods = policy.run(Modulation::Qpsk, &snr);
    let switches = AdaptivePolicy::switches(&mods);
    println!(
        "scenario: {symbols} OFDM symbols, SNR 6..20 dB sinusoidal, {switches} modulation switches"
    );

    // ---- system half ---------------------------------------------------
    let study = PaperCaseStudy::build().expect("flow runs");
    let selections = policy.module_selections(&snr);
    let loads = PaperCaseStudy::load_sequence(&selections);
    println!("\n== system half (simulated hardware) ==");
    for (label, options) in [
        ("baseline ", RuntimeOptions::paper_baseline()),
        ("prefetch ", RuntimeOptions::paper_prefetch(loads)),
    ] {
        let report = study
            .deploy(options)
            .simulate(
                &SimConfig::iterations(symbols as u32).with_selection("op_dyn", selections.clone()),
            )
            .expect("simulation runs");
        println!(
            "{label}: {} reconfigurations, lock-up {}, {:.0} symbols/s",
            report.reconfig_count(),
            report.lockup_time(),
            report.throughput_per_sec()
        );
    }

    // ---- functional half -----------------------------------------------
    println!("\n== functional half (bit-true baseband) ==");
    let cfg = TxConfig::paper();
    let tx = McCdmaTransmitter::new(cfg);
    let rx = McCdmaReceiver::new(cfg);
    let gain_db = 10.0 * (cfg.spread_factor as f64).log10();
    let mut ber = BerCounter::new();
    let mut bits_sent = 0u64;
    // Transmit frame by frame (20 symbols each) with per-symbol modulation
    // from the adaptive sequence, at the per-symbol channel SNR.
    for (f, chunk) in mods.chunks(20).enumerate() {
        if chunk.len() < 20 {
            break;
        }
        let mut prbs = Prbs::new(f as u32 + 1);
        let info = prbs.take_bits(tx.info_bits_for(chunk));
        let sent = tx.transmit(&info, chunk);
        // Channel at the mean scenario SNR for this frame, minus the
        // despreading processing gain (SnrTrace values are post-despread).
        let mean_snr = snr[f * 20..f * 20 + 20].iter().sum::<f64>() / 20.0 - gain_db;
        let received = AwgnChannel::new(mean_snr, f as u64).transmit(&sent);
        let decoded = rx.receive(&received, chunk);
        ber.push_block(&info, &decoded);
        bits_sent += info.len() as u64;
    }
    println!(
        "adaptive link: {bits_sent} info bits, BER {:.2e} ({} errors)",
        ber.ber(),
        ber.errors
    );
    let qpsk_only_bits: usize = (0..symbols / 20)
        .map(|_| tx.info_bits_for(&[Modulation::Qpsk; 20]))
        .sum();
    println!(
        "throughput vs QPSK-only: {bits_sent} vs {qpsk_only_bits} info bits (+{:.0} %)",
        100.0 * (bits_sent as f64 / qpsk_only_bits as f64 - 1.0)
    );
}
