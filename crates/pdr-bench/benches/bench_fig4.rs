//! Criterion bench behind Figure 4: simulating the deployed transmitter
//! and the bit-true baseband chain.
use criterion::{criterion_group, criterion_main, Criterion};
use pdr_core::paper::PaperCaseStudy;
use pdr_core::RuntimeOptions;
use pdr_mccdma::{McCdmaReceiver, McCdmaTransmitter, Modulation, Prbs, TxConfig};
use pdr_sim::SimConfig;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4");
    g.sample_size(10);
    let study = PaperCaseStudy::build().expect("flow runs");
    let sel: Vec<String> = (0..128u32)
        .map(|i| {
            if (i / 8) % 2 == 0 {
                "mod_qpsk".to_string()
            } else {
                "mod_qam16".to_string()
            }
        })
        .collect();
    g.bench_function("simulate_128_symbols_baseline", |b| {
        b.iter(|| {
            let dep = study.deploy(RuntimeOptions::paper_baseline());
            let cfg = SimConfig::iterations(128).with_selection("op_dyn", sel.clone());
            black_box(dep.simulate(&cfg).expect("sim runs"))
        })
    });
    let tx = McCdmaTransmitter::new(TxConfig::paper());
    let mods = vec![Modulation::Qam16; 20];
    let mut prbs = Prbs::new(3);
    let info = prbs.take_bits(tx.info_bits_for(&mods));
    g.bench_function("transmit_20_ofdm_symbols", |b| {
        b.iter(|| black_box(tx.transmit(black_box(&info), &mods)))
    });
    let rx = McCdmaReceiver::new(TxConfig::paper());
    let samples = tx.transmit(&info, &mods);
    g.bench_function("receive_20_ofdm_symbols", |b| {
        b.iter(|| black_box(rx.receive(black_box(&samples), &mods)))
    });
    g.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
