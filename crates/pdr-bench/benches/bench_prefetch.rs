//! Criterion bench behind the prefetching study: manager request service.
use criterion::{criterion_group, criterion_main, Criterion};
use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion, TimePs};
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, MemoryModel, PrefetchSpec,
    ProtocolBuilder,
};
use std::hint::black_box;

fn manager(prefetch: PrefetchSpec) -> ConfigurationManager {
    let d = Device::xc2v2000();
    let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let mut store = BitstreamStore::new();
    let a = Bitstream::partial_for_region(&d, &r, 1);
    let bytes = a.len_bytes();
    store.insert("a", a);
    store.insert("b", Bitstream::partial_for_region(&d, &r, 2));
    ConfigurationManager::new(
        ProtocolBuilder::new(d, PortProfile::icap_virtex2()),
        store,
        BitstreamCache::sized_for(2, bytes),
        MemoryModel::paper_flash(),
        "op_dyn",
    )
    .with_prefetch(prefetch)
}

fn bench_manager(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetch");
    for (name, pf) in [
        ("manager_no_prefetch", PrefetchSpec::None),
        ("manager_markov", PrefetchSpec::Markov),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = manager(pf.clone());
                let mut t = TimePs::ZERO;
                for i in 0..64u64 {
                    let module = if (i / 4) % 2 == 0 { "a" } else { "b" };
                    let out = m.request(black_box(module), t).expect("request ok");
                    t = out.ready_at + TimePs::from_ms(1);
                }
                black_box(m.stats())
            })
        });
    }
    g.bench_function("full_study_small", |b| {
        b.iter(|| black_box(pdr_bench::prefetch::run(&[8], 8).expect("study runs")))
    });
    g.finish();
}

criterion_group!(benches, bench_manager);
criterion_main!(benches);
