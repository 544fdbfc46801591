//! The indexed [`RtrEngine`] is observationally identical to the
//! reference [`ConfigurationManager`]: same `RequestTiming` sequences,
//! same `ManagerStats`, same errors, same exclusion refusals — on the
//! gallery flows and on randomized request traces under every prefetch
//! policy the reference implements.
//!
//! The engine hoists the reference's per-request work (name lookups,
//! bitstream CRC validation, policy boxing) to construction time; these
//! suites pin down that the *observable* semantics did not move.

use proptest::prelude::*;

use parking_lot::Mutex;
use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion, TimePs};
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, ExclusionLedger, MemoryModel,
    PrefetchSpec, ProtocolBuilder, RegionSpec, RtrEngine, RtrEngineBuilder, RtrError,
};
use std::sync::Arc;

/// Module names of the randomized single-region rig.
const MODULES: [&str; 4] = ["m_alpha", "m_beta", "m_gamma", "m_delta"];

/// The randomized rig's bitstreams: four distinct partial streams for
/// one XC2V2000 region.
fn rig_bitstreams() -> Vec<(String, Bitstream)> {
    let d = Device::xc2v2000();
    let r = ReconfigRegion::new("dyn", 20, 4).unwrap();
    MODULES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            (
                name.to_string(),
                Bitstream::partial_for_region(&d, &r, i as u64 + 1),
            )
        })
        .collect()
}

/// Reference manager over the rig with the policy [`rig_policy`] numbers.
fn rig_reference(cache_modules: usize, policy: u8, loads: &[String]) -> ConfigurationManager {
    let mut store = BitstreamStore::new();
    let mut bytes = 0usize;
    for (name, bs) in rig_bitstreams() {
        bytes = bytes.max(bs.len_bytes());
        store.insert(name, bs);
    }
    let cache = BitstreamCache::sized_for(cache_modules, bytes);
    let builder = ProtocolBuilder::new(Device::xc2v2000(), PortProfile::icap_virtex2());
    ConfigurationManager::new(builder, store, cache, MemoryModel::paper_flash(), "dyn")
        .with_prefetch(rig_policy(policy, loads))
}

/// The prefetch policy numbered `policy` (0 = none, 1 = schedule over
/// `loads`, 2 = last-value, 3 = markov).
fn rig_policy(policy: u8, loads: &[String]) -> PrefetchSpec {
    match policy {
        0 => PrefetchSpec::None,
        1 => PrefetchSpec::Schedule(loads.to_vec()),
        2 => PrefetchSpec::LastValue,
        _ => PrefetchSpec::Markov,
    }
}

/// Engine over the same rig with the same policy.
fn rig_engine(cache_modules: usize, policy: u8, loads: &[String]) -> RtrEngine {
    let streams = rig_bitstreams();
    let bytes = streams.iter().map(|(_, bs)| bs.len_bytes()).max().unwrap();
    let mut spec =
        RegionSpec::new("dyn", cache_modules * bytes).prefetch(rig_policy(policy, loads));
    for (name, bs) in streams {
        spec = spec.module(name, bs);
    }
    RtrEngineBuilder::new(
        Device::xc2v2000(),
        PortProfile::icap_virtex2(),
        MemoryModel::paper_flash(),
    )
    .region(spec)
    .build()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random request traces — including repeats, unknown-module
    /// requests and a random preload — produce identical timing
    /// sequences, identical errors and identical statistics on both
    /// sides, under every prefetch policy and cache depth, for any
    /// inter-request slack (less or more than the fetch time, so
    /// partially completed prefetches are exercised too).
    #[test]
    fn random_traces_are_observationally_identical(
        trace in prop::collection::vec(0u8..5, 1..60),
        cache_modules in 1usize..4,
        policy in 0u8..4,
        preload in any::<bool>(),
        slack_us in 0u64..6_000,
    ) {
        // The offline schedule both schedule-driven predictors replay:
        // the actual load sequence (consecutive repeats collapsed,
        // unknown requests dropped — they never load).
        let mut loads: Vec<String> = Vec::new();
        for &m in trace.iter().filter(|&&m| (m as usize) < MODULES.len()) {
            let name = MODULES[m as usize].to_string();
            if loads.last() != Some(&name) {
                loads.push(name);
            }
        }
        let mut mgr = rig_reference(cache_modules, policy, &loads);
        let mut eng = rig_engine(cache_modules, policy, &loads);
        if preload {
            mgr.preload(MODULES[0]).unwrap();
            let id = eng.module_index(MODULES[0]).unwrap();
            eng.preload(0, id).unwrap();
        }

        let slack = TimePs::from_us(slack_us);
        let mut now = TimePs::ZERO;
        for &m in &trace {
            let name = if (m as usize) < MODULES.len() { MODULES[m as usize] } else { "ghost" };
            let r = mgr.request_at(name, now);
            let e = eng.request_in(0, name, now);
            match (r, e) {
                (Ok(rt), Ok(et)) => {
                    prop_assert_eq!(rt, et, "timing diverged on `{}`", name);
                    now = rt.ready_at + slack;
                }
                (Err(re), Err(ee)) => {
                    prop_assert_eq!(re.to_string(), ee.to_string());
                }
                (r, e) => prop_assert!(false, "outcome diverged on `{}`: {:?} vs {:?}", name, r, e),
            }
        }
        prop_assert_eq!(mgr.stats(), eng.stats(0));
        prop_assert_eq!(mgr.loaded(), eng.loaded(0));
    }
}

/// Every gallery flow, deployed under every parity option set, produces
/// byte-identical `SimReport`s from reference managers and the engine.
#[test]
fn gallery_reports_are_identical_under_every_option_set() {
    let cases = pdr_bench::rtr_study::run_parity(16).expect("gallery flows deploy");
    assert!(!cases.is_empty());
    for c in &cases {
        assert!(c.reports_match, "{}/{} diverged", c.flow, c.options);
    }
}

/// Cross-region exclusions: the engine's dense bitset scan refuses the
/// same loads, with the same error, the same refusal count and the same
/// recovery behavior as the reference managers sharing an
/// [`ExclusionLedger`].
#[test]
fn exclusion_refusals_match_the_shared_ledger() {
    let d = Device::xc2v2000();
    let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
    let r2 = ReconfigRegion::new("r2", 10, 4).unwrap();
    let a1 = Bitstream::partial_for_region(&d, &r1, 1);
    let a2 = Bitstream::partial_for_region(&d, &r1, 2);
    let b1 = Bitstream::partial_for_region(&d, &r2, 3);
    let b2 = Bitstream::partial_for_region(&d, &r2, 4);
    let bytes = a1.len_bytes().max(b1.len_bytes());

    // Reference: one manager per region, shared ledger, a1 <-> b1
    // exclusive.
    let ledger = Arc::new(Mutex::new({
        let mut l = ExclusionLedger::new();
        l.exclude("a1", "b1");
        l
    }));
    let manager = |region: &str, streams: [(&str, &Bitstream); 2]| {
        let mut store = BitstreamStore::new();
        for (name, bs) in streams {
            store.insert(name, bs.clone());
        }
        ConfigurationManager::new(
            ProtocolBuilder::new(d.clone(), PortProfile::icap_virtex2()),
            store,
            BitstreamCache::sized_for(1, bytes),
            MemoryModel::paper_flash(),
            region,
        )
        .with_exclusions(ledger.clone())
    };
    let mut m1 = manager("r1", [("a1", &a1), ("a2", &a2)]);
    let mut m2 = manager("r2", [("b1", &b1), ("b2", &b2)]);

    // Engine: both regions in one structure.
    let mut eng = RtrEngineBuilder::new(
        d.clone(),
        PortProfile::icap_virtex2(),
        MemoryModel::paper_flash(),
    )
    .region(
        RegionSpec::new("r1", bytes)
            .module("a1", a1)
            .module("a2", a2),
    )
    .region(
        RegionSpec::new("r2", bytes)
            .module("b1", b1)
            .module("b2", b2),
    )
    .exclude("a1", "b1")
    .build()
    .unwrap();

    // (region, module) steps: load a1, refuse b1, load b2, swap r1 to
    // a2 (frees a1), then b1 succeeds, then a1 is refused.
    let steps: [(u32, &str); 6] = [
        (0, "a1"),
        (1, "b1"),
        (1, "b2"),
        (0, "a2"),
        (1, "b1"),
        (0, "a1"),
    ];
    let mut now = TimePs::ZERO;
    for (region, module) in steps {
        let r = if region == 0 {
            m1.request_at(module, now)
        } else {
            m2.request_at(module, now)
        };
        let e = eng.request_in(region, module, now);
        match (r, e) {
            (Ok(rt), Ok(et)) => {
                assert_eq!(rt, et, "timing diverged on {region}/{module}");
                now = rt.ready_at + TimePs::from_ms(20);
            }
            (Err(re), Err(ee)) => {
                assert!(
                    matches!(re, RtrError::ExclusionViolation { .. }),
                    "unexpected reference error {re}"
                );
                assert_eq!(re.to_string(), ee.to_string());
            }
            (r, e) => panic!("outcome diverged on {region}/{module}: {r:?} vs {e:?}"),
        }
    }
    assert_eq!(ledger.lock().refusals(), 2);
    assert_eq!(eng.refusals(), 2);
    assert_eq!(m1.stats(), eng.stats(0));
    assert_eq!(m2.stats(), eng.stats(1));
}

/// `preload` marks a module resident without registering it in the
/// exclusion ledger — on both sides — so a preloaded module never blocks
/// a conflicting load (the power-up state predates any runtime request).
#[test]
fn preload_is_invisible_to_exclusions_on_both_sides() {
    let d = Device::xc2v2000();
    let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
    let r2 = ReconfigRegion::new("r2", 10, 4).unwrap();
    let a1 = Bitstream::partial_for_region(&d, &r1, 1);
    let b1 = Bitstream::partial_for_region(&d, &r2, 2);
    let bytes = a1.len_bytes().max(b1.len_bytes());

    let ledger = Arc::new(Mutex::new({
        let mut l = ExclusionLedger::new();
        l.exclude("a1", "b1");
        l
    }));
    let mut store = BitstreamStore::new();
    store.insert("a1", a1.clone());
    let mut m1 = ConfigurationManager::new(
        ProtocolBuilder::new(d.clone(), PortProfile::icap_virtex2()),
        store,
        BitstreamCache::sized_for(1, bytes),
        MemoryModel::paper_flash(),
        "r1",
    )
    .with_exclusions(ledger.clone());
    let mut store = BitstreamStore::new();
    store.insert("b1", b1.clone());
    let mut m2 = ConfigurationManager::new(
        ProtocolBuilder::new(d.clone(), PortProfile::icap_virtex2()),
        store,
        BitstreamCache::sized_for(1, bytes),
        MemoryModel::paper_flash(),
        "r2",
    )
    .with_exclusions(ledger);

    let mut eng = RtrEngineBuilder::new(d, PortProfile::icap_virtex2(), MemoryModel::paper_flash())
        .region(RegionSpec::new("r1", bytes).module("a1", a1))
        .region(RegionSpec::new("r2", bytes).module("b1", b1))
        .exclude("a1", "b1")
        .build()
        .unwrap();

    m1.preload("a1").unwrap();
    eng.preload(0, eng.module_index("a1").unwrap()).unwrap();
    assert_eq!(m1.loaded(), Some("a1"));
    assert_eq!(eng.loaded(0), Some("a1"));

    // The conflicting b1 load succeeds on both sides: the preloaded a1
    // was never registered.
    let r = m2.request_at("b1", TimePs::ZERO).unwrap();
    let e = eng.request_in(1, "b1", TimePs::ZERO).unwrap();
    assert_eq!(r, e);
    assert_eq!(eng.refusals(), 0);
}
