//! Runtime-manager policies: drive one region through the indexed
//! [`RtrEngine`] under different prefetch and eviction policies and
//! compare what each one hides.
//!
//! ```text
//! cargo run --example rtr_policies
//! ```
//!
//! The engine manages every dynamic region of a deployed system in one
//! dense structure — names interned at construction, bitstreams
//! validated once, policies enum-dispatched — so swapping a policy is a
//! [`RegionSpec`] field, not a different manager implementation. The
//! reference `ConfigurationManager` only does LRU + boxed predictors;
//! this example sweeps policies it cannot express (LFU, the offline
//! Belady oracle) next to the ones it can.

use pdr_core::paper::PaperCaseStudy;
use pdr_core::{EvictionChoice, RuntimeOptions};
use pdr_fabric::TimePs;
use pdr_rtr::{EvictionSpec, PrefetchSpec};
use pdr_sim::SimConfig;

fn main() {
    // 1. The §6 case study deployed through the engine: same flow, same
    //    bitstreams, but all regions served by one RtrEngine.
    let study = PaperCaseStudy::build().expect("the paper flow runs");
    let sel: Vec<String> = (0..64u32)
        .map(|i| {
            if (i / 8) % 2 == 0 {
                "mod_qpsk".to_string()
            } else {
                "mod_qam16".to_string()
            }
        })
        .collect();
    let cfg = SimConfig::iterations(64).with_selection("op_dyn", sel);

    println!("== engine-backed deployments (64 symbols, switch every 8) ==");
    let variants: Vec<(&str, RuntimeOptions)> = vec![
        ("baseline (no prefetch)", RuntimeOptions::paper_baseline()),
        (
            "markov + 2-module cache",
            RuntimeOptions {
                cache_modules: 2,
                prefetch: PrefetchSpec::Markov,
                ..RuntimeOptions::default()
            },
        ),
        (
            "markov + LFU eviction",
            RuntimeOptions {
                cache_modules: 2,
                prefetch: PrefetchSpec::Markov,
                eviction: EvictionChoice::Lfu,
                ..RuntimeOptions::default()
            },
        ),
    ];
    for (label, options) in variants {
        let report = study
            .deploy(options)
            .simulate(&cfg)
            .expect("engine deployment simulates");
        println!(
            "{label:28} {} reconfigurations, {} hidden, lock-up {}",
            report.reconfig_count(),
            report.hidden_fetches(),
            report.lockup_time()
        );
    }

    // 2. The same comparison below the simulator: a raw request replay
    //    through engines built directly, including the Belady oracle
    //    (which needs the future trace, so only the builder can set it).
    println!("\n== direct replay, 6 modules, skewed mix, 2-module cache ==");
    let modules = pdr_bench::rtr_study::replay_modules(6);
    let trace = pdr_bench::rtr_study::trace("skewed", 6, 4_096, 0x5EED_5E77);
    for (prefetch, eviction) in [
        ("none", "lru"),
        ("none", "lfu"),
        ("none", "belady"),
        ("markov", "lru"),
        ("markov", "belady"),
        ("schedule", "lru"),
    ] {
        let p = pdr_bench::rtr_study::run_point(&modules, &trace, prefetch, eviction, 2, "skewed");
        println!(
            "{prefetch:>9} + {eviction:<7} hit rate {:>3.0}%, hidden {:>3.0}%, p99 latency {}",
            100.0 * p.cache_hit_rate,
            100.0 * p.hidden_fraction,
            TimePs(p.latency_ps.p99)
        );
    }

    // 3. Policy specs are per region: a two-region system can mix them.
    let _mixed = (
        PrefetchSpec::Schedule(vec!["mod_qam16".into(), "mod_qpsk".into()]),
        EvictionSpec::Belady(vec!["mod_qpsk".into(), "mod_qam16".into()]),
    );
    println!("\n(each RegionSpec carries its own PrefetchSpec/EvictionSpec)");
}
