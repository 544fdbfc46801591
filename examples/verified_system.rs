//! Extension features in one run: functional fidelity (every
//! reconfiguration applied to a real configuration memory and
//! readback-verified), compressed bitstream storage, and an ASCII Gantt
//! chart of the resulting schedule.
//!
//! ```text
//! cargo run --example verified_system
//! ```

use pdr_core::paper::PaperCaseStudy;
use pdr_core::RuntimeOptions;
use pdr_rtr::PrefetchSpec;
use pdr_sim::{gantt, SimConfig};

fn main() {
    let study = PaperCaseStudy::build().expect("flow runs");
    let symbols = 48u32;
    let selections: Vec<String> = (0..symbols)
        .map(|i| {
            if (i / 12) % 2 == 0 {
                "mod_qpsk".to_string()
            } else {
                "mod_qam16".to_string()
            }
        })
        .collect();
    let loads = PaperCaseStudy::load_sequence(&selections);

    // Compressed storage + schedule-driven prefetching + verification.
    let options = RuntimeOptions {
        compressed_storage: true,
        cache_modules: 2,
        prefetch: PrefetchSpec::Schedule(loads),
        ..RuntimeOptions::default()
    };
    let deployed = study.deploy(options);
    let cfg = SimConfig::iterations(symbols)
        .with_selection("op_dyn", selections)
        .with_trace();
    let (report, loader_stats) = deployed
        .simulate_verified(&cfg)
        .expect("verified simulation runs");

    println!("== verified, compressed, prefetched run ==");
    println!("{}", report.summary());
    println!(
        "loader: {} loads, {} readback verifications, {} failures",
        loader_stats.loads, loader_stats.verifications, loader_stats.verify_failures
    );
    for rc in &report.reconfigs {
        println!(
            "  iter {:>2}: {:10} in {} (fetch hidden: {})",
            rc.iteration,
            rc.module,
            rc.latency(),
            rc.fetch_hidden
        );
    }

    println!("\n== Gantt (full run) ==");
    print!("{}", gantt::to_gantt(&report, 100));

    // CSV for external plotting.
    let csv = gantt::to_csv(&report);
    println!(
        "\ntrace: {} events ({} bytes as CSV via pdr_sim::gantt::to_csv)",
        report.trace.len(),
        csv.len()
    );
}
