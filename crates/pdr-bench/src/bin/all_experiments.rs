//! Run every experiment and print one combined report — the full
//! `EXPERIMENTS.md` regeneration in one command. The sweep studies run
//! through the `pdr-sweep` engine (parallel, deterministic, fault
//! isolating) and their results are merged into one JSON artifact.
//!
//! ```text
//! cargo run --release -p pdr-bench --bin all_experiments -- \
//!     [--threads N] [--out PATH] [--skip STUDY]... [--inject-panic]
//! ```
//!
//! * `--threads N` — worker count for the sweep engine (default: all
//!   hardware threads). Outcomes are bit-identical for any `N`; the
//!   printed per-study digests prove it.
//! * `--out PATH` — artifact destination (default
//!   `BENCH_all_experiments.json` in the working directory).
//! * `--skip STUDY` — skip one study by name (repeatable; `--skip list`
//!   prints the names). Skips are recorded in the artifact.
//! * `--inject-panic` — append a deliberately panicking scenario to the
//!   BER sweep to demonstrate sweep-level fault isolation: the sweep
//!   completes, the panic is captured in the artifact.
//!
//! Studies are fault-isolated from *each other* too: a study that
//! errors or panics is recorded in the artifact's `failures` section and
//! the suite keeps going. The exit code is non-zero when any study
//! failed, so automation still notices.

use pdr_sweep::artifact::{outcome_digest, Artifact};
use pdr_sweep::{Scenario, SweepEngine, SweepReport};
use serde::json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every study name, in suite order (`--skip` validates against this).
const STUDY_NAMES: [&str; 14] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "prefetch",
    "adequation",
    "area_latency",
    "compression",
    "adequation_perf",
    "scale",
    "server",
    "model",
    "rtr",
    "fabric",
];

struct Cli {
    threads: Option<usize>,
    out: String,
    skip: Vec<String>,
    inject_panic: bool,
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: all_experiments [--threads N] [--out PATH] [--skip STUDY]... [--inject-panic]"
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        threads: None,
        out: "BENCH_all_experiments.json".to_string(),
        skip: Vec::new(),
        inject_panic: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_error("--threads needs a value"));
                cli.threads = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_error("--threads takes a number")),
                );
            }
            "--out" => {
                cli.out = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a path"));
            }
            "--skip" => {
                let name = args
                    .next()
                    .unwrap_or_else(|| usage_error("--skip needs a study name"));
                if name == "list" {
                    println!("studies: {}", STUDY_NAMES.join(", "));
                    std::process::exit(0);
                }
                if !STUDY_NAMES.contains(&name.as_str()) {
                    usage_error(&format!(
                        "unknown study `{name}` (studies: {})",
                        STUDY_NAMES.join(", ")
                    ));
                }
                cli.skip.push(name);
            }
            "--inject-panic" => cli.inject_panic = true,
            "--help" | "-h" => {
                println!(
                    "usage: all_experiments [--threads N] [--out PATH] \
                     [--skip STUDY]... [--inject-panic]"
                );
                println!("studies: {}", STUDY_NAMES.join(", "));
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    cli
}

/// Print one study's sweep summary and fold it into the artifact.
fn record<T>(
    artifact: &mut Artifact,
    name: &str,
    report: &SweepReport<T>,
    outcome: &dyn Fn(&T) -> Value,
    digest_view: &dyn Fn(&T) -> Value,
) {
    println!("  [sweep] {name}: {}", report.stats.render());
    println!(
        "  [sweep] {name}: outcome digest {:016x}",
        outcome_digest(report, digest_view)
    );
    for failure in report.failures() {
        println!("  [sweep] {name}: FAILED point `{}`", failure.label);
    }
    artifact.push_section(name, report.to_json_with(outcome));
}

fn study_table1(_: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- T1: Table 1 -------------------------------------------------");
    let table = pdr_bench::table1::run().map_err(|e| e.to_string())?;
    println!("{}", table.render());
    println!("Amortization (fixed-all vs dynamic-shared slices):");
    for (n, fix, dy) in pdr_bench::table1::amortization(8) {
        println!(
            "  n={n}: fixed-all {fix}, dynamic {dy}{}",
            if dy < fix { "  <- dynamic wins" } else { "" }
        );
    }
    Ok(())
}

fn study_fig2(_: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("\n--- F2: Figure 2 ------------------------------------------------");
    println!("{}", pdr_bench::fig2::run().render());
    Ok(())
}

fn study_fig3(_: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- F3: Figure 3 ------------------------------------------------");
    let f3 = pdr_bench::fig3::run().map_err(|e| e.to_string())?;
    println!("{}", f3.render());
    Ok(())
}

fn study_fig4(artifact: &mut Artifact, engine: &SweepEngine, cli: &Cli) -> Result<(), String> {
    println!("--- F4: Figure 4 / §6 -------------------------------------------");
    let sys = pdr_bench::fig4::run_system(192).map_err(|e| e.to_string())?;
    println!("{}", sys.render());

    let mut ber_scenarios = pdr_bench::fig4::ber_scenarios(&[-14.0, -10.0, -6.0, -2.0, 2.0], 6);
    if cli.inject_panic {
        ber_scenarios.push(Scenario::new("ber/injected-panic", 0, || {
            panic!("injected panic: fault-isolation demo")
        }));
    }
    let ber = engine.run(ber_scenarios);
    println!(
        "{}",
        pdr_bench::fig4::Fig4Ber {
            points: ber.ok_values().cloned().collect()
        }
        .render()
    );
    record(
        artifact,
        "fig4_ber",
        &ber,
        &pdr_bench::fig4::BerPoint::to_json,
        &pdr_bench::fig4::BerPoint::to_json,
    );
    Ok(())
}

fn study_prefetch(artifact: &mut Artifact, engine: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("\n--- E-PF: prefetching study -------------------------------------");
    let pf =
        pdr_bench::prefetch::run_sweep(&[4, 16, 64, 256], 8, engine).map_err(|e| e.to_string())?;
    println!(
        "{}",
        pdr_bench::prefetch::PrefetchStudy {
            points: pf.ok_values().cloned().collect()
        }
        .render()
    );
    record(
        artifact,
        "prefetch",
        &pf,
        &pdr_bench::prefetch::PrefetchPoint::to_json,
        &pdr_bench::prefetch::PrefetchPoint::to_json,
    );
    Ok(())
}

fn study_adequation(artifact: &mut Artifact, engine: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- E-AD: adequation study --------------------------------------");
    let ablation = pdr_bench::adequation_study::ablation_sweep(&[0.01, 0.1, 0.5, 0.9], engine);
    let scaling = pdr_bench::adequation_study::scaling_sweep(&[(2, 2), (4, 4), (8, 8)], engine);
    println!(
        "{}",
        pdr_bench::adequation_study::render(
            &ablation.ok_values().cloned().collect::<Vec<_>>(),
            &scaling.ok_values().cloned().collect::<Vec<_>>()
        )
    );
    let strategies =
        pdr_bench::adequation_study::strategies_sweep(&[(3, 3), (5, 5)], 1_500, engine);
    println!(
        "{}",
        pdr_bench::adequation_study::render_strategies(
            &strategies.ok_values().cloned().collect::<Vec<_>>()
        )
    );
    record(
        artifact,
        "adequation_ablation",
        &ablation,
        &pdr_bench::adequation_study::AblationPoint::to_json,
        &pdr_bench::adequation_study::AblationPoint::to_json,
    );
    // Scaling/strategy outcomes carry their own wall-clock measurements:
    // digest only the schedule-independent fields.
    record(
        artifact,
        "adequation_scaling",
        &scaling,
        &pdr_bench::adequation_study::ScalingPoint::to_json,
        &|p| {
            Value::obj(vec![
                ("operations", Value::UInt(p.operations as u64)),
                ("makespan_ps", Value::UInt(p.makespan.0)),
            ])
        },
    );
    record(
        artifact,
        "adequation_strategies",
        &strategies,
        &pdr_bench::adequation_study::StrategyPoint::to_json,
        &|p| {
            Value::obj(vec![
                ("graph", Value::String(p.graph.clone())),
                ("greedy_makespan_ps", Value::UInt(p.greedy_makespan.0)),
                ("annealed_makespan_ps", Value::UInt(p.annealed_makespan.0)),
            ])
        },
    );
    Ok(())
}

fn study_area_latency(
    artifact: &mut Artifact,
    engine: &SweepEngine,
    _: &Cli,
) -> Result<(), String> {
    println!("\n--- E-AR: area vs latency ---------------------------------------");
    let ar = pdr_bench::area_latency::run_sweep(
        &["XC2V500", "XC2V2000", "XC2V6000", "XC7A50T", "XC7A100T"],
        &[2, 4, 8, 16],
        engine,
    );
    println!(
        "{}",
        pdr_bench::area_latency::AreaLatency {
            points: ar.ok_values().cloned().collect()
        }
        .render()
    );
    record(
        artifact,
        "area_latency",
        &ar,
        &pdr_bench::area_latency::AreaLatencyPoint::to_json,
        &pdr_bench::area_latency::AreaLatencyPoint::to_json,
    );
    Ok(())
}

fn study_compression(_: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-CMP: compression study ------------------------------------");
    let cs = pdr_bench::compression::run(96).map_err(|e| e.to_string())?;
    println!("{}", cs.render());
    Ok(())
}

fn study_adequation_perf(artifact: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-IDX: indexed adequation -----------------------------------");
    let perf = pdr_bench::adequation_perf::run(2).map_err(|e| e.to_string())?;
    print!("{}", perf.render());
    if !perf.all_match() {
        return Err("reference and indexed schedulers disagree on a gallery flow".into());
    }
    artifact.push_section("adequation_perf", perf.to_json());
    Ok(())
}

fn study_scale(artifact: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-SCALE: scale-out adequation -------------------------------");
    let study = pdr_bench::scale::run(2).map_err(|e| e.to_string())?;
    print!("{}", study.render());
    if !study.all_parity() {
        return Err("index build or overhauled core diverged from its oracle".into());
    }
    artifact.push_section("scale", study.to_json());
    Ok(())
}

fn study_server(artifact: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-SRV: serving layer ----------------------------------------");
    use pdr_server::ServerConfig;
    let cold = pdr_bench::server_study::run_load(ServerConfig::cold(), 4, 1, false, "cold");
    println!("{}", cold.render());
    let warm = pdr_bench::server_study::run_load(ServerConfig::default(), 4, 2, true, "warm");
    println!("{}", warm.render());
    if cold.payloads != warm.payloads {
        return Err("cold and warm server runs disagree on deterministic payloads".into());
    }
    let speedup = if warm.mean_latency_us() > 0.0 {
        cold.mean_latency_us() / warm.mean_latency_us()
    } else {
        f64::INFINITY
    };
    println!("  cached-over-cold mean latency speedup: {speedup:.1}x");
    let mut section = Value::obj(vec![("speedup", Value::Float(speedup))]);
    section.push_field("cold", cold.to_json());
    section.push_field("warm", warm.to_json());
    artifact.push_section("server_load", section);
    Ok(())
}

fn study_model(artifact: &mut Artifact, _: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-MC: interleaving model checking ---------------------------");
    use pdr_lint::model::{self, ModelInput};
    use pdr_lint::{rendezvous, Code, ModelConfig};
    let mut rows = Vec::new();
    let mut largest: Option<(u64, u64)> = None;
    for g in pdr_core::gallery::all() {
        let art = g.flow.run().map_err(|e| e.to_string())?;
        let rv = rendezvous::check(&art.ir_executive, &art.symbols);
        if !rv.diagnostics.is_empty() {
            return Err(format!(
                "gallery flow `{}` has rendezvous defects: {:?}",
                g.name, rv.diagnostics
            ));
        }
        let input = ModelInput {
            ir: &art.ir_executive,
            table: &art.symbols,
            pairs: &rv.pairs,
            constraints: Some(g.flow.constraints()),
        };
        let out = model::check(&input, &ModelConfig::default());
        if out.diagnostics.iter().any(|d| d.code == Code::Deadlock) {
            return Err(format!("gallery flow `{}` deadlocks", g.name));
        }
        println!(
            "  {:24} {:>8} states {:>10} transitions  {} diagnostic(s)",
            g.name,
            out.stats.states,
            out.stats.transitions,
            out.diagnostics.len()
        );
        if g.name == "synthetic_large" {
            let full = model::check(&input, &ModelConfig::default().without_por());
            largest = Some((out.stats.states, full.stats.states));
        }
        rows.push(Value::obj(vec![
            ("flow", Value::String(g.name.to_string())),
            ("states", Value::UInt(out.stats.states)),
            ("transitions", Value::UInt(out.stats.transitions)),
            ("diagnostics", Value::UInt(out.diagnostics.len() as u64)),
        ]));
    }
    let mut section = Value::obj(vec![("flows", Value::Array(rows))]);
    if let Some((with_por, without_por)) = largest {
        let reduction = without_por as f64 / with_por.max(1) as f64;
        println!(
            "  POR on synthetic_large: {with_por} states vs {without_por} unreduced \
             ({reduction:.1}x)"
        );
        section.push_field(
            "por",
            Value::obj(vec![
                ("states_with_por", Value::UInt(with_por)),
                ("states_without_por", Value::UInt(without_por)),
                ("reduction", Value::Float(reduction)),
            ]),
        );
    }
    artifact.push_section("model", section);
    Ok(())
}

fn study_rtr(artifact: &mut Artifact, engine: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-RTR: indexed runtime engine -------------------------------");
    let parity = pdr_bench::rtr_study::run_parity(32).map_err(|e| e.to_string())?;
    if !pdr_bench::rtr_study::all_match(&parity) {
        return Err("engine and reference managers disagree on a gallery flow".into());
    }
    println!(
        "  gallery parity: {} (flow, options) cases, all identical",
        parity.len()
    );
    let tp = pdr_bench::rtr_study::run_throughput(512, 512, 400_000, 2);
    print!("{}", tp.render());
    if !tp.parity_ok {
        return Err("direct replay diverged from the reference manager".into());
    }
    let sweep = pdr_bench::rtr_study::run_sweep(engine, 4_096);
    print!(
        "{}",
        pdr_bench::rtr_study::render_policies(&sweep.ok_values().cloned().collect::<Vec<_>>())
    );
    // Wall time is schedule-dependent; the digest hashes only the
    // thread-invariant measurement fields.
    record(
        artifact,
        "rtr_policies",
        &sweep,
        &pdr_bench::rtr_study::PolicyPoint::to_json,
        &pdr_bench::rtr_study::PolicyPoint::digest_json,
    );
    artifact.push_section(
        "rtr_parity",
        Value::Array(parity.iter().map(|c| c.to_json()).collect()),
    );
    artifact.push_section("rtr_throughput", tp.to_json());
    Ok(())
}

fn study_fabric(artifact: &mut Artifact, engine: &SweepEngine, _: &Cli) -> Result<(), String> {
    println!("--- X-FAB: fabric generations -----------------------------------");
    let parity = pdr_bench::fabric_study::v2_parity();
    if let Some(row) = parity.iter().find(|r| !r.ok()) {
        return Err(format!(
            "Virtex-II flow `{}` drifted from its pinned artifact digest \
             (got {:016x}, pinned {:016x})",
            row.flow, row.got, row.pinned
        ));
    }
    println!(
        "  v2 parity: {} flows byte-identical to the pre-refactor pins",
        parity.len()
    );
    let s7 = pdr_bench::fabric_study::s7_end_to_end()?;
    if !s7.clean() {
        return Err(format!("series7 flow is not clean: {s7:?}"));
    }
    println!(
        "  {} on {}: {} rectangular regions, lint clean, sim digest {:016x}",
        s7.flow,
        s7.device,
        s7.regions.len(),
        s7.sim_digest
    );
    let sweep = pdr_bench::fabric_study::run_sweep(engine);
    print!(
        "{}",
        pdr_bench::fabric_study::render_generations(
            &sweep.ok_values().cloned().collect::<Vec<_>>()
        )
    );
    record(
        artifact,
        "fabric_generations",
        &sweep,
        &pdr_bench::fabric_study::GenerationPoint::to_json,
        &pdr_bench::fabric_study::GenerationPoint::to_json,
    );
    artifact.push_section(
        "fabric_v2_parity",
        Value::Array(parity.iter().map(|r| r.to_json()).collect()),
    );
    artifact.push_section("fabric_s7_flow", s7.to_json());
    Ok(())
}

type StudyFn = fn(&mut Artifact, &SweepEngine, &Cli) -> Result<(), String>;

fn main() {
    let cli = parse_cli();
    let engine = match cli.threads {
        Some(n) => SweepEngine::new().with_threads(n),
        None => SweepEngine::new(),
    };

    println!("================================================================");
    println!(" pdr — full experiment suite (Berthelot et al., IPDPS 2006)");
    println!(" sweep engine: {} worker thread(s)", engine.threads());
    println!("================================================================\n");

    let mut artifact = Artifact::new("all_experiments")
        .with_field("threads", Value::UInt(engine.threads() as u64))
        .with_field("inject_panic", Value::Bool(cli.inject_panic))
        .with_field(
            "skipped",
            Value::Array(cli.skip.iter().map(|s| Value::String(s.clone())).collect()),
        );

    let studies: [(&str, StudyFn); 14] = [
        ("table1", study_table1),
        ("fig2", study_fig2),
        ("fig3", study_fig3),
        ("fig4", study_fig4),
        ("prefetch", study_prefetch),
        ("adequation", study_adequation),
        ("area_latency", study_area_latency),
        ("compression", study_compression),
        ("adequation_perf", study_adequation_perf),
        ("scale", study_scale),
        ("server", study_server),
        ("model", study_model),
        ("rtr", study_rtr),
        ("fabric", study_fabric),
    ];
    debug_assert_eq!(studies.len(), STUDY_NAMES.len());

    let mut failures: Vec<(String, String)> = Vec::new();
    for (name, run) in studies {
        if cli.skip.iter().any(|s| s == name) {
            println!("--- [skipped] {name} ---");
            continue;
        }
        // Study-level fault isolation: an Err or a panic is recorded and
        // the suite moves on (mirroring the sweep engine's per-point
        // isolation, one level up).
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&mut artifact, &engine, &cli)));
        let error = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(message)) => message,
            Err(panic) => panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .map(|what| format!("panicked: {what}"))
                .unwrap_or_else(|| "panicked: opaque payload".into()),
        };
        println!("  [FAILED] {name}: {error}");
        failures.push((name.to_string(), error));
    }

    artifact.push_section(
        "failures",
        Value::Array(
            failures
                .iter()
                .map(|(name, error)| {
                    Value::obj(vec![
                        ("study", Value::String(name.clone())),
                        ("error", Value::String(error.clone())),
                    ])
                })
                .collect(),
        ),
    );

    artifact.write(&cli.out).expect("write artifact");
    println!("\nartifact: {} ({} studies)", cli.out, artifact.len());

    println!("================================================================");
    if failures.is_empty() {
        println!(" suite complete");
    } else {
        println!(
            " suite complete with {} FAILED study(ies): {}",
            failures.len(),
            failures
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!("================================================================");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
