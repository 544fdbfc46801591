//! Command line shared by the untraced and traced binaries.
//!
//! ```text
//! perfbench        --workload <name|all> [--seed N] [--seconds S] [--trace 0]
//! perfbench-traced --workload <name>     [--seed N] [--seconds S] --trace 1 [--trace-out PATH]
//! perfbench --bless [--expected-out PATH]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! the result object `{"correct", "attempted", "failed", "metrics"}`.

use crate::check::{gallery_key, generated_key, Expected};
use crate::designer::{
    generated_flow, GENERATED_ITERATIONS, GENERATED_OPS, GENERATED_POOL, ITERATIONS,
};
use crate::pipeline::reference_of;
use crate::{run, Options, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Operations per generated flow in the benchmark's own tests.
pub const TINY_OPS: usize = 256;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    bless: bool,
    expected_out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        bless: false,
        expected_out: PathBuf::from("perfbench/expected.txt"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            out.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                }
            }
            "--trace-out" => out.trace_out = Some(PathBuf::from(value)),
            "--expected-out" => out.expected_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

/// Entry point of both binaries. `traced_binary` says whether the
/// counting allocator is installed: only that binary serves `--trace 1`,
/// and it refuses `--trace 0` so untraced numbers never pay for counting.
pub fn main(traced_binary: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return bless(&args.expected_out);
    }
    if args.trace != traced_binary {
        eprintln!(
            "perfbench: --trace {} runs on the `{}` binary",
            args.trace as u8,
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    let workloads = match args.workload.as_deref() {
        Some("all") if !args.trace => Workload::ALL.to_vec(),
        Some(name) => match Workload::by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload `{name}`");
                return ExitCode::from(2);
            }
        },
        None => {
            eprintln!("perfbench: --workload is required");
            return ExitCode::from(2);
        }
    };
    for workload in workloads {
        let mut options = Options::new(workload, args.seed, args.seconds, args.trace);
        if args.trace {
            options.trace_out = Some(args.trace_out.clone().unwrap_or_else(|| {
                PathBuf::from(format!(
                    ".bench_out/trace_{}_seed{}.json",
                    workload.name(),
                    args.seed
                ))
            }));
        }
        let outcome = run(&options);
        print_report(&options, &outcome);
    }
    ExitCode::SUCCESS
}

fn print_report(options: &Options, outcome: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        options.traced as u8
    );
    for m in &outcome.metrics {
        println!(
            "  {:<30} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let c = &outcome.check;
    println!(
        "  {:<30} {:>14.4} {:<6} ({} of {} operations failed)",
        "failed_ratio",
        outcome.failed_ratio(),
        "ratio",
        c.failed,
        c.attempted
    );
    for note in &c.notes {
        println!("  FAILED: {note}");
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("{}", result_line(outcome));
}

/// The result object the benchmark's last output line carries.
pub fn result_line(outcome: &Outcome) -> String {
    let c = &outcome.check;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
        metrics.join(", ")
    )
}

/// Recompute `expected.txt` through the unstaged entry points: every
/// gallery flow, and every generated seed at the benchmark's size and at
/// the tests' tiny size.
fn bless(path: &PathBuf) -> ExitCode {
    let mut expected = Expected::default();
    type Make = Box<dyn Fn() -> pdr_core::DesignFlow>;
    let mut designs: Vec<(String, u32, Make)> = Vec::new();
    for g in pdr_core::gallery::all() {
        let name = g.name;
        designs.push((
            gallery_key(name, ITERATIONS),
            ITERATIONS,
            Box::new(move || pdr_core::gallery::by_name(name).expect("gallery").flow),
        ));
    }
    for ops in [GENERATED_OPS, TINY_OPS] {
        for seed in 1..=GENERATED_POOL {
            designs.push((
                generated_key(ops, seed, GENERATED_ITERATIONS),
                GENERATED_ITERATIONS,
                Box::new(move || generated_flow(ops, seed)),
            ));
        }
    }
    for (key, iterations, make) in designs {
        match reference_of(&make(), iterations) {
            Ok(r) => {
                eprintln!("{key}: {:016x} {:016x}", r.artifacts, r.sim);
                expected.0.insert(key, r);
            }
            Err(e) => {
                eprintln!("perfbench: {key}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(path, expected.render()) {
        eprintln!("perfbench: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
