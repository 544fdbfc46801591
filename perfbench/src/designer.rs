//! `gallery_pipeline` and `generated_10k`: designer sessions, one after
//! another, each constructing a flow, compiling, verifying, deploying and
//! simulating it.

use crate::check::{gallery_key, generated_key, Checker};
use crate::pipeline::{check_staged, session, staged, IndexSource, Tail};
use crate::speed::Calibration;
use crate::stats::Samples;
use crate::trace::{set_counting, Tracer};
use crate::{layers, median, peak_rss_mb, report_timings, Options, Outcome, Rng, Round, Workload};
use pdr_core::flow::DesignFlow;
use pdr_core::gallery::{self, SyntheticParams};
use std::time::{Duration, Instant};

/// Operations per generated flow.
pub const GENERATED_OPS: usize = 10_000;

/// Simulated iterations per gallery session: the server's default.
pub const ITERATIONS: u32 = 64;

/// Simulated iterations per generated session: two blocks of the
/// canonical workload, so every region reconfigures, while a run still
/// holds over a hundred sessions for its p90s.
pub const GENERATED_ITERATIONS: u32 = 16;

/// Generated flows are drawn from seeds `1..=GENERATED_POOL`; session `i`
/// of a run with seed `s` uses flow seed `1 + (s + i) % GENERATED_POOL`,
/// so `expected.txt` holds a reference for every design a run can meet.
/// The pool is odd, as the gallery is, so a p50 over whole cycles falls
/// in the middle of one design's samples rather than on the edge between
/// two designs' clusters.
pub const GENERATED_POOL: u64 = 7;

/// Least time between two runs of the calibration kernel inside a round.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The seeded sequence of designs one run works through.
struct Plan {
    workload: Workload,
    seed: u64,
    ops: usize,
    names: Vec<&'static str>,
}

/// One design of the plan.
struct Design {
    /// Reference key in `expected.txt`.
    pub key: String,
    /// Simulated iterations.
    pub iterations: u32,
    /// Builds the flow (timed as part of the session).
    pub make: Box<dyn Fn() -> DesignFlow>,
}

impl Plan {
    /// The plan for `options`.
    fn new(options: &Options) -> Plan {
        Plan {
            workload: options.workload,
            seed: options.seed,
            ops: options.generated_ops,
            names: gallery::names(),
        }
    }

    /// Sessions per cycle: every gallery flow once, or every generated
    /// seed of the pool once. Untraced runs time whole cycles, so every
    /// run weighs the designs equally; the traced run's allocation counts
    /// and counters come from its first cycle.
    fn cycle(&self) -> usize {
        match self.workload {
            Workload::GalleryPipeline => self.names.len(),
            _ => GENERATED_POOL as usize,
        }
    }

    /// The `i`-th design. Gallery runs walk seeded permutations of the
    /// gallery, one per cycle, so every cycle holds each flow once.
    fn design(&self, i: usize) -> Design {
        match self.workload {
            Workload::GalleryPipeline => {
                let n = self.names.len();
                let mut order = self.names.clone();
                Rng::new(self.seed, (i / n) as u64).shuffle(&mut order);
                let name = order[i % n];
                Design {
                    key: gallery_key(name, ITERATIONS),
                    iterations: ITERATIONS,
                    make: Box::new(move || gallery::by_name(name).expect("gallery flow").flow),
                }
            }
            _ => {
                let seed = generated_seed(self.seed, i);
                let ops = self.ops;
                Design {
                    key: generated_key(ops, seed, GENERATED_ITERATIONS),
                    iterations: GENERATED_ITERATIONS,
                    make: Box::new(move || generated_flow(ops, seed)),
                }
            }
        }
    }
}

/// The flow seed of session `i` in a generated run with seed `run_seed`.
pub fn generated_seed(run_seed: u64, i: usize) -> u64 {
    1 + (run_seed.wrapping_add(i as u64)) % GENERATED_POOL
}

/// A generated flow of about `ops` compute operations.
pub fn generated_flow(ops: usize, seed: u64) -> DesignFlow {
    gallery::synthetic(&SyntheticParams {
        seed,
        ..SyntheticParams::sized(ops)
    })
}

/// Set-up, repeated `setup_reps` times: build the inputs (every gallery
/// flow, or the first generated flow) and warm up with one checked
/// session per design of the first cycle (gallery) or one session
/// (generated). Returns the set-up times in seconds.
fn setup(options: &Options, plan: &Plan, chk: &mut Checker) -> Vec<f64> {
    let warm = match options.workload {
        Workload::GalleryPipeline => plan.cycle(),
        _ => 1,
    };
    (0..options.setup_reps.max(1))
        .map(|_| {
            let t = Instant::now();
            if options.workload == Workload::GalleryPipeline {
                std::hint::black_box(gallery::all());
            }
            for i in 0..warm {
                let d = plan.design(i);
                let r = options.expected.get(&d.key);
                session(&d.make, &d.key, d.iterations, r, chk);
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// Run a designer workload.
pub fn run(options: &Options) -> Outcome {
    let plan = Plan::new(options);
    let mut out = Outcome::default();
    if options.traced {
        set_counting(true);
    }
    let setup_s = setup(options, &plan, &mut out.check);
    if options.traced {
        traced(options, &plan, &mut out);
    } else {
        let cal = untraced(options, &plan, &mut out);
        let setup = median(&setup_s) / cal.slowdown();
        out.metric("setup_s", setup, "s", setup_s.len());
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    }
    out
}

/// Time whole cycles of sessions until the budget is spent, running the
/// calibration kernel between sessions at most every [`PROBE_EVERY`].
/// Returns the calibration, which also scales the set-up time.
fn untraced(options: &Options, plan: &Plan, out: &mut Outcome) -> Calibration {
    let budget = Duration::from_secs_f64(options.seconds);
    let cycle = plan.cycle();
    let mut rounds = Vec::new();
    let mut cal = Calibration::default();
    let mut last_probe: Option<Instant> = None;
    let start = Instant::now();
    let mut i = 0;
    while rounds.is_empty() || start.elapsed() < budget {
        let mut round = Round::default();
        let mut probing = Duration::ZERO;
        let t = Instant::now();
        for _ in 0..cycle {
            if last_probe.is_none_or(|p| p.elapsed() >= PROBE_EVERY) {
                probing += cal.probe(1);
                last_probe = Some(Instant::now());
            }
            let d = plan.design(i);
            let r = options.expected.get(&d.key);
            if let Some(t) = session(&d.make, &d.key, d.iterations, r, &mut out.check) {
                round.compile.push(t.compile_ms);
                round.verify.push(t.verify_ms);
                round.simulate.push(t.simulate_ms);
                round.sessions.push(t.session_ms);
                // A designer's request is a whole session. Pooling its
                // three calls would put the p50 in the gap between the
                // verify cluster and the compile/simulate clusters.
                round.requests.push(t.session_ms);
            }
            i += 1;
        }
        round.wall_s = (t.elapsed() - probing).as_secs_f64();
        rounds.push(round);
    }
    report_timings(&rounds, &cal, &format!("cycles of {cycle} sessions"), out);
    cal
}

/// The traced run: staged sessions under spans, each followed by an
/// untraced twin on the same design (allocation counting off) so the
/// tracing overhead is measured in the same process.
fn traced(options: &Options, plan: &Plan, out: &mut Outcome) {
    let budget = Duration::from_secs_f64(options.seconds);
    let mut tr = Tracer::default();
    let mut plain = Samples::default();
    let start = Instant::now();
    let mut i = 0;
    while i < plan.cycle() || start.elapsed() < budget {
        let d = plan.design(i);
        let r = options.expected.get(&d.key);
        tr.set_id(i as u64);
        let tail = Tail {
            verify: true,
            simulate: Some(d.iterations),
        };
        let s = staged(&mut tr, || Ok((d.make)()), IndexSource::Build, tail);
        check_staged(&mut out.check, &d.key, d.iterations, r, s, i < plan.cycle());
        set_counting(false);
        if let Some(t) = session(&d.make, &d.key, d.iterations, r, &mut out.check) {
            plain.push(t.session_ms);
        }
        set_counting(true);
        i += 1;
    }
    let cycle = plan.cycle() as u64;
    layers::report(&tr, |id| id < cycle, &layers::ServerLayer::default(), out);
    let traced = Samples::from_iter(tr.durations("core.session", |_| true));
    out.notes.push(format!(
        "trace overhead: traced session_ms_p50 {:.3} ms (n={}) - untraced {:.3} ms (n={}) = {:+.3} ms",
        traced.p50(),
        traced.len(),
        plain.p50(),
        plain.len(),
        traced.p50() - plain.p50()
    ));
    layers::write_trace(&tr, options, out);
}
