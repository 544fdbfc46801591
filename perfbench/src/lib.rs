//! The repository benchmark: end-to-end metrics of three workloads, and a
//! traced run that breaks them down per layer. See `README.md` in this
//! directory for the workloads, the metric table and how to run it.

pub mod check;
pub mod cli;
pub mod designer;
pub mod layers;
pub mod pipeline;
pub mod server_mix;
pub mod speed;
pub mod stats;
pub mod trace;

use check::{Checker, Expected};
use speed::Calibration;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Designer sessions over the seven gallery flows.
    GalleryPipeline,
    /// Designer sessions over generated 10k-op flows.
    Generated10k,
    /// Two closed-loop clients against an in-process server.
    ServerMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GalleryPipeline,
        Workload::Generated10k,
        Workload::ServerMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GalleryPipeline => "gallery_pipeline",
            Workload::Generated10k => "generated_10k",
            Workload::ServerMix => "server_mix",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured wall time; a run always completes its first full cycle
    /// of inputs, however short this is.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Times the set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    /// Operations per generated flow (10 000 in the benchmark; the
    /// benchmark's tests use a tiny size).
    pub generated_ops: usize,
    /// Reference digests.
    pub expected: Expected,
    /// Where the traced run writes its trace-event file.
    pub trace_out: Option<PathBuf>,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            traced,
            setup_reps: 7,
            generated_ops: designer::GENERATED_OPS,
            expected: Expected::builtin(),
            trace_out: None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting and failure messages.
    pub check: Checker,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (not part of the result object).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Failed operations over attempted ones.
    pub fn failed_ratio(&self) -> f64 {
        self.check.failed as f64 / self.check.attempted.max(1) as f64
    }
}

/// The samples of one round of identical work: a cycle of designer
/// sessions, or one server round. Times in ms.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time of the round, in seconds.
    pub wall_s: f64,
    /// Compile latencies.
    pub compile: Vec<f64>,
    /// Verify latencies.
    pub verify: Vec<f64>,
    /// Deploy + simulate latencies.
    pub simulate: Vec<f64>,
    /// Session latencies.
    pub sessions: Vec<f64>,
    /// Every request latency (compile, verify and simulate).
    pub requests: Vec<f64>,
}

/// Push the ten timing metrics of an untraced run, over all its rounds,
/// with every time divided by the run's host slowdown
/// ([`speed::Calibration::slowdown`]).
pub fn report_timings(rounds: &[Round], cal: &Calibration, what: &str, out: &mut Outcome) {
    let slowdown = cal.slowdown();
    let over = |field: fn(&Round) -> &Vec<f64>| {
        rounds
            .iter()
            .flat_map(field)
            .map(|ms| ms / slowdown)
            .collect::<stats::Samples>()
    };
    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum::<f64>() / slowdown;
    let compile = over(|r| &r.compile);
    let sessions = over(|r| &r.sessions);
    let requests = over(|r| &r.requests);
    let verify = over(|r| &r.verify);
    let simulate = over(|r| &r.simulate);
    out.metric("compile_ms_p50", compile.p50(), "ms", compile.len());
    out.metric("compile_ms_p90", compile.p90(), "ms", compile.len());
    out.metric("verify_ms_p50", verify.p50(), "ms", verify.len());
    out.metric("simulate_ms_p50", simulate.p50(), "ms", simulate.len());
    out.metric("session_ms_p50", sessions.p50(), "ms", sessions.len());
    out.metric("session_ms_p90", sessions.p90(), "ms", sessions.len());
    out.metric(
        "designs_per_s",
        sessions.len() as f64 / wall,
        "1/s",
        sessions.len(),
    );
    out.metric("request_ms_p50", requests.p50(), "ms", requests.len());
    out.metric("request_ms_p90", requests.p90(), "ms", requests.len());
    out.metric(
        "requests_per_s",
        requests.len() as f64 / wall,
        "1/s",
        requests.len(),
    );
    out.notes.push(format!(
        "{} {what}; times at reference host speed: divided by {slowdown:.3}, \
         the median of {} calibration-kernel runs ({:.3} ms) over {} ms",
        rounds.len(),
        cal.len(),
        cal.median_ms(),
        speed::REFERENCE_MS
    ));
}

/// Run one workload.
pub fn run(options: &Options) -> Outcome {
    match options.workload {
        Workload::GalleryPipeline | Workload::Generated10k => designer::run(options),
        Workload::ServerMix => server_mix::run(options),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: the seeded stream behind every workload's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    stats::percentile(values, 50.0)
}
