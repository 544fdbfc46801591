//! Runtime-manager engine study: the `pdr-rtr` tentpole, quantified.
//!
//! Three sections, all wrapped by `benches/bench_rtr.rs` and the `rtr`
//! study of `all_experiments`:
//!
//! * **Gallery parity** — every gallery flow is deployed under several
//!   [`RuntimeOptions`] and simulated twice: reference per-region
//!   [`ConfigurationManager`]s vs the indexed [`RtrEngine`]. The two
//!   `SimReport`s must be byte-identical (same trace, same
//!   reconfiguration log, same per-region statistics).
//! * **Throughput replay** — the same request trace is driven directly
//!   through both managers (no simulator in the loop) with a monotonic
//!   clock, first asserting identical [`pdr_rtr::RequestTiming`]
//!   sequences and [`pdr_rtr::ManagerStats`], then timing each side
//!   separately. The reference
//!   re-validates the bitstream CRC on every reconfiguration; the engine
//!   hoisted that to construction, so the replay quantifies exactly what
//!   the indexing bought (requests per second, speedup ratio).
//! * **Policy sweep** — prefetch × eviction × cache size × request mix
//!   through the `pdr-sweep` engine, one deterministic LCG-seeded trace
//!   per mix. Per point: cache-hit rate, hidden-fetch fraction, and
//!   p50/p90/p99 request latency in simulated picoseconds (via
//!   [`pdr_sweep::percentiles`]). This is the report the reference
//!   manager could never produce: it hard-codes LRU and its policies are
//!   boxed, while the engine swaps [`PrefetchSpec`]/[`EvictionSpec`]
//!   (including the offline Belady oracle) per region.

use pdr_core::deploy::{DeployedSystem, PrefetchChoice, RuntimeOptions};
use pdr_core::{gallery, FlowError};
use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion, TimePs};
use pdr_rtr::{
    BitstreamCache, BitstreamStore, ConfigurationManager, EvictionSpec, FirstOrderMarkov,
    MemoryModel, PrefetchSpec, ProtocolBuilder, RegionSpec, RtrEngine, RtrEngineBuilder,
};
use pdr_sweep::{percentiles, Percentiles, Scenario, SweepEngine, SweepReport};
use serde::json::Value;
use std::time::Instant;

/// One (flow, options) parity check: reference-manager deployment vs
/// engine deployment on the switching workload with full trace capture.
#[derive(Debug, Clone)]
pub struct ParityCase {
    /// Gallery flow name.
    pub flow: String,
    /// Runtime-options label.
    pub options: String,
    /// Were the two `SimReport`s identical?
    pub reports_match: bool,
}

impl ParityCase {
    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("flow", Value::String(self.flow.clone())),
            ("options", Value::String(self.options.clone())),
            ("reports_match", Value::Bool(self.reports_match)),
        ])
    }
}

/// The runtime-option variants every gallery flow is parity-checked
/// under. All use LRU eviction — the only policy the reference manager
/// implements, hence the only one with a reference to compare against.
pub fn parity_options() -> Vec<(&'static str, RuntimeOptions)> {
    vec![
        ("baseline", RuntimeOptions::paper_baseline()),
        (
            "markov-2",
            RuntimeOptions {
                cache_modules: 2,
                prefetch: PrefetchChoice::Markov,
                ..RuntimeOptions::default()
            },
        ),
        (
            "last-value-compressed",
            RuntimeOptions {
                cache_modules: 2,
                prefetch: PrefetchChoice::LastValue,
                compressed_storage: true,
                ..RuntimeOptions::default()
            },
        ),
    ]
}

/// Deploy every gallery flow under every [`parity_options`] variant and
/// compare [`DeployedSystem::simulate`] (the indexed engine) against the
/// string interpreter over the reference managers
/// ([`crate::ir_sim::simulate_reference`]).
pub fn run_parity(iterations: u32) -> Result<Vec<ParityCase>, FlowError> {
    let mut out = Vec::new();
    for g in gallery::all() {
        let art = g.flow.run()?;
        let arch = g.flow.architecture();
        let device = g.flow.device().clone();
        let cfg = crate::ir_sim::workload(g.name, iterations).with_trace();
        for (label, options) in parity_options() {
            let dep = DeployedSystem::new(arch, &art, device.clone(), options);
            let via_managers = crate::ir_sim::simulate_reference(arch, &art, &dep, &cfg)?;
            let via_engine = dep.simulate(&cfg)?;
            out.push(ParityCase {
                flow: g.name.to_string(),
                options: label.to_string(),
                reports_match: via_managers == via_engine,
            });
        }
    }
    Ok(out)
}

/// Did every parity case match?
pub fn all_match(cases: &[ParityCase]) -> bool {
    cases.iter().all(|c| c.reports_match)
}

/// Synthetic module set for the direct replays: `n` distinct partial
/// bitstreams for one XC2V2000 region.
pub fn replay_modules(n: usize) -> Vec<(String, Bitstream)> {
    let d = Device::xc2v2000();
    let r = ReconfigRegion::new("dyn", 20, 4).expect("region fits the device");
    (0..n)
        .map(|i| {
            (
                format!("m{i}"),
                Bitstream::partial_for_region(&d, &r, i as u64 + 1),
            )
        })
        .collect()
}

/// The reference side of the replay: one [`ConfigurationManager`] over
/// `modules` with a `cache_modules`-deep staging cache and a first-order
/// Markov predictor (the stateful policy, so the replay exercises the
/// prediction path too).
pub fn replay_reference(
    modules: &[(String, Bitstream)],
    cache_modules: usize,
) -> ConfigurationManager {
    let mut store = BitstreamStore::new();
    let mut bytes = 0usize;
    for (name, bs) in modules {
        bytes = bytes.max(bs.len_bytes());
        store.insert(name.clone(), bs.clone());
    }
    let cache = BitstreamCache::sized_for(cache_modules, bytes);
    let builder = ProtocolBuilder::new(Device::xc2v2000(), PortProfile::icap_virtex2());
    ConfigurationManager::new(builder, store, cache, MemoryModel::paper_flash(), "dyn")
        .with_predictor(Box::new(FirstOrderMarkov::new()))
}

/// The engine side of the replay: the same region under [`RtrEngine`],
/// plus the dense module ids in `modules` order.
pub fn replay_engine(
    modules: &[(String, Bitstream)],
    cache_modules: usize,
) -> (RtrEngine, Vec<u32>) {
    let bytes = modules
        .iter()
        .map(|(_, bs)| bs.len_bytes())
        .max()
        .unwrap_or(0);
    let mut spec = RegionSpec::new("dyn", cache_modules * bytes).prefetch(PrefetchSpec::Markov);
    for (name, bs) in modules {
        spec = spec.module(name.clone(), bs.clone());
    }
    let engine = RtrEngineBuilder::new(
        Device::xc2v2000(),
        PortProfile::icap_virtex2(),
        MemoryModel::paper_flash(),
    )
    .region(spec)
    .build()
    .expect("replay modules validate");
    let ids = modules
        .iter()
        .map(|(name, _)| engine.module_index(name).expect("module interned"))
        .collect();
    (engine, ids)
}

/// Slack between replay requests — enough for any launched prefetch to
/// complete, so the clock advance is identical on both sides.
fn replay_slack() -> TimePs {
    TimePs::from_ms(20)
}

/// Drive `n` cyclic requests through the engine; returns a checksum of
/// every `ready_at` (forces the work, feeds the parity digest).
pub fn drive_engine(engine: &mut RtrEngine, ids: &[u32], n: usize) -> u64 {
    let slack = replay_slack();
    let mut now = TimePs::ZERO;
    let mut acc = 0u64;
    for i in 0..n {
        let t = engine
            .request(0, ids[i % ids.len()], now)
            .expect("replay modules load");
        acc = acc
            .wrapping_mul(0x100000001B3)
            .wrapping_add(t.ready_at.as_ps());
        now = t.ready_at + slack;
    }
    acc
}

/// Drive `n` cyclic requests through the reference manager; same
/// checksum definition as [`drive_engine`].
pub fn drive_reference(mgr: &mut ConfigurationManager, names: &[String], n: usize) -> u64 {
    let slack = replay_slack();
    let mut now = TimePs::ZERO;
    let mut acc = 0u64;
    for i in 0..n {
        let t = mgr
            .request_at(&names[i % names.len()], now)
            .expect("replay modules load");
        acc = acc
            .wrapping_mul(0x100000001B3)
            .wrapping_add(t.ready_at.as_ps());
        now = t.ready_at + slack;
    }
    acc
}

/// Direct-replay comparison: trace parity plus separately sized timed
/// runs (the reference pays a per-reconfiguration CRC pass, so it gets a
/// shorter trace; rates are requests per wall second either way).
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Requests in the step-for-step parity replay.
    pub parity_requests: usize,
    /// Did both sides produce identical `RequestTiming` sequences and
    /// final `ManagerStats`?
    pub parity_ok: bool,
    /// Requests in the timed reference replay.
    pub reference_requests: usize,
    /// Best-of-reps wall time of the reference replay, nanoseconds.
    pub reference_ns: u64,
    /// Requests in the timed engine replay.
    pub engine_requests: usize,
    /// Best-of-reps wall time of the engine replay, nanoseconds.
    pub engine_ns: u64,
}

impl Throughput {
    /// Reference requests per wall second.
    pub fn reference_rate(&self) -> f64 {
        if self.reference_ns == 0 {
            return f64::INFINITY;
        }
        self.reference_requests as f64 * 1e9 / self.reference_ns as f64
    }

    /// Engine requests per wall second.
    pub fn engine_rate(&self) -> f64 {
        if self.engine_ns == 0 {
            return f64::INFINITY;
        }
        self.engine_requests as f64 * 1e9 / self.engine_ns as f64
    }

    /// Engine rate over reference rate.
    pub fn speedup(&self) -> f64 {
        let r = self.reference_rate();
        if r == 0.0 {
            return f64::INFINITY;
        }
        self.engine_rate() / r
    }

    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("parity_requests", Value::UInt(self.parity_requests as u64)),
            ("parity_ok", Value::Bool(self.parity_ok)),
            (
                "reference_requests",
                Value::UInt(self.reference_requests as u64),
            ),
            ("reference_ns", Value::UInt(self.reference_ns)),
            ("engine_requests", Value::UInt(self.engine_requests as u64)),
            ("engine_ns", Value::UInt(self.engine_ns)),
            ("reference_req_per_s", Value::Float(self.reference_rate())),
            ("engine_req_per_s", Value::Float(self.engine_rate())),
            ("speedup", Value::Float(self.speedup())),
        ])
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "replay parity: {} requests, {}\n\
             reference: {:>9} req in {:>9.3} ms  ({:>12.0} req/s)\n\
             engine:    {:>9} req in {:>9.3} ms  ({:>12.0} req/s)\n\
             speedup:   {:.1}x\n",
            self.parity_requests,
            if self.parity_ok {
                "identical"
            } else {
                "DIVERGED"
            },
            self.reference_requests,
            self.reference_ns as f64 / 1e6,
            self.reference_rate(),
            self.engine_requests,
            self.engine_ns as f64 / 1e6,
            self.engine_rate(),
            self.speedup(),
        )
    }
}

/// Run the direct replay: `parity_requests` step-compared requests, then
/// `reps` timed repetitions of `reference_requests` / `engine_requests`
/// cyclic requests per side (managers rebuilt per rep outside the timed
/// region; best time kept).
pub fn run_throughput(
    parity_requests: usize,
    reference_requests: usize,
    engine_requests: usize,
    reps: usize,
) -> Throughput {
    const MODULES: usize = 4;
    const CACHE_MODULES: usize = 2;
    let modules = replay_modules(MODULES);
    let names: Vec<String> = modules.iter().map(|(n, _)| n.clone()).collect();

    // Step-for-step parity: same trace, same clock rule, every timing and
    // the final statistics must agree.
    let mut mgr = replay_reference(&modules, CACHE_MODULES);
    let (mut engine, ids) = replay_engine(&modules, CACHE_MODULES);
    let slack = replay_slack();
    let mut now = TimePs::ZERO;
    let mut parity_ok = true;
    for i in 0..parity_requests {
        let r = mgr
            .request_at(&names[i % names.len()], now)
            .expect("reference replay loads");
        let e = engine
            .request(0, ids[i % ids.len()], now)
            .expect("engine replay loads");
        if r != e {
            parity_ok = false;
            break;
        }
        now = r.ready_at + slack;
    }
    if mgr.stats() != engine.stats(0) {
        parity_ok = false;
    }

    // Timed replays, best of `reps`.
    let reps = reps.max(1);
    let mut reference_ns = u64::MAX;
    let mut engine_ns = u64::MAX;
    for _ in 0..reps {
        let mut mgr = replay_reference(&modules, CACHE_MODULES);
        let t0 = Instant::now();
        std::hint::black_box(drive_reference(&mut mgr, &names, reference_requests));
        reference_ns = reference_ns.min(t0.elapsed().as_nanos() as u64);

        let (mut engine, ids) = replay_engine(&modules, CACHE_MODULES);
        let t0 = Instant::now();
        std::hint::black_box(drive_engine(&mut engine, &ids, engine_requests));
        engine_ns = engine_ns.min(t0.elapsed().as_nanos() as u64);
    }

    Throughput {
        parity_requests,
        parity_ok,
        reference_requests,
        reference_ns,
        engine_requests,
        engine_ns,
    }
}

/// Deterministic request trace of `len` module indices over `modules`
/// modules. Mixes:
///
/// * `cyclic` — round-robin (every request reconfigures; worst case for
///   retention, best case for a schedule);
/// * `bursty` — dwell on one module for an LCG-chosen burst, then jump;
/// * `skewed` — geometric popularity (module 0 drawn with probability
///   1/2, module 1 with 1/4, ...).
pub fn trace(mix: &str, modules: usize, len: usize, seed: u64) -> Vec<u32> {
    assert!(modules > 0);
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    match mix {
        "cyclic" => (0..len).map(|i| (i % modules) as u32).collect(),
        "bursty" => {
            let mut out = Vec::with_capacity(len);
            let mut cur = 0u32;
            while out.len() < len {
                let burst = 2 + (next() % 7) as usize;
                for _ in 0..burst.min(len - out.len()) {
                    out.push(cur);
                }
                cur = next() % modules as u32;
            }
            out
        }
        "skewed" => (0..len)
            .map(|_| {
                let mut x = next();
                let mut m = 0u32;
                while (m as usize) + 1 < modules && x % 2 == 0 {
                    m += 1;
                    x /= 2;
                }
                m
            })
            .collect(),
        other => panic!("unknown trace mix `{other}`"),
    }
}

/// One (prefetch, eviction, cache, mix) sweep measurement.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Prefetch policy label.
    pub prefetch: String,
    /// Eviction policy label.
    pub eviction: String,
    /// Staging-cache capacity in module-sized units.
    pub cache_modules: usize,
    /// Request-mix label.
    pub mix: String,
    /// Requests driven.
    pub requests: u64,
    /// Requests that actually reconfigured (not already loaded).
    pub reconfigurations: u64,
    /// Fraction of reconfigurations served from the staging cache
    /// (retention or completed prefetch).
    pub cache_hit_rate: f64,
    /// Fraction of reconfigurations whose fetch leg was fully hidden.
    pub hidden_fraction: f64,
    /// p50/p90/p99 request latency over reconfigurations, simulated
    /// picoseconds.
    pub latency_ps: Percentiles<u64>,
    /// Wall time of the replay, nanoseconds (schedule-dependent; excluded
    /// from outcome digests).
    pub wall_ns: u64,
}

impl PolicyPoint {
    /// JSON form for the artifact.
    pub fn to_json(&self) -> Value {
        let mut v = self.digest_json();
        v.push_field("wall_ns", Value::UInt(self.wall_ns));
        v
    }

    /// JSON form without the wall-clock field — the thread-invariant view
    /// the outcome digest hashes.
    pub fn digest_json(&self) -> Value {
        Value::obj(vec![
            ("prefetch", Value::String(self.prefetch.clone())),
            ("eviction", Value::String(self.eviction.clone())),
            ("cache_modules", Value::UInt(self.cache_modules as u64)),
            ("mix", Value::String(self.mix.clone())),
            ("requests", Value::UInt(self.requests)),
            ("reconfigurations", Value::UInt(self.reconfigurations)),
            ("cache_hit_rate", Value::Float(self.cache_hit_rate)),
            ("hidden_fraction", Value::Float(self.hidden_fraction)),
            ("latency_p50_ps", Value::UInt(self.latency_ps.p50)),
            ("latency_p90_ps", Value::UInt(self.latency_ps.p90)),
            ("latency_p99_ps", Value::UInt(self.latency_ps.p99)),
        ])
    }
}

/// Render the policy sweep as a table.
pub fn render_policies(points: &[PolicyPoint]) -> String {
    let mut out = format!(
        "Policy sweep — {} points\n\n{:<8} {:<10} {:<7} {:>5} {:>8} {:>7} {:>7} {:>11} {:>11}\n",
        points.len(),
        "mix",
        "prefetch",
        "evict",
        "cache",
        "reconf",
        "hits",
        "hidden",
        "p50 lat",
        "p99 lat"
    );
    for p in points {
        out.push_str(&format!(
            "{:<8} {:<10} {:<7} {:>5} {:>8} {:>6.0}% {:>6.0}% {:>11} {:>11}\n",
            p.mix,
            p.prefetch,
            p.eviction,
            p.cache_modules,
            p.reconfigurations,
            100.0 * p.cache_hit_rate,
            100.0 * p.hidden_fraction,
            TimePs(p.latency_ps.p50).to_string(),
            TimePs(p.latency_ps.p99).to_string(),
        ));
    }
    out
}

/// Modules in the sweep region.
const SWEEP_MODULES: usize = 6;

/// Measure one sweep point: build the engine with the requested
/// policies, replay the trace, summarize.
pub fn run_point(
    modules: &[(String, Bitstream)],
    trace: &[u32],
    prefetch: &str,
    eviction: &str,
    cache_modules: usize,
    mix: &str,
) -> PolicyPoint {
    let names: Vec<&str> = modules.iter().map(|(n, _)| n.as_str()).collect();
    // The full per-request name trace (the Belady oracle consumes it) and
    // the load sequence with consecutive repeats collapsed (what a
    // schedule prefetcher would be given offline).
    let future: Vec<String> = trace
        .iter()
        .map(|&m| names[m as usize].to_string())
        .collect();
    let mut loads: Vec<String> = Vec::new();
    for name in &future {
        if loads.last() != Some(name) {
            loads.push(name.clone());
        }
    }
    let prefetch_spec = match prefetch {
        "none" => PrefetchSpec::None,
        "schedule" => PrefetchSpec::Schedule(loads),
        "last-value" => PrefetchSpec::LastValue,
        "markov" => PrefetchSpec::Markov,
        other => panic!("unknown prefetch `{other}`"),
    };
    let eviction_spec = match eviction {
        "lru" => EvictionSpec::Lru,
        "lfu" => EvictionSpec::Lfu,
        "belady" => EvictionSpec::Belady(future),
        other => panic!("unknown eviction `{other}`"),
    };

    let bytes = modules
        .iter()
        .map(|(_, bs)| bs.len_bytes())
        .max()
        .unwrap_or(0);
    let mut spec = RegionSpec::new("dyn", cache_modules * bytes)
        .prefetch(prefetch_spec)
        .eviction(eviction_spec);
    for (name, bs) in modules {
        spec = spec.module(name.clone(), bs.clone());
    }
    // Streams were already validated by every other construction of these
    // bitstreams; skip re-validation so the sweep spends its time on the
    // request path under study. Timing semantics are unaffected.
    let mut engine = RtrEngineBuilder::new(
        Device::xc2v2000(),
        PortProfile::icap_virtex2(),
        MemoryModel::paper_flash(),
    )
    .verify_streams(false)
    .region(spec)
    .build()
    .expect("sweep modules validate");
    let ids: Vec<u32> = modules
        .iter()
        .map(|(n, _)| engine.module_index(n).expect("module interned"))
        .collect();

    let slack = replay_slack();
    let mut now = TimePs::ZERO;
    let mut latencies: Vec<u64> = Vec::with_capacity(trace.len());
    let mut hidden = 0u64;
    let t0 = Instant::now();
    for &m in trace {
        let t = engine
            .request(0, ids[m as usize], now)
            .expect("sweep modules load");
        if !t.already_loaded {
            latencies.push(t.latency.as_ps());
            if t.fetch_hidden {
                hidden += 1;
            }
        }
        now = t.ready_at + slack;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;

    let stats = engine.stats(0);
    let reconfigurations = stats.requests - stats.already_loaded;
    let denom = reconfigurations.max(1) as f64;
    PolicyPoint {
        prefetch: prefetch.to_string(),
        eviction: eviction.to_string(),
        cache_modules,
        mix: mix.to_string(),
        requests: stats.requests,
        reconfigurations,
        cache_hit_rate: stats.cache_hits as f64 / denom,
        hidden_fraction: hidden as f64 / denom,
        latency_ps: percentiles(&mut latencies),
        wall_ns,
    }
}

/// Run the policy sweep on `engine`: prefetch × eviction × cache size ×
/// mix, one scenario per point with per-point fault isolation. Traces
/// are seeded per mix, so outcomes are bit-identical for any worker
/// count.
pub fn run_sweep(engine: &SweepEngine, trace_len: usize) -> SweepReport<PolicyPoint> {
    let modules = replay_modules(SWEEP_MODULES);
    let mixes: [(&str, u64); 3] = [
        ("cyclic", 0x5EED_0001),
        ("bursty", 0x5EED_B125),
        ("skewed", 0x5EED_5E77),
    ];
    let prefetches = ["none", "schedule", "last-value", "markov"];
    let evictions = ["lru", "lfu", "belady"];
    let caches = [1usize, 2, 4];
    let mut scenarios = Vec::new();
    for (mix, seed) in mixes {
        let tr = trace(mix, SWEEP_MODULES, trace_len, seed);
        for prefetch in prefetches {
            for eviction in evictions {
                for cache_modules in caches {
                    let modules = modules.clone();
                    let tr = tr.clone();
                    scenarios.push(
                        Scenario::new(
                            format!("rtr/{mix}/{prefetch}/{eviction}/c{cache_modules}"),
                            seed,
                            move || {
                                Ok(run_point(
                                    &modules,
                                    &tr,
                                    prefetch,
                                    eviction,
                                    cache_modules,
                                    mix,
                                ))
                            },
                        )
                        .with_param("mix", mix)
                        .with_param("prefetch", prefetch)
                        .with_param("eviction", eviction)
                        .with_param("cache_modules", cache_modules as u64),
                    );
                }
            }
        }
    }
    engine.run(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_parity_holds_and_engine_is_faster() {
        let tp = run_throughput(512, 64, 4096, 1);
        assert!(tp.parity_ok, "replay diverged");
        assert!(
            tp.speedup() > 1.0,
            "engine slower than reference: {}",
            tp.render()
        );
    }

    #[test]
    fn traces_are_deterministic_and_in_range() {
        for mix in ["cyclic", "bursty", "skewed"] {
            let a = trace(mix, 6, 500, 42);
            let b = trace(mix, 6, 500, 42);
            assert_eq!(a, b, "{mix} trace not deterministic");
            assert_eq!(a.len(), 500);
            assert!(a.iter().all(|&m| m < 6), "{mix} trace out of range");
        }
        // Skewed really is skewed: module 0 dominates.
        let s = trace("skewed", 6, 4000, 7);
        let zeros = s.iter().filter(|&&m| m == 0).count();
        assert!(zeros > 1400, "module 0 drawn {zeros}/4000 times");
        // Distinct seeds give distinct bursty traces.
        assert_ne!(trace("bursty", 6, 500, 1), trace("bursty", 6, 500, 2));
    }

    #[test]
    fn belady_never_loses_to_lru_on_the_skewed_mix() {
        let modules = replay_modules(SWEEP_MODULES);
        let tr = trace("skewed", SWEEP_MODULES, 2000, 0x5EED_5E77);
        let lru = run_point(&modules, &tr, "none", "lru", 2, "skewed");
        let belady = run_point(&modules, &tr, "none", "belady", 2, "skewed");
        assert_eq!(lru.requests, belady.requests);
        assert!(
            belady.cache_hit_rate >= lru.cache_hit_rate,
            "belady {:.3} < lru {:.3}",
            belady.cache_hit_rate,
            lru.cache_hit_rate
        );
    }

    #[test]
    fn schedule_prefetch_hides_fetches_on_the_cyclic_mix() {
        let modules = replay_modules(SWEEP_MODULES);
        let tr = trace("cyclic", SWEEP_MODULES, 512, 1);
        let cold = run_point(&modules, &tr, "none", "lru", 1, "cyclic");
        let sched = run_point(&modules, &tr, "schedule", "lru", 1, "cyclic");
        assert_eq!(cold.hidden_fraction, 0.0);
        assert!(
            sched.hidden_fraction > 0.9,
            "schedule hid only {:.0}%",
            100.0 * sched.hidden_fraction
        );
        assert!(sched.latency_ps.p50 < cold.latency_ps.p50);
    }

    #[test]
    fn sweep_covers_the_grid_deterministically() {
        let report = run_sweep(&SweepEngine::new().with_threads(2), 256);
        assert_eq!(report.stats.total, 3 * 4 * 3 * 3);
        assert_eq!(report.stats.failed(), 0);
        let single = run_sweep(&SweepEngine::new().with_threads(1), 256);
        let a: Vec<Value> = report.ok_values().map(PolicyPoint::digest_json).collect();
        let b: Vec<Value> = single.ok_values().map(PolicyPoint::digest_json).collect();
        assert_eq!(a, b, "sweep outcomes depend on thread count");
    }

    #[test]
    fn gallery_parity_on_the_paper_flow() {
        let cases = run_parity(16).expect("gallery flows deploy");
        assert_eq!(cases.len(), gallery::names().len() * parity_options().len());
        assert!(all_match(&cases), "{cases:?}");
    }
}
