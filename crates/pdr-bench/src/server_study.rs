//! Load generator for the `pdr-server` serving layer: N concurrent
//! clients driving the gallery through the in-process transport.
//!
//! The study answers three questions the serving tentpole is gated on:
//!
//! 1. **Throughput** — sustained flows/sec with a warm cache vs the cold
//!    path (cache and single-flight disabled), with latency percentiles;
//! 2. **Reuse** — cache hit / coalescing rates under a repeating
//!    multi-tenant workload;
//! 3. **Determinism** — every client must observe byte-identical
//!    deterministic payloads for identical request content, no matter
//!    the concurrency ([`LoadResult::payloads`] is compared against a
//!    sequential run by the bench's `--test` mode and the integration
//!    tests).
//!
//! The workload is the full gallery × all three request kinds, repeated
//! `rounds` times per client — every client issues the *same* request
//! list, which maximizes cache/coalescing pressure exactly like a fleet
//! of tenants compiling the same designs.

use pdr_core::gallery;
use pdr_server::{Request, RequestKind, Response, Server, ServerConfig};
use serde::json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Simulation length used by the study's `simulate` requests (small, so
/// the cold path stays dominated by the pipeline, not the simulator).
pub const STUDY_ITERATIONS: u32 = 16;

/// The canonical request list: every gallery flow × compile/verify/
/// simulate, in gallery order. `id`s are assigned by the caller.
pub fn workload() -> Vec<Request> {
    let mut requests = Vec::new();
    for name in gallery::names() {
        for kind in [
            RequestKind::Compile,
            RequestKind::Verify,
            RequestKind::Simulate,
        ] {
            requests.push(Request::new(0, kind, name).with_iterations(STUDY_ITERATIONS));
        }
    }
    requests
}

/// The content key of a request: what must map to one deterministic
/// payload ((kind, flow, iterations) — ids and metrics excluded).
pub fn content_key(req: &Request) -> String {
    format!("{}/{}/{}", req.kind.as_str(), req.flow, req.iterations)
}

/// One client's (or one whole run's) observed deterministic payloads,
/// keyed by request content.
pub type PayloadMap = BTreeMap<String, String>;

/// Aggregated results of one load run.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Run label (`"cold"`, `"warm"`, …).
    pub label: String,
    /// Concurrent clients.
    pub clients: usize,
    /// Total requests issued (across clients and rounds).
    pub requests: usize,
    /// `ok` responses.
    pub ok: usize,
    /// `overloaded` rejections.
    pub overloaded: usize,
    /// `error` responses.
    pub errors: usize,
    /// Server-side counters after the run: cache hits.
    pub cache_hits: u64,
    /// Single-flight coalesced waits.
    pub coalesced: u64,
    /// Jobs executed by workers (the miss path).
    pub executed: u64,
    /// Wall-clock of the whole run in µs.
    pub elapsed_us: u64,
    /// Per-request latencies in µs, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Deterministic payload lines per request content key. The run
    /// fails fast if two clients ever disagree on a key.
    pub payloads: PayloadMap,
}

impl LoadResult {
    /// Completed requests per second of wall-clock.
    pub fn flows_per_sec(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.ok as f64 / (self.elapsed_us as f64 / 1e6)
    }

    /// The `q`-quantile latency in µs (`0.5` = median) by
    /// nearest-rank on the sorted series.
    pub fn latency_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((self.latencies_us.len() as f64) * q).ceil() as usize;
        self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1]
    }

    /// Mean latency in µs.
    pub fn mean_latency_us(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<u64>() as f64 / self.latencies_us.len() as f64
    }

    /// Fraction of `ok` responses served without executing (hit or
    /// coalesced).
    pub fn reuse_ratio(&self) -> f64 {
        if self.ok == 0 {
            return 0.0;
        }
        (self.cache_hits + self.coalesced) as f64 / self.ok as f64
    }

    /// One table row.
    pub fn render(&self) -> String {
        format!(
            "{:<6} {:>3} clients  {:>5} ok  {:>3} over  {:>3} err  \
             {:>8.1} flows/s  reuse {:>5.1}%  p50 {:>7}us  p90 {:>7}us  p99 {:>7}us",
            self.label,
            self.clients,
            self.ok,
            self.overloaded,
            self.errors,
            self.flows_per_sec(),
            self.reuse_ratio() * 100.0,
            self.latency_us(0.50),
            self.latency_us(0.90),
            self.latency_us(0.99),
        )
    }

    /// JSON section for the artifact writer.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("label", Value::String(self.label.clone())),
            ("clients", Value::UInt(self.clients as u64)),
            ("requests", Value::UInt(self.requests as u64)),
            ("ok", Value::UInt(self.ok as u64)),
            ("overloaded", Value::UInt(self.overloaded as u64)),
            ("errors", Value::UInt(self.errors as u64)),
            ("cache_hits", Value::UInt(self.cache_hits)),
            ("coalesced", Value::UInt(self.coalesced)),
            ("executed", Value::UInt(self.executed)),
            ("elapsed_us", Value::UInt(self.elapsed_us)),
            ("flows_per_sec", Value::Float(self.flows_per_sec())),
            ("mean_latency_us", Value::Float(self.mean_latency_us())),
            ("p50_us", Value::UInt(self.latency_us(0.50))),
            ("p90_us", Value::UInt(self.latency_us(0.90))),
            ("p99_us", Value::UInt(self.latency_us(0.99))),
        ])
    }
}

/// Drive `clients` concurrent clients through `rounds` passes of the
/// gallery workload against a fresh server with `config`. With `warmup`,
/// one untimed single-client pass fills the cache first, so the timed
/// phase measures the steady-state serving path rather than the initial
/// miss storm. Panics if two clients observe different deterministic
/// payloads for the same request content — that would be a serving-layer
/// correctness bug, not a measurement.
pub fn run_load(
    config: ServerConfig,
    clients: usize,
    rounds: usize,
    warmup: bool,
    label: &str,
) -> LoadResult {
    let server = Arc::new(Server::start(config));
    let base = workload();
    if warmup {
        for (i, req) in base.iter().enumerate() {
            let mut req = req.clone();
            req.id = u64::MAX - i as u64;
            server.submit(req);
        }
    }
    let started = Instant::now();
    let per_client: Vec<(Vec<u64>, Vec<&'static str>, PayloadMap)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                let base = &base;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(base.len() * rounds);
                    let mut statuses = Vec::with_capacity(base.len() * rounds);
                    let mut payloads = PayloadMap::new();
                    for round in 0..rounds {
                        for (i, req) in base.iter().enumerate() {
                            let mut req = req.clone();
                            req.id = ((c * rounds + round) * base.len() + i) as u64;
                            let t = Instant::now();
                            let resp = server.submit(req.clone());
                            latencies.push(t.elapsed().as_micros() as u64);
                            statuses.push(match &resp {
                                Response::Ok { .. } => "ok",
                                Response::Overloaded { .. } => "overloaded",
                                _ => "error",
                            });
                            if resp.is_ok() {
                                let key = content_key(&req);
                                let line = resp.payload_line();
                                if let Some(prev) = payloads.get(&key) {
                                    assert_eq!(
                                        prev, &line,
                                        "client {c} saw two payloads for {key}"
                                    );
                                }
                                payloads.insert(key, line);
                            }
                        }
                    }
                    (latencies, statuses, payloads)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_us = started.elapsed().as_micros() as u64;

    let mut latencies_us = Vec::new();
    let mut ok = 0;
    let mut overloaded = 0;
    let mut errors = 0;
    let mut payloads = PayloadMap::new();
    for (lats, statuses, client_payloads) in per_client {
        latencies_us.extend(lats);
        for s in statuses {
            match s {
                "ok" => ok += 1,
                "overloaded" => overloaded += 1,
                _ => errors += 1,
            }
        }
        for (key, line) in client_payloads {
            if let Some(prev) = payloads.get(&key) {
                assert_eq!(prev, &line, "two clients saw different payloads for {key}");
            }
            payloads.insert(key, line);
        }
    }
    latencies_us.sort_unstable();
    let stats = server.stats();
    use std::sync::atomic::Ordering::Relaxed;
    LoadResult {
        label: label.to_string(),
        clients,
        requests: base.len() * rounds * clients,
        ok,
        overloaded,
        errors,
        cache_hits: stats.cache_hits.load(Relaxed),
        coalesced: stats.coalesced.load(Relaxed),
        executed: stats.executed.load(Relaxed),
        elapsed_us,
        latencies_us,
        payloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_covers_the_gallery_times_three_kinds() {
        let w = workload();
        assert_eq!(w.len(), gallery::names().len() * 3);
        let keys: std::collections::BTreeSet<String> = w.iter().map(content_key).collect();
        assert_eq!(keys.len(), w.len(), "content keys are unique");
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let r = LoadResult {
            label: "t".into(),
            clients: 1,
            requests: 4,
            ok: 4,
            overloaded: 0,
            errors: 0,
            cache_hits: 2,
            coalesced: 0,
            executed: 2,
            elapsed_us: 1_000_000,
            latencies_us: vec![10, 20, 30, 40],
            payloads: PayloadMap::new(),
        };
        assert_eq!(r.latency_us(0.50), 20);
        assert_eq!(r.latency_us(0.99), 40);
        assert!((r.flows_per_sec() - 4.0).abs() < 1e-9);
        assert!((r.reuse_ratio() - 0.5).abs() < 1e-9);
        assert!((r.mean_latency_us() - 25.0).abs() < 1e-9);
        assert!(r.render().contains("flows/s"));
        assert!(r.to_json().get("p50_us").is_some());
    }
}
