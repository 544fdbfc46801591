//! `server_mix`: two closed-loop clients against an in-process `Server`.
//!
//! Each client runs designer sessions through `Server::handle_line`: a
//! `compile`, a `verify` and a `simulate` line for one content (gallery
//! flow × constraint-override variant × iteration count), each sent only
//! after the previous reply. A round's stream holds every gallery flow:
//! the static flows once, each dynamic flow in [`VARIANTS_PER_FLOW`]
//! distinct variants. About a third of the sessions repeat an earlier
//! session of the same client, so their three requests hit the cache;
//! every other request is a first-seen miss that runs the full pipeline
//! against the shared index. No two clients share a first-seen key, so
//! the hit count is exact and nothing coalesces by accident of timing.
//!
//! The seed picks the variants, the order of each client's sessions and
//! which sessions repeat. It does not pick how much work each client
//! gets: a flow's contents, and their [`ITERATIONS`], are dealt to the
//! clients by a fixed rule, so every seed loads the two clients alike
//! and a round measures the server, not the luck of the deal.
//!
//! Every round starts a fresh server (set-up: start plus a warm-up that
//! fills the index pool) and replays the same seeded stream, so rounds
//! measure the same work and a run's counters repeat exactly.

use crate::check::{guarded, Checker};
use crate::layers::{self, ServerLayer};
use crate::pipeline::{staged, IndexSource, Tail};
use crate::speed::Calibration;
use crate::trace::{set_counting, Tracer};
use crate::{median, peak_rss_mb, report_timings, Options, Outcome, Rng, Round};
use pdr_adequation::AdequationIndex;
use pdr_core::gallery;
use pdr_graph::constraints::{ConstraintsFile, LoadPolicy, UnloadPolicy};
use pdr_server::compute::{self, resolve_flow};
use pdr_server::{CacheState, Request, RequestKind, Response, Server, ServerConfig};
use serde::json::{self, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Distinct contents per dynamic gallery flow in one round.
pub const VARIANTS_PER_FLOW: usize = 3;

/// Simulated iteration counts: the j-th content of a flow simulates the
/// j-th count, so every seed asks for the same spread of counts.
pub const ITERATIONS: [u32; VARIANTS_PER_FLOW] = [40, 64, 88];

/// Warm-up requests simulate this many iterations: a count the stream
/// never uses, so warm-up results are never served to the stream.
const WARMUP_ITERATIONS: u32 = 1;

/// Calibration-kernel runs between two rounds, while the server is down.
const PROBES_PER_ROUND: usize = 3;

const KINDS: [RequestKind; 3] = [
    RequestKind::Compile,
    RequestKind::Verify,
    RequestKind::Simulate,
];

/// One request content: what the cache keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Content {
    /// Gallery flow name.
    pub flow: &'static str,
    /// Constraints-file override, if any.
    pub constraints: Option<String>,
    /// Iterations of the `simulate` request.
    pub iterations: u32,
}

impl Content {
    /// The protocol line of one request on this content. `compile` and
    /// `verify` lines carry no iteration count, as a client sends them.
    pub fn line(&self, id: u64, kind: RequestKind) -> String {
        let mut req = Request::new(id, kind, self.flow).with_iterations(self.iterations);
        if let Some(text) = &self.constraints {
            req = req.with_constraints(text.clone());
        }
        req.render()
    }

    /// The iteration count the server keys this request on.
    pub fn iterations_of(&self, kind: RequestKind) -> u32 {
        match kind {
            RequestKind::Simulate => self.iterations,
            _ => Request::new(0, kind, self.flow).iterations,
        }
    }
}

/// The constraint-override variants of a gallery flow: `None` (the
/// flow's own file), then one load-policy flip, one unload-policy flip
/// and one flip of both per constrained module — the perturbations the
/// server's cache-correctness test sends. Fully static flows have only
/// `None`.
pub fn variants(flow: &str) -> Vec<Option<String>> {
    let modules = gallery::by_name(flow)
        .expect("gallery flow")
        .flow
        .constraints()
        .modules()
        .to_vec();
    let mut out = vec![None];
    for target in 0..modules.len() {
        for (load, unload) in [(true, false), (false, true), (true, true)] {
            let mut flipped = modules.clone();
            let m = &mut flipped[target];
            if load {
                m.load = match m.load {
                    LoadPolicy::AtStart => LoadPolicy::OnDemand,
                    LoadPolicy::OnDemand => LoadPolicy::AtStart,
                };
            }
            if unload {
                m.unload = match m.unload {
                    UnloadPolicy::Explicit => UnloadPolicy::Evict,
                    UnloadPolicy::Evict => UnloadPolicy::Explicit,
                };
            }
            let mut file = ConstraintsFile::new();
            for m in flipped {
                file.add(m).expect("module names stay unique");
            }
            out.push(Some(file.to_string()));
        }
    }
    out
}

/// One round's seeded stream: per client, the contents of its sessions
/// in order, as indexes into `contents`.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Every first-seen content of the round.
    pub contents: Vec<Content>,
    /// Per client, the content index of each session.
    pub sessions: Vec<Vec<usize>>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        let mut rng = Rng::new(seed, 0x5e7e);
        let mut contents = Vec::new();
        let mut sessions = vec![Vec::new(); CLIENTS];
        for (f, flow) in gallery::names().into_iter().enumerate() {
            let mut vars = variants(flow);
            rng.shuffle(&mut vars[1..]);
            // Dynamic flows: the base file plus distinct flips; the j-th
            // content of flow f goes to client (f + j) % CLIENTS.
            for (j, constraints) in vars.into_iter().take(VARIANTS_PER_FLOW).enumerate() {
                sessions[(f + j) % CLIENTS].push(contents.len());
                contents.push(Content {
                    flow,
                    constraints,
                    iterations: ITERATIONS[j],
                });
            }
        }
        for client in &mut sessions {
            rng.shuffle(client);
        }
        // One repeat per two first-seen sessions, each replaying an
        // earlier session of the same client.
        for client in &mut sessions {
            let fresh = client.len();
            for _ in 0..fresh / 2 {
                let at = 1 + rng.below(client.len());
                let earlier = client[rng.below(at)];
                client.insert(at, earlier);
            }
        }
        Stream { contents, sessions }
    }

    /// Requests in one round.
    pub fn requests(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum::<usize>() * KINDS.len()
    }
}

/// One request as a client saw it.
#[derive(Debug, Clone)]
struct Sent {
    id: u64,
    content: usize,
    kind: RequestKind,
    ms: f64,
    reply: String,
}

/// One round: set-up, then the clients' stream.
struct ServerRound {
    setup_s: f64,
    /// The round's sessions over the sum of each client's sessions per
    /// second of its own busy time: sessions over this is that sum, the
    /// clients' combined throughput, whichever client finished first.
    client_s: f64,
    sent: Vec<Sent>,
    sessions_ms: Vec<f64>,
    stats_before: Value,
    stats_after: Value,
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

fn run_round(stream: &Stream, round: u64, chk: &mut Checker) -> ServerRound {
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        workers: workers(),
        ..ServerConfig::default()
    });
    for flow in gallery::names() {
        let line = Request::new(0, RequestKind::Simulate, flow)
            .with_iterations(WARMUP_ITERATIONS)
            .render();
        chk.attempt();
        let reply = server.handle_line(&line);
        if !matches!(Response::parse(&reply), Ok(Response::Ok { .. })) {
            chk.fail(format!("warm-up {flow}: {reply}"));
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    let stats_before = server.stats_snapshot();
    let per_client: Vec<(Vec<Sent>, Vec<f64>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = stream
            .sessions
            .iter()
            .enumerate()
            .map(|(client, sessions)| {
                let server = &server;
                s.spawn(move || client_loop(server, stream, round, client, sessions))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stats_after = server.stats_snapshot();
    drop(server);
    let mut sent = Vec::new();
    let mut sessions_ms = Vec::new();
    let mut sessions_per_s = 0.0;
    for (s, ms, busy_s) in per_client {
        sessions_per_s += ms.len() as f64 / busy_s;
        sent.extend(s);
        sessions_ms.extend(ms);
    }
    let client_s = sessions_ms.len() as f64 / sessions_per_s;
    ServerRound {
        setup_s,
        client_s,
        sent,
        sessions_ms,
        stats_before,
        stats_after,
    }
}

fn client_loop(
    server: &Server,
    stream: &Stream,
    round: u64,
    client: usize,
    sessions: &[usize],
) -> (Vec<Sent>, Vec<f64>, f64) {
    let start = Instant::now();
    let mut sent = Vec::with_capacity(sessions.len() * KINDS.len());
    let mut sessions_ms = Vec::with_capacity(sessions.len());
    let mut n = 0u64;
    for &content in sessions {
        let t = Instant::now();
        for kind in KINDS {
            let id = request_id(round, client, n);
            n += 1;
            let line = stream.contents[content].line(id, kind);
            let r = Instant::now();
            let reply = server.handle_line(&line);
            sent.push(Sent {
                id,
                content,
                kind,
                ms: r.elapsed().as_secs_f64() * 1e3,
                reply,
            });
        }
        sessions_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (sent, sessions_ms, start.elapsed().as_secs_f64())
}

/// Request ids: round, client and sequence number, so spans of the
/// traced replay can be matched back to the request they explain.
fn request_id(round: u64, client: usize, n: u64) -> u64 {
    round * 1_000_000 + client as u64 * 100_000 + n
}

fn stat(v: &Value, field: &str) -> u64 {
    v.get(field).and_then(Value::as_u64).unwrap_or(0)
}

/// Reference payloads, computed once per (content, kind) by a direct
/// `compute::execute` on a freshly built index.
#[derive(Default)]
struct Payloads(BTreeMap<(usize, &'static str), Result<String, String>>);

impl Payloads {
    fn get(
        &mut self,
        stream: &Stream,
        content: usize,
        kind: RequestKind,
    ) -> &Result<String, String> {
        self.0.entry((content, kind.as_str())).or_insert_with(|| {
            let c = &stream.contents[content];
            guarded(|| {
                let flow = resolve_flow(c.flow, c.constraints.as_deref())?;
                let index = flow.build_index().map_err(|e| e.to_string())?;
                let (_, payload) =
                    compute::execute(kind, &flow, c.flow, c.iterations_of(kind), &index)?;
                Ok(json::to_string(&payload))
            })
        })
    }
}

/// Check every reply of a round: `ok` status, a payload equal to the
/// direct computation, no error-level diagnostics, full simulations.
fn check_round(stream: &Stream, round: &ServerRound, payloads: &mut Payloads, chk: &mut Checker) {
    for s in &round.sent {
        chk.attempt();
        let c = &stream.contents[s.content];
        let what = format!(
            "{} {} {:?}",
            s.kind.as_str(),
            c.flow,
            c.constraints.is_some()
        );
        let payload = match Response::parse(&s.reply) {
            Ok(Response::Ok { payload, .. }) => payload,
            _ => {
                chk.fail(format!("{what}: {}", s.reply));
                continue;
            }
        };
        let served = json::to_string(&payload);
        match payloads.get(stream, s.content, s.kind) {
            Ok(expected) if *expected == served => {}
            Ok(_) => {
                chk.fail(format!("{what}: payload differs from compute::execute"));
                continue;
            }
            Err(e) => {
                chk.fail(format!("{what}: direct execution failed: {e}"));
                continue;
            }
        }
        match s.kind {
            RequestKind::Verify => {
                let errors = payload.get("errors").and_then(Value::as_u64);
                chk.expect(errors == Some(0), || {
                    format!("{what}: {errors:?} lint errors")
                });
            }
            RequestKind::Simulate => {
                let done = payload.get("iterations").and_then(Value::as_u64);
                chk.expect(done == Some(c.iterations as u64), || {
                    format!("{what}: simulated {done:?} of {} iterations", c.iterations)
                });
            }
            RequestKind::Compile => {}
        }
    }
}

/// Run `server_mix`.
pub fn run(options: &Options) -> Outcome {
    let stream = Stream::new(options.seed);
    let budget = Duration::from_secs_f64(options.seconds);
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let mut tr = Tracer::default();
    let mut layer = ServerLayer::default();
    if options.traced {
        set_counting(true);
    }
    let min_rounds = options.setup_reps.max(1);
    let mut cal = Calibration::default();
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        if !options.traced {
            cal.probe(PROBES_PER_ROUND);
        }
        let round = run_round(&stream, rounds.len() as u64, &mut out.check);
        if options.traced {
            replay(&stream, &round, &mut tr, &mut out.check);
        }
        rounds.push(round);
    }
    let peak = peak_rss_mb();
    let mut payloads = Payloads::default();
    for round in &rounds {
        check_round(&stream, round, &mut payloads, &mut out.check);
    }
    if options.traced {
        for round in &rounds {
            for s in &round.sent {
                if let Ok(Response::Ok { metrics, .. }) = Response::parse(&s.reply) {
                    if metrics.cache == CacheState::Miss {
                        layer.queue_us.push(metrics.queue_us as f64);
                        layer.service_us.push(metrics.service_us as f64);
                    }
                }
            }
        }
        let (before, after) = (&rounds[0].stats_before, &rounds[0].stats_after);
        let delta = |f: &str| stat(after, f) - stat(before, f);
        layer.requests = delta("requests") as usize;
        layer.hit_ratio = delta("cache_hits") as f64 / delta("requests").max(1) as f64;
        layer.coalesced = delta("coalesced");
        layer.executed = delta("executed");
        layer.cache_entries = stat(after, "cache_entries");
        layer.digest_memo = stat(after, "digest_memo");
        layer.shared_indexes = stat(after, "shared_indexes");
        layers::report(&tr, |id| id < 1_000_000, &layer, &mut out);
        out.notes.push(
            "trace overhead: not measured on server_mix (the server path carries no spans)".into(),
        );
        layers::write_trace(&tr, options, &mut out);
        return out;
    }
    let timed: Vec<Round> = rounds
        .iter()
        .map(|round| {
            let mut r = Round {
                wall_s: round.client_s,
                sessions: round.sessions_ms.clone(),
                ..Round::default()
            };
            for s in &round.sent {
                match s.kind {
                    RequestKind::Compile => r.compile.push(s.ms),
                    RequestKind::Verify => r.verify.push(s.ms),
                    RequestKind::Simulate => r.simulate.push(s.ms),
                }
                r.requests.push(s.ms);
            }
            r
        })
        .collect();
    report_timings(&timed, &cal, "rounds", &mut out);
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    out.metric("setup_s", median(&setup) / cal.slowdown(), "s", setup.len());
    out.metric("peak_rss_mb", peak, "MiB", 1);
    out.notes.push(format!(
        "{} rounds of {} requests from {CLIENTS} clients on {} workers",
        rounds.len(),
        stream.requests(),
        workers()
    ));
    out
}

/// The traced run's breakdown of a round: every miss replayed stage by
/// stage (span id = request id), against an index pool built up front as
/// the server's warm-up builds it. The staged artifact digest must equal
/// the digest the server's reply carries.
fn replay(stream: &Stream, round: &ServerRound, tr: &mut Tracer, chk: &mut Checker) {
    let mut pool = BTreeMap::<u64, AdequationIndex>::new();
    for flow in gallery::names() {
        let flow = gallery::by_name(flow).expect("gallery flow").flow;
        if let Ok(index) = flow.build_index() {
            pool.insert(flow.index_digest(), index);
        }
    }
    for s in &round.sent {
        let Ok(Response::Ok {
            metrics, payload, ..
        }) = Response::parse(&s.reply)
        else {
            continue;
        };
        if metrics.cache != CacheState::Miss {
            continue;
        }
        let c = &stream.contents[s.content];
        let tail = Tail {
            verify: s.kind == RequestKind::Verify,
            simulate: (s.kind == RequestKind::Simulate).then_some(c.iterations),
        };
        tr.set_id(s.id);
        let staged = staged(
            tr,
            || resolve_flow(c.flow, c.constraints.as_deref()),
            IndexSource::Pool(&mut pool),
            tail,
        );
        chk.attempt();
        let served = payload.get("digest").and_then(Value::as_str);
        match staged {
            Ok(st) => {
                let digest = pdr_sweep::digest::to_hex(st.artifacts.digest());
                chk.expect(served == Some(digest.as_str()), || {
                    format!(
                        "{} {}: staged digest {digest}, served {served:?}",
                        s.kind.as_str(),
                        c.flow
                    )
                });
            }
            Err(e) => chk.fail(format!("{} {}: staged: {e}", s.kind.as_str(), c.flow)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_a_third_repeats() {
        let a = Stream::new(7);
        let b = Stream::new(7);
        assert_eq!(a.contents, b.contents);
        assert_eq!(a.sessions, b.sessions);
        let sessions: usize = a.sessions.iter().map(Vec::len).sum();
        let repeats = sessions - a.contents.len();
        assert!(
            repeats * 4 > sessions && repeats * 2 < sessions,
            "{repeats}/{sessions}"
        );
        // First-seen contents are distinct, so every repeat is a hit.
        for (i, x) in a.contents.iter().enumerate() {
            for y in &a.contents[i + 1..] {
                assert!(x.flow != y.flow || x.constraints != y.constraints);
            }
        }
        assert_ne!(Stream::new(8).sessions, a.sessions);
    }

    #[test]
    fn every_seed_gives_each_client_the_same_load() {
        // (flow, iterations) of each client's sessions, order ignored.
        let load = |seed: u64| -> Vec<Vec<(&'static str, u32)>> {
            let s = Stream::new(seed);
            s.sessions
                .iter()
                .map(|client| {
                    let mut l: Vec<_> = client
                        .iter()
                        .map(|&c| (s.contents[c].flow, s.contents[c].iterations))
                        .collect();
                    l.sort_unstable();
                    l
                })
                .collect()
        };
        let first = load(1);
        for seed in 2..8 {
            let mut other = load(seed);
            // Repeats are seeded; the first-seen contents are not.
            for (a, b) in first.iter().zip(&mut other) {
                let mut fresh = a.clone();
                fresh.dedup();
                b.dedup();
                assert_eq!(&fresh, b, "seed {seed}");
            }
        }
    }
}
