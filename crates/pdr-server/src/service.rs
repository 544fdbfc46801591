//! The service core: bounded queue, worker pool, result cache keyed on
//! the request itself, shared adequation indexes and single-flight
//! coalescing.
//!
//! ## Request path
//!
//! ```text
//! submit(request) — one pass under `maps`, builds no flow
//!   ├─ cache probe ──────────────► hit: respond immediately, never queues
//!   ├─ single-flight probe ──────► identical key in flight: park on the
//!   │                              leader's completion, respond coalesced
//!   └─ bounded queue ────────────► full: typed `overloaded` response
//!                    └─ worker: resolve flow → shared index → compute →
//!                       publish to cache + every parked waiter
//! ```
//!
//! ## Keys
//!
//! A result is keyed on the request content that decides it — kind, flow
//! name, constraints text and iterations (`Key`) — and `HashMap`
//! equality, not a digest, decides a hit. Two requests share a result
//! only if they are the same request, so no crafted text can reach
//! another tenant's entry. Constraints text that is equivalent to, but not
//! byte-equal with, an earlier one computes separately. The cache holds
//! at most `CACHE_KEY_BYTES` of key bytes (plus one key): an insert
//! that would pass the budget clears it first.
//!
//! ## Locking
//!
//! Two `parking_lot` mutexes, acquired in a fixed order — `maps` before
//! `queue`, never the reverse. They do not poison: a thread that panics
//! while holding one leaves it usable, so one panic cannot fail every
//! later request.
//!
//! * `maps` guards the result cache, the single-flight registry and the
//!   index pool. Submission holds it across the probe-then-enqueue
//!   sequence so a cache fill cannot race between a miss and the
//!   enqueue (the window in which a duplicate leader could be admitted).
//! * `queue` guards the bounded job queue, with a `Condvar` for worker
//!   wake-up. Workers pop holding only this lock, and take `maps` again
//!   only to share an index and to publish — so a worker never holds both.
//!
//! Workers resolve and run the flow under `catch_unwind` (mirroring the
//! sweep engine): a bad request or a panicking model turns into an
//! `error` response for every parked requester instead of a hung client
//! and a poisoned pool.

use crate::compute;
use crate::metrics::ServerStats;
use crate::protocol::{CacheState, Command, Metrics, Request, RequestKind, Response};
use parking_lot::{Condvar, Mutex};
use pdr_adequation::AdequationIndex;
use pdr_core::flow::DesignFlow;
use serde::json::Value;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing flows.
    pub workers: usize,
    /// Maximum queued (not yet executing) jobs before `overloaded`.
    pub queue_limit: usize,
    /// Serve repeated requests from the result cache and coalesce
    /// duplicate in-flight requests onto one computation.
    pub reuse: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_limit: 64,
            reuse: true,
        }
    }
}

impl ServerConfig {
    /// Reuse off: every request computes fresh. The cold path the server
    /// benchmark measures against.
    pub fn cold() -> Self {
        ServerConfig {
            reuse: false,
            ..Self::default()
        }
    }
}

/// The request content that decides a payload: the cache and
/// single-flight key. Equal keys ⇒ byte-identical payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    kind: RequestKind,
    flow: String,
    constraints: Option<String>,
    iterations: u32,
}

impl Key {
    /// The text bytes the key holds (what the cache budget counts).
    fn bytes(&self) -> usize {
        self.flow.len() + self.constraints.as_ref().map_or(0, String::len)
    }
}

/// Key bytes the result cache holds before it is cleared. Clearing is
/// safe: a cleared key computes again to the same payload.
const CACHE_KEY_BYTES: usize = 4 << 20;

/// What a worker reports back to the leader and every coalesced waiter.
#[derive(Clone)]
struct Done {
    result: Result<Value, String>,
    queue_us: u64,
    service_us: u64,
}

/// One queued job (the single-flight leader's computation).
struct Job {
    key: Key,
    delay_us: u64,
    reply: Sender<Done>,
    enqueued: Instant,
}

/// Cache, single-flight registry and index pool — one lock. With reuse
/// off nothing enters the cache or the registry, so both probes miss.
#[derive(Default)]
struct Maps {
    cache: HashMap<Key, Value>,
    cache_key_bytes: usize,
    inflight: HashMap<Key, Vec<Sender<Done>>>,
    indexes: HashMap<u64, Arc<AdequationIndex>>,
}

impl Maps {
    /// Cache `key → payload`, first clearing the cache if the key would
    /// take it past `budget` key bytes (so it holds ≤ `budget` + one key).
    fn cache_insert(&mut self, key: Key, payload: Value, budget: usize) {
        let bytes = key.bytes();
        if self.cache_key_bytes + bytes > budget {
            self.cache.clear();
            self.cache_key_bytes = 0;
        }
        if self.cache.insert(key, payload).is_none() {
            self.cache_key_bytes += bytes;
        }
    }
}

/// The bounded queue.
struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Inner {
    config: ServerConfig,
    maps: Mutex<Maps>,
    queue: Mutex<QueueState>,
    ready: Condvar,
    stats: ServerStats,
}

/// A running compilation service. Cheap to share behind an [`Arc`]:
/// every transport thread calls [`Server::submit`] /
/// [`Server::handle_line`] concurrently.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the worker pool and return the ready service.
    pub fn start(config: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            config: ServerConfig {
                workers: config.workers.max(1),
                queue_limit: config.queue_limit.max(1),
                ..config
            },
            maps: Mutex::new(Maps::default()),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            stats: ServerStats::new(),
        });
        let workers = (0..inner.config.workers)
            .map(|_| {
                let inner = inner.clone();
                thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Server { inner, workers }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// The lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Submit one request and block until its response. Safe to call from
    /// any number of threads; this is the in-process transport.
    pub fn submit(&self, req: Request) -> Response {
        let inner = &*self.inner;
        ServerStats::bump(&inner.stats.requests);
        let started = Instant::now();
        let (id, delay_us) = (req.id, req.delay_us);
        let key = Key {
            kind: req.kind,
            flow: req.flow,
            constraints: req.constraints,
            iterations: req.iterations,
        };
        let (tx, rx) = channel();
        let coalesced = {
            let mut maps = inner.maps.lock();
            if let Some(payload) = maps.cache.get(&key) {
                ServerStats::bump(&inner.stats.cache_hits);
                return Response::Ok {
                    id,
                    metrics: Metrics {
                        queue_us: 0,
                        service_us: started.elapsed().as_micros() as u64,
                        cache: CacheState::Hit,
                    },
                    payload: payload.clone(),
                };
            }
            if let Some(waiters) = maps.inflight.get_mut(&key) {
                waiters.push(tx);
                true
            } else {
                // Fixed lock order: `maps` is held, take `queue` second.
                let mut queue = inner.queue.lock();
                if !queue.open {
                    ServerStats::bump(&inner.stats.errors);
                    return Response::Error {
                        id,
                        message: "server is shutting down".into(),
                    };
                }
                if queue.jobs.len() >= inner.config.queue_limit {
                    ServerStats::bump(&inner.stats.overloaded);
                    return Response::Overloaded {
                        id,
                        queue_depth: queue.jobs.len(),
                        queue_limit: inner.config.queue_limit,
                    };
                }
                if inner.config.reuse {
                    maps.inflight.insert(key.clone(), Vec::new());
                }
                queue.jobs.push_back(Job {
                    key,
                    delay_us,
                    reply: tx,
                    enqueued: Instant::now(),
                });
                inner.ready.notify_one();
                false
            }
        };
        let Ok(done) = rx.recv() else {
            ServerStats::bump(&inner.stats.errors);
            return Response::Error {
                id,
                message: "worker dropped the request".into(),
            };
        };
        if coalesced {
            ServerStats::bump(&inner.stats.coalesced);
        }
        match done.result {
            Ok(payload) => Response::Ok {
                id,
                metrics: Metrics {
                    queue_us: done.queue_us,
                    service_us: if coalesced {
                        started.elapsed().as_micros() as u64
                    } else {
                        done.service_us
                    },
                    cache: if coalesced {
                        CacheState::Coalesced
                    } else {
                        CacheState::Miss
                    },
                },
                payload,
            },
            Err(message) => {
                ServerStats::bump(&inner.stats.errors);
                Response::Error { id, message }
            }
        }
    }

    /// Serve one protocol line: parse, dispatch, render the response.
    /// This is what every byte-stream transport (TCP, stdin) calls.
    pub fn handle_line(&self, line: &str) -> String {
        match crate::protocol::parse_line(line) {
            Ok(Command::Run(req)) => self.submit(req).render(),
            Ok(Command::Stats { id }) => Response::Stats {
                id,
                payload: self.stats_snapshot(),
            }
            .render(),
            Err(message) => Response::Error { id: 0, message }.render(),
        }
    }

    /// Full statistics snapshot: lifetime counters plus live gauges.
    pub fn stats_snapshot(&self) -> Value {
        let inner = &*self.inner;
        let mut snap = inner.stats.snapshot();
        {
            let maps = inner.maps.lock();
            snap.push_field("cache_entries", Value::UInt(maps.cache.len() as u64));
            snap.push_field("inflight", Value::UInt(maps.inflight.len() as u64));
            snap.push_field("shared_indexes", Value::UInt(maps.indexes.len() as u64));
        }
        {
            let queue = inner.queue.lock();
            snap.push_field("queue_depth", Value::UInt(queue.jobs.len() as u64));
        }
        snap.push_field("workers", Value::UInt(inner.config.workers as u64));
        snap.push_field("queue_limit", Value::UInt(inner.config.queue_limit as u64));
        snap
    }

    /// Drain the queue and stop the workers. Jobs already queued are
    /// completed (no request is silently dropped); new submissions are
    /// refused. Called by [`Drop`] if not called explicitly.
    pub fn shutdown(&mut self) {
        {
            let mut queue = self.inner.queue.lock();
            queue.open = false;
            self.inner.ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Resolve the shared [`AdequationIndex`] for a flow: pool lookup by
/// index digest, building (outside the lock) on first use. Two workers
/// racing on a brand-new digest may both build; the pool keeps the first
/// insert and the loser's copy is dropped — wasted work, never wrong
/// results.
fn shared_index(inner: &Inner, flow: &DesignFlow) -> Result<Arc<AdequationIndex>, String> {
    let digest = flow.index_digest();
    if let Some(index) = inner.maps.lock().indexes.get(&digest) {
        return Ok(index.clone());
    }
    let built = Arc::new(flow.build_index().map_err(|e| e.to_string())?);
    let mut maps = inner.maps.lock();
    Ok(maps.indexes.entry(digest).or_insert(built).clone())
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if !queue.open {
                    return;
                }
                inner.ready.wait(&mut queue);
            }
        };
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        let started = Instant::now();
        let key = &job.key;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let flow = compute::resolve_flow(&key.flow, key.constraints.as_deref())?;
            let index = shared_index(inner, &flow)?;
            if job.delay_us > 0 {
                thread::sleep(Duration::from_micros(job.delay_us));
            }
            let (_, payload) =
                compute::execute(key.kind, &flow, &key.flow, key.iterations, &index)?;
            Ok(payload)
        }))
        .unwrap_or_else(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            Err(format!("worker panicked: {what}"))
        });
        let service_us = started.elapsed().as_micros() as u64;
        ServerStats::bump(&inner.stats.executed);
        ServerStats::add(&inner.stats.total_queue_us, queue_us);
        ServerStats::add(&inner.stats.total_service_us, service_us);
        // Publish: fill the cache, then release every parked requester.
        let waiters = {
            let mut maps = inner.maps.lock();
            let waiters = maps.inflight.remove(&job.key).unwrap_or_default();
            if inner.config.reuse {
                if let Ok(payload) = &result {
                    maps.cache_insert(job.key, payload.clone(), CACHE_KEY_BYTES);
                }
            }
            waiters
        };
        let done = Done {
            result,
            queue_us,
            service_us,
        };
        for waiter in waiters {
            let _ = waiter.send(done.clone());
        }
        let _ = job.reply.send(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;

    fn tiny() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_limit: 8,
            ..ServerConfig::default()
        }
    }

    fn key(kind: RequestKind, flow: &str, constraints: Option<&str>, iterations: u32) -> Key {
        Key {
            kind,
            flow: flow.into(),
            constraints: constraints.map(String::from),
            iterations,
        }
    }

    /// A thread that panics while it holds `maps` leaves the lock usable:
    /// later requests are served as before.
    #[test]
    fn a_panic_under_the_maps_lock_leaves_the_server_serving() {
        let server = Server::start(tiny());
        let inner = server.inner.clone();
        let panicked = thread::spawn(move || {
            let _maps = inner.maps.lock();
            panic!("holder panics");
        })
        .join();
        assert!(panicked.is_err(), "the holder panicked");
        let reply = server.handle_line(r#"{"id":1,"op":"compile","flow":"paper"}"#);
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
        let stats = server.handle_line(r#"{"id":2,"op":"stats"}"#);
        assert!(stats.contains(r#""status":"stats""#), "{stats}");
    }

    #[test]
    fn compile_then_hit_then_stats() {
        let server = Server::start(tiny());
        let miss = server.submit(Request::new(1, RequestKind::Compile, "paper"));
        assert_eq!(miss.cache_state(), Some(CacheState::Miss));
        let hit = server.submit(Request::new(2, RequestKind::Compile, "paper"));
        assert_eq!(hit.cache_state(), Some(CacheState::Hit));
        assert_eq!(miss.payload_line(), hit.payload_line());
        let snap = server.stats_snapshot();
        assert_eq!(snap.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.get("cache_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("executed").and_then(Value::as_u64), Some(1));
        assert_eq!(snap.get("cache_entries").and_then(Value::as_u64), Some(1));
        // The cached payload advertises the flow's own artifact digest.
        let flow = compute::resolve_flow("paper", None).unwrap();
        let digest = pdr_fabric::digest::to_hex(flow.run().unwrap().digest());
        let maps = server.inner.maps.lock();
        let cached = &maps.cache[&key(RequestKind::Compile, "paper", None, 64)];
        assert_eq!(cached.get("digest").and_then(Value::as_str), Some(&*digest));
    }

    #[test]
    fn keys_separate_kinds_flows_texts_and_iterations() {
        let keys = [
            key(RequestKind::Compile, "paper", None, 64),
            key(RequestKind::Verify, "paper", None, 64),
            key(RequestKind::Simulate, "paper", None, 64),
            key(RequestKind::Simulate, "paper", None, 32),
            key(RequestKind::Compile, "two_regions", None, 64),
            key(RequestKind::Compile, "paper", Some(""), 64),
            key(RequestKind::Compile, "paper", Some(" "), 64),
        ];
        let distinct: HashSet<&Key> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len());
        // Equality is on content: an identical request is the same key.
        assert_eq!(key(RequestKind::Compile, "paper", None, 64), keys[0]);
        assert_eq!(keys[5].bytes(), 5);
        assert_eq!(keys[6].bytes(), 6);
    }

    #[test]
    fn resolve_errors_keep_their_text_and_count_once() {
        let server = Server::start(tiny());
        let cases = [("nope", None), ("paper", Some("[module"))];
        for (n, (flow, text)) in cases.into_iter().enumerate() {
            let expected = compute::resolve_flow(flow, text).unwrap_err();
            let mut req = Request::new(n as u64, RequestKind::Compile, flow);
            req.constraints = text.map(String::from);
            match server.submit(req) {
                Response::Error { id, message } => {
                    assert_eq!(id, n as u64);
                    assert_eq!(message, expected);
                }
                other => panic!("expected error, got {other:?}"),
            }
            assert_eq!(server.stats().errors.load(Ordering::Relaxed), n as u64 + 1);
        }
        let snap = server.stats_snapshot();
        assert_eq!(snap.get("cache_entries").and_then(Value::as_u64), Some(0));
        assert_eq!(snap.get("inflight").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn handle_line_speaks_the_protocol() {
        let server = Server::start(tiny());
        let line = server.handle_line(r#"{"id": 9, "op": "compile", "flow": "paper"}"#);
        let resp = Response::parse(&line).unwrap();
        assert_eq!(resp.id(), 9);
        assert!(resp.is_ok());
        let stats = server.handle_line(r#"{"id": 10, "op": "stats"}"#);
        match Response::parse(&stats).unwrap() {
            Response::Stats { id, payload } => {
                assert_eq!(id, 10);
                assert_eq!(payload.get("requests").and_then(Value::as_u64), Some(1));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let err = server.handle_line("garbage");
        assert!(matches!(
            Response::parse(&err).unwrap(),
            Response::Error { .. }
        ));
    }

    #[test]
    fn shared_index_pool_deduplicates_by_index_digest() {
        let server = Server::start(tiny());
        // two_regions and two_regions_xc2v4000 share models (different
        // device) → one pooled index serves both.
        server.submit(Request::new(1, RequestKind::Compile, "two_regions"));
        server.submit(Request::new(
            2,
            RequestKind::Compile,
            "two_regions_xc2v4000",
        ));
        let snap = server.stats_snapshot();
        assert_eq!(snap.get("executed").and_then(Value::as_u64), Some(2));
        assert_eq!(snap.get("shared_indexes").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_the_queue() {
        let mut server = Server::start(tiny());
        server.submit(Request::new(1, RequestKind::Compile, "paper"));
        server.shutdown();
        match server.submit(Request::new(2, RequestKind::Compile, "paper_fixed_qpsk")) {
            Response::Error { message, .. } => assert!(message.contains("shutting down")),
            other => panic!("expected shutdown error, got {other:?}"),
        }
    }

    #[test]
    fn cache_clears_at_its_key_byte_budget() {
        let mut maps = Maps::default();
        let text = |t: &str| key(RequestKind::Compile, "paper", Some(t), 64);
        let entries = |maps: &Maps| (maps.cache.len(), maps.cache_key_bytes);
        maps.cache_insert(text("aaaa"), Value::UInt(1), 20);
        maps.cache_insert(text("aaaa"), Value::UInt(1), 20);
        assert_eq!(entries(&maps), (1, 9));
        maps.cache_insert(text("bbbb"), Value::UInt(2), 20);
        assert_eq!(entries(&maps), (2, 18));
        // 18 + 5 bytes would pass 20: the cache is cleared first.
        let plain = key(RequestKind::Compile, "paper", None, 64);
        maps.cache_insert(plain.clone(), Value::UInt(3), 20);
        assert_eq!(entries(&maps), (1, 5));
        assert_eq!(maps.cache.get(&plain), Some(&Value::UInt(3)));
        // A key larger than the whole budget still lands, alone.
        maps.cache_insert(text(&"x".repeat(32)), Value::UInt(4), 20);
        assert_eq!(entries(&maps), (1, 37));
    }

    #[test]
    fn responses_are_unchanged_across_a_cache_clear() {
        let server = Server::start(tiny());
        let first = server.submit(Request::new(1, RequestKind::Compile, "paper"));
        // A zero budget clears the cache on the next insert.
        let other = key(RequestKind::Compile, "other", None, 64);
        let mut maps = server.inner.maps.lock();
        maps.cache_insert(other, Value::Null, 0);
        assert_eq!(maps.cache.len(), 1);
        drop(maps);
        let again = server.submit(Request::new(2, RequestKind::Compile, "paper"));
        assert_eq!(again.cache_state(), Some(CacheState::Miss));
        assert_eq!(first.payload_line(), again.payload_line());
        let hit = server.submit(Request::new(3, RequestKind::Compile, "paper"));
        assert_eq!(hit.cache_state(), Some(CacheState::Hit));
        assert_eq!(first.payload_line(), hit.payload_line());
    }
}
