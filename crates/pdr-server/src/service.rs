//! The service core: bounded queue, worker pool, content-addressed cache,
//! shared adequation indexes and single-flight coalescing.
//!
//! ## Request path
//!
//! ```text
//! submit(request)
//!   ├─ resolve gallery flow (+ constraints override) → model digest
//!   ├─ cache probe ──────────────► hit: respond immediately, never queues
//!   ├─ single-flight probe ──────► identical key in flight: park on the
//!   │                              leader's completion, respond coalesced
//!   └─ bounded queue ────────────► full: typed `overloaded` response
//!                    └─ worker: shared index → compute → publish to
//!                       cache + every parked waiter
//! ```
//!
//! ## Locking
//!
//! Two `std::sync` mutexes, acquired in a fixed order — `maps` before
//! `queue`, never the reverse:
//!
//! * `maps` guards the result cache, the single-flight registry and the
//!   index pool. Submission holds it across the probe-then-enqueue
//!   sequence so a cache fill cannot race between a miss and the
//!   enqueue (the window in which a duplicate leader could be admitted).
//! * `queue` guards the bounded job queue, with a `Condvar` for worker
//!   wake-up. Workers pop holding only this lock, and take `maps` again
//!   only after computing — so a worker never holds both.
//!
//! Workers run the pipeline under `catch_unwind` (mirroring the sweep
//! engine): a panicking model turns into an `error` response for every
//! parked requester instead of a hung client and a poisoned pool.

use crate::compute;
use crate::metrics::ServerStats;
use crate::protocol::{CacheState, Command, Metrics, Request, RequestKind, Response};
use pdr_adequation::AdequationIndex;
use pdr_core::flow::DesignFlow;
use serde::json::Value;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing flows.
    pub workers: usize,
    /// Maximum queued (not yet executing) jobs before `overloaded`.
    pub queue_limit: usize,
    /// Serve repeated content from the result cache.
    pub cache: bool,
    /// Coalesce duplicate in-flight keys onto one computation.
    pub single_flight: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_limit: 64,
            cache: true,
            single_flight: true,
        }
    }
}

impl ServerConfig {
    /// Both reuse mechanisms off: every request computes fresh. The cold
    /// path the server benchmark measures against.
    pub fn cold() -> Self {
        ServerConfig {
            cache: false,
            single_flight: false,
            ..Self::default()
        }
    }
}

/// A cached result: the artifact digest and the deterministic payload.
struct CacheEntry {
    digest: u64,
    payload: Value,
}

/// What a worker reports back to the leader and every coalesced waiter.
#[derive(Clone)]
struct Done {
    result: Result<(u64, Value), String>,
    queue_us: u64,
    service_us: u64,
}

/// One queued job (the single-flight leader's computation).
struct Job {
    key: u64,
    kind: RequestKind,
    flow: DesignFlow,
    flow_name: String,
    iterations: u32,
    delay_us: u64,
    cacheable: bool,
    reply: Sender<Done>,
    enqueued: Instant,
}

/// Cache, single-flight registry, index pool and digest memo — one lock.
#[derive(Default)]
struct Maps {
    cache: HashMap<u64, Arc<CacheEntry>>,
    inflight: HashMap<u64, Vec<Sender<Done>>>,
    indexes: HashMap<u64, Arc<AdequationIndex>>,
    /// `(flow name, constraints override) → model_digest`: spares the hit
    /// path from rebuilding and re-digesting gallery models on every
    /// request (resolution builds the one named flow and digests its
    /// models; a memo probe costs a string hash).
    digests: HashMap<(String, Option<String>), u64>,
    digest_key_bytes: usize,
}

/// Key bytes the digest memo holds before it is cleared. Clearing is safe:
/// a memo miss re-resolves the flow to the same digest.
const DIGEST_MEMO_BYTES: usize = 4 << 20;

impl Maps {
    /// Memoize `key → digest`, first clearing the memo if the key would
    /// take it past `budget` key bytes (so it holds ≤ `budget` + one key).
    fn memo_digest(&mut self, key: (String, Option<String>), digest: u64, budget: usize) {
        let bytes = key.0.len() + key.1.as_ref().map_or(0, String::len);
        if self.digest_key_bytes + bytes > budget {
            self.digests.clear();
            self.digest_key_bytes = 0;
        }
        if self.digests.insert(key, digest).is_none() {
            self.digest_key_bytes += bytes;
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
        // Content addressing without model building when possible: the
        // digest memo lets repeat requests go straight to the cache probe.
        // `flow` is resolved lazily — only when a job must actually run.
        let memo_key = (req.flow.clone(), req.constraints.clone());
        let mut flow: Option<DesignFlow> = None;
        let mut model_digest = inner
            .maps
            .lock()
            .expect("maps lock")
            .digests
            .get(&memo_key)
            .copied();
        if model_digest.is_none() {
            let resolved = match compute::resolve_flow(&req.flow, req.constraints.as_deref()) {
                Ok(flow) => flow,
                Err(message) => {
                    ServerStats::bump(&inner.stats.errors);
                    return Response::Error {
                        id: req.id,
                        message,
                    };
                }
            };
            let digest = resolved.model_digest();
            inner
                .maps
                .lock()
                .expect("maps lock")
                .memo_digest(memo_key, digest, DIGEST_MEMO_BYTES);
            model_digest = Some(digest);
            flow = Some(resolved);
        }
        let key = compute::cache_key(
            req.kind,
            model_digest.expect("digest resolved above"),
            req.iterations,
        );
        let (tx, rx) = channel();
        let mut cache_state = CacheState::Miss;
        // At most two passes: the second only after a memoized digest
        // missed the cache and the flow had to be resolved outside the
        // lock (the cache/in-flight state may have moved meanwhile).
        loop {
            let mut maps = inner.maps.lock().expect("maps lock");
            if inner.config.cache {
                if let Some(entry) = maps.cache.get(&key) {
                    ServerStats::bump(&inner.stats.cache_hits);
                    return Response::Ok {
                        id: req.id,
                        metrics: Metrics {
                            queue_us: 0,
                            service_us: started.elapsed().as_micros() as u64,
                            cache: CacheState::Hit,
                        },
                        payload: entry.payload.clone(),
                    };
                }
            }
            if inner.config.single_flight {
                if let Some(waiters) = maps.inflight.get_mut(&key) {
                    waiters.push(tx.clone());
                    cache_state = CacheState::Coalesced;
                    break;
                }
            }
            let Some(job_flow) = flow.take() else {
                // Memoized digest but no models in hand: resolve outside
                // the lock, then re-probe.
                drop(maps);
                match compute::resolve_flow(&req.flow, req.constraints.as_deref()) {
                    Ok(resolved) => flow = Some(resolved),
                    Err(message) => {
                        ServerStats::bump(&inner.stats.errors);
                        return Response::Error {
                            id: req.id,
                            message,
                        };
                    }
                }
                continue;
            };
            // Fixed lock order: `maps` is held, take `queue` second.
            let mut queue = inner.queue.lock().expect("queue lock");
            if !queue.open {
                ServerStats::bump(&inner.stats.errors);
                return Response::Error {
                    id: req.id,
                    message: "server is shutting down".into(),
                };
            }
            if queue.jobs.len() >= inner.config.queue_limit {
                ServerStats::bump(&inner.stats.overloaded);
                return Response::Overloaded {
                    id: req.id,
                    queue_depth: queue.jobs.len(),
                    queue_limit: inner.config.queue_limit,
                };
            }
            if inner.config.single_flight {
                maps.inflight.insert(key, Vec::new());
            }
            queue.jobs.push_back(Job {
                key,
                kind: req.kind,
                flow: job_flow,
                flow_name: req.flow.clone(),
                iterations: req.iterations,
                delay_us: req.delay_us,
                cacheable: inner.config.cache,
                reply: tx,
                enqueued: Instant::now(),
            });
            inner.ready.notify_one();
            break;
        }
        let done = match rx.recv() {
            Ok(done) => done,
            Err(_) => {
                ServerStats::bump(&inner.stats.errors);
                return Response::Error {
                    id: req.id,
                    message: "worker dropped the request".into(),
                };
            }
        };
        if cache_state == CacheState::Coalesced {
            ServerStats::bump(&inner.stats.coalesced);
        }
        match done.result {
            Ok((_digest, payload)) => Response::Ok {
                id: req.id,
                metrics: Metrics {
                    queue_us: done.queue_us,
                    service_us: if cache_state == CacheState::Coalesced {
                        started.elapsed().as_micros() as u64
                    } else {
                        done.service_us
                    },
                    cache: cache_state,
                },
                payload,
            },
            Err(message) => {
                ServerStats::bump(&inner.stats.errors);
                Response::Error {
                    id: req.id,
                    message,
                }
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
            let maps = inner.maps.lock().expect("maps lock");
            snap.push_field("cache_entries", Value::UInt(maps.cache.len() as u64));
            snap.push_field("inflight", Value::UInt(maps.inflight.len() as u64));
            snap.push_field("shared_indexes", Value::UInt(maps.indexes.len() as u64));
            snap.push_field("digest_memo", Value::UInt(maps.digests.len() as u64));
        }
        {
            let queue = inner.queue.lock().expect("queue lock");
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
            let mut queue = self.inner.queue.lock().expect("queue lock");
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
    if let Some(index) = inner.maps.lock().expect("maps lock").indexes.get(&digest) {
        return Ok(index.clone());
    }
    let built = Arc::new(flow.build_index().map_err(|e| e.to_string())?);
    let mut maps = inner.maps.lock().expect("maps lock");
    Ok(maps.indexes.entry(digest).or_insert(built).clone())
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if !queue.open {
                    return;
                }
                queue = inner.ready.wait(queue).expect("queue wait");
            }
        };
        let queue_us = job.enqueued.elapsed().as_micros() as u64;
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let index = shared_index(inner, &job.flow)?;
            if job.delay_us > 0 {
                thread::sleep(Duration::from_micros(job.delay_us));
            }
            compute::execute(job.kind, &job.flow, &job.flow_name, job.iterations, &index)
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
            let mut maps = inner.maps.lock().expect("maps lock");
            if job.cacheable {
                if let Ok((digest, payload)) = &result {
                    maps.cache.insert(
                        job.key,
                        Arc::new(CacheEntry {
                            digest: *digest,
                            payload: payload.clone(),
                        }),
                    );
                }
            }
            maps.inflight.remove(&job.key).unwrap_or_default()
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

/// The digest a cached entry advertises (test hook: the cache proptest
/// checks entries against fresh compiles through the public `Response`
/// payload, but unit tests peek at the stored digest directly).
impl Server {
    /// The cached artifact digest for a content key, if present.
    pub fn cached_digest(
        &self,
        kind: RequestKind,
        model_digest: u64,
        iterations: u32,
    ) -> Option<u64> {
        let key = compute::cache_key(kind, model_digest, iterations);
        self.inner
            .maps
            .lock()
            .expect("maps lock")
            .cache
            .get(&key)
            .map(|e| e.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tiny() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_limit: 8,
            ..ServerConfig::default()
        }
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
        // The artifact digest in the cache matches the flow's own.
        let flow = compute::resolve_flow("paper", None).unwrap();
        let cached = server
            .cached_digest(RequestKind::Compile, flow.model_digest(), 64)
            .unwrap();
        assert_eq!(cached, flow.run().unwrap().digest());
    }

    #[test]
    fn unknown_flow_is_an_error_response() {
        let server = Server::start(tiny());
        match server.submit(Request::new(5, RequestKind::Compile, "nope")) {
            Response::Error { id, message } => {
                assert_eq!(id, 5);
                assert!(message.contains("unknown flow"));
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(server.stats().errors.load(Ordering::Relaxed), 1);
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
    fn digest_memo_clears_at_its_budget() {
        let mut maps = Maps::default();
        let key = |text: &str| ("paper".to_string(), Some(text.to_string()));
        maps.memo_digest(key("aaaa"), 1, 20);
        maps.memo_digest(key("aaaa"), 1, 20);
        assert_eq!((maps.digests.len(), maps.digest_key_bytes), (1, 9));
        maps.memo_digest(key("bbbb"), 2, 20);
        assert_eq!((maps.digests.len(), maps.digest_key_bytes), (2, 18));
        // 18 + 5 bytes would pass 20: the memo is cleared first.
        maps.memo_digest(("paper".to_string(), None), 3, 20);
        assert_eq!((maps.digests.len(), maps.digest_key_bytes), (1, 5));
        assert_eq!(maps.digests.get(&("paper".to_string(), None)), Some(&3));
        // A key larger than the whole budget still lands, alone.
        maps.memo_digest(key(&"x".repeat(32)), 4, 20);
        assert_eq!((maps.digests.len(), maps.digest_key_bytes), (1, 37));
    }

    #[test]
    fn responses_are_unchanged_across_a_memo_clear() {
        let server = Server::start(tiny());
        let memo = || server.inner.maps.lock().unwrap().digests.clone();
        let first = server.submit(Request::new(1, RequestKind::Compile, "paper"));
        let before = memo();
        // A zero budget clears the memo on the next insert.
        server
            .inner
            .maps
            .lock()
            .unwrap()
            .memo_digest(("other".to_string(), None), 0, 0);
        assert!(!memo().keys().any(|(flow, _)| flow == "paper"));
        let again = server.submit(Request::new(2, RequestKind::Compile, "paper"));
        assert_eq!(again.cache_state(), Some(CacheState::Hit));
        assert_eq!(first.payload_line(), again.payload_line());
        let key = ("paper".to_string(), None);
        assert_eq!(memo().get(&key), before.get(&key));
    }
}
