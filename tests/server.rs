//! Serving-layer integration suite: concurrency determinism,
//! backpressure accounting, transports, and cache correctness under
//! randomized interleavings.
//!
//! The `pdr-server` tentpole promises that putting the design flow
//! behind a queue, a cache and a worker pool changes *when* results are
//! computed, never *what* they are. These tests pin that contract:
//!
//! * N concurrent clients observe deterministic payloads byte-identical
//!   to a sequential single-worker run, on every gallery flow × request
//!   kind;
//! * a saturated bounded queue rejects with typed `overloaded`
//!   responses and neither loses nor duplicates a single response;
//! * the TCP and stdin transports speak the same protocol as the
//!   in-process path, and a hostile request line (100 000 nested
//!   brackets) gets a typed error instead of aborting the process;
//! * (proptest) under random request interleavings with randomly
//!   perturbed constraint files, a cached response never differs from a
//!   fresh single-threaded compile of the same content.

use proptest::prelude::*;

use pdr_bench::server_study::{self, run_load};
use pdr_core::gallery;
use pdr_graph::constraints::{ConstraintsFile, LoadPolicy, UnloadPolicy};
use pdr_server::{compute, CacheState, Request, RequestKind, Response, Server, ServerConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

const KINDS: [RequestKind; 3] = [
    RequestKind::Compile,
    RequestKind::Verify,
    RequestKind::Simulate,
];

// ------------------------------------------------- concurrency determinism

/// Eight concurrent clients hammering every gallery flow × kind, twice,
/// against the full-featured server (cache + single-flight on) see
/// payloads byte-identical to a sequential single-worker cold run.
#[test]
fn concurrent_clients_match_sequential_run_on_every_gallery_flow() {
    let sequential = run_load(
        ServerConfig {
            workers: 1,
            ..ServerConfig::cold()
        },
        1,
        1,
        false,
        "seq",
    );
    assert_eq!(sequential.errors, 0);
    assert_eq!(sequential.overloaded, 0);
    // Every gallery flow × kind produced a payload.
    assert_eq!(
        sequential.payloads.len(),
        gallery::names().len() * KINDS.len()
    );

    let concurrent = run_load(ServerConfig::default(), 8, 2, false, "conc");
    assert_eq!(concurrent.errors, 0);
    assert_eq!(concurrent.overloaded, 0);
    assert_eq!(
        sequential.payloads, concurrent.payloads,
        "concurrent payloads diverge from the sequential baseline"
    );
    // The repeated rounds actually exercised the reuse machinery.
    assert!(concurrent.cache_hits + concurrent.coalesced > 0);
}

/// Single-flight coalescing: many clients requesting the same uncached
/// content at once produce exactly one execution, and every response
/// carries the identical payload.
#[test]
fn duplicate_inflight_requests_coalesce_onto_one_execution() {
    let server = Arc::new(Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    }));
    let clients = 6;
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                scope.spawn(move || {
                    server.submit(
                        Request::new(c as u64, RequestKind::Compile, "two_regions")
                            .with_delay_us(30_000),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let payloads: BTreeSet<String> = responses.iter().map(|r| r.payload_line()).collect();
    assert_eq!(payloads.len(), 1, "all clients see one payload");
    assert!(responses.iter().all(Response::is_ok));
    // Exactly one execution; everyone else was a hit or parked on it.
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(server.stats().executed.load(Relaxed), 1);
    assert_eq!(
        server.stats().coalesced.load(Relaxed) + server.stats().cache_hits.load(Relaxed),
        clients as u64 - 1
    );
}

// ----------------------------------------------------------- backpressure

/// A saturated single-worker queue rejects with typed `overloaded`
/// responses; every submitted request gets exactly one response (none
/// lost, none duplicated), and accepted ones still return correct
/// payloads.
#[test]
fn saturated_queue_rejects_with_overloaded_and_loses_nothing() {
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        queue_limit: 2,
        reuse: false,
    }));
    let clients = 10usize;
    let per_client = 3usize;
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let server = server.clone();
                scope.spawn(move || {
                    (0..per_client)
                        .map(|i| {
                            server.submit(
                                Request::new(
                                    (c * per_client + i) as u64,
                                    RequestKind::Compile,
                                    "paper_fixed_qpsk",
                                )
                                .with_delay_us(40_000),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Exactly one response per request id — nothing lost or duplicated.
    let ids: BTreeSet<u64> = responses.iter().map(Response::id).collect();
    assert_eq!(responses.len(), clients * per_client);
    assert_eq!(ids.len(), clients * per_client);
    assert_eq!(
        ids,
        (0..(clients * per_client) as u64).collect::<BTreeSet<_>>()
    );

    let ok = responses.iter().filter(|r| r.is_ok()).count();
    let overloaded = responses
        .iter()
        .filter(|r| matches!(r, Response::Overloaded { .. }))
        .count();
    assert_eq!(ok + overloaded, responses.len(), "no error responses");
    assert!(
        overloaded > 0,
        "40ms jobs from 10 clients into a 1-worker/2-slot queue must shed load"
    );
    // Rejections report the configured limit, and accepted requests all
    // agree on the deterministic payload.
    for r in &responses {
        if let Response::Overloaded {
            queue_depth,
            queue_limit,
            ..
        } = r
        {
            assert_eq!(*queue_limit, 2);
            assert!(*queue_depth >= 2);
        }
    }
    let payloads: BTreeSet<String> = responses
        .iter()
        .filter(|r| r.is_ok())
        .map(|r| r.payload_line())
        .collect();
    assert_eq!(payloads.len(), 1);
    use std::sync::atomic::Ordering::Relaxed;
    assert_eq!(server.stats().overloaded.load(Relaxed), overloaded as u64);
}

// ------------------------------------------------------------ hostile input

/// A request line of 100 000 open brackets is answered with a typed
/// error response instead of overflowing the parser's stack and
/// aborting the process, and the server keeps serving afterwards.
#[test]
fn deeply_nested_request_line_is_a_bad_request() {
    let server = Arc::new(Server::start(ServerConfig::default()));
    let line = "[".repeat(100_000);
    let handler = server.clone();
    let reply = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || handler.handle_line(&line))
        .expect("spawn handler thread")
        .join()
        .expect("handler thread does not overflow its stack");
    match Response::parse(&reply).expect("reply is a protocol line") {
        Response::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.starts_with("malformed request"), "{message}");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    let next = server.handle_line(r#"{"id": 2, "op": "compile", "flow": "paper"}"#);
    let next = Response::parse(&next).expect("reply is a protocol line");
    assert_eq!(next.id(), 2);
    assert!(next.is_ok(), "{next:?}");
}

/// Constraints overrides at the bounds of their types are served or
/// refused with an error on `paper` and `two_regions`, for every request
/// kind, and never panic or wrap into a smaller value. Each case sets one
/// value on every module: a pin start and width from {0, 1, `u32::MAX`}
/// (none of which fits: start 0 is the device edge, widths below 2 break
/// the four-slice rule, and the rest run past the device), or a
/// `deadline_us` of 0, the largest a picosecond `u64` holds, one past it
/// or `u64::MAX` (the last two are refused by the parser).
#[test]
fn override_values_at_type_bounds_succeed_or_fail_typed() {
    const PINS: [u32; 3] = [0, 1, u32::MAX];
    const MAX_DEADLINE_US: u64 = u64::MAX / 1_000_000;
    let pins = PINS.map(|start| PINS.map(|width| (Some((start, width)), None)));
    let deadlines = [0, MAX_DEADLINE_US, MAX_DEADLINE_US + 1, u64::MAX];
    let cases: Vec<_> = (pins.into_iter().flatten())
        .chain(deadlines.map(|d| (None, Some(d))))
        .collect();
    for flow_name in ["paper", "two_regions"] {
        let own = gallery::by_name(flow_name).unwrap().flow;
        for &(pin, deadline) in &cases {
            let mut file = ConstraintsFile::new();
            for m in own.constraints().modules() {
                let mut m = m.clone();
                m.pin = pin.or(m.pin);
                m.deadline_us = deadline;
                file.add(m).unwrap();
            }
            let case = format!("{flow_name} pin {pin:?} deadline_us {deadline:?}");
            let flow = match compute::resolve_flow(flow_name, Some(&file.to_string())) {
                Ok(flow) => flow,
                Err(e) => {
                    assert!(deadline > Some(MAX_DEADLINE_US), "{case}: {e}");
                    assert!(e.contains("deadline_us"), "{case}: {e}");
                    continue;
                }
            };
            assert!(deadline <= Some(MAX_DEADLINE_US), "{case} was accepted");
            let index = flow
                .build_index()
                .expect("the index ignores pins and deadlines");
            for kind in KINDS {
                let result = compute::execute(kind, &flow, flow_name, 8, &index);
                match (pin, result) {
                    (Some(_), Err(_)) => {}
                    (Some(_), Ok((_, payload))) => panic!(
                        "{case} {kind:?}: served {}",
                        serde::json::to_string(&payload)
                    ),
                    (None, Err(e)) => panic!("{case} {kind:?}: {e}"),
                    (None, Ok((_, payload))) => {
                        // Only a zero deadline is ever missed.
                        let json = serde::json::to_string(&payload);
                        let missed = kind == RequestKind::Verify && deadline == Some(0);
                        assert_eq!(json.contains("PDR015"), missed, "{case}: {json}");
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------------- transports

/// The TCP transport serves the same protocol as the in-process path.
/// Skips (without failing) when the sandbox forbids binding sockets.
#[test]
fn tcp_transport_round_trips_the_protocol() {
    use std::io::{BufRead, BufReader, Write};
    let server = Arc::new(Server::start(ServerConfig::default()));
    let handle = match pdr_server::tcp::serve("127.0.0.1:0", server.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("skipping TCP test: cannot bind ({e})");
            return;
        }
    };
    let addr = handle.local_addr();
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skipping TCP test: cannot connect ({e})");
            return;
        }
    };
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();

    writer
        .write_all(
            format!(
                "{}\n",
                Request::new(1, RequestKind::Compile, "paper").render()
            )
            .as_bytes(),
        )
        .unwrap();
    reader.read_line(&mut line).unwrap();
    let over_tcp = Response::parse(line.trim()).unwrap();
    assert!(over_tcp.is_ok());
    assert_eq!(over_tcp.id(), 1);

    // Same content in-process: identical deterministic payload.
    let in_process = server.submit(Request::new(2, RequestKind::Compile, "paper"));
    assert_eq!(over_tcp.payload_line(), in_process.payload_line());

    // Stats over the wire see both requests.
    line.clear();
    writer
        .write_all(b"{\"id\": 3, \"op\": \"stats\"}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    match Response::parse(line.trim()).unwrap() {
        Response::Stats { payload, .. } => {
            assert_eq!(
                payload.get("requests").and_then(serde::json::Value::as_u64),
                Some(2)
            );
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(writer);
    drop(reader);
    handle.shutdown();
}

/// A request line past the TCP transport's 1 MiB cap, sent without a
/// newline, is answered with a typed error and the connection is closed;
/// a fresh connection is still served. Skips (without failing) when the
/// sandbox forbids binding sockets.
#[test]
fn over_long_tcp_request_line_is_refused_and_the_server_keeps_serving() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::time::Duration;
    const CAP: usize = 1 << 20;
    let server = Arc::new(Server::start(ServerConfig::default()));
    let handle = match pdr_server::tcp::serve("127.0.0.1:0", server) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("skipping TCP test: cannot bind ({e})");
            return;
        }
    };
    let connect = || {
        let stream = std::net::TcpStream::connect(handle.local_addr()).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Some(stream)
    };
    let Some(mut stream) = connect() else {
        eprintln!("skipping TCP test: cannot connect");
        return;
    };

    // Exactly one byte past the cap: the server reads all of it, so it
    // closes with nothing unread and the reply is not lost to a reset.
    stream.write_all(&vec![b'x'; CAP + 1]).unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::parse(line.trim()).expect("reply is a protocol line") {
        Response::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("longer than"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection stays open after the error");

    let stream = connect().expect("reconnect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(
            format!(
                "{}\n",
                Request::new(7, RequestKind::Compile, "paper").render()
            )
            .as_bytes(),
        )
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let fresh = Response::parse(line.trim()).unwrap();
    assert_eq!(fresh.id(), 7);
    assert!(fresh.is_ok(), "{fresh:?}");
    drop((writer, reader));
    handle.shutdown();
}

// ------------------------------------------------------- cache correctness

/// Flip one module's load/unload policies in a flow's constraints file —
/// a content perturbation that changes the model digest (and the
/// §4 artifacts) without making the flow invalid.
fn perturb_constraints(flow_name: &str, seed: u8) -> Option<String> {
    let flow = gallery::by_name(flow_name)?.flow;
    let mut modules = flow.constraints().modules().to_vec();
    if modules.is_empty() {
        return None; // fully static flow: nothing to perturb
    }
    let target = (seed as usize / 4) % modules.len();
    let m = &mut modules[target];
    if seed.is_multiple_of(2) {
        m.load = match m.load {
            LoadPolicy::AtStart => LoadPolicy::OnDemand,
            LoadPolicy::OnDemand => LoadPolicy::AtStart,
        };
    }
    if seed % 4 < 2 {
        m.unload = match m.unload {
            UnloadPolicy::Explicit => UnloadPolicy::Evict,
            UnloadPolicy::Evict => UnloadPolicy::Explicit,
        };
    }
    let mut file = ConstraintsFile::new();
    for m in modules {
        file.add(m).ok()?;
    }
    // Round-trip through the §4 text format, exactly as a client would
    // send it.
    Some(file.to_string())
}

/// Compute the expected payload the slow way: fresh flow, fresh index,
/// no server, no cache.
fn fresh_payload(
    kind: RequestKind,
    flow_name: &str,
    constraints: Option<&str>,
    iterations: u32,
) -> String {
    let flow = compute::resolve_flow(flow_name, constraints).expect("valid request content");
    let index = flow.build_index().expect("index builds");
    let (_, payload) =
        compute::execute(kind, &flow, flow_name, iterations, &index).expect("flow executes");
    serde::json::to_string(&payload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache correctness under random interleavings: a shared server
    /// receives a random request sequence (random flows, kinds and
    /// constraint perturbations, duplicates likely), every response
    /// must equal a fresh uncached compile of the same content — no
    /// matter whether the server served it as a miss, a hit or a
    /// coalesced wait.
    #[test]
    fn cached_responses_always_match_fresh_compiles(
        picks in prop::collection::vec((0usize..3, 0usize..3, any::<u8>(), any::<bool>()), 2..7),
    ) {
        // The three cheap gallery flows keep the proptest fast while
        // still covering dynamic-region content (paper) and fully
        // static content (the fixed variants).
        const FLOWS: [&str; 3] = ["paper", "paper_fixed_qpsk", "paper_fixed_qam16"];
        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        for (i, (flow_idx, kind_idx, seed, perturb)) in picks.iter().enumerate() {
            let flow_name = FLOWS[*flow_idx];
            let kind = KINDS[*kind_idx];
            let constraints = if *perturb {
                perturb_constraints(flow_name, *seed)
            } else {
                None
            };
            let mut req = Request::new(i as u64, kind, flow_name).with_iterations(8);
            if let Some(text) = &constraints {
                req = req.clone().with_constraints(text.clone());
            }
            let resp = server.submit(req);
            prop_assert!(resp.is_ok(), "request failed: {resp:?}");
            let served = serde::json::to_string(resp.payload().unwrap());
            let fresh = fresh_payload(kind, flow_name, constraints.as_deref(), 8);
            prop_assert_eq!(
                &served, &fresh,
                "cache state {:?} served a payload differing from a fresh compile",
                resp.cache_state()
            );
        }
    }
}

/// The cache keys on the request text, not on what the text means:
/// `paper`'s own constraints file sent inline is a second entry beside
/// the plain request, and both payloads equal a direct computation.
#[test]
fn equivalent_constraints_text_is_a_separate_cache_entry() {
    let server = Server::start(ServerConfig::default());
    let own = gallery::by_name("paper")
        .unwrap()
        .flow
        .constraints()
        .to_string();
    for (id, text) in [(1, None), (2, Some(own))] {
        let mut req = Request::new(id, RequestKind::Compile, "paper");
        req.constraints = text.clone();
        let resp = server.submit(req);
        assert_eq!(resp.cache_state(), Some(CacheState::Miss));
        assert_eq!(
            serde::json::to_string(resp.payload().unwrap()),
            fresh_payload(RequestKind::Compile, "paper", text.as_deref(), 64)
        );
    }
    let snap = server.stats_snapshot();
    let stat = |f: &str| snap.get(f).and_then(serde::json::Value::as_u64);
    assert_eq!(stat("cache_entries"), Some(2));
    assert_eq!(stat("executed"), Some(2));
}

/// The same content served as miss, then hit, then coalesced (same key
/// racing) — all byte-identical, and the hit really came from the cache.
#[test]
fn hit_and_miss_and_coalesced_paths_agree_byte_for_byte() {
    let server = Arc::new(Server::start(ServerConfig::default()));
    let miss = server.submit(Request::new(1, RequestKind::Verify, "paper"));
    assert_eq!(miss.cache_state(), Some(CacheState::Miss));
    let hit = server.submit(Request::new(2, RequestKind::Verify, "paper"));
    assert_eq!(hit.cache_state(), Some(CacheState::Hit));
    assert_eq!(miss.payload_line(), hit.payload_line());
    assert_eq!(
        miss.payload_line(),
        server_study::run_load(
            ServerConfig {
                workers: 1,
                ..ServerConfig::cold()
            },
            1,
            1,
            false,
            "ref",
        )
        .payloads["verify/paper/16"],
        "load-study payload for the same content agrees"
    );
}
