//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in any order the
//! server finishes them (responses carry the request `id` for matching).
//! The same [`Request`]/[`Response`] pair is used by every transport —
//! the TCP listener, the binary's stdin loop, and in-process callers of
//! [`crate::Server::submit`].
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "op": "compile",  "flow": "paper"}
//! {"id": 2, "op": "verify",   "flow": "two_regions"}
//! {"id": 3, "op": "simulate", "flow": "paper", "iterations": 64}
//! {"id": 4, "op": "stats"}
//! ```
//!
//! Optional fields on `compile`/`verify`/`simulate`:
//!
//! * `"constraints"` — a §4 constraints file as text, overriding the
//!   gallery flow's own file (this changes the model digest, so overridden
//!   requests are cached separately);
//! * `"iterations"` — simulation length (ignored by compile/verify), at
//!   most 65 536: a simulation builds a selector string per iteration and
//!   region, so an unbounded count could exhaust memory before a worker
//!   runs;
//! * `"delay_us"` — synthetic extra service time, a load-testing knob for
//!   saturating the queue deterministically.
//!
//! ## Responses
//!
//! ```json
//! {"id":1,"status":"ok","cache":"miss","queue_us":12,"service_us":5400,"payload":{...}}
//! {"id":9,"status":"overloaded","queue_depth":64,"queue_limit":64}
//! {"id":7,"status":"error","message":"unknown flow `nope`"}
//! {"id":4,"status":"stats","payload":{...}}
//! ```
//!
//! A `verify` payload carries, beyond the summary counts, the full
//! structured diagnostics array (`"diagnostics"`): one object per
//! diagnostic with code, severity, message and location, sorted into the
//! analyzer's deterministic render order — clients get the same detail as
//! the `pdr-lint` CLI's JSON output, model-checker findings
//! (`PDR013`–`PDR017`) included.
//!
//! The `payload` of an `ok` response is a pure function of the request
//! content (flow models + op + iterations): byte-identical no matter which
//! worker served it, whether it was a cache hit, a coalesced wait or a
//! fresh compile. The metrics fields (`queue_us`, `service_us`, `cache`)
//! describe *this* request's handling and naturally differ between runs —
//! determinism tests must compare [`Response::payload_line`], not
//! [`Response::render`].

use serde::json::{self, Value};

/// What a request asks the service to do with a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Run the full pipeline, return artifact summary metrics.
    Compile,
    /// Run the pipeline, then static analysis; return the diagnostics.
    Verify,
    /// Run the pipeline, deploy, and simulate a selector workload.
    Simulate,
}

impl RequestKind {
    /// The wire name (`"op"` field value).
    pub const fn as_str(self) -> &'static str {
        match self {
            RequestKind::Compile => "compile",
            RequestKind::Verify => "verify",
            RequestKind::Simulate => "simulate",
        }
    }
}

/// One parsed work request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Gallery flow name ([`pdr_core::gallery`]).
    pub flow: String,
    /// Simulation iterations (simulate only; default 64).
    pub iterations: u32,
    /// Optional constraints-file text overriding the flow's own.
    pub constraints: Option<String>,
    /// Synthetic extra service time in µs (load-testing knob).
    pub delay_us: u64,
}

impl Request {
    /// A request with defaults (64 iterations, no overrides).
    pub fn new(id: u64, kind: RequestKind, flow: impl Into<String>) -> Self {
        Request {
            id,
            kind,
            flow: flow.into(),
            iterations: 64,
            constraints: None,
            delay_us: 0,
        }
    }

    /// Set the simulation iteration count.
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Override the constraints file.
    pub fn with_constraints(mut self, text: impl Into<String>) -> Self {
        self.constraints = Some(text.into());
        self
    }

    /// Add synthetic service time.
    pub fn with_delay_us(mut self, delay_us: u64) -> Self {
        self.delay_us = delay_us;
        self
    }

    /// Render as one JSON request line (no trailing newline).
    pub fn render(&self) -> String {
        let mut obj = Value::obj(vec![
            ("id", Value::UInt(self.id)),
            ("op", Value::String(self.kind.as_str().into())),
            ("flow", Value::String(self.flow.clone())),
        ]);
        if self.kind == RequestKind::Simulate {
            obj.push_field("iterations", Value::UInt(self.iterations as u64));
        }
        if let Some(c) = &self.constraints {
            obj.push_field("constraints", Value::String(c.clone()));
        }
        if self.delay_us > 0 {
            obj.push_field("delay_us", Value::UInt(self.delay_us));
        }
        json::to_string(&obj)
    }
}

/// One parsed protocol line: a work request or a control query.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Queue a flow compilation/verification/simulation.
    Run(Request),
    /// Snapshot the server statistics (answered inline, never queued).
    Stats {
        /// Correlation id.
        id: u64,
    },
}

/// Most simulation iterations one request line may ask for. The workload
/// holds a selector `String` per iteration and region, so `u32::MAX`
/// iterations would try to allocate tens of GB — an abort no panic guard
/// can catch. Real workloads use tens.
const MAX_ITERATIONS: u64 = 1 << 16;

/// Parse one request line. Errors name the offending field so clients can
/// fix their request without reading server code.
pub fn parse_line(line: &str) -> Result<Command, String> {
    let value = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("request needs a numeric `id`")?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or("request needs an `op` string")?;
    let kind = match op {
        "compile" => RequestKind::Compile,
        "verify" => RequestKind::Verify,
        "simulate" => RequestKind::Simulate,
        "stats" => return Ok(Command::Stats { id }),
        other => return Err(format!("unknown op `{other}`")),
    };
    let flow = value
        .get("flow")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("op `{op}` needs a `flow` string"))?;
    let mut req = Request::new(id, kind, flow);
    if let Some(n) = value.get("iterations").and_then(Value::as_u64) {
        if n > MAX_ITERATIONS {
            return Err("iterations out of range".into());
        }
        req.iterations = n as u32;
    }
    if let Some(c) = value.get("constraints").and_then(Value::as_str) {
        req.constraints = Some(c.to_string());
    }
    if let Some(d) = value.get("delay_us").and_then(Value::as_u64) {
        req.delay_us = d;
    }
    Ok(Command::Run(req))
}

/// How the result cache participated in serving a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// Computed fresh by a worker.
    Miss,
    /// Served from the content-addressed cache without queueing.
    Hit,
    /// Waited on an identical in-flight request (single-flight).
    Coalesced,
}

impl CacheState {
    /// The wire name (`"cache"` field value).
    pub const fn as_str(self) -> &'static str {
        match self {
            CacheState::Miss => "miss",
            CacheState::Hit => "hit",
            CacheState::Coalesced => "coalesced",
        }
    }
}

/// Per-request handling metrics, reported on every `ok` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Time spent queued before a worker picked the job up (µs). Zero for
    /// cache hits, which never queue.
    pub queue_us: u64,
    /// Worker service time, or total wait for hits/coalesced (µs).
    pub service_us: u64,
    /// Cache participation.
    pub cache: CacheState,
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was served; `payload` is deterministic result content.
    Ok {
        /// Echoed request id.
        id: u64,
        /// How this particular request was handled.
        metrics: Metrics,
        /// Deterministic result content (see module docs).
        payload: Value,
    },
    /// The bounded queue was full: explicit backpressure, nothing queued.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// The configured limit it hit.
        queue_limit: usize,
    },
    /// The request failed (unknown flow, model error, worker panic, …).
    Error {
        /// Echoed request id (0 when the line did not parse far enough).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// Statistics snapshot (`op: "stats"`).
    Stats {
        /// Echoed request id.
        id: u64,
        /// Counter snapshot ([`crate::Server::stats`]).
        payload: Value,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. }
            | Response::Stats { id, .. } => *id,
        }
    }

    /// The payload of an `ok` or `stats` response.
    pub fn payload(&self) -> Option<&Value> {
        match self {
            Response::Ok { payload, .. } | Response::Stats { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The cache participation of an `ok` response.
    pub fn cache_state(&self) -> Option<CacheState> {
        match self {
            Response::Ok { metrics, .. } => Some(metrics.cache),
            _ => None,
        }
    }

    /// Did the request succeed?
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }

    /// Render the full response as one JSON line (no trailing newline).
    /// Includes the per-request metrics — NOT stable across runs.
    pub fn render(&self) -> String {
        let obj = match self {
            Response::Ok {
                id,
                metrics,
                payload,
            } => Value::obj(vec![
                ("id", Value::UInt(*id)),
                ("status", Value::String("ok".into())),
                ("cache", Value::String(metrics.cache.as_str().into())),
                ("queue_us", Value::UInt(metrics.queue_us)),
                ("service_us", Value::UInt(metrics.service_us)),
                ("payload", payload.clone()),
            ]),
            Response::Overloaded {
                id,
                queue_depth,
                queue_limit,
            } => Value::obj(vec![
                ("id", Value::UInt(*id)),
                ("status", Value::String("overloaded".into())),
                ("queue_depth", Value::UInt(*queue_depth as u64)),
                ("queue_limit", Value::UInt(*queue_limit as u64)),
            ]),
            Response::Error { id, message } => Value::obj(vec![
                ("id", Value::UInt(*id)),
                ("status", Value::String("error".into())),
                ("message", Value::String(message.clone())),
            ]),
            Response::Stats { id, payload } => Value::obj(vec![
                ("id", Value::UInt(*id)),
                ("status", Value::String("stats".into())),
                ("payload", payload.clone()),
            ]),
        };
        json::to_string(&obj)
    }

    /// Render only the deterministic portion: status + payload, no id and
    /// no metrics. Two requests with identical content must produce
    /// byte-identical `payload_line`s regardless of caching, coalescing,
    /// worker identity or concurrency — this is the surface the
    /// determinism tests and the cache-correctness proptest compare.
    pub fn payload_line(&self) -> String {
        let obj = match self {
            Response::Ok { payload, .. } => Value::obj(vec![
                ("status", Value::String("ok".into())),
                ("payload", payload.clone()),
            ]),
            Response::Overloaded { .. } => {
                Value::obj(vec![("status", Value::String("overloaded".into()))])
            }
            Response::Error { message, .. } => Value::obj(vec![
                ("status", Value::String("error".into())),
                ("message", Value::String(message.clone())),
            ]),
            Response::Stats { .. } => Value::obj(vec![("status", Value::String("stats".into()))]),
        };
        json::to_string(&obj)
    }

    /// Parse a rendered response line back into a [`Response`].
    /// (Clients — the load generator, the TCP tests — use this.)
    pub fn parse(line: &str) -> Result<Response, String> {
        let value = json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        let id = value
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("response needs a numeric `id`")?;
        let status = value
            .get("status")
            .and_then(Value::as_str)
            .ok_or("response needs a `status` string")?;
        match status {
            "ok" => {
                let cache = match value.get("cache").and_then(Value::as_str) {
                    Some("miss") => CacheState::Miss,
                    Some("hit") => CacheState::Hit,
                    Some("coalesced") => CacheState::Coalesced,
                    other => return Err(format!("bad cache state {other:?}")),
                };
                Ok(Response::Ok {
                    id,
                    metrics: Metrics {
                        queue_us: value.get("queue_us").and_then(Value::as_u64).unwrap_or(0),
                        service_us: value.get("service_us").and_then(Value::as_u64).unwrap_or(0),
                        cache,
                    },
                    payload: value.get("payload").cloned().ok_or("ok needs a payload")?,
                })
            }
            "overloaded" => Ok(Response::Overloaded {
                id,
                queue_depth: value
                    .get("queue_depth")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as usize,
                queue_limit: value
                    .get("queue_limit")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as usize,
            }),
            "error" => Ok(Response::Error {
                id,
                message: value
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "stats" => Ok(Response::Stats {
                id,
                payload: value.get("payload").cloned().unwrap_or(Value::Null),
            }),
            other => Err(format!("unknown status `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_render_and_parse() {
        let req = Request::new(7, RequestKind::Simulate, "paper")
            .with_iterations(32)
            .with_delay_us(150);
        match parse_line(&req.render()).unwrap() {
            Command::Run(parsed) => assert_eq!(parsed, req),
            other => panic!("expected Run, got {other:?}"),
        }
        let with_constraints =
            Request::new(8, RequestKind::Compile, "paper").with_constraints("[module m]\n");
        match parse_line(&with_constraints.render()).unwrap() {
            Command::Run(parsed) => assert_eq!(parsed, with_constraints),
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn stats_and_malformed_lines() {
        assert_eq!(
            parse_line(r#"{"id": 4, "op": "stats"}"#).unwrap(),
            Command::Stats { id: 4 }
        );
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"op": "compile"}"#).is_err());
        assert!(parse_line(r#"{"id": 1, "op": "explode"}"#).is_err());
        assert!(parse_line(r#"{"id": 1, "op": "compile"}"#).is_err());
    }

    #[test]
    fn iterations_are_bounded_at_the_protocol_edge() {
        let line = |n: u64| {
            format!(r#"{{"id": 5, "op": "simulate", "flow": "paper", "iterations": {n}}}"#)
        };
        for n in [0, 88, MAX_ITERATIONS] {
            match parse_line(&line(n)).unwrap() {
                Command::Run(req) => assert_eq!(u64::from(req.iterations), n),
                other => panic!("expected Run, got {other:?}"),
            }
        }
        for n in [MAX_ITERATIONS + 1, 4_000_000_000, u64::from(u32::MAX) + 1] {
            assert_eq!(
                parse_line(&line(n)).unwrap_err(),
                "iterations out of range",
                "{n}"
            );
        }
    }

    #[test]
    fn response_roundtrips_and_payload_line_drops_metrics() {
        let ok = Response::Ok {
            id: 3,
            metrics: Metrics {
                queue_us: 12,
                service_us: 900,
                cache: CacheState::Hit,
            },
            payload: Value::obj(vec![("digest", Value::String("abcd".into()))]),
        };
        assert_eq!(Response::parse(&ok.render()).unwrap(), ok);
        // Same payload, different metrics → same payload_line.
        let other = Response::Ok {
            id: 99,
            metrics: Metrics {
                queue_us: 0,
                service_us: 1,
                cache: CacheState::Miss,
            },
            payload: Value::obj(vec![("digest", Value::String("abcd".into()))]),
        };
        assert_eq!(ok.payload_line(), other.payload_line());
        assert_ne!(ok.render(), other.render());

        let over = Response::Overloaded {
            id: 5,
            queue_depth: 64,
            queue_limit: 64,
        };
        assert_eq!(Response::parse(&over.render()).unwrap(), over);
        let err = Response::Error {
            id: 6,
            message: "boom".into(),
        };
        assert_eq!(Response::parse(&err.render()).unwrap(), err);
    }
}
