//! # pdr-server — the multi-tenant compilation service
//!
//! The design flow as a long-running service: clients submit
//! compile/verify/simulate requests for gallery flows over a
//! line-delimited JSON protocol ([`protocol`]) and a worker pool executes
//! them against shared, content-addressed state. This is the serving
//! layer the ROADMAP's "production-scale" goal asks for — the same
//! deterministic pipeline as [`pdr_core::DesignFlow::run`], behind a
//! queue, a cache, and explicit backpressure.
//!
//! Structure:
//!
//! * [`protocol`] — requests, responses, and their JSON line encoding.
//!   The deterministic result `payload` is separated from per-request
//!   metrics so callers can assert byte-identical results across
//!   concurrency levels.
//! * [`compute`] — gallery flow resolution (with constraints-text
//!   overrides) and the per-kind payloads. Pure: no clocks, no
//!   randomness.
//! * [`service`] — [`Server`]: bounded queue + worker pool (explicit
//!   `overloaded` responses instead of unbounded buffering), a result
//!   cache keyed on the request content itself (kind, flow name,
//!   constraints text, iterations — compared for equality, never
//!   reduced to a hash) and bounded in key bytes, an
//!   [`pdr_adequation::AdequationIndex`] pool keyed on
//!   [`pdr_core::DesignFlow::index_digest`] (flows sharing models share
//!   one index, even across devices), and single-flight coalescing of
//!   duplicate in-flight requests. Workers resolve the flow; the request
//!   thread builds nothing.
//! * [`metrics`] — lifetime counters reported by the `stats` op.
//! * [`tcp`] — a thread-per-connection TCP transport; the `pdr-server`
//!   binary adds a stdin/stdout loop for transport-free use.
//!
//! The service's locks and its condition variable are `parking_lot`'s,
//! which do not poison. Payloads carry the FNV-1a artifact digest from
//! [`pdr_fabric::digest`].

pub mod compute;
pub mod metrics;
pub mod protocol;
pub mod service;
pub mod tcp;

pub use metrics::ServerStats;
pub use protocol::{CacheState, Command, Metrics, Request, RequestKind, Response};
pub use service::{Server, ServerConfig};
