//! # pdr-rtr — runtime reconfiguration
//!
//! §5 of the paper divides run-time reconfiguration into two cooperating
//! parts: *"a configuration manager is in charge of the configuration
//! bitstream which must be loaded on the reconfigurable part by sending
//! configuration requests. Configuration requests are sent to the protocol
//! configuration builder which is in charge to construct a valid
//! reconfiguration stream in agreement with the used protocol mode (e.g.
//! selectmap)."*
//!
//! This crate implements both, plus the storage and prediction machinery the
//! paper's prefetching claim rests on:
//!
//! * [`store`] — the external bitstream memory ([`store::BitstreamStore`])
//!   with a read-bandwidth model, and a bounded on-chip staging cache
//!   ([`store::BitstreamCache`], LRU) that prefetching fills;
//! * [`protocol`] — the protocol configuration builder: validates a stream
//!   and packetizes it for a configuration port, yielding exact load times;
//! * [`mod@reference`] — the configuration manager: a *timed functional model*
//!   (`request(module, now) → ready_at` plus a latency breakdown) with
//!   cache, prefetching and statistics. Its predictors (schedule-driven,
//!   last value, first-order Markov) work on module names and are written
//!   apart from the engine's indexed [`policy`] twins. This is the retained
//!   string-keyed reference implementation; unit tests and parity gates
//!   drive it;
//! * [`engine`] — the allocation-free indexed runtime: one
//!   [`engine::RtrEngine`] manages *all* dynamic regions with dense
//!   module/region ids, precomputed transfer tables and pluggable
//!   [`policy`] prefetch/eviction policies, byte-identical to the
//!   reference manager on every request trace but built for millions of
//!   requests per second. The discrete-event simulator (`pdr-sim`)
//!   drives it;
//! * [`policy`] — indexed prefetch (schedule-driven, last-value, Markov)
//!   and eviction (LRU, LFU, offline Belady) policies, enum-dispatched so
//!   the hot path never boxes;
//! * [`arch`] — the Fig. 2 design space: case (a) standalone
//!   self-reconfiguration through ICAP vs case (b) processor-hosted
//!   reconfiguration through an interrupt and SelectMAP, with the manager
//!   (`M`) and protocol-builder (`P`) placements, each yielding a latency
//!   decomposition.

pub mod arch;
pub mod engine;
pub mod error;
pub mod exclusion;
pub mod loader;
pub mod policy;
mod prefetch;
pub mod protocol;
pub mod reference;
pub mod store;

pub use arch::{LatencyBreakdown, ReconfigArchitecture};
pub use engine::{EvictionSpec, PrefetchSpec, RegionSpec, RtrEngine, RtrEngineBuilder};
pub use error::RtrError;
pub use exclusion::ExclusionLedger;
pub use loader::{DeviceLoader, LoaderStats};
pub use policy::{Evictor, Prefetcher, NO_MODULE};
pub use protocol::ProtocolBuilder;
pub use reference::{ConfigurationManager, ManagerStats, RequestOutcome, RequestTiming};
pub use store::{BitstreamCache, BitstreamStore, CacheStats, MemoryModel};
