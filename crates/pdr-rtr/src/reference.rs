//! The configuration manager — the retained *reference* implementation.
//!
//! This is the original per-region, string-keyed manager, kept so the
//! allocation-free [`crate::engine::RtrEngine`] can be parity-gated
//! against it: `tests/rtr_equivalence.rs` and `benches/bench_rtr.rs`
//! replay identical request traces through both and assert identical
//! [`RequestTiming`] sequences and statistics.
//!
//! §5: the manager *"is in charge of the configuration bitstream which must
//! be loaded on the reconfigurable part by sending configuration
//! requests"*; the abstract adds that it *"uses prefetching technic to
//! minimize reconfiguration latency of runtime reconfiguration"*.
//!
//! [`ConfigurationManager`] is a **timed functional model**: callers (the
//! DES simulator, the experiment harness, tests) pass the current simulated
//! time to [`ConfigurationManager::request`] and get back when the region
//! is ready plus a latency decomposition. The manager owns
//!
//! * the external [`BitstreamStore`] + [`MemoryModel`] (fetch leg),
//! * the staging [`BitstreamCache`] (prefetch target, LRU),
//! * the [`ProtocolBuilder`] + port (load leg),
//! * a predictor (the [`PrefetchSpec`] policy, over module names) that it
//!   consults after every completed load to start the next speculative
//!   fetch.
//!
//! A speculative fetch occupies the memory channel from the moment the
//! prediction is made; if the next request names the predicted module, the
//! request waits only for whatever part of the fetch is still outstanding —
//! zero when the pipeline had enough slack, which is exactly the paper's
//! "prefetching hides the reconfiguration latency".

use crate::engine::PrefetchSpec;
use crate::error::RtrError;
use crate::exclusion::ExclusionLedger;
use crate::prefetch::NamePredictor;
use crate::protocol::ProtocolBuilder;
use crate::store::{BitstreamCache, BitstreamStore, MemoryModel};
use parking_lot::Mutex;
use pdr_fabric::TimePs;
use serde::Serialize;
use std::sync::Arc;

/// Cumulative manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ManagerStats {
    /// Requests served (including already-loaded no-ops).
    pub requests: u64,
    /// Requests where the module was already resident in the region.
    pub already_loaded: u64,
    /// Requests served from the staging cache (incl. completed prefetches).
    pub cache_hits: u64,
    /// Requests that had to fetch from external memory on the critical path
    /// (complete misses, or partially-covered prefetches).
    pub fetches: u64,
    /// Requests whose fetch was fully covered by a prefetch in flight or in
    /// cache.
    pub prefetch_hits: u64,
    /// Total time spent waiting for fetches on the critical path.
    pub fetch_wait: TimePs,
    /// Total port load time on the critical path.
    pub load_time: TimePs,
}

/// The timing decomposition of one configuration request — `Copy`, no
/// owned strings, so the simulator's hot loop can call
/// [`ConfigurationManager::request_at`] without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RequestTiming {
    /// Simulated time at which the region holds the module.
    pub ready_at: TimePs,
    /// `ready_at - now`: the latency the requester observed.
    pub latency: TimePs,
    /// The module was already configured (no work done).
    pub already_loaded: bool,
    /// The fetch leg was fully hidden (cache or completed prefetch).
    pub fetch_hidden: bool,
    /// Critical-path fetch wait component.
    pub fetch_wait: TimePs,
    /// Port load component.
    pub load: TimePs,
}

/// The outcome of one configuration request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RequestOutcome {
    /// Module requested.
    pub module: String,
    /// Simulated time at which the region holds the module.
    pub ready_at: TimePs,
    /// `ready_at - now`: the latency the requester observed.
    pub latency: TimePs,
    /// The module was already configured (no work done).
    pub already_loaded: bool,
    /// The fetch leg was fully hidden (cache or completed prefetch).
    pub fetch_hidden: bool,
    /// Critical-path fetch wait component.
    pub fetch_wait: TimePs,
    /// Port load component.
    pub load: TimePs,
}

/// The runtime configuration manager for one reconfigurable region.
pub struct ConfigurationManager {
    builder: ProtocolBuilder,
    store: BitstreamStore,
    cache: BitstreamCache,
    memory: MemoryModel,
    region: String,
    loaded: Option<String>,
    predictor: Option<NamePredictor>,
    /// Speculative fetch in flight: (module, completes_at).
    inflight: Option<(String, TimePs)>,
    /// Optional shared exclusion ledger (§4 "exclusion" relation): loads
    /// that would co-reside excluded modules across regions are refused.
    exclusions: Option<Arc<Mutex<ExclusionLedger>>>,
    stats: ManagerStats,
}

impl std::fmt::Debug for ConfigurationManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfigurationManager")
            .field("region", &self.region)
            .field("loaded", &self.loaded)
            .field("inflight", &self.inflight)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ConfigurationManager {
    /// Manager for `region` with the given plumbing. Prefetching is off
    /// until [`ConfigurationManager::with_prefetch`] selects a policy.
    pub fn new(
        builder: ProtocolBuilder,
        store: BitstreamStore,
        cache: BitstreamCache,
        memory: MemoryModel,
        region: impl Into<String>,
    ) -> Self {
        ConfigurationManager {
            builder,
            store,
            cache,
            memory,
            region: region.into(),
            loaded: None,
            predictor: None,
            inflight: None,
            exclusions: None,
            stats: ManagerStats::default(),
        }
    }

    /// Prefetch under `policy` ([`PrefetchSpec::None`] turns it off).
    pub fn with_prefetch(mut self, policy: PrefetchSpec) -> Self {
        self.predictor = NamePredictor::new(policy);
        self
    }

    /// Attach a shared exclusion ledger: loads violating a cross-region
    /// exclusion are refused with [`RtrError::ExclusionViolation`].
    pub fn with_exclusions(mut self, ledger: Arc<Mutex<ExclusionLedger>>) -> Self {
        self.exclusions = Some(ledger);
        self
    }

    /// The currently configured module.
    pub fn loaded(&self) -> Option<&str> {
        self.loaded.as_deref()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Region name.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// Mark `module` as configured at power-up (constraints-file
    /// `load = at_start`). Consumes no simulated time.
    pub fn preload(&mut self, module: &str) -> Result<(), RtrError> {
        self.store.get(module)?;
        self.loaded = Some(module.to_string());
        Ok(())
    }

    /// Request `module` at simulated time `now`; returns when the region is
    /// ready and the latency decomposition. Launches the next speculative
    /// fetch afterwards when a predictor is attached.
    ///
    /// Convenience wrapper over [`ConfigurationManager::request_at`] that
    /// also carries the module name in the outcome.
    pub fn request(&mut self, module: &str, now: TimePs) -> Result<RequestOutcome, RtrError> {
        let t = self.request_at(module, now)?;
        Ok(RequestOutcome {
            module: module.to_string(),
            ready_at: t.ready_at,
            latency: t.latency,
            already_loaded: t.already_loaded,
            fetch_hidden: t.fetch_hidden,
            fetch_wait: t.fetch_wait,
            load: t.load,
        })
    }

    /// [`ConfigurationManager::request`] without the owned module name in
    /// the result: returns the `Copy` timing decomposition only, and
    /// allocates nothing on the already-loaded and cache-hit fast paths.
    pub fn request_at(&mut self, module: &str, now: TimePs) -> Result<RequestTiming, RtrError> {
        self.stats.requests += 1;
        if self.loaded.as_deref() == Some(module) {
            self.stats.already_loaded += 1;
            return Ok(RequestTiming {
                ready_at: now,
                latency: TimePs::ZERO,
                already_loaded: true,
                fetch_hidden: true,
                fetch_wait: TimePs::ZERO,
                load: TimePs::ZERO,
            });
        }

        // The fetch leg and the staging cache deal in *stored* bytes
        // (compressed when the store compresses); the port plan below deals
        // in raw bytes.
        let bytes = self.store.stored_size_of(module)?;
        let plan = self
            .builder
            .plan(module, &self.region, self.store.get(module)?)?;
        if let Some(ledger) = &self.exclusions {
            ledger.lock().check_and_load(&self.region, module)?;
        }

        // Fetch leg: cache, in-flight prefetch, or cold read.
        let mut fetch_wait = TimePs::ZERO;
        let mut fetch_hidden = false;
        if self.cache.lookup(module) {
            self.stats.cache_hits += 1;
            fetch_hidden = true;
        } else if let Some((m, completes_at)) = self.inflight.take() {
            if m == module {
                // The prediction was right; wait out the remainder (zero if
                // it already completed).
                fetch_wait = completes_at.saturating_sub(now);
                fetch_hidden = fetch_wait.is_zero();
                self.cache.insert(module, bytes)?;
                if fetch_hidden {
                    self.stats.prefetch_hits += 1;
                    self.stats.cache_hits += 1;
                } else {
                    self.stats.fetches += 1;
                }
            } else {
                // Wrong prediction: the speculative fetch is abandoned and
                // the real one starts now.
                fetch_wait = self.memory.read_time(bytes);
                self.cache.insert(module, bytes)?;
                self.stats.fetches += 1;
            }
        } else {
            fetch_wait = self.memory.read_time(bytes);
            self.cache.insert(module, bytes)?;
            self.stats.fetches += 1;
        }

        let ready_at = now + fetch_wait + plan.load_time;
        self.loaded = Some(module.to_string());
        self.stats.fetch_wait += fetch_wait;
        self.stats.load_time += plan.load_time;

        // Kick the next speculative fetch.
        if let Some(pred) = self.predictor.as_mut() {
            if let Some(next) = pred.observe_and_predict(module) {
                if next != module && !self.cache.contains(&next) {
                    if let Ok(nbytes) = self.store.stored_size_of(&next) {
                        if nbytes <= self.cache.capacity() {
                            self.inflight = Some((next, ready_at + self.memory.read_time(nbytes)));
                        }
                    }
                }
            }
        }

        Ok(RequestTiming {
            ready_at,
            latency: ready_at - now,
            already_loaded: false,
            fetch_hidden,
            fetch_wait,
            load: plan.load_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion};

    fn manager(cache_modules: usize, prefetch: PrefetchSpec) -> ConfigurationManager {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let mut store = BitstreamStore::new();
        let qpsk = Bitstream::partial_for_region(&d, &r, 1);
        let qam = Bitstream::partial_for_region(&d, &r, 2);
        let bytes = qpsk.len_bytes();
        store.insert("mod_qpsk", qpsk);
        store.insert("mod_qam16", qam);
        let cache = BitstreamCache::sized_for(cache_modules, bytes);
        let builder = ProtocolBuilder::new(d, PortProfile::icap_virtex2());
        ConfigurationManager::new(builder, store, cache, MemoryModel::paper_flash(), "op_dyn")
            .with_prefetch(prefetch)
    }

    #[test]
    fn cold_request_pays_fetch_plus_load() {
        let mut m = manager(2, PrefetchSpec::None);
        let out = m.request("mod_qpsk", TimePs::ZERO).unwrap();
        assert!(!out.already_loaded);
        assert!(!out.fetch_hidden);
        // ~3 ms fetch + ~1 ms load ≈ 4 ms: the paper's number.
        let ms = out.latency.as_millis_f64();
        assert!((3.5..4.6).contains(&ms), "cold latency {ms} ms");
        assert_eq!(m.loaded(), Some("mod_qpsk"));
    }

    #[test]
    fn repeat_request_is_free() {
        let mut m = manager(2, PrefetchSpec::None);
        let t1 = m.request("mod_qpsk", TimePs::ZERO).unwrap().ready_at;
        let out = m.request("mod_qpsk", t1).unwrap();
        assert!(out.already_loaded);
        assert_eq!(out.latency, TimePs::ZERO);
        assert_eq!(m.stats().already_loaded, 1);
    }

    #[test]
    fn cache_hit_skips_fetch() {
        let mut m = manager(2, PrefetchSpec::None);
        let t1 = m.request("mod_qpsk", TimePs::ZERO).unwrap().ready_at;
        let t2 = m.request("mod_qam16", t1).unwrap().ready_at;
        // Back to qpsk: still cached (capacity 2).
        let out = m.request("mod_qpsk", t2).unwrap();
        assert!(out.fetch_hidden);
        assert_eq!(out.fetch_wait, TimePs::ZERO);
        // Only the ~1 ms load remains.
        let ms = out.latency.as_millis_f64();
        assert!((0.8..1.3).contains(&ms), "warm latency {ms} ms");
    }

    #[test]
    fn eviction_with_tiny_cache() {
        let mut m = manager(1, PrefetchSpec::None);
        let t1 = m.request("mod_qpsk", TimePs::ZERO).unwrap().ready_at;
        let t2 = m.request("mod_qam16", t1).unwrap().ready_at;
        // qpsk was evicted by qam16.
        let out = m.request("mod_qpsk", t2).unwrap();
        assert!(!out.fetch_hidden);
        assert!(out.fetch_wait > TimePs::ZERO);
    }

    #[test]
    fn correct_prefetch_hides_fetch_given_slack() {
        let seq = vec!["mod_qam16".to_string(), "mod_qpsk".to_string()];
        let mut m = manager(2, PrefetchSpec::Schedule(seq));
        m.preload("mod_qpsk").unwrap();
        // Warm the predictor: request qpsk (no-op but... already loaded
        // short-circuits before prediction). Request qam16 cold instead.
        let out1 = m.request("mod_qam16", TimePs::ZERO).unwrap();
        // After loading qam16, the manager prefetches mod_qpsk; give it
        // plenty of slack (10 ms later).
        let later = out1.ready_at + TimePs::from_ms(10);
        let out2 = m.request("mod_qpsk", later).unwrap();
        assert!(out2.fetch_hidden, "prefetch should hide the fetch");
        assert_eq!(out2.fetch_wait, TimePs::ZERO);
        assert_eq!(m.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_partially_covers_without_slack() {
        let seq = vec!["mod_qam16".to_string(), "mod_qpsk".to_string()];
        let mut m = manager(2, PrefetchSpec::Schedule(seq));
        let out1 = m.request("mod_qam16", TimePs::ZERO).unwrap();
        // Request immediately: the ~3 ms speculative fetch just started.
        let out2 = m.request("mod_qpsk", out1.ready_at).unwrap();
        assert!(!out2.fetch_hidden);
        assert!(out2.fetch_wait > TimePs::ZERO);
        // But never worse than a cold fetch.
        let cold = MemoryModel::paper_flash().read_time(50_000);
        assert!(out2.fetch_wait <= cold + TimePs::from_us(100));
    }

    #[test]
    fn wrong_prediction_costs_full_fetch() {
        // LastValue predicts "no change", which is always wrong on switches.
        let mut m = manager(2, PrefetchSpec::LastValue);
        let t1 = m.request("mod_qpsk", TimePs::ZERO).unwrap().ready_at;
        let out = m.request("mod_qam16", t1 + TimePs::from_ms(50)).unwrap();
        assert!(!out.fetch_hidden);
        assert!(out.fetch_wait > TimePs::from_ms(2));
    }

    #[test]
    fn unknown_module_errors() {
        let mut m = manager(2, PrefetchSpec::None);
        assert!(matches!(
            m.request("ghost", TimePs::ZERO),
            Err(RtrError::UnknownModule(_))
        ));
        assert!(m.preload("ghost").is_err());
    }

    #[test]
    fn compressed_storage_shortens_only_the_fetch_leg() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 7);
        let raw_bytes = bs.len_bytes();

        let build = |compressed: bool| {
            let mut store = if compressed {
                BitstreamStore::with_compression()
            } else {
                BitstreamStore::new()
            };
            store.insert("mod_qpsk", bs.clone());
            ConfigurationManager::new(
                ProtocolBuilder::new(d.clone(), PortProfile::icap_virtex2()),
                store,
                BitstreamCache::new(raw_bytes * 2),
                MemoryModel::paper_flash(),
                "op_dyn",
            )
        };
        let raw = build(false).request("mod_qpsk", TimePs::ZERO).unwrap();
        let packed = build(true).request("mod_qpsk", TimePs::ZERO).unwrap();
        // Same port-load time, much smaller fetch.
        assert_eq!(raw.load, packed.load);
        assert!(
            packed.fetch_wait.as_ps() * 3 < raw.fetch_wait.as_ps() * 2,
            "compressed fetch {} !<< raw {}",
            packed.fetch_wait,
            raw.fetch_wait
        );
        assert!(packed.latency < raw.latency);
    }

    #[test]
    fn exclusion_ledger_blocks_cross_region_conflicts() {
        use crate::exclusion::ExclusionLedger;
        use parking_lot::Mutex;
        use std::sync::Arc;

        // Two regions, one shared ledger declaring the modules exclusive.
        let d = Device::xc2v2000();
        let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
        let r2 = ReconfigRegion::new("r2", 10, 4).unwrap();
        let mut ledger = ExclusionLedger::new();
        ledger.exclude("mod_a", "mod_b");
        let ledger = Arc::new(Mutex::new(ledger));

        let build = |region: &ReconfigRegion, module: &str, fp: u64| {
            let mut store = BitstreamStore::new();
            let bs = Bitstream::partial_for_region(&d, region, fp);
            let bytes = bs.len_bytes();
            store.insert(module, bs);
            ConfigurationManager::new(
                ProtocolBuilder::new(d.clone(), PortProfile::icap_virtex2()),
                store,
                BitstreamCache::sized_for(1, bytes),
                MemoryModel::paper_flash(),
                region.name.clone(),
            )
        };
        let mut m1 = build(&r1, "mod_a", 1).with_exclusions(ledger.clone());
        let mut m2 = build(&r2, "mod_b", 2).with_exclusions(ledger.clone());

        let t1 = m1.request("mod_a", TimePs::ZERO).unwrap().ready_at;
        let err = m2.request("mod_b", t1).unwrap_err();
        assert!(matches!(err, RtrError::ExclusionViolation { .. }));
        // Releasing region r1 clears the way.
        ledger.lock().unload("r1");
        assert!(m2.request("mod_b", t1).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let mut m = manager(2, PrefetchSpec::None);
        let t1 = m.request("mod_qpsk", TimePs::ZERO).unwrap().ready_at;
        let t2 = m.request("mod_qam16", t1).unwrap().ready_at;
        let _ = m.request("mod_qam16", t2).unwrap();
        let s = m.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.fetches, 2);
        assert_eq!(s.already_loaded, 1);
        assert!(s.load_time > TimePs::ZERO);
        assert!(s.fetch_wait > s.load_time);
    }
}
