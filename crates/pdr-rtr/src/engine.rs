//! The allocation-free indexed runtime reconfiguration engine.
//!
//! [`RtrEngine`] is the reference [`crate::reference::ConfigurationManager`]
//! rebuilt the way PR 3 rebuilt the simulator: one dense structure manages
//! *all* dynamic regions of a deployed system, with every per-request
//! string lookup, CRC validation and heap allocation hoisted to
//! construction time.
//!
//! * Module and region names are interned once into dense `u32` ids; the
//!   hot [`RtrEngine::request`] takes ids and touches only flat arrays.
//! * Per-module `{stored_bytes, fetch_time, load_time}` are precomputed
//!   into a `Copy` table — the reference re-derives all three per request
//!   (a `HashMap` walk plus an encode and in-place CRC walk through the
//!   protocol builder). The engine runs the protocol builder exactly once
//!   per module at [`RtrEngineBuilder::build`] time, so a corrupt or
//!   misdirected bitstream still fails loudly, just earlier.
//! * Prefetch and eviction policies ([`crate::policy`]) are
//!   enum-dispatched — no `Box<dyn>` on the request path.
//! * The staging cache keeps its entries in a preallocated `Vec` whose
//!   capacity is fixed at build time, so steady-state requests perform
//!   zero heap allocations (proved by the counting allocator in
//!   `bench_rtr`).
//!
//! Parity contract: for any request trace, a region driven through
//! [`RtrEngine::request`] produces the *same* [`RequestTiming`] sequence,
//! [`ManagerStats`] and [`CacheStats`] as a reference manager built over
//! the same store/cache/memory/predictor (LRU eviction). A `(region,
//! module)` pair where the module belongs to another region reports
//! [`RtrError::UnknownModule`] — exactly what the reference's per-region
//! store does. `tests/rtr_equivalence.rs` fuzzes this contract;
//! `benches/bench_rtr.rs` gates it in CI together with the throughput
//! floor.

use crate::error::RtrError;
use crate::policy::{
    BeladyEvict, Evictor, LfuEvict, MarkovPrefetch, Prefetcher, SchedulePrefetch, NO_MODULE,
};
use crate::protocol::ProtocolBuilder;
use crate::reference::{ManagerStats, RequestTiming};
use crate::store::{CacheStats, MemoryModel};
use pdr_fabric::{Bitstream, Device, PortProfile, TimePs};
use std::collections::HashMap;

/// Which prefetch policy a region runs (resolved to an indexed
/// [`Prefetcher`] at build time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefetchSpec {
    /// No prefetching.
    None,
    /// Replay a known future load sequence (module names, in load order).
    Schedule(Vec<String>),
    /// Predict "no change".
    LastValue,
    /// First-order Markov learner.
    Markov,
}

/// Which eviction policy a region's staging cache runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionSpec {
    /// Least recently used — the reference cache's behavior.
    Lru,
    /// Least frequently used.
    Lfu,
    /// Offline Belady oracle over the given future request trace
    /// (module names; include repeats).
    Belady(Vec<String>),
}

/// One dynamic region's configuration for [`RtrEngineBuilder`].
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (must match each module bitstream's target region).
    pub name: String,
    /// Staging-cache capacity in bytes.
    pub cache_bytes: usize,
    /// Prefetch policy.
    pub prefetch: PrefetchSpec,
    /// Eviction policy.
    pub eviction: EvictionSpec,
    /// The region's modules and their partial bitstreams.
    pub modules: Vec<(String, Bitstream)>,
}

impl RegionSpec {
    /// Region with no prefetching and LRU eviction.
    pub fn new(name: impl Into<String>, cache_bytes: usize) -> Self {
        RegionSpec {
            name: name.into(),
            cache_bytes,
            prefetch: PrefetchSpec::None,
            eviction: EvictionSpec::Lru,
            modules: Vec::new(),
        }
    }

    /// Add a module bitstream.
    pub fn module(mut self, name: impl Into<String>, bs: Bitstream) -> Self {
        self.modules.push((name.into(), bs));
        self
    }

    /// Set the prefetch policy.
    pub fn prefetch(mut self, p: PrefetchSpec) -> Self {
        self.prefetch = p;
        self
    }

    /// Set the eviction policy.
    pub fn eviction(mut self, e: EvictionSpec) -> Self {
        self.eviction = e;
        self
    }
}

/// Precomputed per-module constants (the engine's replacement for the
/// per-request `BitstreamStore` + `ProtocolBuilder` work).
#[derive(Debug, Clone, Copy)]
struct ModuleInfo {
    /// Owning region id.
    region: u32,
    /// Stored size in bytes — what the fetch leg and the staging cache
    /// account (compressed when the builder compresses).
    stored_bytes: usize,
    /// Memory read time for `stored_bytes` (the fetch leg).
    fetch_time: TimePs,
    /// Port transfer time for the raw stream (the load leg).
    load_time: TimePs,
}

/// The staging cache of one region: the reference
/// [`crate::store::BitstreamCache`] re-keyed on module ids with a
/// pluggable eviction victim. Entries live in a `Vec` preallocated to the
/// region's module count, most recently used last — steady-state lookups
/// and inserts never allocate.
#[derive(Debug, Clone)]
struct EngineCache {
    capacity_bytes: usize,
    used_bytes: usize,
    /// (module, bytes), most recently used last.
    entries: Vec<(u32, usize)>,
    stats: CacheStats,
}

impl EngineCache {
    fn new(capacity_bytes: usize, max_entries: usize) -> Self {
        EngineCache {
            capacity_bytes,
            used_bytes: 0,
            entries: Vec::with_capacity(max_entries),
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn lookup(&mut self, module: u32, evict: &mut Evictor) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(m, _)| m == module) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            self.stats.hits += 1;
            evict.on_use(module);
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    #[inline]
    fn contains(&self, module: u32) -> bool {
        self.entries.iter().any(|&(m, _)| m == module)
    }

    /// Insert `module`, evicting policy-chosen victims while over
    /// capacity. Returns `false` when `bytes` exceeds the capacity
    /// outright (the caller turns that into [`RtrError::CacheTooSmall`]).
    #[inline]
    fn insert(&mut self, module: u32, bytes: usize, evict: &mut Evictor) -> bool {
        if bytes > self.capacity_bytes {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|&(m, _)| m == module) {
            let (_, old) = self.entries.remove(pos);
            self.used_bytes -= old;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = evict.victim(&self.entries);
            let (_, evicted) = self.entries.remove(victim);
            self.used_bytes -= evicted;
            self.stats.evictions += 1;
        }
        self.entries.push((module, bytes));
        self.used_bytes += bytes;
        evict.on_use(module);
        true
    }
}

/// Flat per-region state.
#[derive(Debug, Clone)]
struct RegionState {
    name: String,
    /// Module configured on the fabric ([`NO_MODULE`] at power-up).
    resident: u32,
    /// Module recorded in the exclusion ledger (requests record here;
    /// [`RtrEngine::preload`] intentionally does not, mirroring the
    /// reference where `preload` never touches the shared ledger).
    ledger_resident: u32,
    /// Speculative fetch in flight ([`NO_MODULE`] when idle) and when it
    /// completes.
    inflight_mod: u32,
    inflight_at: TimePs,
    cache: EngineCache,
    prefetch: Prefetcher,
    evict: Evictor,
    stats: ManagerStats,
}

/// Builder for [`RtrEngine`]: collects regions, modules and policies,
/// then validates every bitstream once and freezes the dense tables.
#[derive(Debug, Clone)]
pub struct RtrEngineBuilder {
    device: Device,
    port: PortProfile,
    memory: MemoryModel,
    compressed: bool,
    regions: Vec<RegionSpec>,
    exclusions: Vec<(String, String)>,
}

impl RtrEngineBuilder {
    /// Engine for `device` driving `port`, fetching from `memory`.
    pub fn new(device: Device, port: PortProfile, memory: MemoryModel) -> Self {
        RtrEngineBuilder {
            device,
            port,
            memory,
            compressed: false,
            regions: Vec::new(),
            exclusions: Vec::new(),
        }
    }

    /// Store zero-RLE-compressed images: the fetch leg (and cache
    /// accounting) shrinks, the port load leg is unchanged.
    pub fn compressed_storage(mut self, on: bool) -> Self {
        self.compressed = on;
        self
    }

    /// Add a dynamic region.
    pub fn region(mut self, spec: RegionSpec) -> Self {
        self.regions.push(spec);
        self
    }

    /// Declare two modules mutually exclusive across regions.
    pub fn exclude(mut self, a: impl Into<String>, b: impl Into<String>) -> Self {
        let (a, b) = (a.into(), b.into());
        if a != b {
            self.exclusions.push((a, b));
        }
        self
    }

    /// Validate every module once and freeze the engine.
    ///
    /// Fails with the same errors the reference manager would report per
    /// request: device mismatch, CRC corruption, or a bitstream built for
    /// a different region than the one it was registered under.
    pub fn build(self) -> Result<RtrEngine, RtrError> {
        let builder = ProtocolBuilder::new(self.device, self.port);

        let mut module_names: Vec<String> = Vec::new();
        let mut module_ids: HashMap<String, u32> = HashMap::new();
        let mut modules: Vec<ModuleInfo> = Vec::new();
        let mut region_ids: HashMap<String, u32> = HashMap::new();

        // First pass: intern everything and precompute the module table
        // (validating each stream exactly once).
        for (rid, spec) in self.regions.iter().enumerate() {
            if region_ids.insert(spec.name.clone(), rid as u32).is_some() {
                return Err(RtrError::Internal(format!(
                    "region `{}` declared twice",
                    spec.name
                )));
            }
            for (mname, bs) in &spec.modules {
                if module_ids.contains_key(mname) {
                    return Err(RtrError::Internal(format!(
                        "module `{mname}` declared twice"
                    )));
                }
                let plan = builder.plan(mname, &spec.name, bs)?;
                let stored_bytes = if self.compressed {
                    pdr_fabric::compress::compress(&bs.encode()).len()
                } else {
                    bs.len_bytes()
                };
                module_ids.insert(mname.clone(), modules.len() as u32);
                module_names.push(mname.clone());
                modules.push(ModuleInfo {
                    region: rid as u32,
                    stored_bytes,
                    fetch_time: self.memory.read_time(stored_bytes),
                    load_time: plan.load_time,
                });
            }
        }

        let n = modules.len();
        // Lexicographic name ranks (the Markov tie-break compares names).
        let mut lex_rank = vec![0u32; n];
        {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order
                .sort_unstable_by(|&a, &b| module_names[a as usize].cmp(&module_names[b as usize]));
            for (rank, &m) in order.iter().enumerate() {
                lex_rank[m as usize] = rank as u32;
            }
        }

        // Exclusion bitset (row-major n×n). Pairs naming unknown modules
        // can never be resident and are dropped, as in the reference
        // ledger where such names simply never match.
        let words_per_row = n.div_ceil(64).max(1);
        let mut excl = vec![0u64; words_per_row * n.max(1)];
        let mut any_exclusions = false;
        for (a, b) in &self.exclusions {
            if let (Some(&ia), Some(&ib)) = (module_ids.get(a), module_ids.get(b)) {
                let (ia, ib) = (ia as usize, ib as usize);
                excl[ia * words_per_row + ib / 64] |= 1 << (ib % 64);
                excl[ib * words_per_row + ia / 64] |= 1 << (ia % 64);
                any_exclusions = true;
            }
        }

        let resolve = |names: &[String]| -> Vec<u32> {
            names
                .iter()
                .map(|m| module_ids.get(m).copied().unwrap_or(NO_MODULE))
                .collect()
        };

        // Second pass: freeze per-region state with resolved policies.
        let mut regions: Vec<RegionState> = Vec::with_capacity(self.regions.len());
        for spec in &self.regions {
            let prefetch = match &spec.prefetch {
                PrefetchSpec::None => Prefetcher::None,
                PrefetchSpec::Schedule(future) => {
                    Prefetcher::Schedule(SchedulePrefetch::new(resolve(future)))
                }
                PrefetchSpec::LastValue => Prefetcher::LastValue,
                PrefetchSpec::Markov => Prefetcher::Markov(MarkovPrefetch::new(lex_rank.clone())),
            };
            let evict = match &spec.eviction {
                EvictionSpec::Lru => Evictor::Lru,
                EvictionSpec::Lfu => Evictor::Lfu(LfuEvict::new(n)),
                EvictionSpec::Belady(future) => {
                    Evictor::Belady(BeladyEvict::new(resolve(future), n))
                }
            };
            regions.push(RegionState {
                name: spec.name.clone(),
                resident: NO_MODULE,
                ledger_resident: NO_MODULE,
                inflight_mod: NO_MODULE,
                inflight_at: TimePs::ZERO,
                cache: EngineCache::new(spec.cache_bytes, spec.modules.len()),
                prefetch,
                evict,
                stats: ManagerStats::default(),
            });
        }

        let mut regions_by_name: Vec<u32> = (0..regions.len() as u32).collect();
        regions_by_name
            .sort_unstable_by(|&a, &b| regions[a as usize].name.cmp(&regions[b as usize].name));

        Ok(RtrEngine {
            modules,
            module_names,
            module_ids,
            region_ids,
            regions,
            regions_by_name,
            excl,
            words_per_row,
            any_exclusions,
            refusals: 0,
        })
    }
}

/// The indexed runtime reconfiguration engine over all dynamic regions.
///
/// Construct with [`RtrEngineBuilder`]; drive with [`RtrEngine::request`]
/// (ids) or [`RtrEngine::request_in`] (module by name, resolving per call).
#[derive(Debug, Clone)]
pub struct RtrEngine {
    modules: Vec<ModuleInfo>,
    module_names: Vec<String>,
    module_ids: HashMap<String, u32>,
    region_ids: HashMap<String, u32>,
    regions: Vec<RegionState>,
    /// Region ids sorted by region name — the exclusion scan iterates in
    /// name order like the reference `BTreeMap` ledger, so the *first*
    /// violation reported is the same one.
    regions_by_name: Vec<u32>,
    /// Row-major module×module exclusion bitset.
    excl: Vec<u64>,
    words_per_row: usize,
    any_exclusions: bool,
    refusals: u64,
}

impl RtrEngine {
    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of modules (across all regions).
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Dense id of `region`.
    pub fn region_index(&self, region: &str) -> Option<u32> {
        self.region_ids.get(region).copied()
    }

    /// Dense id of `module`.
    pub fn module_index(&self, module: &str) -> Option<u32> {
        self.module_ids.get(module).copied()
    }

    /// Name of region `region`.
    pub fn region_name(&self, region: u32) -> &str {
        &self.regions[region as usize].name
    }

    /// Name of module `module`.
    pub fn module_name(&self, module: u32) -> &str {
        &self.module_names[module as usize]
    }

    /// Owning region of module `module`.
    pub fn region_of(&self, module: u32) -> u32 {
        self.modules[module as usize].region
    }

    /// The module currently configured in `region`.
    pub fn loaded(&self, region: u32) -> Option<&str> {
        let r = self.regions[region as usize].resident;
        (r != NO_MODULE).then(|| self.module_names[r as usize].as_str())
    }

    /// Cumulative manager statistics of `region`.
    pub fn stats(&self, region: u32) -> ManagerStats {
        self.regions[region as usize].stats
    }

    /// Staging-cache statistics of `region`.
    pub fn cache_stats(&self, region: u32) -> CacheStats {
        self.regions[region as usize].cache.stats
    }

    /// Cross-region exclusion loads refused so far.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Are `a` and `b` declared exclusive?
    #[inline]
    fn excluded(&self, a: u32, b: u32) -> bool {
        let word = self.excl[a as usize * self.words_per_row + b as usize / 64];
        word >> (b % 64) & 1 != 0
    }

    /// Mark `module` as configured in `region` at power-up (constraints
    /// `load = at_start`). Consumes no simulated time and — like the
    /// reference — does not register in the exclusion ledger.
    pub fn preload(&mut self, region: u32, module: u32) -> Result<(), RtrError> {
        let m = module as usize;
        if m >= self.modules.len() || self.modules[m].region != region {
            return Err(RtrError::UnknownModule(self.describe_module(module)));
        }
        self.regions[region as usize].resident = module;
        Ok(())
    }

    fn describe_module(&self, module: u32) -> String {
        self.module_names
            .get(module as usize)
            .cloned()
            .unwrap_or_else(|| format!("#{module}"))
    }

    /// [`RtrEngine::request`] with the module given by name (the region
    /// already resolved to its id). Unknown module names fail with
    /// [`RtrError::UnknownModule`], charging the request like the
    /// reference manager does.
    pub fn request_in(
        &mut self,
        region: u32,
        module: &str,
        now: TimePs,
    ) -> Result<RequestTiming, RtrError> {
        match self.module_index(module) {
            Some(mid) => self.request(region, mid, now),
            None => {
                // The reference charges the request before discovering the
                // store has no such module.
                self.regions[region as usize].stats.requests += 1;
                Err(RtrError::UnknownModule(module.to_string()))
            }
        }
    }

    /// Append to `out` all engine state that decides what a later request
    /// returns. Statistics are left out. Per region, in id order:
    ///
    /// * the resident module and the exclusion-ledger entry;
    /// * the staging cache: used bytes and its entries in recency order;
    /// * the prefetch and eviction policy state;
    /// * the in-flight fetch, as its completion time relative to `now`
    ///   (zero once complete, which every later request treats alike).
    ///
    /// Encodings taken at `t₁` and at `t₂` are equal only if any request
    /// sequence issued from `t₂` gets the answers the same sequence issued
    /// from `t₁` would get, moved by `t₂ − t₁`. No encoded time is
    /// absolute, so a caller that fast-forwards simulated time has nothing
    /// in the engine to shift. The simulator's steady-state fast-forward
    /// compares these at iteration boundaries.
    pub fn encode_state(&self, now: TimePs, out: &mut Vec<u64>) {
        let words: usize = self
            .regions
            .iter()
            .map(|st| {
                let prefetch = match &st.prefetch {
                    Prefetcher::None | Prefetcher::LastValue => 1,
                    Prefetcher::Schedule(_) => 2,
                    Prefetcher::Markov(p) => 2 + p.counts().len(),
                };
                let evict = match &st.evict {
                    Evictor::Lru => 1,
                    Evictor::Lfu(p) => 1 + p.frequencies().len(),
                    Evictor::Belady(p) => 2 + p.next_uses().len(),
                };
                6 + 2 * st.cache.entries.len() + prefetch + evict
            })
            .sum();
        out.reserve(words);
        for st in &self.regions {
            out.extend([
                u64::from(st.resident),
                u64::from(st.ledger_resident),
                u64::from(st.inflight_mod),
                st.inflight_at.saturating_sub(now).as_ps(),
                st.cache.used_bytes as u64,
                st.cache.entries.len() as u64,
            ]);
            out.extend(
                st.cache
                    .entries
                    .iter()
                    .flat_map(|&(m, bytes)| [u64::from(m), bytes as u64]),
            );
            match &st.prefetch {
                Prefetcher::None => out.push(0),
                Prefetcher::LastValue => out.push(1),
                Prefetcher::Schedule(p) => out.extend([2, p.cursor() as u64]),
                Prefetcher::Markov(p) => {
                    out.extend([3, u64::from(p.last())]);
                    out.extend_from_slice(p.counts());
                }
            }
            match &st.evict {
                Evictor::Lru => out.push(0),
                Evictor::Lfu(p) => {
                    out.push(1);
                    out.extend_from_slice(p.frequencies());
                }
                Evictor::Belady(p) => {
                    out.extend([2, p.cursor() as u64]);
                    out.extend(p.next_uses().iter().map(|&u| u64::from(u)));
                }
            }
        }
    }

    /// Count `hits` more `already_loaded` requests on `region`: the
    /// statistics `hits` calls of [`RtrEngine::request`] for the resident
    /// module add. Nothing else changes. That is exact wherever those
    /// calls would change nothing else: an LRU or LFU region, or a Belady
    /// region whose [`RtrEngine::encode_state`] a span of such requests
    /// left unchanged (its trace cursor did not move).
    pub fn replay_resident_hits(&mut self, region: u32, hits: u64) {
        let stats = &mut self.regions[region as usize].stats;
        stats.requests += hits;
        stats.already_loaded += hits;
    }

    /// Request `module` in `region` at simulated time `now`; returns when
    /// the region is ready plus the latency decomposition, and launches
    /// the region's next speculative fetch.
    ///
    /// Semantics are step-for-step those of
    /// [`crate::reference::ConfigurationManager::request_at`]; the
    /// steady-state path performs no heap allocation.
    pub fn request(
        &mut self,
        region: u32,
        module: u32,
        now: TimePs,
    ) -> Result<RequestTiming, RtrError> {
        let r = region as usize;
        {
            let st = &mut self.regions[r];
            st.stats.requests += 1;
            // The eviction oracle tracks the full request trace (repeats
            // included), so advance it before the short-circuit.
            st.evict.on_request(module);
            if st.resident == module {
                st.stats.already_loaded += 1;
                return Ok(RequestTiming {
                    ready_at: now,
                    latency: TimePs::ZERO,
                    already_loaded: true,
                    fetch_hidden: true,
                    fetch_wait: TimePs::ZERO,
                    load: TimePs::ZERO,
                });
            }
        }

        let m = module as usize;
        if m >= self.modules.len() || self.modules[m].region != region {
            // Outside this region's store: the reference reports the
            // module unknown (its per-region store has never heard of it).
            return Err(RtrError::UnknownModule(self.describe_module(module)));
        }
        let info = self.modules[m];

        if self.any_exclusions {
            for &or in &self.regions_by_name {
                if or == region {
                    continue;
                }
                let res = self.regions[or as usize].ledger_resident;
                if res != NO_MODULE && self.excluded(module, res) {
                    self.refusals += 1;
                    return Err(RtrError::ExclusionViolation {
                        module: self.module_names[m].clone(),
                        region: self.regions[r].name.clone(),
                        conflicting: self.module_names[res as usize].clone(),
                        resident_in: self.regions[or as usize].name.clone(),
                    });
                }
            }
        }
        self.regions[r].ledger_resident = module;

        // Fetch leg: cache, in-flight prefetch, or cold read.
        let st = &mut self.regions[r];
        let mut fetch_wait = TimePs::ZERO;
        let mut fetch_hidden = false;
        if st.cache.lookup(module, &mut st.evict) {
            st.stats.cache_hits += 1;
            fetch_hidden = true;
        } else if st.inflight_mod != NO_MODULE {
            let (im, completes_at) = (st.inflight_mod, st.inflight_at);
            st.inflight_mod = NO_MODULE;
            if im == module {
                // The prediction was right; wait out the remainder (zero
                // if it already completed).
                fetch_wait = completes_at.saturating_sub(now);
                fetch_hidden = fetch_wait.is_zero();
                if !st.cache.insert(module, info.stored_bytes, &mut st.evict) {
                    return Err(RtrError::CacheTooSmall {
                        module: self.module_names[m].clone(),
                        needed: info.stored_bytes,
                        capacity: st.cache.capacity_bytes,
                    });
                }
                if fetch_hidden {
                    st.stats.prefetch_hits += 1;
                    st.stats.cache_hits += 1;
                } else {
                    st.stats.fetches += 1;
                }
            } else {
                // Wrong prediction: the speculative fetch is abandoned
                // and the real one starts now.
                fetch_wait = info.fetch_time;
                if !st.cache.insert(module, info.stored_bytes, &mut st.evict) {
                    return Err(RtrError::CacheTooSmall {
                        module: self.module_names[m].clone(),
                        needed: info.stored_bytes,
                        capacity: st.cache.capacity_bytes,
                    });
                }
                st.stats.fetches += 1;
            }
        } else {
            fetch_wait = info.fetch_time;
            if !st.cache.insert(module, info.stored_bytes, &mut st.evict) {
                return Err(RtrError::CacheTooSmall {
                    module: self.module_names[m].clone(),
                    needed: info.stored_bytes,
                    capacity: st.cache.capacity_bytes,
                });
            }
            st.stats.fetches += 1;
        }

        let ready_at = now + fetch_wait + info.load_time;
        st.resident = module;
        st.stats.fetch_wait += fetch_wait;
        st.stats.load_time += info.load_time;

        // Kick the next speculative fetch.
        let next = st.prefetch.observe_and_predict(module);
        if next != NO_MODULE && next != module && !st.cache.contains(next) {
            let ni = self.modules[next as usize];
            // Only this region's own store can feed its prefetcher (the
            // reference consults its per-region store), and only modules
            // that fit the cache are worth fetching speculatively.
            if ni.region == region && ni.stored_bytes <= st.cache.capacity_bytes {
                st.inflight_mod = next;
                st.inflight_at = ready_at + ni.fetch_time;
            }
        }

        Ok(RequestTiming {
            ready_at,
            latency: ready_at - now,
            already_loaded: false,
            fetch_hidden,
            fetch_wait,
            load: info.load_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::ReconfigRegion;

    fn paper_engine(cache_modules: usize, prefetch: PrefetchSpec) -> RtrEngine {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let qpsk = Bitstream::partial_for_region(&d, &r, 1);
        let qam = Bitstream::partial_for_region(&d, &r, 2);
        let bytes = qpsk.len_bytes();
        RtrEngineBuilder::new(d, PortProfile::icap_virtex2(), MemoryModel::paper_flash())
            .region(
                RegionSpec::new("op_dyn", cache_modules * bytes)
                    .module("mod_qpsk", qpsk)
                    .module("mod_qam16", qam)
                    .prefetch(prefetch),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn cold_request_pays_fetch_plus_load() {
        let mut e = paper_engine(2, PrefetchSpec::None);
        let qpsk = e.module_index("mod_qpsk").unwrap();
        let out = e.request(0, qpsk, TimePs::ZERO).unwrap();
        assert!(!out.already_loaded && !out.fetch_hidden);
        let ms = out.latency.as_millis_f64();
        assert!((3.5..4.6).contains(&ms), "cold latency {ms} ms");
        assert_eq!(e.loaded(0), Some("mod_qpsk"));
    }

    #[test]
    fn repeat_request_is_free() {
        let mut e = paper_engine(2, PrefetchSpec::None);
        let qpsk = e.module_index("mod_qpsk").unwrap();
        let t1 = e.request(0, qpsk, TimePs::ZERO).unwrap().ready_at;
        let out = e.request(0, qpsk, t1).unwrap();
        assert!(out.already_loaded);
        assert_eq!(out.latency, TimePs::ZERO);
        assert_eq!(e.stats(0).already_loaded, 1);
    }

    #[test]
    fn correct_prefetch_hides_fetch_given_slack() {
        let seq = vec!["mod_qam16".to_string(), "mod_qpsk".to_string()];
        let mut e = paper_engine(2, PrefetchSpec::Schedule(seq));
        let (qpsk, qam) = (
            e.module_index("mod_qpsk").unwrap(),
            e.module_index("mod_qam16").unwrap(),
        );
        e.preload(0, qpsk).unwrap();
        let out1 = e.request(0, qam, TimePs::ZERO).unwrap();
        let later = out1.ready_at + TimePs::from_ms(10);
        let out2 = e.request(0, qpsk, later).unwrap();
        assert!(out2.fetch_hidden, "prefetch should hide the fetch");
        assert_eq!(out2.fetch_wait, TimePs::ZERO);
        assert_eq!(e.stats(0).prefetch_hits, 1);
    }

    /// What an `already_loaded` request changes, per eviction policy. The
    /// simulator's fast-forward replays resident hits as statistics only
    /// ([`RtrEngine::replay_resident_hits`]) across spans that leave
    /// [`RtrEngine::encode_state`] unchanged; this pins which policies
    /// such a span can exist for.
    #[test]
    fn resident_hits_change_statistics_and_only_a_matching_belady_cursor() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let cases = [
            ("lru", EvictionSpec::Lru, true),
            ("lfu", EvictionSpec::Lfu, true),
            // The trace expects qpsk twice: the hit advances the cursor.
            (
                "belady, hit on the trace",
                EvictionSpec::Belady(names(&["mod_qpsk", "mod_qpsk", "mod_qam16"])),
                false,
            ),
            // The trace expects qam16 next: the hit leaves the cursor.
            (
                "belady, hit off the trace",
                EvictionSpec::Belady(names(&["mod_qpsk", "mod_qam16"])),
                true,
            ),
        ];
        for (what, eviction, unchanged) in cases {
            let d = Device::xc2v2000();
            let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
            let qpsk_bs = Bitstream::partial_for_region(&d, &r, 1);
            let bytes = qpsk_bs.len_bytes();
            let mut e = RtrEngineBuilder::new(
                d.clone(),
                PortProfile::icap_virtex2(),
                MemoryModel::paper_flash(),
            )
            .region(
                RegionSpec::new("op_dyn", 2 * bytes)
                    .module("mod_qpsk", qpsk_bs)
                    .module("mod_qam16", Bitstream::partial_for_region(&d, &r, 2))
                    .eviction(eviction),
            )
            .build()
            .unwrap();
            let qpsk = e.module_index("mod_qpsk").unwrap();
            let t = e.request(0, qpsk, TimePs::ZERO).unwrap().ready_at;
            let (stats, cache) = (e.stats(0), e.cache_stats(0));
            let mut before = Vec::new();
            e.encode_state(t, &mut before);

            let mut replayed = e.clone();
            assert!(e.request(0, qpsk, t).unwrap().already_loaded, "{what}");
            let mut after = Vec::new();
            e.encode_state(t, &mut after);
            assert_eq!(before == after, unchanged, "{what}: policy state");
            assert_eq!(
                e.cache_stats(0),
                cache,
                "{what}: the cache is not consulted"
            );
            assert_eq!(
                e.stats(0),
                ManagerStats {
                    requests: stats.requests + 1,
                    already_loaded: stats.already_loaded + 1,
                    ..stats
                },
                "{what}: statistics"
            );
            replayed.replay_resident_hits(0, 1);
            assert_eq!(replayed.stats(0), e.stats(0), "{what}: replayed statistics");
        }
    }

    #[test]
    fn encoded_in_flight_fetch_is_relative_until_it_completes() {
        let seq = vec!["mod_qam16".to_string(), "mod_qpsk".to_string()];
        let mut e = paper_engine(2, PrefetchSpec::Schedule(seq));
        let (qpsk, qam) = (
            e.module_index("mod_qpsk").unwrap(),
            e.module_index("mod_qam16").unwrap(),
        );
        e.preload(0, qpsk).unwrap();
        // Loading qam16 launches the speculative fetch of qpsk.
        let ready = e.request(0, qam, TimePs::ZERO).unwrap().ready_at;
        let encode = |at: TimePs| {
            let mut out = Vec::new();
            e.encode_state(at, &mut out);
            out
        };
        assert_ne!(encode(ready), encode(ready + TimePs::from_ns(1)));
        let late = ready + TimePs::from_secs(1);
        assert_eq!(encode(late), encode(late + TimePs::from_ns(1)));
    }

    #[test]
    fn request_in_resolves_and_rejects() {
        let mut e = paper_engine(2, PrefetchSpec::None);
        assert!(e.request_in(0, "mod_qpsk", TimePs::ZERO).is_ok());
        assert!(matches!(
            e.request_in(0, "ghost", TimePs::ZERO),
            Err(RtrError::UnknownModule(_))
        ));
        // The failed request was still charged, like the reference.
        assert_eq!(e.stats(0).requests, 2);
    }

    #[test]
    fn cross_region_module_is_unknown_here() {
        let d = Device::xc2v2000();
        let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
        let r2 = ReconfigRegion::new("r2", 10, 4).unwrap();
        let a = Bitstream::partial_for_region(&d, &r1, 1);
        let b = Bitstream::partial_for_region(&d, &r2, 2);
        let bytes = a.len_bytes();
        let mut e =
            RtrEngineBuilder::new(d, PortProfile::icap_virtex2(), MemoryModel::paper_flash())
                .region(RegionSpec::new("r1", bytes).module("mod_a", a))
                .region(RegionSpec::new("r2", bytes).module("mod_b", b))
                .build()
                .unwrap();
        let (r1, mod_b) = (
            e.region_index("r1").unwrap(),
            e.module_index("mod_b").unwrap(),
        );
        assert!(matches!(
            e.request(r1, mod_b, TimePs::ZERO),
            Err(RtrError::UnknownModule(_))
        ));
        assert!(e.preload(r1, mod_b).is_err());
    }

    #[test]
    fn exclusion_blocks_cross_region_conflicts() {
        let d = Device::xc2v2000();
        let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
        let r2 = ReconfigRegion::new("r2", 10, 4).unwrap();
        let a = Bitstream::partial_for_region(&d, &r1, 1);
        let b = Bitstream::partial_for_region(&d, &r2, 2);
        let bytes = a.len_bytes();
        let mut e =
            RtrEngineBuilder::new(d, PortProfile::icap_virtex2(), MemoryModel::paper_flash())
                .region(RegionSpec::new("r1", bytes).module("mod_a", a))
                .region(RegionSpec::new("r2", bytes).module("mod_b", b))
                .exclude("mod_a", "mod_b")
                .build()
                .unwrap();
        let (ra, rb) = (e.region_index("r1").unwrap(), e.region_index("r2").unwrap());
        let (ma, mb) = (
            e.module_index("mod_a").unwrap(),
            e.module_index("mod_b").unwrap(),
        );
        let t1 = e.request(ra, ma, TimePs::ZERO).unwrap().ready_at;
        let err = e.request(rb, mb, t1).unwrap_err();
        assert!(matches!(err, RtrError::ExclusionViolation { .. }));
        assert_eq!(e.refusals(), 1);
        // Preload never registers in the ledger: a preloaded conflicting
        // module does not block (reference behavior).
        assert!(e.preload(rb, mb).is_ok());
    }

    #[test]
    fn mismatched_bitstream_rejected_at_build() {
        let d = Device::xc2v2000();
        let r1 = ReconfigRegion::new("r1", 2, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r1, 1);
        let bytes = bs.len_bytes();
        let err = RtrEngineBuilder::new(d, PortProfile::icap_virtex2(), MemoryModel::paper_flash())
            .region(RegionSpec::new("other", bytes).module("mod_a", bs))
            .build()
            .unwrap_err();
        assert!(matches!(err, RtrError::RegionMismatch { .. }));
    }

    /// A stream built for another geometry of the same part is refused
    /// at build with the stream walk's own error text.
    #[test]
    fn stream_for_another_geometry_rejected_at_build() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 1);
        let bytes = bs.len_bytes();
        let taller = Device {
            clb_rows: d.clb_rows + 8,
            ..d.clone()
        };
        let err = RtrEngineBuilder::new(
            taller,
            PortProfile::icap_virtex2(),
            MemoryModel::paper_flash(),
        )
        .region(RegionSpec::new("op_dyn", bytes).module("mod_a", bs))
        .build()
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed bitstream: frame payload of 12408 words is not a multiple of the device frame length (161 words)"
        );
    }

    #[test]
    fn compressed_storage_shortens_only_the_fetch_leg() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 7);
        let bytes = bs.len_bytes();
        let build = |compressed: bool| {
            RtrEngineBuilder::new(
                d.clone(),
                PortProfile::icap_virtex2(),
                MemoryModel::paper_flash(),
            )
            .compressed_storage(compressed)
            .region(RegionSpec::new("op_dyn", bytes * 2).module("mod_x", bs.clone()))
            .build()
            .unwrap()
        };
        let raw = build(false).request(0, 0, TimePs::ZERO).unwrap();
        let packed = build(true).request(0, 0, TimePs::ZERO).unwrap();
        assert_eq!(raw.load, packed.load);
        assert!(packed.fetch_wait < raw.fetch_wait);
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 1);
        let bytes = bs.len_bytes();
        let err = RtrEngineBuilder::new(
            d.clone(),
            PortProfile::icap_virtex2(),
            MemoryModel::paper_flash(),
        )
        .region(
            RegionSpec::new("op_dyn", bytes)
                .module("m", bs.clone())
                .module("m", bs.clone()),
        )
        .build()
        .unwrap_err();
        assert!(matches!(err, RtrError::Internal(_)));
    }
}
