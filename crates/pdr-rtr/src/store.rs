//! Bitstream storage: external memory and on-chip staging cache.
//!
//! In the paper's §6 system the protocol builder *"is next in charge to
//! address external memory and drive ICAP"* — partial bitstreams live in a
//! board memory whose read bandwidth, not the port, bounds reconfiguration
//! time. [`BitstreamStore`] models that memory; [`MemoryModel`] its timing.
//!
//! Prefetching needs somewhere to put bits fetched ahead of time:
//! [`BitstreamCache`] is a bounded on-chip (BRAM) staging cache with LRU
//! eviction. A cache hit turns the 3-of-4-ms fetch leg into zero.

use crate::error::RtrError;
use pdr_fabric::{Bitstream, TimePs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Timing model of the external bitstream memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Sustained read bandwidth in bytes per second.
    pub bytes_per_sec: u64,
    /// Fixed access setup (addressing, first-word latency).
    pub setup: TimePs,
}

impl MemoryModel {
    /// The paper-calibrated board flash/SRAM: ~16.7 MB/s sustained, so the
    /// fetch leg of a ~50 KB module is ≈ 3 ms (4 ms total − 1 ms load).
    pub fn paper_flash() -> Self {
        MemoryModel {
            bytes_per_sec: 16_700_000,
            setup: TimePs::from_us(10),
        }
    }

    /// Time to read `bytes` from this memory.
    pub fn read_time(&self, bytes: usize) -> TimePs {
        assert!(self.bytes_per_sec > 0, "memory bandwidth must be positive");
        let ps = (bytes as u128 * 1_000_000_000_000u128).div_ceil(self.bytes_per_sec as u128);
        self.setup + TimePs::from_ps(ps.min(u64::MAX as u128) as u64)
    }
}

/// The external memory holding every module's partial bitstream.
///
/// With [`BitstreamStore::with_compression`] the memory stores
/// zero-run-length-compressed images (see [`pdr_fabric::compress`]): the
/// *stored* size — what the fetch leg pays for — shrinks, while the raw
/// stream (what the port loads) is unchanged, the on-chip decompressor
/// sitting between memory and the protocol builder.
#[derive(Debug, Clone, Default)]
pub struct BitstreamStore {
    streams: HashMap<String, Bitstream>,
    /// Cached stored sizes (compressed when compression is on).
    stored_sizes: HashMap<String, usize>,
    compressed: bool,
}

impl BitstreamStore {
    /// Empty store (raw storage).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store with zero-RLE compressed storage.
    pub fn with_compression() -> Self {
        BitstreamStore {
            compressed: true,
            ..Self::default()
        }
    }

    /// Store (or replace) the bitstream of `module`.
    pub fn insert(&mut self, module: impl Into<String>, bs: Bitstream) {
        let module = module.into();
        let stored = if self.compressed {
            pdr_fabric::compress::compress(&bs.encode()).len()
        } else {
            bs.len_bytes()
        };
        self.stored_sizes.insert(module.clone(), stored);
        self.streams.insert(module, bs);
    }

    /// Bitstream of `module`.
    pub fn get(&self, module: &str) -> Result<&Bitstream, RtrError> {
        self.streams
            .get(module)
            .ok_or_else(|| RtrError::UnknownModule(module.to_string()))
    }

    /// Stored size in bytes — what the memory fetch must transfer
    /// (compressed when compression is on).
    pub fn stored_size_of(&self, module: &str) -> Result<usize, RtrError> {
        self.get(module)?;
        self.stored_sizes.get(module).copied().ok_or_else(|| {
            RtrError::Internal(format!("no stored size recorded for module `{module}`"))
        })
    }

    /// Number of stored modules.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Module names in sorted order.
    pub fn modules(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.streams.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }
}

/// Staging-cache hit/miss/eviction counters.
///
/// Returned by [`BitstreamCache::stats`] and by the per-region probes of
/// the indexed [`crate::engine::RtrEngine`]; the named fields replace the
/// old bare `(hits, misses, evictions)` tuple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the module resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// A bounded LRU staging cache for fetched bitstreams.
#[derive(Debug, Clone)]
pub struct BitstreamCache {
    capacity_bytes: usize,
    used_bytes: usize,
    /// (module, bytes), most recently used last.
    entries: Vec<(String, usize)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl BitstreamCache {
    /// Cache of the given capacity. The paper's board has 56 BRAMs of
    /// 18 Kbit; dedicating 24 of them gives ≈ 54 KB — one module.
    pub fn new(capacity_bytes: usize) -> Self {
        BitstreamCache {
            capacity_bytes,
            used_bytes: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A cache sized to hold `n` copies of `module_bytes`.
    pub fn sized_for(n: usize, module_bytes: usize) -> Self {
        BitstreamCache::new(n * module_bytes)
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes currently resident.
    pub fn used(&self) -> usize {
        self.used_bytes
    }

    /// Is `module` resident? Counts a hit/miss and refreshes recency on hit.
    pub fn lookup(&mut self, module: &str) -> bool {
        if let Some(pos) = self.entries.iter().position(|(m, _)| m == module) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Is `module` resident? (No statistics side effects — for peeking.)
    pub fn contains(&self, module: &str) -> bool {
        self.entries.iter().any(|(m, _)| m == module)
    }

    /// Insert `module` of `bytes`, evicting LRU entries as needed.
    pub fn insert(&mut self, module: &str, bytes: usize) -> Result<(), RtrError> {
        if bytes > self.capacity_bytes {
            return Err(RtrError::CacheTooSmall {
                module: module.to_string(),
                needed: bytes,
                capacity: self.capacity_bytes,
            });
        }
        if let Some(pos) = self.entries.iter().position(|(m, _)| m == module) {
            let (_, old) = self.entries.remove(pos);
            self.used_bytes -= old;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let (_, evicted) = self.entries.remove(0);
            self.used_bytes -= evicted;
            self.evictions += 1;
        }
        self.entries.push((module.to_string(), bytes));
        self.used_bytes += bytes;
        Ok(())
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    /// Resident module names, LRU first.
    pub fn resident(&self) -> Vec<&str> {
        self.entries.iter().map(|(m, _)| m.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::{Device, ReconfigRegion};

    fn sample_stream(seed: u64) -> Bitstream {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        Bitstream::partial_for_region(&d, &r, seed)
    }

    #[test]
    fn store_roundtrip_and_errors() {
        let mut s = BitstreamStore::new();
        assert!(s.is_empty());
        s.insert("mod_qpsk", sample_stream(1));
        s.insert("mod_qam16", sample_stream(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.modules(), ["mod_qam16", "mod_qpsk"]);
        assert!(s.get("mod_qpsk").is_ok());
        assert!(s.stored_size_of("mod_qpsk").unwrap() > 40_000);
        assert!(matches!(s.get("ghost"), Err(RtrError::UnknownModule(_))));
    }

    #[test]
    fn paper_flash_fetch_is_about_3ms() {
        let bytes = sample_stream(1).len_bytes();
        let t = MemoryModel::paper_flash().read_time(bytes);
        let ms = t.as_millis_f64();
        assert!((2.5..3.5).contains(&ms), "fetch {ms} ms");
    }

    #[test]
    fn cache_lru_eviction_order() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 40).unwrap();
        c.insert("b", 40).unwrap();
        assert!(c.lookup("a")); // refresh a: LRU order is now [b, a]
        c.insert("c", 40).unwrap(); // evicts b
        assert!(c.contains("a"));
        assert!(!c.contains("b"));
        assert!(c.contains("c"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 0, 1));
        assert_eq!(c.resident(), ["a", "c"]);
    }

    #[test]
    fn cache_rejects_oversized() {
        let mut c = BitstreamCache::new(10);
        assert!(matches!(
            c.insert("big", 11),
            Err(RtrError::CacheTooSmall { .. })
        ));
    }

    #[test]
    fn cache_reinsert_updates_size() {
        let mut c = BitstreamCache::new(100);
        c.insert("a", 60).unwrap();
        c.insert("a", 30).unwrap();
        assert_eq!(c.used(), 30);
        c.insert("b", 70).unwrap();
        assert_eq!(c.used(), 100);
        assert!(c.contains("a") && c.contains("b"));
    }

    #[test]
    fn lookup_counts_misses() {
        let mut c = BitstreamCache::new(10);
        assert!(!c.lookup("x"));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn sized_for_helper() {
        let c = BitstreamCache::sized_for(2, 50_000);
        assert_eq!(c.capacity(), 100_000);
    }
}
