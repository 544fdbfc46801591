//! Indexed prefetch and eviction policies for the [`crate::engine::RtrEngine`].
//!
//! The reference [`crate::prefetch::Predictor`] trait deals in owned
//! `String`s behind a `Box<dyn>`; at millions of requests per second both
//! the allocation and the virtual dispatch show up. The policies here
//! operate on dense module indices (`u32`, with [`NO_MODULE`] as the
//! none-sentinel) and are selected through the [`Prefetcher`]/[`Evictor`]
//! enums — one `match` on a discriminant, no boxing, no heap traffic on
//! the request path. Every table a policy consults (schedule futures,
//! Markov transition counts, LFU frequencies, Belady next-use chains) is
//! sized once at engine construction.
//!
//! Prefetch (what to fetch ahead of time):
//!
//! * [`SchedulePrefetch`] — replay a known load sequence (the paper's
//!   off-line, schedule-driven setting). Index-for-index equivalent to
//!   the reference [`crate::prefetch::ScheduleDriven`].
//! * [`Prefetcher::LastValue`] — predict "no change" (straw man),
//!   equivalent to [`crate::prefetch::LastValue`].
//! * [`MarkovPrefetch`] — learn each module's most frequent follower in a
//!   dense transition matrix, equivalent (including the lexicographic
//!   tie-break) to [`crate::prefetch::FirstOrderMarkov`].
//!
//! Eviction (which staging-cache entry to displace):
//!
//! * [`Evictor::Lru`] — least recently used; the reference
//!   [`crate::store::BitstreamCache`] semantics, byte-for-byte.
//! * [`LfuEvict`] — least frequently used (ties broken LRU-first).
//! * [`BeladyEvict`] — the offline oracle: evict the entry whose next use
//!   lies farthest in a future request trace supplied up front. Only
//!   meaningful when the replayed trace matches that future; the
//!   benchmark uses it as the unbeatable hit-rate bound.

/// Sentinel module index: "no module" / "no prediction".
pub const NO_MODULE: u32 = u32::MAX;

/// Replays a known future load sequence (off-line, schedule-driven).
///
/// Entries that could not be resolved to a stored module at construction
/// are [`NO_MODULE`]; they never match an observation and yield no
/// prediction — exactly how the string reference skips names absent from
/// its store.
#[derive(Debug, Clone)]
pub struct SchedulePrefetch {
    future: Vec<u32>,
    cursor: usize,
}

impl SchedulePrefetch {
    /// Predictor over the resolved load sequence (in load order).
    pub fn new(future: Vec<u32>) -> Self {
        SchedulePrefetch { future, cursor: 0 }
    }

    /// Position in the load sequence of the next expected load.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    pub(crate) fn observe_and_predict(&mut self, module: u32) -> u32 {
        if self.future.get(self.cursor).copied() == Some(module) {
            self.cursor += 1;
        }
        self.future.get(self.cursor).copied().unwrap_or(NO_MODULE)
    }
}

/// Learns, per module, its most frequent successor in a dense
/// `n x n` transition-count matrix.
#[derive(Debug, Clone)]
pub struct MarkovPrefetch {
    n: usize,
    /// Row-major transition counts: `counts[cur * n + next]`.
    counts: Vec<u64>,
    /// Lexicographic rank of each module's *name* — the reference
    /// predictor breaks count ties toward the smallest name, so the
    /// indexed twin must compare names, not indices.
    lex_rank: Vec<u32>,
    last: u32,
}

impl MarkovPrefetch {
    /// Fresh, untrained predictor over `lex_rank.len()` modules.
    pub fn new(lex_rank: Vec<u32>) -> Self {
        let n = lex_rank.len();
        MarkovPrefetch {
            n,
            counts: vec![0; n * n],
            lex_rank,
            last: NO_MODULE,
        }
    }

    /// The last observed module ([`NO_MODULE`] before the first).
    pub(crate) fn last(&self) -> u32 {
        self.last
    }

    /// The row-major transition counts.
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub(crate) fn observe_and_predict(&mut self, module: u32) -> u32 {
        let m = module as usize;
        if self.last != NO_MODULE && self.last != module {
            self.counts[self.last as usize * self.n + m] += 1;
        }
        self.last = module;
        let row = &self.counts[m * self.n..][..self.n];
        let mut best = NO_MODULE;
        let mut best_count = 0u64;
        for (j, &c) in row.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if c > best_count
                || (c == best_count && self.lex_rank[j] < self.lex_rank[best as usize])
            {
                best = j as u32;
                best_count = c;
            }
        }
        best
    }
}

/// The prefetch policy an engine region runs — enum-dispatched, no `Box`.
#[derive(Debug, Clone)]
pub enum Prefetcher {
    /// Prefetching off.
    None,
    /// Replay a known schedule.
    Schedule(SchedulePrefetch),
    /// Predict "no change".
    LastValue,
    /// First-order Markov learner.
    Markov(MarkovPrefetch),
}

impl Prefetcher {
    /// Called after `module` becomes the active configuration; returns
    /// the predicted next module, or [`NO_MODULE`] for no prediction.
    #[inline]
    pub fn observe_and_predict(&mut self, module: u32) -> u32 {
        match self {
            Prefetcher::None => NO_MODULE,
            Prefetcher::Schedule(p) => p.observe_and_predict(module),
            Prefetcher::LastValue => module,
            Prefetcher::Markov(p) => p.observe_and_predict(module),
        }
    }
}

/// Least frequently used, ties broken toward the least recently used.
#[derive(Debug, Clone)]
pub struct LfuEvict {
    freq: Vec<u64>,
}

impl LfuEvict {
    /// Fresh frequency table over `modules` modules.
    pub fn new(modules: usize) -> Self {
        LfuEvict {
            freq: vec![0; modules],
        }
    }

    /// Per-module use counts.
    pub(crate) fn frequencies(&self) -> &[u64] {
        &self.freq
    }

    /// Count one use of `module` (a hit or an insert).
    pub(crate) fn on_use(&mut self, module: u32) {
        self.freq[module as usize] += 1;
    }

    pub(crate) fn victim(&self, entries: &[(u32, usize)]) -> usize {
        let mut best = 0usize;
        let mut best_freq = u64::MAX;
        for (pos, &(m, _)) in entries.iter().enumerate() {
            let f = self.freq[m as usize];
            if f < best_freq {
                best = pos;
                best_freq = f;
            }
        }
        best
    }
}

/// The offline Belady oracle: evict the cached module whose next use in
/// the supplied future trace is farthest away (or never comes).
///
/// Exact only while the replayed requests follow `future` entry for
/// entry; on a deviation the stale next-use markers degrade it to a
/// heuristic (it never becomes unsafe, just suboptimal).
#[derive(Debug, Clone)]
pub struct BeladyEvict {
    /// The future request trace for this region (module indices).
    future: Vec<u32>,
    /// `next_use[p]`: the next position after `p` requesting the same
    /// module, or `u32::MAX`.
    next_use: Vec<u32>,
    /// Per-module: position of its next use at the current cursor.
    next_of: Vec<u32>,
    cursor: usize,
}

impl BeladyEvict {
    /// Oracle over `future` for a system of `modules` modules.
    pub fn new(future: Vec<u32>, modules: usize) -> Self {
        let mut next_use = vec![u32::MAX; future.len()];
        let mut last_seen = vec![u32::MAX; modules];
        for (p, &m) in future.iter().enumerate().rev() {
            if m == NO_MODULE {
                continue;
            }
            next_use[p] = last_seen[m as usize];
            last_seen[m as usize] = p as u32;
        }
        // `last_seen` now holds each module's *first* use.
        BeladyEvict {
            future,
            next_use,
            next_of: last_seen,
            cursor: 0,
        }
    }

    /// Position in the future trace of the next expected request.
    pub(crate) fn cursor(&self) -> usize {
        self.cursor
    }

    /// Per module, the trace position of its next use at the cursor.
    pub(crate) fn next_uses(&self) -> &[u32] {
        &self.next_of
    }

    pub(crate) fn on_request(&mut self, module: u32) {
        if self.future.get(self.cursor).copied() == Some(module) {
            self.next_of[module as usize] = self.next_use[self.cursor];
            self.cursor += 1;
        }
    }

    pub(crate) fn victim(&self, entries: &[(u32, usize)]) -> usize {
        let mut best = 0usize;
        let mut best_next = 0u32;
        for (pos, &(m, _)) in entries.iter().enumerate() {
            let next = self.next_of[m as usize];
            if pos == 0 || next > best_next {
                best = pos;
                best_next = next;
            }
        }
        best
    }
}

/// The eviction policy an engine region runs — enum-dispatched, no `Box`.
///
/// The cache keeps its entries in recency order (least recently used
/// first) regardless of policy; the policy only picks the victim and
/// maintains whatever side tables it needs. All hooks are allocation-free.
#[derive(Debug, Clone)]
pub enum Evictor {
    /// Least recently used (the reference cache's behavior).
    Lru,
    /// Least frequently used.
    Lfu(LfuEvict),
    /// Offline oracle bound.
    Belady(BeladyEvict),
}

impl Evictor {
    /// Called once per configuration request on the region, *before* any
    /// cache activity (Belady advances its trace cursor here).
    #[inline]
    pub fn on_request(&mut self, module: u32) {
        if let Evictor::Belady(p) = self {
            p.on_request(module);
        }
    }

    /// Called when a cache lookup hits `module` or `module` is inserted.
    #[inline]
    pub fn on_use(&mut self, module: u32) {
        if let Evictor::Lfu(p) = self {
            p.on_use(module);
        }
    }

    /// Index (into `entries`, recency order, LRU first) of the entry to
    /// evict. `entries` is never empty when called.
    #[inline]
    pub fn victim(&self, entries: &[(u32, usize)]) -> usize {
        match self {
            Evictor::Lru => 0,
            Evictor::Lfu(p) => p.victim(entries),
            Evictor::Belady(p) => p.victim(entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_prefetch_replays_future() {
        // Mirror of prefetch::tests::schedule_driven_replays_future with
        // qpsk=0, qam16=1.
        let mut p = SchedulePrefetch::new(vec![1, 0, 1]);
        assert_eq!(p.observe_and_predict(0), 1);
        assert_eq!(p.observe_and_predict(1), 0);
        assert_eq!(p.observe_and_predict(0), 1);
        assert_eq!(p.observe_and_predict(1), NO_MODULE);
    }

    #[test]
    fn markov_matches_reference_tie_break() {
        use crate::prefetch::{FirstOrderMarkov, Predictor};
        // Names chosen so index order disagrees with name order: module 0
        // is "z", module 1 is "a". lex_rank: z -> 1, a -> 0.
        let mut idx = MarkovPrefetch::new(vec![1, 0, 2]);
        let mut s = FirstOrderMarkov::new();
        let names = ["z", "a", "m"];
        // Train cur=2 -> 0 and cur=2 -> 1 once each: tied counts.
        for seq in [[2u32, 0], [2, 1], [2, 0], [2, 1]] {
            for m in seq {
                let got = idx.observe_and_predict(m);
                let want = s.observe_and_predict(names[m as usize]);
                let got_name = if got == NO_MODULE {
                    None
                } else {
                    Some(names[got as usize].to_string())
                };
                assert_eq!(got_name, want, "diverged at observation {m}");
            }
        }
        // On the tie the reference picks the smallest *name* ("a" = 1).
        assert_eq!(idx.observe_and_predict(2), 1);
    }

    #[test]
    fn lfu_victim_prefers_cold_entries() {
        let mut p = LfuEvict::new(3);
        p.on_use(0);
        p.on_use(0);
        p.on_use(1);
        p.on_use(2);
        // Frequencies: 0 -> 2, 1 -> 1, 2 -> 1; tie between 1 and 2 breaks
        // toward the older (earlier) entry.
        assert_eq!(p.victim(&[(0, 10), (1, 10), (2, 10)]), 1);
    }

    #[test]
    fn belady_victim_is_farthest_next_use() {
        // Future: 0 1 0 2. At the start: next use of 0 is pos 0, of 1 is
        // pos 1, of 2 is pos 3.
        let mut p = BeladyEvict::new(vec![0, 1, 0, 2], 3);
        p.on_request(0); // now 0's next use is pos 2
        p.on_request(1); // 1 never recurs -> u32::MAX
        assert_eq!(p.victim(&[(0, 10), (1, 10), (2, 10)]), 1);
        p.on_request(0); // 0 never recurs either now
        assert_eq!(p.victim(&[(0, 10), (2, 10)]), 0);
    }
}
