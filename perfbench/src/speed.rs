//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts with the other
//! tenants' load: on the two-vCPU host it was tuned on, one compile takes
//! anywhere from 1× to 1.5× its best time, in phases that last from
//! seconds to minutes. CPU time drifts as much as wall time there (the
//! slowdown is contention for the core and its caches, not time spent off
//! the CPU), so a plain median over a run says as much about the
//! neighbours as about the program.
//!
//! So every untraced run also times a fixed calibration [`kernel`] at
//! regular points between its units of work, and scales its times by
//! [`REFERENCE_MS`] over the median kernel time of the run: the reported
//! figures are at a fixed reference speed of the host. The kernel shares
//! no code with the production crates, so a change to the program leaves
//! it alone and shows in full, while a slow phase of the host slows both
//! and cancels out.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::Instant;

/// The median kernel time that defines the reference speed, in ms: a run
/// whose kernels took this long is reported unscaled.
pub const REFERENCE_MS: f64 = 16.0;

/// One run of the calibration kernel: the kinds of work the design flow
/// does, at a fixed size. Ordered-map inserts of small heap values, a
/// sort and a pointer chase over a few MiB, then string-keyed ordered and
/// hashed maps beside a binary heap, as a simulator's bookkeeping does.
/// Returns a value derived from all of it, so none is optimized away.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..10_000 {
        let k = next() % 100_000;
        map.insert(k, vec![k as u32; 4]);
    }
    let mut sorted: Vec<u64> = (0..50_000).map(|_| next()).collect();
    sorted.sort_unstable();
    let n = 1usize << 17;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let mut p = 0u32;
    for _ in 0..100_000 {
        p = perm[p as usize];
    }

    let names: Vec<String> = (0..64).map(|i| format!("operator_{i}")).collect();
    let mut busy: BTreeMap<String, u64> = BTreeMap::new();
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut queue = BinaryHeap::new();
    let mut popped = 0u64;
    for i in 0..30_000u64 {
        let r = next();
        let key = format!("{}/{}", names[(r % 64) as usize], r % 16);
        *busy.entry(key.clone()).or_default() += r & 0xff;
        *seen.entry(key).or_default() += 1;
        queue.push((r >> 8) % 100_000);
        if i % 3 == 0 {
            popped += queue.pop().unwrap_or(0);
        }
    }
    map.len() as u64
        + sorted[sorted.len() / 2]
        + p as u64
        + popped
        + busy.len() as u64
        + seen.len() as u64
}

/// The kernel times of one run.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    runs: Vec<f64>,
}

impl Calibration {
    /// Run the kernel `reps` times; returns the wall time that took.
    pub fn probe(&mut self, reps: usize) -> std::time::Duration {
        let start = Instant::now();
        for _ in 0..reps {
            let t = Instant::now();
            std::hint::black_box(kernel(self.runs.len() as u64));
            self.runs.push(t.elapsed().as_secs_f64() * 1e3);
        }
        start.elapsed()
    }

    /// Kernel runs so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// No kernel run yet.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Median kernel time in ms (0 before the first run).
    pub fn median_ms(&self) -> f64 {
        crate::median(&self.runs)
    }

    /// How much slower than the reference speed the host ran: divide the
    /// run's times by it (1 before the first kernel run).
    pub fn slowdown(&self) -> f64 {
        match self.median_ms() {
            m if m > 0.0 => m / REFERENCE_MS,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_probes_are_recorded() {
        assert_eq!(kernel(3), kernel(3));
        let mut cal = Calibration::default();
        assert_eq!(cal.slowdown(), 1.0);
        cal.probe(2);
        assert_eq!(cal.len(), 2);
        assert!(cal.median_ms() > 0.0);
        assert_eq!(cal.slowdown(), cal.median_ms() / REFERENCE_MS);
    }
}
