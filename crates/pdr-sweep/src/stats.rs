//! Aggregate statistics over one sweep.

use crate::scenario::{ScenarioOutcome, ScenarioStatus};
use serde::json::Value;
use std::time::Duration;

/// Aggregates of one engine run: counts, worker configuration and
/// wall-time percentiles over the scenario closures.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Scenarios submitted.
    pub total: usize,
    /// Scenarios that returned `Ok`.
    pub ok: usize,
    /// Scenarios that returned a domain error.
    pub errored: usize,
    /// Scenarios that panicked.
    pub panicked: usize,
    /// Workers the engine actually used.
    pub threads: usize,
    /// Wall time of the whole sweep (submission to reduction).
    pub engine_wall: Duration,
    /// Sum of per-scenario wall times (CPU-side work volume).
    pub scenario_wall_total: Duration,
    /// Median per-scenario wall time.
    pub wall_p50: Duration,
    /// 95th-percentile per-scenario wall time.
    pub wall_p95: Duration,
    /// Longest single scenario.
    pub wall_max: Duration,
}

impl SweepStats {
    pub(crate) fn from_outcomes<T>(
        outcomes: &[ScenarioOutcome<T>],
        threads: usize,
        engine_wall: Duration,
    ) -> Self {
        let mut ok = 0;
        let mut errored = 0;
        let mut panicked = 0;
        let mut walls: Vec<Duration> = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            match &o.status {
                ScenarioStatus::Ok(_) => ok += 1,
                ScenarioStatus::Error(_) => errored += 1,
                ScenarioStatus::Panicked(_) => panicked += 1,
            }
            walls.push(o.wall);
        }
        walls.sort_unstable();
        let scenario_wall_total = walls.iter().sum();
        Self {
            total: outcomes.len(),
            ok,
            errored,
            panicked,
            threads,
            engine_wall,
            scenario_wall_total,
            wall_p50: percentile(&walls, 50).unwrap_or(Duration::ZERO),
            wall_p95: percentile(&walls, 95).unwrap_or(Duration::ZERO),
            wall_max: walls.last().copied().unwrap_or(Duration::ZERO),
        }
    }

    /// Scenarios that errored or panicked.
    pub fn failed(&self) -> usize {
        self.errored + self.panicked
    }

    /// Ratio of summed scenario time to engine wall time — the
    /// effective parallel speedup delivered by the pool.
    fn parallel_efficiency(&self) -> f64 {
        let wall = self.engine_wall.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.scenario_wall_total.as_secs_f64() / wall
    }

    /// The stats as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("total", Value::UInt(self.total as u64)),
            ("ok", Value::UInt(self.ok as u64)),
            ("errored", Value::UInt(self.errored as u64)),
            ("panicked", Value::UInt(self.panicked as u64)),
            ("threads", Value::UInt(self.threads as u64)),
            (
                "engine_wall_secs",
                Value::Float(self.engine_wall.as_secs_f64()),
            ),
            (
                "scenario_wall_total_secs",
                Value::Float(self.scenario_wall_total.as_secs_f64()),
            ),
            ("wall_p50_secs", Value::Float(self.wall_p50.as_secs_f64())),
            ("wall_p95_secs", Value::Float(self.wall_p95.as_secs_f64())),
            ("wall_max_secs", Value::Float(self.wall_max.as_secs_f64())),
        ])
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "{} scenarios ({} ok, {} failed) on {} thread(s) in {:.3}s \
             [p50 {:.3}s, p95 {:.3}s, max {:.3}s, speedup {:.2}x]",
            self.total,
            self.ok,
            self.failed(),
            self.threads,
            self.engine_wall.as_secs_f64(),
            self.wall_p50.as_secs_f64(),
            self.wall_p95.as_secs_f64(),
            self.wall_max.as_secs_f64(),
            self.parallel_efficiency(),
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice; `None` when
/// the sample is empty.
///
/// Generic over the sample type so the same definition serves sweep wall
/// times (`Duration`), simulated latencies (`pdr_fabric::TimePs` or raw
/// picosecond counts) and any other ordered measurements.
pub fn percentile<T: Copy>(sorted: &[T], pct: u32) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The p50/p90/p99 summary of one sample (nearest-rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Percentiles<T> {
    /// Median.
    pub p50: T,
    /// 90th percentile.
    pub p90: T,
    /// 99th percentile.
    pub p99: T,
}

/// Sort `values` and take their p50/p90/p99 (nearest-rank; all zero/
/// default on an empty sample). The `bench_rtr` hidden-latency report is
/// built on this.
pub fn percentiles<T: Copy + Ord + Default>(values: &mut [T]) -> Percentiles<T> {
    values.sort_unstable();
    Percentiles {
        p50: percentile(values, 50).unwrap_or_default(),
        p90: percentile(values, 90).unwrap_or_default(),
        p99: percentile(values, 99).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ParamMap;

    fn outcome(ms: u64, status: ScenarioStatus<u32>) -> ScenarioOutcome<u32> {
        ScenarioOutcome {
            label: "s".into(),
            params: ParamMap::new(),
            seed: 0,
            status,
            wall: Duration::from_millis(ms),
        }
    }

    #[test]
    fn counts_and_percentiles() {
        let outcomes: Vec<_> = (1..=20)
            .map(|i| {
                let status = if i == 7 {
                    ScenarioStatus::Error(crate::SweepError::scenario("e"))
                } else if i == 9 {
                    ScenarioStatus::Panicked("p".into())
                } else {
                    ScenarioStatus::Ok(i as u32)
                };
                outcome(i, status)
            })
            .collect();
        let stats = SweepStats::from_outcomes(&outcomes, 4, Duration::from_millis(100));
        assert_eq!(stats.total, 20);
        assert_eq!(stats.ok, 18);
        assert_eq!(stats.errored, 1);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.failed(), 2);
        assert_eq!(stats.wall_p50, Duration::from_millis(10));
        assert_eq!(stats.wall_p95, Duration::from_millis(19));
        assert_eq!(stats.wall_max, Duration::from_millis(20));
        assert_eq!(stats.scenario_wall_total, Duration::from_millis(210));
        assert!((stats.parallel_efficiency() - 2.1).abs() < 1e-9);
        let line = stats.render();
        assert!(line.contains("20 scenarios"));
        assert!(line.contains("2 failed"));
    }

    #[test]
    fn percentile_helper_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let p = percentiles(&mut v);
        assert_eq!((p.p50, p.p90, p.p99), (50, 90, 99));
        let mut single = [42u64];
        let p = percentiles(&mut single);
        assert_eq!((p.p50, p.p90, p.p99), (42, 42, 42));
        let p = percentiles::<u64>(&mut []);
        assert_eq!((p.p50, p.p90, p.p99), (0, 0, 0));
        assert_eq!(percentile::<u64>(&[], 50), None);
    }

    #[test]
    fn percentile_helper_on_time_ps() {
        use pdr_fabric::TimePs;
        let mut v: Vec<TimePs> = (0..10).map(|i| TimePs::from_us(10 - i)).collect();
        let p = percentiles(&mut v);
        assert_eq!(p.p50, TimePs::from_us(5));
        assert_eq!(p.p99, TimePs::from_us(10));
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats =
            SweepStats::from_outcomes(&Vec::<ScenarioOutcome<u32>>::new(), 1, Duration::ZERO);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.wall_p50, Duration::ZERO);
        assert_eq!(stats.parallel_efficiency(), 0.0);
        let v = stats.to_json();
        assert_eq!(v.get("total").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn json_has_all_fields() {
        let stats = SweepStats::from_outcomes(
            &[outcome(5, ScenarioStatus::Ok(1))],
            2,
            Duration::from_millis(10),
        );
        let v = stats.to_json();
        for key in [
            "total",
            "ok",
            "errored",
            "panicked",
            "threads",
            "engine_wall_secs",
            "scenario_wall_total_secs",
            "wall_p50_secs",
            "wall_p95_secs",
            "wall_max_secs",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }
}
