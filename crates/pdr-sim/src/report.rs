//! Simulation reports: traces, reconfiguration events, aggregates.

use pdr_fabric::TimePs;
use pdr_rtr::ManagerStats;
use serde::Serialize;
use std::collections::BTreeMap;

/// What a trace event records.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum TraceKind {
    /// A computation ran on an operator.
    Compute {
        /// Operation name.
        op: String,
        /// Function executed.
        function: String,
    },
    /// A transfer completed on a medium.
    Transfer {
        /// Sender operator.
        from: String,
        /// Receiver operator.
        to: String,
        /// Medium crossed.
        medium: String,
        /// Payload bits.
        bits: u64,
    },
    /// A reconfiguration completed on a dynamic operator.
    Reconfigure {
        /// Module loaded.
        module: String,
        /// Whether the fetch leg was hidden (cache/prefetch).
        fetch_hidden: bool,
    },
}

/// One timed trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// Operator (or medium host) the event belongs to.
    pub site: String,
    /// Iteration index.
    pub iteration: u32,
    /// Start time.
    pub start: TimePs,
    /// End time.
    pub end: TimePs,
    /// Payload.
    pub kind: TraceKind,
}

/// One reconfiguration, with its latency decomposition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ReconfigEvent {
    /// Dynamic operator reconfigured.
    pub operator: String,
    /// Module loaded.
    pub module: String,
    /// Iteration that demanded it.
    pub iteration: u32,
    /// Request time.
    pub requested_at: TimePs,
    /// Region-ready time.
    pub ready_at: TimePs,
    /// Whether the fetch leg was hidden.
    pub fetch_hidden: bool,
}

impl ReconfigEvent {
    /// Observed request→ready latency (the `In_Reconf` assertion window).
    /// Saturates like [`SimReport::iteration_periods`] so a malformed
    /// event (ready before request) reads as zero rather than panicking.
    pub fn latency(&self) -> TimePs {
        self.ready_at.saturating_sub(self.requested_at)
    }
}

/// Aggregate simulation report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimReport {
    /// End of the last event.
    pub makespan: TimePs,
    /// Iterations executed.
    pub iterations: u32,
    /// Busy time per operator.
    pub operator_busy: BTreeMap<String, TimePs>,
    /// Busy time per medium.
    pub medium_busy: BTreeMap<String, TimePs>,
    /// All reconfigurations, in completion order.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Per-region configuration-manager statistics.
    pub manager_stats: BTreeMap<String, ManagerStats>,
    /// Completion time of each iteration (when the last operator finished
    /// it) — the per-symbol latency series behind the jitter metrics.
    pub iteration_ends: Vec<TimePs>,
    /// Full event trace (present when tracing was enabled).
    pub trace: Vec<TraceEvent>,
}

impl SimReport {
    /// Total time `In_Reconf` was asserted (sum of reconfiguration
    /// latencies) — the §6 lock-up metric.
    pub fn lockup_time(&self) -> TimePs {
        self.reconfigs.iter().map(ReconfigEvent::latency).sum()
    }

    /// Number of reconfigurations.
    pub fn reconfig_count(&self) -> usize {
        self.reconfigs.len()
    }

    /// Reconfigurations whose fetch leg was hidden.
    pub fn hidden_fetches(&self) -> usize {
        self.reconfigs.iter().filter(|r| r.fetch_hidden).count()
    }

    /// Utilization of an operator over the makespan.
    pub fn utilization(&self, operator: &str) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        self.operator_busy
            .get(operator)
            .map(|b| b.as_ps() as f64 / self.makespan.as_ps() as f64)
            .unwrap_or(0.0)
    }

    /// Iterations per second achieved over the run.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.iterations as f64 / self.makespan.as_secs_f64()
        }
    }

    /// Average iteration period.
    pub fn avg_period(&self) -> TimePs {
        if self.iterations == 0 {
            TimePs::ZERO
        } else {
            self.makespan / self.iterations as u64
        }
    }

    /// Per-iteration periods (difference of consecutive completion times;
    /// the first period is measured from time zero). Empty when iteration
    /// completion was not recorded.
    pub fn iteration_periods(&self) -> Vec<TimePs> {
        let mut out = Vec::with_capacity(self.iteration_ends.len());
        let mut prev = TimePs::ZERO;
        for &end in &self.iteration_ends {
            out.push(end.saturating_sub(prev));
            prev = end;
        }
        out
    }

    /// The `p`-th percentile (0–100) of the iteration-period distribution
    /// (nearest-rank). `None` when no periods were recorded.
    pub fn period_percentile(&self, p: f64) -> Option<TimePs> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let mut periods = self.iteration_periods();
        if periods.is_empty() {
            return None;
        }
        periods.sort_unstable();
        let rank = ((p / 100.0 * periods.len() as f64).ceil() as usize).clamp(1, periods.len());
        Some(periods[rank - 1])
    }

    /// Render a short human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} iterations in {} ({:.1} it/s); {} reconfigurations ({} fetch-hidden), \
             lock-up {}",
            self.iterations,
            self.makespan,
            self.throughput_per_sec(),
            self.reconfig_count(),
            self.hidden_fetches(),
            self.lockup_time()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            makespan: TimePs::from_ms(10),
            iterations: 100,
            operator_busy: [("fpga".to_string(), TimePs::from_ms(5))].into(),
            medium_busy: BTreeMap::new(),
            reconfigs: vec![
                ReconfigEvent {
                    operator: "op_dyn".into(),
                    module: "mod_qam16".into(),
                    iteration: 3,
                    requested_at: TimePs::from_ms(1),
                    ready_at: TimePs::from_ms(5),
                    fetch_hidden: false,
                },
                ReconfigEvent {
                    operator: "op_dyn".into(),
                    module: "mod_qpsk".into(),
                    iteration: 9,
                    requested_at: TimePs::from_ms(7),
                    ready_at: TimePs::from_ms(8),
                    fetch_hidden: true,
                },
            ],
            manager_stats: BTreeMap::new(),
            iteration_ends: (1..=100).map(|i| TimePs::from_us(i * 100)).collect(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn lockup_and_counts() {
        let r = report();
        assert_eq!(r.lockup_time(), TimePs::from_ms(5));
        assert_eq!(r.reconfig_count(), 2);
        assert_eq!(r.hidden_fetches(), 1);
    }

    #[test]
    fn utilization_and_throughput() {
        let r = report();
        assert!((r.utilization("fpga") - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization("ghost"), 0.0);
        assert!((r.throughput_per_sec() - 10_000.0).abs() < 1e-6);
        assert_eq!(r.avg_period(), TimePs::from_us(100));
    }

    #[test]
    fn iteration_periods_and_percentiles() {
        let r = report();
        let periods = r.iteration_periods();
        assert_eq!(periods.len(), 100);
        assert!(periods.iter().all(|&p| p == TimePs::from_us(100)));
        assert_eq!(r.period_percentile(50.0), Some(TimePs::from_us(100)));
        assert_eq!(r.period_percentile(99.0), Some(TimePs::from_us(100)));
        let mut empty = report();
        empty.iteration_ends.clear();
        assert_eq!(empty.period_percentile(50.0), None);
        assert!(empty.iteration_periods().is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = report().period_percentile(101.0);
    }

    #[test]
    fn summary_mentions_the_numbers() {
        let s = report().summary();
        assert!(s.contains("100 iterations"));
        assert!(s.contains("2 reconfigurations"));
        assert!(s.contains("1 fetch-hidden"));
    }
}
