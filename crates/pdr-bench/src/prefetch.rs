//! Prefetching study — the abstract's claim, quantified.
//!
//! *"The run-time reconfiguration manager which monitors dynamic
//! reconfigurations, uses prefetching technic to minimize reconfiguration
//! latency of runtime reconfiguration."*
//!
//! The regenerator sweeps the modulation-switch interval (symbols between
//! switches) and measures, for each prefetch policy, the total
//! `In_Reconf` lock-up per switch. The expected shape: with slow switching
//! the schedule-driven prefetcher hides nearly the whole fetch leg (only
//! the port load remains); as switching approaches the fetch time the gain
//! collapses; wrong predictors (last-value) never help.

use pdr_core::paper::PaperCaseStudy;
use pdr_core::RuntimeOptions;
use pdr_fabric::TimePs;
use pdr_rtr::PrefetchSpec;
use pdr_sim::SimConfig;
use pdr_sweep::{Scenario, SweepEngine, SweepError, SweepReport};
use serde::json::Value;

/// One (interval, policy) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchPoint {
    /// Symbols between modulation switches.
    pub switch_interval: u32,
    /// Policy label.
    pub policy: String,
    /// Reconfigurations performed.
    pub reconfigurations: usize,
    /// Mean lock-up per reconfiguration.
    pub lockup_per_switch: TimePs,
    /// Fraction of fetches hidden.
    pub hidden_fraction: f64,
}

impl PrefetchPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            (
                "switch_interval",
                Value::UInt(u64::from(self.switch_interval)),
            ),
            ("policy", Value::String(self.policy.clone())),
            (
                "reconfigurations",
                Value::UInt(self.reconfigurations as u64),
            ),
            (
                "lockup_per_switch_ps",
                Value::UInt(self.lockup_per_switch.0),
            ),
            ("hidden_fraction", Value::Float(self.hidden_fraction)),
        ])
    }
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchStudy {
    /// All measured points.
    pub points: Vec<PrefetchPoint>,
}

impl PrefetchStudy {
    /// Points of one policy, ascending interval.
    pub fn of_policy(&self, policy: &str) -> Vec<&PrefetchPoint> {
        self.points.iter().filter(|p| p.policy == policy).collect()
    }

    /// Render the sweep table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Prefetching study — lock-up per switch vs switch interval\n\n{:>9} {:<24} {:>8} {:>16} {:>8}\n",
            "interval", "policy", "reconf", "lockup/switch", "hidden"
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>9} {:<24} {:>8} {:>16} {:>7.0}%\n",
                p.switch_interval,
                p.policy,
                p.reconfigurations,
                p.lockup_per_switch.to_string(),
                100.0 * p.hidden_fraction
            ));
        }
        out
    }
}

/// Alternating selections with the given switch interval.
fn selections(interval: u32, total: u32) -> Vec<String> {
    (0..total)
        .map(|i| {
            if (i / interval).is_multiple_of(2) {
                "mod_qpsk".to_string()
            } else {
                "mod_qam16".to_string()
            }
        })
        .collect()
}

/// Run the sweep on `engine`: one scenario per (interval, policy) point,
/// fanned out across the pool with per-point fault isolation.
pub fn run_sweep(
    intervals: &[u32],
    phases: u32,
    engine: &SweepEngine,
) -> Result<SweepReport<PrefetchPoint>, SweepError> {
    let study = PaperCaseStudy::build().map_err(SweepError::scenario)?;
    let mut scenarios = Vec::new();
    for &interval in intervals {
        let symbols = interval * phases;
        let sel = selections(interval, symbols);
        let loads = PaperCaseStudy::load_sequence(&sel);
        // A 1-module staging cache everywhere: with two alternating modules
        // a 2-module cache hides every fetch by retention alone, masking
        // the predictors. One staging slot (the realistic BRAM budget —
        // ≈ 50 KB is 24 of the XC2V2000's 56 block RAMs) isolates the
        // *prediction* quality: only a correctly prefetched module is warm.
        let with = |prefetch: PrefetchSpec| RuntimeOptions {
            cache_modules: 1,
            prefetch,
            ..RuntimeOptions::default()
        };
        let policies: Vec<(&str, RuntimeOptions)> = vec![
            ("no-prefetch", with(PrefetchSpec::None)),
            (
                "schedule-driven",
                with(PrefetchSpec::Schedule(loads.clone())),
            ),
            ("last-value", with(PrefetchSpec::LastValue)),
            ("markov-1", with(PrefetchSpec::Markov)),
        ];
        for (label, options) in policies {
            let study = &study;
            let sel = sel.clone();
            scenarios.push(
                // The simulation is seedless (fully deterministic); the
                // interval doubles as the scenario seed for the record.
                Scenario::new(
                    format!("prefetch/{interval}/{label}"),
                    u64::from(interval),
                    move || {
                        let dep = study.deploy(options);
                        let cfg =
                            SimConfig::iterations(symbols).with_selection("op_dyn", sel.clone());
                        let report = dep.simulate(&cfg).map_err(SweepError::scenario)?;
                        let n = report.reconfig_count().max(1);
                        Ok(PrefetchPoint {
                            switch_interval: interval,
                            policy: label.to_string(),
                            reconfigurations: report.reconfig_count(),
                            lockup_per_switch: report.lockup_time() / n as u64,
                            hidden_fraction: report.hidden_fetches() as f64
                                / report.reconfig_count().max(1) as f64,
                        })
                    },
                )
                .with_param("interval", interval)
                .with_param("policy", label),
            );
        }
    }
    Ok(engine.run(scenarios))
}

/// Run the sweep over the given switch intervals. Each interval runs for
/// `phases` half-periods (so every point sees the same number of switches:
/// `phases - 1`), i.e. `interval × phases` OFDM symbols.
pub fn run(intervals: &[u32], phases: u32) -> Result<PrefetchStudy, SweepError> {
    let report = run_sweep(intervals, phases, &SweepEngine::new())?;
    Ok(PrefetchStudy {
        points: report.into_values()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> PrefetchStudy {
        // Symbols are ~17 µs: interval 4 (~70 µs of slack, fetch barely
        // covered) vs interval 256 (~4.4 ms of slack, fetch fully hidden).
        run(&[4, 256], 8).unwrap()
    }

    #[test]
    fn schedule_driven_beats_no_prefetch_at_every_interval() {
        let s = study();
        let base = s.of_policy("no-prefetch");
        let pf = s.of_policy("schedule-driven");
        for interval in [4u32, 256] {
            let b = base.iter().find(|p| p.switch_interval == interval).unwrap();
            let p = pf.iter().find(|p| p.switch_interval == interval).unwrap();
            assert!(
                p.lockup_per_switch < b.lockup_per_switch,
                "interval {interval}: {} !< {}",
                p.lockup_per_switch,
                b.lockup_per_switch
            );
        }
        // With enough slack the fetch is fully hidden: only the ~1 ms port
        // load remains of the ~4 ms total.
        // All but the very first switch are hidden (nothing precedes the
        // first load, so its fetch is necessarily cold): 6 of 7 here.
        let slow = pf.iter().find(|p| p.switch_interval == 256).unwrap();
        assert!(slow.hidden_fraction > 0.8, "{}", slow.hidden_fraction);
        assert!(slow.lockup_per_switch < pdr_fabric::TimePs::from_ms(2));
        // With little slack the gain collapses toward (fetch - slack).
        let fast = pf.iter().find(|p| p.switch_interval == 4).unwrap();
        assert!(fast.lockup_per_switch > slow.lockup_per_switch);
    }

    #[test]
    fn all_policies_reconfigure_equally_often() {
        let s = study();
        for interval in [4u32, 256] {
            let counts: Vec<usize> = s
                .points
                .iter()
                .filter(|p| p.switch_interval == interval)
                .map(|p| p.reconfigurations)
                .collect();
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        }
    }

    #[test]
    fn last_value_never_hides_fetches() {
        // LastValue predicts "no change", which is always wrong at a
        // switch; with a single staging slot nothing else can hide the
        // fetch, so its hidden fraction is exactly zero — like no-prefetch.
        let s = study();
        for p in s.of_policy("last-value") {
            assert_eq!(p.hidden_fraction, 0.0, "interval {}", p.switch_interval);
        }
        // Schedule-driven hides strictly more when there is enough slack
        // to complete the speculative fetch.
        let sd = s
            .of_policy("schedule-driven")
            .into_iter()
            .find(|p| p.switch_interval == 256)
            .unwrap()
            .hidden_fraction;
        let lv = s
            .of_policy("last-value")
            .into_iter()
            .find(|p| p.switch_interval == 256)
            .unwrap()
            .hidden_fraction;
        assert!(sd > lv, "{sd} !> {lv}");
    }

    #[test]
    fn render_lists_policies() {
        let text = study().render();
        assert!(text.contains("schedule-driven"));
        assert!(text.contains("markov-1"));
    }
}
