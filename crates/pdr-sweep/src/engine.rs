//! The worker-pool engine: parallel execution, deterministic reduction,
//! per-scenario fault isolation.

use crate::scenario::{Scenario, ScenarioOutcome, ScenarioStatus};
use crate::stats::SweepStats;
use crate::SweepReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// One progress tick, emitted after every scenario completion.
///
/// Ticks arrive in **completion** order (schedule-dependent); the
/// report's outcomes are always in submission order regardless.
#[derive(Debug, Clone)]
pub struct Progress {
    /// Scenarios completed so far (including this one).
    pub completed: usize,
    /// Scenarios submitted.
    pub total: usize,
    /// Label of the scenario that just finished.
    pub label: String,
    /// Whether it succeeded.
    pub ok: bool,
    /// Its wall time.
    pub wall: Duration,
}

type ProgressFn = dyn Fn(&Progress) + Send + Sync;

/// A scenario-sweep executor.
///
/// Workers pull scenarios from a shared cursor (work stealing from a
/// global injector: an idle worker immediately claims the next
/// unstarted point, so long and short scenarios balance
/// automatically). Results are reduced by submission index, which makes
/// the reduction deterministic: for scenarios that are pure functions
/// of their parameters and seed, the outcome sequence is bit-identical
/// whether the pool has 1 thread or N (DESIGN.md §8). Only the timing
/// fields ([`ScenarioOutcome::wall`], [`SweepStats`]) vary run to run.
pub struct SweepEngine {
    threads: usize,
    progress: Option<Arc<ProgressFn>>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with one worker per available hardware thread.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            threads,
            progress: None,
        }
    }

    /// Use exactly `threads` workers (clamped to ≥ 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Install a progress callback, invoked after every scenario
    /// completes (from worker threads, in completion order).
    pub fn on_progress(mut self, f: impl Fn(&Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute a batch of scenarios.
    ///
    /// A panicking or erroring scenario is captured into its
    /// [`ScenarioOutcome`] — it never aborts the sweep, and every other
    /// point still runs. (A scenario panic still triggers the process
    /// panic hook's message; the unwind itself is contained.)
    pub fn run<'a, T: Send>(&self, scenarios: Vec<Scenario<'a, T>>) -> SweepReport<T> {
        let total = scenarios.len();
        let started = Instant::now();
        let workers = self.threads.min(total.max(1));

        // Each slot is taken exactly once by the worker that claimed
        // its index from the cursor.
        let slots: Vec<Mutex<Option<Scenario<'a, T>>>> =
            scenarios.into_iter().map(|s| Mutex::new(Some(s))).collect();
        let cursor = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);

        let run_worker = || {
            let mut local: Vec<(usize, ScenarioOutcome<T>)> = Vec::new();
            loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= total {
                    break;
                }
                let scenario = slots[idx]
                    .lock()
                    .take()
                    .expect("scenario slot claimed once");
                let outcome = execute_one(scenario);
                if let Some(progress) = &self.progress {
                    progress(&Progress {
                        completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                        total,
                        label: outcome.label.clone(),
                        ok: outcome.status.is_ok(),
                        wall: outcome.wall,
                    });
                }
                local.push((idx, outcome));
            }
            local
        };

        let mut merged: Vec<Option<ScenarioOutcome<T>>> = Vec::new();
        merged.resize_with(total, || None);
        if workers <= 1 {
            for (idx, outcome) in run_worker() {
                merged[idx] = Some(outcome);
            }
        } else {
            let batches = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker never panics"))
                    .collect::<Vec<_>>()
            });
            for batch in batches {
                for (idx, outcome) in batch {
                    merged[idx] = Some(outcome);
                }
            }
        }

        let outcomes: Vec<ScenarioOutcome<T>> = merged
            .into_iter()
            .map(|slot| slot.expect("every claimed index produced an outcome"))
            .collect();
        let stats = SweepStats::from_outcomes(&outcomes, workers, started.elapsed());
        SweepReport { outcomes, stats }
    }
}

fn execute_one<T>(scenario: Scenario<'_, T>) -> ScenarioOutcome<T> {
    let Scenario {
        label,
        params,
        seed,
        run,
    } = scenario;
    let t0 = Instant::now();
    let status = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(value)) => ScenarioStatus::Ok(value),
        Ok(Err(err)) => ScenarioStatus::Error(err),
        Err(payload) => ScenarioStatus::Panicked(panic_message(payload.as_ref())),
    };
    ScenarioOutcome {
        label,
        params,
        seed,
        status,
        wall: t0.elapsed(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepError;
    use std::sync::atomic::AtomicU32;

    fn scenarios(n: u64) -> Vec<Scenario<'static, u64>> {
        (0..n)
            .map(|i| Scenario::new(format!("s{i}"), i, move || Ok(i * i)).with_param("i", i))
            .collect()
    }

    #[test]
    fn outcomes_in_submission_order() {
        let report = SweepEngine::new().with_threads(4).run(scenarios(32));
        assert_eq!(report.outcomes.len(), 32);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.label, format!("s{i}"));
            assert_eq!(o.status.value(), Some(&((i as u64) * (i as u64))));
        }
        assert_eq!(report.stats.ok, 32);
    }

    #[test]
    fn single_and_multi_thread_agree() {
        let a = SweepEngine::new().with_threads(1).run(scenarios(40));
        let b = SweepEngine::new().with_threads(7).run(scenarios(40));
        let values = |r: &SweepReport<u64>| -> Vec<u64> { r.ok_values().copied().collect() };
        assert_eq!(values(&a), values(&b));
    }

    #[test]
    fn panic_is_isolated_and_rest_completes() {
        let mut batch = scenarios(8);
        batch.insert(
            3,
            Scenario::new("bad", 0, || -> Result<u64, SweepError> {
                panic!("injected failure")
            }),
        );
        let report = SweepEngine::new().with_threads(4).run(batch);
        assert_eq!(report.outcomes.len(), 9);
        assert_eq!(report.stats.ok, 8);
        assert_eq!(report.stats.panicked, 1);
        match &report.outcomes[3].status {
            ScenarioStatus::Panicked(msg) => assert!(msg.contains("injected failure")),
            other => panic!("expected panic capture, got {other:?}"),
        }
        // Submission order holds around the failure.
        assert_eq!(report.outcomes[4].label, "s3");
        assert!(report.into_values().is_err());
    }

    #[test]
    fn errors_are_captured_not_fatal() {
        let batch = vec![
            Scenario::new("good", 1, || Ok(1u64)),
            Scenario::new("bad", 2, || Err(SweepError::scenario("no data"))),
        ];
        let report = SweepEngine::new().with_threads(2).run(batch);
        assert_eq!(report.stats.errored, 1);
        assert_eq!(report.failures().count(), 1);
        assert_eq!(report.ok_values().count(), 1);
    }

    #[test]
    fn progress_ticks_cover_all_scenarios() {
        let ticks = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&ticks);
        let report = SweepEngine::new()
            .with_threads(3)
            .on_progress(move |p| {
                assert_eq!(p.total, 10);
                assert!(p.completed >= 1 && p.completed <= 10);
                seen.fetch_add(1, Ordering::Relaxed);
            })
            .run(scenarios(10));
        assert_eq!(ticks.load(Ordering::Relaxed), 10);
        assert_eq!(report.stats.total, 10);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let report = SweepEngine::new().run(Vec::<Scenario<'_, u8>>::new());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.stats.total, 0);
    }

    #[test]
    fn scenarios_may_borrow_study_state() {
        let base = [10u64, 20, 30];
        let scen: Vec<Scenario<'_, u64>> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| Scenario::new(format!("b{i}"), i as u64, move || Ok(v + 1)))
            .collect();
        let report = SweepEngine::new().with_threads(2).run(scen);
        let vals: Vec<u64> = report.ok_values().copied().collect();
        assert_eq!(vals, vec![11, 21, 31]);
    }
}
