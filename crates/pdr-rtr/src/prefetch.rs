//! Configuration prefetching: next-configuration predictors.
//!
//! The abstract promises a manager that *"uses prefetching technic to
//! minimize reconfiguration latency"*. Prefetching needs a prediction of
//! the next configuration; this module provides three predictors behind the
//! [`Predictor`] trait:
//!
//! * [`ScheduleDriven`] — the adequation already knows the selector trace
//!   (off-line scheduling, §3); the predictor replays it. This is the
//!   paper's setting: dynamic specification is known at a high level.
//! * [`LastValue`] — predict "no change" (cheap hardware, catches nothing
//!   on alternating workloads; the natural straw-man baseline).
//! * [`FirstOrderMarkov`] — learn the most frequent follower of each
//!   configuration on-line (what an adaptive manager can do when the trace
//!   is not known).

use std::collections::HashMap;

/// A next-configuration predictor.
pub trait Predictor {
    /// Called after `module` becomes the active configuration; returns the
    /// predicted *next* configuration to prefetch (None = no prediction).
    fn observe_and_predict(&mut self, module: &str) -> Option<String>;
}

/// Replays a known future sequence (off-line, schedule-driven prefetching).
#[derive(Debug, Clone)]
pub struct ScheduleDriven {
    future: Vec<String>,
    cursor: usize,
}

impl ScheduleDriven {
    /// Predictor over the known load sequence (in load order).
    pub fn new(sequence: Vec<String>) -> Self {
        ScheduleDriven {
            future: sequence,
            cursor: 0,
        }
    }
}

impl Predictor for ScheduleDriven {
    fn observe_and_predict(&mut self, module: &str) -> Option<String> {
        // Advance the cursor past the observation if it matches the
        // schedule; then the next scheduled entry is the prediction.
        if self.future.get(self.cursor).map(String::as_str) == Some(module) {
            self.cursor += 1;
        }
        self.future.get(self.cursor).cloned()
    }
}

/// Predicts the configuration will not change.
#[derive(Debug, Clone, Default)]
pub struct LastValue;

impl Predictor for LastValue {
    fn observe_and_predict(&mut self, module: &str) -> Option<String> {
        Some(module.to_string())
    }
}

/// Learns, per configuration, its most frequent successor.
#[derive(Debug, Clone, Default)]
pub struct FirstOrderMarkov {
    /// follower counts: (current, next) -> count.
    counts: HashMap<(String, String), u64>,
    last: Option<String>,
}

impl FirstOrderMarkov {
    /// Fresh, untrained predictor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Predictor for FirstOrderMarkov {
    fn observe_and_predict(&mut self, module: &str) -> Option<String> {
        if let Some(prev) = self.last.take() {
            if prev != module {
                *self.counts.entry((prev, module.to_string())).or_insert(0) += 1;
            }
        }
        self.last = Some(module.to_string());
        // Most frequent follower of `module`; ties broken lexicographically
        // for determinism.
        self.counts
            .iter()
            .filter(|((cur, _), _)| cur == module)
            .max_by(|((_, a), ca), ((_, b), cb)| ca.cmp(cb).then(b.cmp(a)))
            .map(|((_, next), _)| next.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_driven_replays_future() {
        let mut p = ScheduleDriven::new(vec!["qam16".into(), "qpsk".into(), "qam16".into()]);
        // Initially loaded qpsk (not in the sequence head): prediction is
        // the first scheduled load.
        assert_eq!(p.observe_and_predict("qpsk").as_deref(), Some("qam16"));
        // qam16 loads; next is qpsk.
        assert_eq!(p.observe_and_predict("qam16").as_deref(), Some("qpsk"));
        assert_eq!(p.observe_and_predict("qpsk").as_deref(), Some("qam16"));
        // Sequence exhausted after the final load.
        assert_eq!(p.observe_and_predict("qam16"), None);
    }

    #[test]
    fn last_value_predicts_no_change() {
        let mut p = LastValue;
        assert_eq!(p.observe_and_predict("a").as_deref(), Some("a"));
        assert_eq!(p.observe_and_predict("b").as_deref(), Some("b"));
    }

    #[test]
    fn markov_learns_alternation() {
        let mut p = FirstOrderMarkov::new();
        // Train on a,b,a,b.
        assert_eq!(p.observe_and_predict("a"), None);
        let _ = p.observe_and_predict("b");
        let _ = p.observe_and_predict("a");
        let _ = p.observe_and_predict("b");
        // Now it knows a -> b and b -> a.
        assert_eq!(p.observe_and_predict("a").as_deref(), Some("b"));
        assert_eq!(p.observe_and_predict("b").as_deref(), Some("a"));
    }

    #[test]
    fn markov_prefers_most_frequent_follower() {
        let mut p = FirstOrderMarkov::new();
        for next in ["b", "c", "b"] {
            let _ = p.observe_and_predict("a");
            let _ = p.observe_and_predict(next);
        }
        assert_eq!(p.observe_and_predict("a").as_deref(), Some("b"));
    }

    #[test]
    fn markov_self_transitions_ignored() {
        let mut p = FirstOrderMarkov::new();
        let _ = p.observe_and_predict("a");
        let _ = p.observe_and_predict("a");
        let _ = p.observe_and_predict("a");
        // No cross-module history: no prediction.
        assert_eq!(p.observe_and_predict("a"), None);
    }
}
