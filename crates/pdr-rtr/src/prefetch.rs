//! Configuration prefetching: the reference manager's next-configuration
//! predictors.
//!
//! The abstract promises a manager that *"uses prefetching technic to
//! minimize reconfiguration latency"*. Prefetching needs a prediction of
//! the next configuration; [`NamePredictor`] implements each
//! [`PrefetchSpec`] policy over module names:
//!
//! * `Schedule` — the adequation already knows the selector trace
//!   (off-line scheduling, §3); the predictor replays it. This is the
//!   paper's setting: dynamic specification is known at a high level.
//! * `LastValue` — predict "no change" (cheap hardware, catches nothing
//!   on alternating workloads; the natural straw-man baseline).
//! * `Markov` — learn the most frequent follower of each configuration
//!   on-line (what an adaptive manager can do when the trace is not
//!   known).
//!
//! These are written independently of the engine's indexed policies in
//! [`crate::policy`], so the reference manager stays a separate oracle.

use crate::engine::PrefetchSpec;
use std::collections::HashMap;

/// A next-configuration predictor over module names.
#[derive(Debug, Clone)]
pub(crate) enum NamePredictor {
    /// Replays a known future load sequence.
    Schedule { future: Vec<String>, cursor: usize },
    /// Predicts the configuration will not change.
    LastValue,
    /// Learns, per configuration, its most frequent successor.
    Markov {
        /// Follower counts: (current, next) -> count.
        counts: HashMap<(String, String), u64>,
        last: Option<String>,
    },
}

impl NamePredictor {
    /// The predictor of `spec`; `None` for [`PrefetchSpec::None`].
    pub(crate) fn new(spec: PrefetchSpec) -> Option<Self> {
        match spec {
            PrefetchSpec::None => None,
            PrefetchSpec::Schedule(future) => Some(NamePredictor::Schedule { future, cursor: 0 }),
            PrefetchSpec::LastValue => Some(NamePredictor::LastValue),
            PrefetchSpec::Markov => Some(NamePredictor::Markov {
                counts: HashMap::new(),
                last: None,
            }),
        }
    }

    /// Called after `module` becomes the active configuration; returns the
    /// predicted *next* configuration to prefetch (None = no prediction).
    pub(crate) fn observe_and_predict(&mut self, module: &str) -> Option<String> {
        match self {
            NamePredictor::Schedule { future, cursor } => {
                // Advance the cursor past the observation if it matches
                // the schedule; then the next scheduled entry is the
                // prediction.
                if future.get(*cursor).map(String::as_str) == Some(module) {
                    *cursor += 1;
                }
                future.get(*cursor).cloned()
            }
            NamePredictor::LastValue => Some(module.to_string()),
            NamePredictor::Markov { counts, last } => {
                if let Some(prev) = last.take() {
                    if prev != module {
                        *counts.entry((prev, module.to_string())).or_insert(0) += 1;
                    }
                }
                *last = Some(module.to_string());
                // Most frequent follower of `module`; ties broken
                // lexicographically for determinism.
                counts
                    .iter()
                    .filter(|((cur, _), _)| cur == module)
                    .max_by(|((_, a), ca), ((_, b), cb)| ca.cmp(cb).then(b.cmp(a)))
                    .map(|((_, next), _)| next.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_driven_replays_future() {
        let mut p = NamePredictor::new(PrefetchSpec::Schedule(vec![
            "qam16".into(),
            "qpsk".into(),
            "qam16".into(),
        ]))
        .unwrap();
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
        let mut p = NamePredictor::new(PrefetchSpec::LastValue).unwrap();
        assert_eq!(p.observe_and_predict("a").as_deref(), Some("a"));
        assert_eq!(p.observe_and_predict("b").as_deref(), Some("b"));
    }

    #[test]
    fn markov_learns_alternation() {
        let mut p = NamePredictor::new(PrefetchSpec::Markov).unwrap();
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
        let mut p = NamePredictor::new(PrefetchSpec::Markov).unwrap();
        for next in ["b", "c", "b"] {
            let _ = p.observe_and_predict("a");
            let _ = p.observe_and_predict(next);
        }
        assert_eq!(p.observe_and_predict("a").as_deref(), Some("b"));
    }

    #[test]
    fn markov_self_transitions_ignored() {
        let mut p = NamePredictor::new(PrefetchSpec::Markov).unwrap();
        let _ = p.observe_and_predict("a");
        let _ = p.observe_and_predict("a");
        let _ = p.observe_and_predict("a");
        // No cross-module history: no prediction.
        assert_eq!(p.observe_and_predict("a"), None);
    }
}
