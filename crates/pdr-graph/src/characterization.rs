//! Characterization tables: the metrics that guide adequation.
//!
//! §3 of the paper lists the metrics that guide the choice of dynamic
//! implementation candidates: *"execution time, memory constraints, power
//! efficiency, reconfiguration time, configuration prefetching capabilities
//! and area constraints."* The adequation heuristic (crate
//! `pdr-adequation`) consumes exactly these tables:
//!
//! * **durations** — worst-case execution time of a function on a given
//!   operator; the *absence* of an entry means the function cannot execute
//!   there (the feasibility oracle of the mapping);
//! * **resources** — area footprint of each function when implemented in
//!   FPGA logic (feeds the Table 1 estimator and region-fit checks);
//! * **reconfiguration times** — time to load a function onto a dynamic
//!   operator; defaulted per operator, overridable per (function, operator).
//!
//! Transfer costs live on the architecture's media ([`crate::Medium`]).

use crate::error::GraphError;
use pdr_fabric::{Resources, TimePs};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Characterization tables keyed by function symbol and operator name.
///
/// Operator *names* (not ids) are used as keys so one characterization can
/// be reused across architecture variants that share operator names.
///
/// The two-dimensional tables are two-level maps (`function → operator →
/// value`) rather than composite-key maps so the hot lookups —
/// [`Characterization::duration`] is probed once per (operation, operator,
/// function) candidate inside the adequation inner loop — take borrowed
/// `&str` keys and never allocate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Characterization {
    durations: HashMap<String, HashMap<String, TimePs>>,
    resources: HashMap<String, Resources>,
    reconfig_default: HashMap<String, TimePs>,
    reconfig_override: HashMap<String, HashMap<String, TimePs>>,
}

impl Characterization {
    /// Empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare that `function` runs on operator `operator` in `wcet`.
    pub fn set_duration(&mut self, function: &str, operator: &str, wcet: TimePs) -> &mut Self {
        self.durations
            .entry(function.to_string())
            .or_default()
            .insert(operator.to_string(), wcet);
        self
    }

    /// Execution time of `function` on the operator named `operator`, if
    /// the pair is feasible. Allocation-free: this is the adequation inner
    /// loop's feasibility-and-cost probe.
    pub fn duration(&self, function: &str, operator: &str) -> Option<TimePs> {
        self.durations.get(function)?.get(operator).copied()
    }

    /// Can `function` execute on the named operator at all?
    /// Allocation-free, like [`Characterization::duration`].
    pub fn feasible(&self, function: &str, operator: &str) -> bool {
        self.durations
            .get(function)
            .is_some_and(|ops| ops.contains_key(operator))
    }

    /// Operators (by name) on which `function` is feasible.
    pub fn feasible_operators<'a>(&'a self, function: &str) -> Vec<&'a str> {
        let mut v: Vec<&str> = self
            .durations
            .get(function)
            .map(|ops| ops.keys().map(String::as_str).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Area footprint of `function` in FPGA logic.
    pub fn set_resources(&mut self, function: &str, r: Resources) -> &mut Self {
        self.resources.insert(function.to_string(), r);
        self
    }

    /// Footprint lookup (zero when never set — e.g. software-only functions).
    pub fn resources(&self, function: &str) -> Resources {
        self.resources
            .get(function)
            .copied()
            .unwrap_or(Resources::ZERO)
    }

    /// Default reconfiguration time of the named dynamic operator.
    pub fn set_reconfig_default(&mut self, operator: &str, t: TimePs) -> &mut Self {
        self.reconfig_default.insert(operator.to_string(), t);
        self
    }

    /// Override the reconfiguration time of one (function, operator) pair
    /// (e.g. a smaller alternative needing fewer frames).
    pub fn set_reconfig_override(
        &mut self,
        function: &str,
        operator: &str,
        t: TimePs,
    ) -> &mut Self {
        self.reconfig_override
            .entry(function.to_string())
            .or_default()
            .insert(operator.to_string(), t);
        self
    }

    /// Reconfiguration time to load `function` onto the named operator:
    /// the override if present, else the operator default, else an error
    /// (scheduling a reconfiguration with unknown cost is a methodology
    /// violation, not a silent zero). Allocation-free on both levels.
    pub fn reconfig_time(&self, function: &str, operator: &str) -> Result<TimePs, GraphError> {
        if let Some(&t) = self
            .reconfig_override
            .get(function)
            .and_then(|ops| ops.get(operator))
        {
            return Ok(t);
        }
        self.reconfig_default.get(operator).copied().ok_or_else(|| {
            GraphError::MissingCharacterization(format!(
                "reconfiguration time of operator `{operator}`"
            ))
        })
    }

    /// Number of duration entries (diagnostics).
    pub fn duration_entries(&self) -> usize {
        self.durations.values().map(HashMap::len).sum()
    }

    /// Every duration entry as `(function, operator, wcet)`, sorted by
    /// `(function, operator)`. The backing maps are unordered; this is
    /// the canonical order for digesting or diffing characterizations
    /// (`DesignFlow::model_digest` walks it).
    pub fn sorted_durations(&self) -> Vec<(&str, &str, TimePs)> {
        let mut out: Vec<(&str, &str, TimePs)> = self
            .durations
            .iter()
            .flat_map(|(f, ops)| ops.iter().map(move |(o, &t)| (f.as_str(), o.as_str(), t)))
            .collect();
        out.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        out
    }

    /// Every resource entry as `(function, footprint)`, sorted by
    /// function — canonical order, like [`Characterization::sorted_durations`].
    pub fn sorted_resources(&self) -> Vec<(&str, Resources)> {
        let mut out: Vec<(&str, Resources)> = self
            .resources
            .iter()
            .map(|(f, &r)| (f.as_str(), r))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Every reconfiguration-time entry as `(operator, function, time)`
    /// — defaults first with an empty function name, then overrides —
    /// sorted canonically.
    pub fn sorted_reconfig(&self) -> Vec<(&str, &str, TimePs)> {
        let mut out: Vec<(&str, &str, TimePs)> = self
            .reconfig_default
            .iter()
            .map(|(o, &t)| (o.as_str(), "", t))
            .collect();
        out.extend(
            self.reconfig_override
                .iter()
                .flat_map(|(f, ops)| ops.iter().map(move |(o, &t)| (o.as_str(), f.as_str(), t))),
        );
        out.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars() -> Characterization {
        let mut c = Characterization::new();
        c.set_duration("fft", "fpga_static", TimePs::from_us(10))
            .set_duration("fft", "dsp", TimePs::from_us(80))
            .set_duration("mod_qpsk", "op_dyn", TimePs::from_us(2))
            .set_resources("fft", Resources::logic(400, 700, 650))
            .set_reconfig_default("op_dyn", TimePs::from_ms(4))
            .set_reconfig_override("mod_qpsk", "op_dyn", TimePs::from_ms(3));
        c
    }

    #[test]
    fn duration_lookup_and_feasibility() {
        let c = chars();
        assert_eq!(c.duration("fft", "dsp"), Some(TimePs::from_us(80)));
        assert_eq!(c.duration("fft", "op_dyn"), None);
        assert!(c.feasible("fft", "fpga_static"));
        assert!(!c.feasible("viterbi", "dsp"));
        assert_eq!(c.feasible_operators("fft"), ["dsp", "fpga_static"]);
        assert!(c.feasible_operators("nothing").is_empty());
    }

    #[test]
    fn resources_default_to_zero() {
        let c = chars();
        assert_eq!(c.resources("fft").slices, 400);
        assert!(c.resources("software_thing").is_zero());
    }

    #[test]
    fn reconfig_override_beats_default() {
        let c = chars();
        assert_eq!(
            c.reconfig_time("mod_qpsk", "op_dyn").unwrap(),
            TimePs::from_ms(3)
        );
        assert_eq!(
            c.reconfig_time("mod_qam16", "op_dyn").unwrap(),
            TimePs::from_ms(4)
        );
        assert!(c.reconfig_time("anything", "unknown_region").is_err());
    }

    #[test]
    fn entries_counted() {
        assert_eq!(chars().duration_entries(), 3);
    }
}
