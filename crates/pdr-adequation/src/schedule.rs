//! Schedules: timed resource reservations for operators and media.
//!
//! A [`Schedule`] is the output of the adequation heuristic: per-operator
//! timelines of computations and reconfigurations, and per-medium timelines
//! of data transfers. It carries enough structure for
//!
//! * validation ([`Schedule::validate`]): items on one resource never
//!   overlap, every item ends after it starts, timelines are sorted;
//! * statistics: makespan, per-resource busy time, reconfiguration count and
//!   stall accounting (the quantities benched by the prefetch study).

use crate::error::AdequationError;
use pdr_fabric::TimePs;
use pdr_graph::{MediumId, OpId, OperatorId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a scheduled item does.
///
/// Function names are shared, not owned: every item of one function
/// symbol holds the same `Arc<str>` (the [`crate::AdequationIndex`] keeps
/// one per symbol), so recording an item allocates nothing. They
/// serialize as the plain strings they name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ItemKind {
    /// Execute `function` for operation `op` (iteration-stamped).
    Compute {
        /// Operation executed.
        op: OpId,
        /// Concrete function symbol (the active alternative for conditioned
        /// operations).
        function: Arc<str>,
        /// Iteration index (0 for single-iteration schedules).
        iteration: u32,
    },
    /// Move `bits` of the edge `from → to` across one medium.
    Transfer {
        /// Producer operation.
        from: OpId,
        /// Consumer operation.
        to: OpId,
        /// Payload bits.
        bits: u64,
        /// Iteration index.
        iteration: u32,
    },
    /// Reconfigure a dynamic operator to `function`.
    Reconfigure {
        /// Function (module) being loaded.
        function: Arc<str>,
        /// Iteration whose computation required the load.
        iteration: u32,
        /// True when the bitstream fetch leg was prefetched (overlapped);
        /// the item then covers only the port-load leg.
        prefetched: bool,
    },
}

impl ItemKind {
    /// Is this a reconfiguration?
    pub fn is_reconfigure(&self) -> bool {
        matches!(self, ItemKind::Reconfigure { .. })
    }
}

/// A half-open time interval `[start, end)` of work on one resource.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledItem {
    /// What happens.
    pub kind: ItemKind,
    /// Start time.
    pub start: TimePs,
    /// End time (exclusive).
    pub end: TimePs,
}

impl ScheduledItem {
    /// Item duration.
    pub fn duration(&self) -> TimePs {
        self.end - self.start
    }
}

/// A complete schedule over an architecture.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Computations + reconfigurations per operator.
    pub operator_items: BTreeMap<OperatorId, Vec<ScheduledItem>>,
    /// Transfers per medium.
    pub medium_items: BTreeMap<MediumId, Vec<ScheduledItem>>,
}

impl Schedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an item to an operator timeline (kept sorted by caller
    /// discipline; [`Schedule::validate`] checks).
    pub fn push_operator_item(&mut self, op: OperatorId, item: ScheduledItem) {
        self.operator_items.entry(op).or_default().push(item);
    }

    /// Append an item to a medium timeline.
    pub fn push_medium_item(&mut self, med: MediumId, item: ScheduledItem) {
        self.medium_items.entry(med).or_default().push(item);
    }

    /// End of the last item anywhere (the schedule length).
    pub fn makespan(&self) -> TimePs {
        self.operator_items
            .values()
            .chain(self.medium_items.values())
            .flat_map(|v| v.iter())
            .map(|i| i.end)
            .max()
            .unwrap_or(TimePs::ZERO)
    }

    /// Items on one medium.
    pub fn of_medium(&self, med: MediumId) -> &[ScheduledItem] {
        self.medium_items
            .get(&med)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All reconfiguration items (operator, item) in time order.
    pub fn reconfigurations(&self) -> Vec<(OperatorId, &ScheduledItem)> {
        let mut v: Vec<(OperatorId, &ScheduledItem)> = self
            .operator_items
            .iter()
            .flat_map(|(&op, items)| {
                items
                    .iter()
                    .filter(|i| i.kind.is_reconfigure())
                    .map(move |i| (op, i))
            })
            .collect();
        v.sort_by_key(|(_, i)| i.start);
        v
    }

    /// Consistency check: on every resource, items are sorted by start and
    /// non-overlapping, and every item has `end > start` (zero-length items
    /// are tolerated for zero-bit bookkeeping only — we reject them here to
    /// keep invariants crisp).
    pub fn validate(&self) -> Result<(), AdequationError> {
        let check = |items: &[ScheduledItem], what: &str| -> Result<(), AdequationError> {
            for w in items.windows(2) {
                if w[1].start < w[0].start {
                    return Err(AdequationError::InvalidSchedule(format!(
                        "{what}: items not sorted by start time"
                    )));
                }
                if w[1].start < w[0].end {
                    return Err(AdequationError::InvalidSchedule(format!(
                        "{what}: items overlap ({} < {})",
                        w[1].start, w[0].end
                    )));
                }
            }
            for i in items {
                if i.end <= i.start {
                    return Err(AdequationError::InvalidSchedule(format!(
                        "{what}: empty or negative item [{}, {})",
                        i.start, i.end
                    )));
                }
            }
            Ok(())
        };
        for (op, items) in &self.operator_items {
            check(items, &format!("operator {op}"))?;
        }
        for (med, items) in &self.medium_items {
            check(items, &format!("medium {med}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(start_us: u64, end_us: u64) -> ScheduledItem {
        ScheduledItem {
            kind: ItemKind::Compute {
                op: OpId(0),
                function: "f".into(),
                iteration: 0,
            },
            start: TimePs::from_us(start_us),
            end: TimePs::from_us(end_us),
        }
    }

    fn reconf(start_us: u64, end_us: u64, prefetched: bool) -> ScheduledItem {
        ScheduledItem {
            kind: ItemKind::Reconfigure {
                function: "m".into(),
                iteration: 0,
                prefetched,
            },
            start: TimePs::from_us(start_us),
            end: TimePs::from_us(end_us),
        }
    }

    #[test]
    fn makespan_spans_operators_and_media() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(0), item(0, 5));
        s.push_operator_item(OperatorId(0), item(7, 10));
        s.push_medium_item(MediumId(0), item(5, 12));
        assert_eq!(s.makespan(), TimePs::from_us(12));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert_eq!(s.makespan(), TimePs::ZERO);
        assert!(s.reconfigurations().is_empty());
        s.validate().unwrap();
    }

    #[test]
    fn overlap_detected() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(0), item(0, 5));
        s.push_operator_item(OperatorId(0), item(4, 8));
        assert!(s.validate().is_err());
    }

    #[test]
    fn unsorted_detected() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(0), item(5, 6));
        s.push_operator_item(OperatorId(0), item(0, 1));
        assert!(s.validate().is_err());
    }

    #[test]
    fn empty_item_detected() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(0), item(5, 5));
        assert!(s.validate().is_err());
    }

    #[test]
    fn adjacent_items_are_fine() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(0), item(0, 5));
        s.push_operator_item(OperatorId(0), item(5, 9));
        s.validate().unwrap();
    }

    #[test]
    fn reconfiguration_accounting() {
        let mut s = Schedule::new();
        s.push_operator_item(OperatorId(1), reconf(0, 4000, false));
        s.push_operator_item(OperatorId(1), item(4000, 4002));
        s.push_operator_item(OperatorId(1), reconf(5000, 6000, true));
        let rs = s.reconfigurations();
        assert_eq!(rs.len(), 2);
        assert!(rs[0].1.start <= rs[1].1.start);
    }
}
