//! Operation → operator mappings.

use crate::error::AdequationError;
use pdr_graph::prelude::*;
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// Marks an operation with no operator in [`Mapping`]'s dense vector.
pub(crate) const UNASSIGNED: u32 = u32::MAX;

/// The mapping half of an adequation result: which operator executes each
/// operation (conditioned operations map as a single unit; their
/// alternatives become configurations of that one operator).
///
/// One operator id per [`OpId`], `u32::MAX` in the gaps (never last), so
/// `operator_of` is one index and equal mappings are equal vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Deserialize)]
pub struct Mapping {
    operators: Vec<u32>,
    assigned: usize,
}

impl Mapping {
    /// Empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mapping of a per-operation vector, `UNASSIGNED` in the gaps.
    pub(crate) fn from_dense(mut operators: Vec<u32>) -> Self {
        let len = operators.iter().rposition(|&o| o != UNASSIGNED);
        operators.truncate(len.map_or(0, |i| i + 1));
        Mapping {
            assigned: operators.iter().filter(|&&o| o != UNASSIGNED).count(),
            operators,
        }
    }

    /// Assign `op` to `operator` (overwrites).
    pub fn assign(&mut self, op: OpId, operator: OperatorId) {
        assert!(operator.0 < UNASSIGNED as usize, "operator id out of range");
        if op.0 >= self.operators.len() {
            self.operators.resize(op.0 + 1, UNASSIGNED);
        }
        let slot = &mut self.operators[op.0];
        self.assigned += usize::from(*slot == UNASSIGNED);
        *slot = operator.0 as u32;
    }

    /// Operator executing `op`, if assigned.
    pub fn operator_of(&self, op: OpId) -> Option<OperatorId> {
        let o = *self.operators.get(op.0)?;
        (o != UNASSIGNED).then_some(OperatorId(o as usize))
    }

    /// Operations assigned to `operator`, in id order.
    pub fn ops_on(&self, operator: OperatorId) -> Vec<OpId> {
        self.iter()
            .filter(|&(_, o)| o == operator)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of assignments.
    pub fn len(&self) -> usize {
        self.assigned
    }

    /// Is the mapping empty?
    pub fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// Iterate (operation, operator) pairs in operation-id order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, OperatorId)> + '_ {
        let ops = self.operators.iter().enumerate();
        ops.filter_map(|(i, &o)| (o != UNASSIGNED).then_some((OpId(i), OperatorId(o as usize))))
    }

    /// Validate a mapping against graphs, characterization and constraints:
    ///
    /// * every operation is assigned;
    /// * every function of the operation is feasible on its operator;
    /// * sources/sinks may sit anywhere (they model interfaces);
    /// * constrained modules sit on their constrained region.
    pub fn validate(
        &self,
        algo: &AlgorithmGraph,
        arch: &ArchGraph,
        chars: &Characterization,
        constraints: &ConstraintsFile,
    ) -> Result<(), AdequationError> {
        for (id, op) in algo.ops() {
            let Some(opr) = self.operator_of(id) else {
                return Err(AdequationError::Unmappable {
                    operation: op.name.clone(),
                    reason: "not assigned".into(),
                });
            };
            let opr_name = &arch.operator(opr).name;
            for f in op.kind.functions() {
                if !chars.feasible(f, opr_name) {
                    return Err(AdequationError::Unmappable {
                        operation: op.name.clone(),
                        reason: format!("function `{f}` infeasible on `{opr_name}`"),
                    });
                }
                if let Some(mc) = constraints.module(f) {
                    if &mc.region != opr_name {
                        return Err(AdequationError::ConstraintConflict(format!(
                            "module `{f}` is constrained to region `{}` but mapped to `{opr_name}`",
                            mc.region
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `{"assignments": [[op, operator], ...]}`, as the `BTreeMap` field did.
impl Serialize for Mapping {
    fn to_json(&self) -> Value {
        let pairs = self.iter().map(|pair| pair.to_json()).collect();
        Value::obj(vec![("assignments", Value::Array(pairs))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_graph::paper;

    fn setup() -> (AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile) {
        (
            paper::mccdma_algorithm(),
            paper::sundance_architecture(),
            paper::mccdma_characterization(),
            paper::mccdma_constraints(),
        )
    }

    fn full_mapping(algo: &AlgorithmGraph, arch: &ArchGraph) -> Mapping {
        let fs = arch.operator_by_name("fpga_static").unwrap();
        let dy = arch.operator_by_name("op_dyn").unwrap();
        let mut m = Mapping::new();
        for (id, op) in algo.ops() {
            if op.kind.is_conditioned() {
                m.assign(id, dy);
            } else {
                m.assign(id, fs);
            }
        }
        m
    }

    #[test]
    fn valid_paper_mapping_passes() {
        let (algo, arch, chars, cons) = setup();
        let m = full_mapping(&algo, &arch);
        m.validate(&algo, &arch, &chars, &cons).unwrap();
        assert_eq!(m.len(), algo.len());
    }

    #[test]
    fn missing_assignment_detected() {
        let (algo, arch, chars, cons) = setup();
        let mut m = full_mapping(&algo, &arch);
        m = {
            let mut m2 = Mapping::new();
            for (op, opr) in m.iter().skip(1) {
                m2.assign(op, opr);
            }
            m2
        };
        assert!(m.validate(&algo, &arch, &chars, &cons).is_err());
    }

    #[test]
    fn constraint_conflict_detected() {
        let (algo, arch, chars, cons) = setup();
        let mut m = full_mapping(&algo, &arch);
        // Force modulation onto the static part: constrained to op_dyn.
        let modu = algo.by_name("modulation").unwrap();
        m.assign(modu, arch.operator_by_name("fpga_static").unwrap());
        let err = m.validate(&algo, &arch, &chars, &cons).unwrap_err();
        assert!(matches!(err, AdequationError::ConstraintConflict(_)));
    }

    #[test]
    fn infeasible_function_detected() {
        let (algo, arch, chars, _) = setup();
        let mut m = full_mapping(&algo, &arch);
        // ifft64 is not characterized on op_dyn.
        let ifft = algo.by_name("ifft64").unwrap();
        m.assign(ifft, arch.operator_by_name("op_dyn").unwrap());
        let err = m
            .validate(&algo, &arch, &chars, &ConstraintsFile::new())
            .unwrap_err();
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn ops_on_lists_assignments() {
        let (algo, arch, ..) = setup();
        let m = full_mapping(&algo, &arch);
        let dy = arch.operator_by_name("op_dyn").unwrap();
        let on_dyn = m.ops_on(dy);
        assert_eq!(on_dyn.len(), 1);
        assert_eq!(algo.op(on_dyn[0]).name, "modulation");
    }

    fn json(m: &Mapping) -> String {
        serde::json::to_string(&m.to_json())
    }

    #[test]
    fn assignment_order_does_not_matter() {
        let pairs = [(4, 1), (0, 2), (2, 1)];
        let mut fwd = Mapping::new();
        let mut rev = Mapping::new();
        for &(op, opr) in &pairs {
            fwd.assign(OpId(op), OperatorId(opr));
        }
        for &(op, opr) in pairs.iter().rev() {
            rev.assign(OpId(op), OperatorId(opr));
        }
        assert_eq!(fwd, rev);
        assert_eq!(json(&fwd), json(&rev));
        assert_eq!(json(&fwd), r#"{"assignments":[[0,2],[2,1],[4,1]]}"#);
        // Trailing gaps in the dense vector are invisible too.
        let dense = Mapping::from_dense(vec![2, UNASSIGNED, 1, UNASSIGNED, 1, UNASSIGNED]);
        assert_eq!(dense, fwd);
        assert_eq!(json(&dense), json(&fwd));
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut m = Mapping::new();
        m.assign(OpId(3), OperatorId(0));
        m.assign(OpId(3), OperatorId(5));
        assert_eq!(m.len(), 1);
        assert_eq!(m.operator_of(OpId(3)), Some(OperatorId(5)));
    }

    #[test]
    fn iter_skips_gaps_in_id_order() {
        let mut m = Mapping::new();
        m.assign(OpId(7), OperatorId(1));
        m.assign(OpId(2), OperatorId(0));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, [(OpId(2), OperatorId(0)), (OpId(7), OperatorId(1))]);
        assert_eq!(m.operator_of(OpId(4)), None);
        assert_eq!(m.ops_on(OperatorId(1)), [OpId(7)]);
    }

    #[test]
    fn operator_of_past_the_end_is_none() {
        let mut m = Mapping::new();
        m.assign(OpId(1), OperatorId(0));
        assert_eq!(m.operator_of(OpId(2)), None);
        assert_eq!(m.operator_of(OpId(usize::MAX)), None);
    }

    #[test]
    fn empty_mapping_serializes_as_the_derived_form() {
        let m = Mapping::new();
        assert!(m.is_empty());
        assert_eq!(json(&m), r#"{"assignments":[]}"#);
        assert_eq!(m, Mapping::from_dense(vec![UNASSIGNED; 3]));
    }
}
