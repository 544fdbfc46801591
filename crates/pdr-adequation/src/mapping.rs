//! Operation → operator mappings.

use crate::error::AdequationError;
use pdr_graph::{AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile, OpId, OperatorId};
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
    ///
    /// Operations are checked in id order and the first failure is
    /// returned. Generated flows repeat a few dozen functions over
    /// thousands of operations, so the characterization and constraints
    /// are probed once per distinct (function symbol, operator) pair and
    /// the verdict is reused; a failing verdict rebuilds its message.
    pub fn validate(
        &self,
        algo: &AlgorithmGraph,
        arch: &ArchGraph,
        chars: &Characterization,
        constraints: &ConstraintsFile,
    ) -> Result<(), AdequationError> {
        let n_oprs = arch.operator_count();
        // Per function symbol, the base of its row of `n_oprs` verdicts,
        // allocated when the symbol is first met. Operations are read by
        // their interned function symbols; names are read only to probe
        // or to report.
        const NO_ROW: usize = usize::MAX;
        let mut row_of = vec![NO_ROW; algo.symbols().len()];
        let mut verdicts: Vec<Verdict> = Vec::new();
        for i in 0..algo.len() {
            let id = OpId(i);
            let Some(opr) = self.operator_of(id) else {
                return Err(AdequationError::Unmappable {
                    operation: algo.op(id).name.clone(),
                    reason: "not assigned".into(),
                });
            };
            for (k, sym) in algo.function_syms(id).iter().enumerate() {
                let row = &mut row_of[sym.sym().index()];
                if *row == NO_ROW {
                    *row = verdicts.len();
                    verdicts.resize(verdicts.len() + n_oprs, Verdict::Unprobed);
                }
                let verdict = &mut verdicts[*row + opr.0];
                if *verdict == Verdict::Valid {
                    continue;
                }
                let op = algo.op(id);
                let f = &op.kind.functions()[k];
                let opr_name = &arch.operator(opr).name;
                if *verdict == Verdict::Unprobed {
                    *verdict = if !chars.feasible(f, opr_name) {
                        Verdict::Infeasible
                    } else if constraints
                        .module(f)
                        .is_some_and(|mc| &mc.region != opr_name)
                    {
                        Verdict::Conflict
                    } else {
                        Verdict::Valid
                    };
                }
                match verdict {
                    Verdict::Infeasible => {
                        return Err(AdequationError::Unmappable {
                            operation: op.name.clone(),
                            reason: format!("function `{f}` infeasible on `{opr_name}`"),
                        })
                    }
                    Verdict::Conflict => {
                        let region = constraints.module(f).map_or("", |mc| mc.region.as_str());
                        return Err(AdequationError::ConstraintConflict(format!(
                            "module `{f}` is constrained to region `{region}` but mapped to `{opr_name}`"
                        )));
                    }
                    Verdict::Valid | Verdict::Unprobed => {}
                }
            }
        }
        Ok(())
    }
}

/// [`Mapping::validate`]'s verdict on one (function, operator) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Unprobed,
    Valid,
    /// The characterization has no duration for the pair.
    Infeasible,
    /// The function is a module constrained to another region.
    Conflict,
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
    use pdr_graph::{paper, OpKind, OperatorKind};

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

    /// The text of `validate`'s error.
    fn error_text(
        m: &Mapping,
        (algo, arch, chars, cons): (
            &AlgorithmGraph,
            &ArchGraph,
            &Characterization,
            &ConstraintsFile,
        ),
    ) -> String {
        m.validate(algo, arch, chars, cons).unwrap_err().to_string()
    }

    /// A mapping of the paper flow with `edit` applied.
    fn paper_mapping_with(
        algo: &AlgorithmGraph,
        arch: &ArchGraph,
        edit: &[(&str, Option<&str>)],
    ) -> Mapping {
        let full = full_mapping(algo, arch);
        let mut m = Mapping::new();
        for (id, opr) in full.iter() {
            match edit.iter().find(|(op, _)| *op == algo.op(id).name) {
                Some((_, Some(to))) => m.assign(id, arch.operator_by_name(to).unwrap()),
                Some((_, None)) => {}
                None => m.assign(id, opr),
            }
        }
        m
    }

    #[test]
    fn validate_reports_each_failure_with_its_text() {
        let (algo, arch, chars, cons) = setup();
        let models = (&algo, &arch, &chars, &cons);
        let m = paper_mapping_with(&algo, &arch, &[("ifft64", None)]);
        assert_eq!(
            error_text(&m, models),
            "operation `ifft64` cannot be mapped: not assigned"
        );
        let m = paper_mapping_with(&algo, &arch, &[("ifft64", Some("op_dyn"))]);
        assert_eq!(
            error_text(&m, models),
            "operation `ifft64` cannot be mapped: function `ifft64` infeasible on `op_dyn`"
        );
        let m = paper_mapping_with(&algo, &arch, &[("modulation", Some("fpga_static"))]);
        assert_eq!(
            error_text(&m, models),
            "constraints conflict: module `mod_qpsk` is constrained to region `op_dyn` \
             but mapped to `fpga_static`"
        );
    }

    #[test]
    fn validate_reports_the_first_failure_in_op_order() {
        let (algo, arch, chars, cons) = setup();
        let models = (&algo, &arch, &chars, &cons);
        // `modulation` precedes `spreading` and `ifft64` in id order.
        let m = paper_mapping_with(
            &algo,
            &arch,
            &[
                ("ifft64", None),
                ("spreading", Some("op_dyn")),
                ("modulation", Some("fpga_static")),
            ],
        );
        assert_eq!(
            error_text(&m, models),
            "constraints conflict: module `mod_qpsk` is constrained to region `op_dyn` \
             but mapped to `fpga_static`"
        );
        let m = paper_mapping_with(
            &algo,
            &arch,
            &[("ifft64", None), ("spreading", Some("op_dyn"))],
        );
        assert_eq!(
            error_text(&m, models),
            "operation `spreading` cannot be mapped: function `spreading` infeasible on `op_dyn`"
        );
    }

    /// `s -> a -> c -> b -> k` on two processors: `a` and `b` both run
    /// `kern`, feasible on `cpu` only; `c` is conditioned on `f0 | f1`,
    /// and `f1` runs on `cpu` only while `f0` runs on both.
    fn shared_functions() -> (AlgorithmGraph, ArchGraph, Characterization) {
        let mut algo = AlgorithmGraph::new("t");
        let s = algo.add_op("s", OpKind::Source).unwrap();
        let kern = || OpKind::Compute {
            function: "kern".into(),
        };
        let a = algo.add_op("a", kern()).unwrap();
        let c = algo
            .add_op(
                "c",
                OpKind::Conditioned {
                    alternatives: vec!["f0".into(), "f1".into()],
                },
            )
            .unwrap();
        let b = algo.add_op("b", kern()).unwrap();
        let k = algo.add_op("k", OpKind::Sink).unwrap();
        for (x, y) in [(s, a), (a, c), (c, b), (b, k)] {
            algo.connect(x, y, 8).unwrap();
        }
        let mut arch = ArchGraph::new("t");
        arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        arch.add_operator("dsp", OperatorKind::Processor).unwrap();
        let mut chars = Characterization::new();
        chars.set_duration("kern", "cpu", pdr_fabric::TimePs::from_us(1));
        chars.set_duration("f0", "cpu", pdr_fabric::TimePs::from_us(1));
        chars.set_duration("f0", "dsp", pdr_fabric::TimePs::from_us(1));
        chars.set_duration("f1", "cpu", pdr_fabric::TimePs::from_us(1));
        (algo, arch, chars)
    }

    #[test]
    fn validate_checks_every_alternative_and_every_sharer() {
        let (algo, arch, chars) = shared_functions();
        let cons = ConstraintsFile::new();
        let models = (&algo, &arch, &chars, &cons);
        let map = |oprs: [&str; 5]| {
            let mut m = Mapping::new();
            for (i, o) in oprs.iter().enumerate() {
                m.assign(OpId(i), arch.operator_by_name(o).unwrap());
            }
            m
        };
        map(["dsp", "cpu", "cpu", "cpu", "dsp"])
            .validate(&algo, &arch, &chars, &cons)
            .unwrap();
        // One infeasible alternative makes the conditioned op infeasible.
        assert_eq!(
            error_text(&map(["dsp", "cpu", "dsp", "cpu", "dsp"]), models),
            "operation `c` cannot be mapped: function `f1` infeasible on `dsp`"
        );
        // `a` passes on `cpu`; `b`, running the same function on `dsp`,
        // does not.
        assert_eq!(
            error_text(&map(["dsp", "cpu", "cpu", "dsp", "dsp"]), models),
            "operation `b` cannot be mapped: function `kern` infeasible on `dsp`"
        );
        // Both fail: the first in id order is reported.
        assert_eq!(
            error_text(&map(["dsp", "dsp", "cpu", "dsp", "dsp"]), models),
            "operation `a` cannot be mapped: function `kern` infeasible on `dsp`"
        );
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
