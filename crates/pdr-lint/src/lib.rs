//! # pdr-lint — static analysis for compiled flow artifacts
//!
//! The §3 synchronized executive is straight-line macro-code per operator
//! whose correctness hinges on *cross-operator* properties: every
//! rendezvous must pair up, the pairing must be acyclic enough to make
//! progress, every `Compute` on a dynamic region must run behind a
//! matching `Configure`, and the §4 exclusion relations plus the §5
//! Modular Design floorplan rules must hold. Simulation only discovers
//! violations as hangs; this crate proves or refutes them statically,
//! before any simulation runs.
//!
//! ## Analyses
//!
//! | Codes | Pass | Property |
//! |---|---|---|
//! | PDR001–003 | [`rendezvous`] | every `Send{tag}` has exactly one peer `Receive{tag}`, attributes mirrored, no duplicate/self tags |
//! | PDR004, PDR013–017 | [`model`] | exhaustive interleaving exploration: sound deadlock with a minimal schedule, reconfiguration races, stale hand-offs, `[best,worst]`-clock deadlines, dead instructions, explicit budget truncation |
//! | PDR005–007, PDR012 | [`reconfig`] | Configure dominates Compute, worst-case times match the characterization, exclusion groups are statically safe, cross-references resolve |
//! | PDR008–011 | [`floorplan`] | Modular Design geometry, bus-macro straddling, bitstream/frame consistency |
//!
//! The [`model`] pass always runs, under [`ModelConfig::default`] unless
//! [`LintInput::with_model_check`] sets another budget; its schedule
//! witnesses are independently replayed, against a reference executor
//! and the timed simulator, by `pdr_bench::replay`.
//!
//! ## Entry point
//!
//! [`lint`] analyzes a lowered, index-based [`pdr_ir::IrExecutive`]
//! through the [`SymbolTable`] it was lowered with — the pair that
//! `pdr-core`'s flow artifacts carry — and renders every diagnostic back
//! to names through that table.
//!
//! ```
//! use pdr_ir::{IrBuilder, SymbolTable};
//! use pdr_lint::{lint, Code, LintInput};
//!
//! // `a` and `b` each send before they receive: crossed waits.
//! let mut table = SymbolTable::new();
//! let ir = {
//!     let mut b = IrBuilder::new(&mut table);
//!     b.begin_operator("a");
//!     b.send("b", "m", 8, 1);
//!     b.receive("b", "m", 8, 2);
//!     b.begin_operator("b");
//!     b.send("a", "m", 8, 2);
//!     b.receive("a", "m", 8, 1);
//!     b.finish()
//! };
//! let report = lint(&LintInput::new(&ir, &table));
//! assert!(report.has_code(Code::Deadlock));
//! ```
//!
//! Architecture, characterization, constraints and floorplan inputs are
//! optional: passes needing an absent input are skipped, so the same
//! entry point serves the full `DesignFlow::verify()` stage and narrow
//! unit/mutation tests.

pub mod diag;
pub mod floorplan;
pub mod model;
pub mod reconfig;
pub mod render;
pub mod rendezvous;

pub use diag::{Code, Diagnostic, Location, Report, Severity};
pub use model::{ModelConfig, ModelStats};
pub use rendezvous::RendezvousPair;

use pdr_codegen::floorplan::FloorplanResult;
use pdr_graph::{ArchGraph, Characterization, ConstraintsFile};
use pdr_ir::{IrExecutive, SymbolTable};

/// Everything the linter can look at: a lowered executive and the symbol
/// table that resolves its interned names. Only those two are mandatory.
pub struct LintInput<'a> {
    /// The lowered executive (always analyzed).
    pub ir: &'a IrExecutive,
    /// The symbol table the executive was lowered through.
    pub table: &'a SymbolTable,
    /// Architecture graph — enables the reconfiguration-safety pass.
    pub arch: Option<&'a ArchGraph>,
    /// Characterization tables — enables worst-case-time checking.
    pub chars: Option<&'a Characterization>,
    /// Constraints file — enables module/exclusion checking.
    pub constraints: Option<&'a ConstraintsFile>,
    /// Placed design — enables the floorplan/bitstream pass.
    pub floorplan: Option<&'a FloorplanResult>,
    /// Model-checker configuration for the exhaustive interleaving
    /// exploration (PDR004, PDR013–PDR017).
    pub model: ModelConfig,
}

impl<'a> LintInput<'a> {
    /// Lint input over just a lowered executive.
    pub fn new(ir: &'a IrExecutive, table: &'a SymbolTable) -> Self {
        LintInput {
            ir,
            table,
            arch: None,
            chars: None,
            constraints: None,
            floorplan: None,
            model: ModelConfig::default(),
        }
    }

    /// Attach the architecture graph.
    pub fn with_arch(mut self, arch: &'a ArchGraph) -> Self {
        self.arch = Some(arch);
        self
    }

    /// Attach the characterization tables.
    pub fn with_chars(mut self, chars: &'a Characterization) -> Self {
        self.chars = Some(chars);
        self
    }

    /// Attach the constraints file.
    pub fn with_constraints(mut self, constraints: &'a ConstraintsFile) -> Self {
        self.constraints = Some(constraints);
        self
    }

    /// Attach the placed design.
    pub fn with_floorplan(mut self, floorplan: &'a FloorplanResult) -> Self {
        self.floorplan = Some(floorplan);
        self
    }

    /// Run the model checker under `config` instead of the default.
    pub fn with_model_check(mut self, config: ModelConfig) -> Self {
        self.model = config;
        self
    }
}

/// Run every applicable analysis and aggregate the findings.
///
/// The model checker only runs when the rendezvous pass found no errors:
/// with unmatched or mismatched pairs, every stuck state would just
/// restate the PDR001/PDR002 findings. It reports PDR004 and
/// PDR013–PDR017 (PDR015 needs architecture and constraints).
pub fn lint(input: &LintInput<'_>) -> Report {
    let mut report = Report::new();

    let rv = rendezvous::check(input.ir, input.table);
    let rendezvous_clean = rv.diagnostics.is_empty();
    report.extend(rv.diagnostics);

    if rendezvous_clean {
        report.extend(model::run_for_lint(
            input.ir,
            input.table,
            &rv.pairs,
            input.arch,
            input.constraints,
            &input.model,
        ));
    }

    if let (Some(arch), Some(chars), Some(constraints)) =
        (input.arch, input.chars, input.constraints)
    {
        report.extend(reconfig::check(
            input.ir,
            input.table,
            &rv.pairs,
            arch,
            chars,
            constraints,
        ));
    }

    if let Some(fp) = input.floorplan {
        report.extend(floorplan::check(fp));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::executive::{Executive, MacroInstr};

    /// Lower `e` through `table` and lint it under the defaults.
    fn lint_lowered(e: &Executive, mut table: SymbolTable) -> Report {
        let ir = e.lower(&mut table);
        lint(&LintInput::new(&ir, &table))
    }

    #[test]
    fn empty_executive_is_clean() {
        let e = Executive::default();
        assert!(lint_lowered(&e, SymbolTable::new()).is_clean());
    }

    #[test]
    fn deadlock_pass_is_suppressed_by_rendezvous_errors() {
        // A dangling send blocks forever, but the finding must be the
        // precise PDR001, not a redundant PDR004 on top.
        let mut e = Executive::default();
        e.per_operator.insert(
            "a".into(),
            vec![MacroInstr::Send {
                to: "b".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        let r = lint_lowered(&e, SymbolTable::new());
        assert!(r.has_code(Code::DanglingRendezvous));
        assert!(!r.has_code(Code::Deadlock));
    }

    #[test]
    fn crossed_waits_reach_the_deadlock_pass() {
        let mk_send = |to: &str, tag| MacroInstr::Send {
            to: to.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        };
        let mk_recv = |from: &str, tag| MacroInstr::Receive {
            from: from.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        };
        let mut e = Executive::default();
        e.per_operator
            .insert("a".into(), vec![mk_send("b", 1), mk_recv("b", 2)]);
        e.per_operator
            .insert("b".into(), vec![mk_send("a", 2), mk_recv("a", 1)]);
        let r = lint_lowered(&e, SymbolTable::new());
        assert!(r.has_code(Code::Deadlock));
        assert!(!r.with_code(Code::Deadlock)[0].notes.is_empty());
    }

    #[test]
    fn lint_is_independent_of_symbol_numbering() {
        // One executive exercising PDR002 + (suppressed) deadlock paths,
        // lowered through a fresh table and through one whose symbols
        // were interned in another order: the reports must render the
        // same diagnostics.
        let mut e = Executive::default();
        e.per_operator.insert(
            "a".into(),
            vec![MacroInstr::Send {
                to: "b".into(),
                medium: "m".into(),
                bits: 8,
                tag: 1,
            }],
        );
        e.per_operator.insert(
            "b".into(),
            vec![MacroInstr::Receive {
                from: "c".into(),
                medium: "other".into(),
                bits: 16,
                tag: 1,
            }],
        );
        let fresh = lint_lowered(&e, SymbolTable::new());
        let mut seeded = SymbolTable::new();
        for name in ["other", "c", "zz", "m", "b"] {
            seeded.intern(name);
        }
        let reordered = lint_lowered(&e, seeded);
        assert!(fresh.has_code(Code::RendezvousMismatch));
        assert_eq!(fresh, reordered);
        assert_eq!(
            render::to_text(&fresh),
            render::to_text(&reordered),
            "rendered text must be byte-identical"
        );
    }
}
