//! Reconfiguration safety (PDR005–PDR007, PDR012).
//!
//! Three properties of the §4 reconfiguration extension are statically
//! checkable on the executive:
//!
//! * **Configure dominates Compute** (PDR005) — on a dynamic operator,
//!   a `Compute` of a declared dynamic module must be preceded, with no
//!   intervening `Configure` of another module, by a `Configure` of that
//!   module; otherwise the region runs stale logic.
//! * **Worst-case times match the characterization** (PDR006) — the
//!   schedule was costed with `Characterization::reconfig_time`; a
//!   `Configure` carrying a different number means the executive and the
//!   timing analysis disagree.
//! * **Exclusion groups cannot be violated** (PDR007) — two modules
//!   declared `exclusive_with` (or sharing a share group) across
//!   *different* regions must never be resident simultaneously. A module
//!   is resident from its `Configure` until the next `Configure` on the
//!   same region, so the check is interval disjointness under the
//!   executive's happens-before order (program order plus rendezvous
//!   synchronization edges).
//!
//! Cross-reference problems (a `Configure` of a module the constraints
//! file does not know, or on an operator other than the module's declared
//! region; an executive stream for an operator absent from the
//! architecture) are reported as PDR012 warnings.
//!
//! The passes walk the lowered [`IrExecutive`]: residency is tracked as
//! interned [`ModuleId`]s, and the happens-before graph numbers nodes
//! directly by the flat instruction array (`stream_start(i) + index`).

use crate::diag::{Code, Diagnostic, Location};
use crate::rendezvous::RendezvousPair;
use pdr_graph::{ArchGraph, Characterization, ConstraintsFile};
use pdr_ir::{IrExecutive, IrInstr, ModuleId, SymbolTable};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Run the reconfiguration-safety checks.
pub fn check(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    arch: &ArchGraph,
    chars: &Characterization,
    constraints: &ConstraintsFile,
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();

    let arch_ops: BTreeMap<&str, bool> = arch
        .operators()
        .map(|(_, o)| (o.name.as_str(), o.kind.is_dynamic()))
        .collect();

    let op_name = |stream: usize| ir.operator_sym(stream).resolve(table);

    // Per-region residency intervals: (stream, configure idx, module,
    // release idx — the next Configure on the same stream, if any).
    let mut intervals: Vec<(usize, usize, ModuleId, Option<usize>)> = Vec::new();

    for stream in 0..ir.operator_count() {
        let operator = op_name(stream);
        let Some(&is_dynamic) = arch_ops.get(operator) else {
            diagnostics.push(
                Diagnostic::new(
                    Code::UnknownModule,
                    format!(
                        "executive has a stream for operator `{operator}` \
                         which the architecture graph does not declare"
                    ),
                )
                .at(Location::Operator(operator.to_string())),
            );
            continue;
        };

        let mut resident: Option<ModuleId> = None;
        let mut open_interval: Option<(usize, ModuleId)> = None;
        for (index, instr) in ir.program(stream).iter().enumerate() {
            match instr {
                IrInstr::Configure { module, worst_case } => {
                    let module_name = module.resolve(table);
                    if !is_dynamic {
                        diagnostics.push(
                            Diagnostic::new(
                                Code::UnknownModule,
                                format!(
                                    "configure of `{module_name}` on `{operator}`, \
                                     which is not a dynamic operator"
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        );
                    }
                    match constraints.module(module_name) {
                        None => diagnostics.push(
                            Diagnostic::new(
                                Code::UnknownModule,
                                format!(
                                    "configure of module `{module_name}` which the \
                                     constraints file does not declare"
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        ),
                        Some(mc) if mc.region != *operator => diagnostics.push(
                            Diagnostic::new(
                                Code::UnknownModule,
                                format!(
                                    "module `{module_name}` is constrained to region \
                                     `{}` but configured on `{operator}`",
                                    mc.region
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        ),
                        Some(_) => {}
                    }
                    match chars.reconfig_time(module_name, operator) {
                        Ok(t) if t != *worst_case => diagnostics.push(
                            Diagnostic::new(
                                Code::WcetMismatch,
                                format!(
                                    "configure of `{module_name}` carries worst-case \
                                     {worst_case} but the characterization says {t}"
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        ),
                        Ok(_) => {}
                        Err(_) => diagnostics.push(
                            Diagnostic::new(
                                Code::WcetMismatch,
                                format!(
                                    "configure of `{module_name}` on `{operator}` has \
                                     no characterized reconfiguration time"
                                ),
                            )
                            .at(Location::instr(operator, index)),
                        ),
                    }
                    if let Some((start, m)) = open_interval.take() {
                        intervals.push((stream, start, m, Some(index)));
                    }
                    open_interval = Some((index, *module));
                    resident = Some(*module);
                }
                // Only functions the constraints file declares as dynamic
                // modules need configuration; everything else is static
                // logic or software.
                IrInstr::Compute { function, .. }
                    if is_dynamic
                        && constraints.module(function.resolve(table)).is_some()
                        && resident != Some(*function) =>
                {
                    let mut d = Diagnostic::new(
                        Code::UnconfiguredCompute,
                        format!(
                            "compute of dynamic module `{}` is not \
                             dominated by a configure of that module",
                            function.resolve(table)
                        ),
                    )
                    .at(Location::instr(operator, index));
                    d = match resident {
                        Some(other) => {
                            d.note(format!("region currently holds `{}`", other.resolve(table)))
                        }
                        None => d.note("no configure precedes this compute"),
                    };
                    diagnostics.push(d);
                }
                _ => {}
            }
        }
        if let Some((start, m)) = open_interval.take() {
            intervals.push((stream, start, m, None));
        }
    }

    diagnostics.extend(check_exclusion(ir, table, pairs, constraints, &intervals));
    diagnostics
}

/// PDR007: can two cross-region exclusive modules be co-resident?
fn check_exclusion(
    ir: &IrExecutive,
    table: &SymbolTable,
    pairs: &[RendezvousPair],
    constraints: &ConstraintsFile,
    intervals: &[(usize, usize, ModuleId, Option<usize>)],
) -> Vec<Diagnostic> {
    // Node numbering over every instruction of every operator: the flat
    // instruction array already is that numbering.
    let total = ir.len();
    let node = |stream: usize, idx: usize| ir.stream_start(stream) + idx;

    // Happens-before edges: program order, plus both directions across
    // each rendezvous (the two sides complete together, so each orders
    // everything after the other side's instruction). Built on the first
    // mutually exclusive cross-region pair; most executives have none.
    let happens_before = OnceCell::new();
    let build_happens_before = || {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); total];
        for stream in 0..ir.operator_count() {
            for idx in 1..ir.program(stream).len() {
                adj[node(stream, idx - 1)].push(node(stream, idx));
            }
        }
        for p in pairs {
            let s = node(p.send_stream, p.send_idx);
            let r = node(p.recv_stream, p.recv_idx);
            adj[s].push(r);
            adj[r].push(s);
        }
        adj
    };

    let reaches = |from: usize, to: usize| -> bool {
        let adj: &Vec<Vec<usize>> = happens_before.get_or_init(build_happens_before);
        let mut seen = vec![false; total];
        let mut q = VecDeque::from([from]);
        seen[from] = true;
        while let Some(n) = q.pop_front() {
            if n == to {
                return true;
            }
            for &m in &adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    q.push_back(m);
                }
            }
        }
        false
    };

    let op_name = |stream: usize| ir.operator_sym(stream).resolve(table);

    let mut diagnostics = Vec::new();
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, (op_a, cfg_a, mod_a, rel_a)) in intervals.iter().enumerate() {
        for (j, (op_b, cfg_b, mod_b, rel_b)) in intervals.iter().enumerate().skip(i + 1) {
            if op_a == op_b
                || !constraints.mutually_exclusive(mod_a.resolve(table), mod_b.resolve(table))
            {
                continue;
            }
            // A's residency ends before B's begins (or vice versa) in
            // *every* interleaving iff the release node happens-before the
            // other configure. An interval never released can only be safe
            // in the other direction.
            let a_before_b = rel_a
                .map(|r| reaches(node(*op_a, r), node(*op_b, *cfg_b)))
                .unwrap_or(false);
            let b_before_a = rel_b
                .map(|r| reaches(node(*op_b, r), node(*op_a, *cfg_a)))
                .unwrap_or(false);
            if !a_before_b && !b_before_a && reported.insert((i, j)) {
                let (mod_a, mod_b) = (mod_a.resolve(table), mod_b.resolve(table));
                let (op_a_name, op_b_name) = (op_name(*op_a), op_name(*op_b));
                diagnostics.push(
                    Diagnostic::new(
                        Code::ExclusionViolable,
                        format!(
                            "mutually exclusive modules `{mod_a}` (region \
                             `{op_a_name}`) and `{mod_b}` (region `{op_b_name}`) can be \
                             resident simultaneously"
                        ),
                    )
                    .at(Location::instr(op_a_name, *cfg_a))
                    .note(format!(
                        "`{mod_a}` resident from {op_a_name}[{cfg_a}] to {}",
                        rel_a
                            .map(|r| format!("{op_a_name}[{r}]"))
                            .unwrap_or_else(|| "end of iteration".into())
                    ))
                    .note(format!(
                        "`{mod_b}` resident from {op_b_name}[{cfg_b}] to {}",
                        rel_b
                            .map(|r| format!("{op_b_name}[{r}]"))
                            .unwrap_or_else(|| "end of iteration".into())
                    ))
                    .note(
                        "no rendezvous chain orders one module's release before \
                         the other's configure",
                    ),
                );
            }
        }
    }
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous;
    use pdr_adequation::executive::{Executive, MacroInstr};
    use pdr_fabric::TimePs;
    use pdr_graph::constraints::ModuleConstraints;
    use pdr_graph::OperatorKind;

    fn arch() -> ArchGraph {
        let mut a = ArchGraph::new("t");
        a.add_operator("dsp", OperatorKind::Processor).unwrap();
        a.add_operator("fs", OperatorKind::FpgaStatic).unwrap();
        a.add_operator("d1", OperatorKind::FpgaDynamic { host: "fs".into() })
            .unwrap();
        a.add_operator("d2", OperatorKind::FpgaDynamic { host: "fs".into() })
            .unwrap();
        a
    }

    fn chars() -> Characterization {
        let mut c = Characterization::new();
        c.set_reconfig_default("d1", TimePs::from_ms(4))
            .set_reconfig_default("d2", TimePs::from_ms(4));
        c
    }

    fn cons() -> ConstraintsFile {
        let mut f = ConstraintsFile::new();
        let mut a = ModuleConstraints::new("mod_a", "d1");
        a.exclusive_with = vec!["mod_b".into()];
        f.add(a).unwrap();
        f.add(ModuleConstraints::new("mod_b", "d2")).unwrap();
        f
    }

    fn cfg(module: &str) -> MacroInstr {
        MacroInstr::Configure {
            module: module.into(),
            worst_case: TimePs::from_ms(4),
        }
    }

    fn cmp(function: &str) -> MacroInstr {
        MacroInstr::Compute {
            op: function.to_string(),
            function: function.into(),
            duration: TimePs::from_us(1),
        }
    }

    fn send(to: &str, tag: u32) -> MacroInstr {
        MacroInstr::Send {
            to: to.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        }
    }

    fn recv(from: &str, tag: u32) -> MacroInstr {
        MacroInstr::Receive {
            from: from.into(),
            medium: "m".into(),
            bits: 8,
            tag,
        }
    }

    fn run_with(e: &Executive, f: &ConstraintsFile) -> Vec<Diagnostic> {
        let mut table = SymbolTable::new();
        let ir = e.lower(&mut table);
        let r = rendezvous::check(&ir, &table);
        check(&ir, &table, &r.pairs, &arch(), &chars(), f)
    }

    fn run(e: &Executive) -> Vec<Diagnostic> {
        run_with(e, &cons())
    }

    #[test]
    fn configured_compute_is_clean() {
        let mut e = Executive::default();
        e.per_operator
            .insert("d1".into(), vec![cfg("mod_a"), cmp("mod_a")]);
        assert!(run(&e).is_empty());
    }

    #[test]
    fn missing_configure_is_pdr005() {
        let mut e = Executive::default();
        e.per_operator.insert("d1".into(), vec![cmp("mod_a")]);
        let ds = run(&e);
        assert!(ds.iter().any(|d| d.code == Code::UnconfiguredCompute));
    }

    #[test]
    fn stale_module_is_pdr005() {
        let mut f = cons();
        f.add(ModuleConstraints::new("mod_c", "d1")).unwrap();
        let mut e = Executive::default();
        e.per_operator
            .insert("d1".into(), vec![cfg("mod_a"), cfg("mod_c"), cmp("mod_a")]);
        let ds = run_with(&e, &f);
        assert!(ds.iter().any(|d| d.code == Code::UnconfiguredCompute));
    }

    #[test]
    fn wrong_worst_case_is_pdr006() {
        let mut e = Executive::default();
        e.per_operator.insert(
            "d1".into(),
            vec![
                MacroInstr::Configure {
                    module: "mod_a".into(),
                    worst_case: TimePs::from_ms(7),
                },
                cmp("mod_a"),
            ],
        );
        let ds = run(&e);
        assert!(ds.iter().any(|d| d.code == Code::WcetMismatch));
    }

    #[test]
    fn unknown_module_and_wrong_region_are_pdr012() {
        let mut e = Executive::default();
        e.per_operator.insert("d1".into(), vec![cfg("ghost")]);
        e.per_operator.insert("d2".into(), vec![cfg("mod_a")]);
        let ds = run(&e);
        let pdr012: Vec<_> = ds
            .iter()
            .filter(|d| d.code == Code::UnknownModule)
            .collect();
        assert!(pdr012.iter().any(|d| d.message.contains("ghost")));
        assert!(pdr012.iter().any(|d| d.message.contains("constrained to")));
    }

    #[test]
    fn unknown_operator_stream_is_pdr012() {
        let mut e = Executive::default();
        e.per_operator.insert("phantom".into(), vec![cmp("f")]);
        let ds = run(&e);
        assert!(ds
            .iter()
            .any(|d| d.code == Code::UnknownModule && d.message.contains("phantom")));
    }

    #[test]
    fn unordered_exclusive_residency_is_pdr007() {
        // mod_a on d1 and mod_b on d2, no rendezvous ordering them.
        let mut e = Executive::default();
        e.per_operator
            .insert("d1".into(), vec![cfg("mod_a"), cmp("mod_a")]);
        e.per_operator
            .insert("d2".into(), vec![cfg("mod_b"), cmp("mod_b")]);
        let ds = run(&e);
        assert!(ds.iter().any(|d| d.code == Code::ExclusionViolable));
    }

    #[test]
    fn rendezvous_ordered_exclusive_residency_is_clean() {
        // d1 uses mod_a, reconfigures to mod_c (releasing mod_a), then
        // signals d2, which only then configures mod_b.
        let mut f = cons();
        f.add(ModuleConstraints::new("mod_c", "d1")).unwrap();
        let mut e = Executive::default();
        e.per_operator.insert(
            "d1".into(),
            vec![cfg("mod_a"), cmp("mod_a"), cfg("mod_c"), send("d2", 1)],
        );
        e.per_operator
            .insert("d2".into(), vec![recv("d1", 1), cfg("mod_b"), cmp("mod_b")]);
        let ds = run_with(&e, &f);
        assert!(
            !ds.iter().any(|d| d.code == Code::ExclusionViolable),
            "{ds:?}"
        );
    }
}
