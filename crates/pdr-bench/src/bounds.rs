//! Schedule-quality bounds: how far is the heuristic from optimal?
//!
//! The adequation heuristic is greedy; §3 calls it "a heuristic which
//! takes into account durations". Two classical lower bounds let every
//! experiment report a *quality ratio* instead of a bare makespan:
//!
//! * **critical-path bound** — no schedule can finish before the longest
//!   dependency chain, each operation at its best-case duration;
//! * **work bound** — no schedule can finish before the total best-case
//!   work divided by the number of operators able to perform any of it.
//!
//! `makespan / lower_bound` then bounds the heuristic's suboptimality from
//! above (a ratio of 1.0 is provably optimal).

use pdr_adequation::AdequationError;
use pdr_fabric::TimePs;
use pdr_graph::{AlgorithmGraph, ArchGraph, Characterization, OpId, Operation};
use std::collections::HashMap;

/// Best-case duration of an operation across all operators (0 for
/// sources/sinks; `None` when some function has no feasible operator).
fn best_duration(op: &Operation, arch: &ArchGraph, chars: &Characterization) -> Option<TimePs> {
    let funcs = op.kind.functions();
    if funcs.is_empty() {
        return Some(TimePs::ZERO);
    }
    // Worst over alternatives of (best over operators): matches the WCET
    // labeling used by the scheduler.
    let mut worst = TimePs::ZERO;
    for f in funcs {
        let best = arch
            .operators()
            .filter_map(|(_, o)| chars.duration(f, &o.name))
            .min()?;
        worst = worst.max(best);
    }
    Some(worst)
}

/// The critical-path lower bound (communication-free).
pub fn critical_path_bound(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<TimePs, AdequationError> {
    let order = algo.topo_order()?;
    let mut longest: HashMap<OpId, TimePs> = HashMap::with_capacity(algo.len());
    let mut bound = TimePs::ZERO;
    for &id in &order {
        let op = algo.op(id);
        let dur = best_duration(op, arch, chars).ok_or_else(|| AdequationError::Unmappable {
            operation: op.name.clone(),
            reason: "no feasible operator for the lower bound".into(),
        })?;
        let pred_max = algo
            .predecessors(id)
            .into_iter()
            .map(|p| longest[&p])
            .max()
            .unwrap_or(TimePs::ZERO);
        let finish = pred_max + dur;
        longest.insert(id, finish);
        bound = bound.max(finish);
    }
    Ok(bound)
}

/// The total-work lower bound: sum of best-case durations divided by the
/// number of operators that can execute at least one operation.
pub fn work_bound(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<TimePs, AdequationError> {
    let mut total = TimePs::ZERO;
    for (_, op) in algo.ops() {
        let dur = best_duration(op, arch, chars).ok_or_else(|| AdequationError::Unmappable {
            operation: op.name.clone(),
            reason: "no feasible operator for the lower bound".into(),
        })?;
        total += dur;
    }
    let useful_operators = arch
        .operators()
        .filter(|(_, o)| {
            algo.ops().any(|(_, op)| {
                op.kind
                    .functions()
                    .iter()
                    .any(|f| chars.feasible(f, &o.name))
            })
        })
        .count()
        .max(1);
    Ok(total / useful_operators as u64)
}

/// The tighter of the two bounds.
pub fn lower_bound(
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<TimePs, AdequationError> {
    Ok(critical_path_bound(algo, arch, chars)?.max(work_bound(algo, arch, chars)?))
}

/// Quality ratio of a schedule: `makespan / lower_bound` (≥ 1.0; lower is
/// better; 1.0 is provably optimal).
pub fn quality_ratio(
    makespan: TimePs,
    algo: &AlgorithmGraph,
    arch: &ArchGraph,
    chars: &Characterization,
) -> Result<f64, AdequationError> {
    let lb = lower_bound(algo, arch, chars)?;
    if lb.is_zero() {
        return Ok(1.0);
    }
    Ok(makespan.as_ps() as f64 / lb.as_ps() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_adequation::{adequate, AdequationOptions};
    use pdr_graph::{paper, ConstraintsFile, OpKind, OperatorKind};

    fn paper_setup() -> (AlgorithmGraph, ArchGraph, Characterization, ConstraintsFile) {
        (
            paper::mccdma_algorithm(),
            paper::sundance_architecture(),
            paper::mccdma_characterization(),
            paper::mccdma_constraints(),
        )
    }

    #[test]
    fn bounds_are_positive_and_consistent() {
        let (algo, arch, chars, _) = paper_setup();
        let cp = critical_path_bound(&algo, &arch, &chars).unwrap();
        let wb = work_bound(&algo, &arch, &chars).unwrap();
        let lb = lower_bound(&algo, &arch, &chars).unwrap();
        assert!(cp > TimePs::ZERO);
        assert!(wb > TimePs::ZERO);
        assert_eq!(lb, cp.max(wb));
        // The MC-CDMA graph is a chain: critical path dominates.
        assert_eq!(lb, cp);
    }

    #[test]
    fn heuristic_respects_the_lower_bound() {
        let (algo, arch, chars, cons) = paper_setup();
        let opts = AdequationOptions::default()
            .pin("interface_in", "dsp")
            .pin("select", "dsp")
            .pin("interface_out", "fpga_static");
        let r = adequate(&algo, &arch, &chars, &cons, &opts).unwrap();
        let lb = lower_bound(&algo, &arch, &chars).unwrap();
        assert!(r.makespan >= lb);
        let q = quality_ratio(r.makespan, &algo, &arch, &chars).unwrap();
        assert!(q >= 1.0);
        // The paper graph is a near-chain: greedy should be close to
        // optimal (< 1.5x the communication-free bound even with the
        // transfer times it must pay).
        assert!(q < 1.5, "quality ratio {q}");
    }

    #[test]
    fn chain_graph_bound_is_exact() {
        // A pure chain on one operator: the heuristic must hit the bound.
        let mut arch = ArchGraph::new("mono");
        arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        let mut g = AlgorithmGraph::new("chain");
        let mut chars = Characterization::new();
        let s = g.add_op("s", OpKind::Source).unwrap();
        let mut prev = s;
        for i in 0..5 {
            let name = format!("c{i}");
            let id = g.add_compute(&name).unwrap();
            chars.set_duration(&name, "cpu", TimePs::from_us(10));
            g.connect(prev, id, 8).unwrap();
            prev = id;
        }
        let k = g.add_op("k", OpKind::Sink).unwrap();
        g.connect(prev, k, 8).unwrap();
        let r = adequate(
            &g,
            &arch,
            &chars,
            &ConstraintsFile::new(),
            &AdequationOptions::default(),
        )
        .unwrap();
        let q = quality_ratio(r.makespan, &g, &arch, &chars).unwrap();
        assert!((q - 1.0).abs() < 1e-12, "chain must be optimal, got {q}");
    }

    #[test]
    fn wide_graph_work_bound_dominates() {
        // 8 independent ops on 1 operator: work bound = 80 us > cp = 10 us.
        let mut arch = ArchGraph::new("mono");
        arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        let mut g = AlgorithmGraph::new("wide");
        let mut chars = Characterization::new();
        let s = g.add_op("s", OpKind::Source).unwrap();
        let k = g.add_op("k", OpKind::Sink).unwrap();
        for i in 0..8 {
            let name = format!("w{i}");
            let id = g.add_compute(&name).unwrap();
            chars.set_duration(&name, "cpu", TimePs::from_us(10));
            g.connect(s, id, 8).unwrap();
            g.connect(id, k, 8).unwrap();
        }
        let cp = critical_path_bound(&g, &arch, &chars).unwrap();
        let wb = work_bound(&g, &arch, &chars).unwrap();
        assert_eq!(cp, TimePs::from_us(10));
        assert_eq!(wb, TimePs::from_us(80));
        assert_eq!(lower_bound(&g, &arch, &chars).unwrap(), wb);
    }

    #[test]
    fn infeasible_function_errors() {
        let mut arch = ArchGraph::new("mono");
        arch.add_operator("cpu", OperatorKind::Processor).unwrap();
        let mut g = AlgorithmGraph::new("bad");
        let s = g.add_op("s", OpKind::Source).unwrap();
        let c = g.add_compute("mystery").unwrap();
        let k = g.add_op("k", OpKind::Sink).unwrap();
        g.connect(s, c, 8).unwrap();
        g.connect(c, k, 8).unwrap();
        let chars = Characterization::new();
        assert!(critical_path_bound(&g, &arch, &chars).is_err());
        assert!(work_bound(&g, &arch, &chars).is_err());
    }
}
