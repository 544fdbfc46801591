//! Adequation study — the §3 heuristic and its §7 limitation.
//!
//! The conclusion admits *"SynDEx's heuristic needs additional developments
//! to optimize time reconfiguration"*. The reproduction implements that
//! development (the reconfiguration-aware cost of
//! `AdequationOptions::reconfig_aware`) and this study quantifies it:
//!
//! * **ablation** ([`run_ablation`]): end-to-end lock-up of the schedule
//!   produced with vs without reconfiguration awareness, across switching
//!   rates — the aware heuristic moves hot-switching conditioned
//!   operations off the dynamic region;
//! * **scaling** ([`run_scaling`]): heuristic runtime and makespan over
//!   synthetic layered data-flow graphs of growing size (the cost of the
//!   automation in Fig. 3).

use crate::annealing::{anneal, AnnealOptions};
use crate::bounds::quality_ratio;
use pdr_adequation::trace::{schedule_trace, SelectorTrace, TraceOptions};
use pdr_adequation::{adequate, AdequationOptions};
use pdr_fabric::TimePs;
use pdr_graph::paper;
use pdr_graph::prelude::*;
use pdr_sweep::{Scenario, SweepEngine, SweepError, SweepReport};
use serde::json::Value;
use std::time::Instant;

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Per-iteration switch probability assumed by the heuristic.
    pub switch_probability: f64,
    /// Where the aware heuristic put the conditioned operation.
    pub aware_placement: String,
    /// Where the oblivious heuristic put it.
    pub oblivious_placement: String,
    /// Trace stall of the aware mapping over the matched workload.
    pub aware_stall: TimePs,
    /// Trace stall of the oblivious mapping.
    pub oblivious_stall: TimePs,
}

impl AblationPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("switch_probability", Value::Float(self.switch_probability)),
            (
                "aware_placement",
                Value::String(self.aware_placement.clone()),
            ),
            (
                "oblivious_placement",
                Value::String(self.oblivious_placement.clone()),
            ),
            ("aware_stall_ps", Value::UInt(self.aware_stall.0)),
            ("oblivious_stall_ps", Value::UInt(self.oblivious_stall.0)),
        ])
    }
}

/// Run the ablation as a sweep on `engine`: one scenario per assumed
/// switch probability.
pub fn ablation_sweep(probabilities: &[f64], engine: &SweepEngine) -> SweepReport<AblationPoint> {
    let algo = paper::mccdma_algorithm();
    let arch = paper::sundance_architecture();
    // Ablation scenario: the dynamic region hosts a *dedicated* modulator
    // (1 µs) while a static implementation must share the generic datapath
    // (10 µs). This is the configuration where ignoring reconfiguration
    // cost actually hurts: the oblivious heuristic chases the faster
    // dynamic implementation regardless of how often it must reconfigure.
    let mut chars = paper::mccdma_characterization();
    for m in ["mod_qpsk", "mod_qam16"] {
        chars.set_duration(m, "op_dyn", pdr_fabric::TimePs::from_us(1));
        chars.set_duration(m, "fpga_static", pdr_fabric::TimePs::from_us(10));
    }
    let free = ConstraintsFile::new(); // placement must be free for the ablation
    let cond = algo.by_name("modulation").expect("model has modulation");
    let sel = algo.by_name("select").expect("model has select");

    let scenarios: Vec<Scenario<'_, AblationPoint>> = probabilities
        .iter()
        .map(|&p| {
            let (algo, arch, chars, free) = (&algo, &arch, &chars, &free);
            Scenario::new(format!("ablation/p{p}"), (p * 1e6) as u64, move || {
                let base_opts = AdequationOptions::default()
                    .pin("interface_in", "dsp")
                    .pin("select", "dsp")
                    .pin("interface_out", "fpga_static");
                let aware = AdequationOptions {
                    reconfig_aware: true,
                    switch_probability: p,
                    ..base_opts.clone()
                };
                let oblivious = AdequationOptions {
                    reconfig_aware: false,
                    ..base_opts
                };
                let r_aware =
                    adequate(algo, arch, chars, free, &aware).map_err(SweepError::scenario)?;
                let r_obl =
                    adequate(algo, arch, chars, free, &oblivious).map_err(SweepError::scenario)?;

                // Evaluate both mappings on the same workload: a trace
                // switching with the assumed probability (deterministic
                // pattern of the same rate: switch every round(1/p)
                // iterations).
                let n = 64usize;
                let interval = (1.0 / p.max(1e-9)).round().max(1.0) as usize;
                let values: Vec<usize> = (0..n).map(|i| (i / interval) % 2).collect();
                let stall_of =
                    |r: &pdr_adequation::AdequationResult| -> Result<TimePs, SweepError> {
                        let placed_dynamic = arch
                            .operator(r.mapping.operator_of(cond).expect("mapped"))
                            .kind
                            .is_dynamic();
                        if !placed_dynamic {
                            // No reconfigurations at all on a static placement.
                            return Ok(TimePs::ZERO);
                        }
                        let trace = SelectorTrace::single(cond, sel, values.clone());
                        let res = schedule_trace(
                            algo,
                            arch,
                            chars,
                            free,
                            &r.mapping,
                            &trace,
                            &TraceOptions::no_prefetch(),
                        )
                        .map_err(SweepError::scenario)?;
                        Ok(res.stats.stall)
                    };
                let placement = |r: &pdr_adequation::AdequationResult| {
                    arch.operator(r.mapping.operator_of(cond).expect("mapped"))
                        .name
                        .clone()
                };
                Ok(AblationPoint {
                    switch_probability: p,
                    aware_placement: placement(&r_aware),
                    oblivious_placement: placement(&r_obl),
                    aware_stall: stall_of(&r_aware)?,
                    oblivious_stall: stall_of(&r_obl)?,
                })
            })
            .with_param("switch_probability", p)
        })
        .collect();
    engine.run(scenarios)
}

/// Run the ablation across assumed switch probabilities.
pub fn run_ablation(probabilities: &[f64]) -> Result<Vec<AblationPoint>, SweepError> {
    ablation_sweep(probabilities, &SweepEngine::new()).into_values()
}

/// One scaling measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Operations in the synthetic graph.
    pub operations: usize,
    /// Heuristic wall-clock time.
    pub wall: std::time::Duration,
    /// Resulting makespan.
    pub makespan: TimePs,
}

impl ScalingPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("operations", Value::UInt(self.operations as u64)),
            ("wall_secs", Value::Float(self.wall.as_secs_f64())),
            ("makespan_ps", Value::UInt(self.makespan.0)),
        ])
    }
}

/// A layered synthetic data-flow graph: `layers` layers of `width`
/// operations each, fully connected layer to layer.
pub fn synthetic_graph(layers: usize, width: usize) -> (AlgorithmGraph, Characterization) {
    let mut g = AlgorithmGraph::new(format!("synthetic_{layers}x{width}"));
    let mut chars = Characterization::new();
    let src = g.add_op("src", OpKind::Source).expect("fresh");
    let mut prev: Vec<OpId> = vec![src];
    for l in 0..layers {
        let mut layer = Vec::with_capacity(width);
        for w in 0..width {
            let name = format!("op_{l}_{w}");
            let id = g.add_compute(&name).expect("unique");
            // Durations: FPGA fast, DSP slower, varied deterministically.
            let us = 2 + ((l * 7 + w * 3) % 9) as u64;
            chars.set_duration(&name, "fpga_static", TimePs::from_us(us));
            chars.set_duration(&name, "dsp", TimePs::from_us(us * 12));
            layer.push(id);
        }
        for &a in &prev {
            for &b in &layer {
                g.connect(a, b, 64).expect("valid edge");
            }
        }
        prev = layer;
    }
    let sink = g.add_op("sink", OpKind::Sink).expect("fresh");
    for &a in &prev {
        g.connect(a, sink, 64).expect("valid edge");
    }
    (g, chars)
}

/// Run the scaling sweep on `engine`: one scenario per graph size.
pub fn scaling_sweep(sizes: &[(usize, usize)], engine: &SweepEngine) -> SweepReport<ScalingPoint> {
    let arch = paper::sundance_architecture();
    let scenarios: Vec<Scenario<'_, ScalingPoint>> = sizes
        .iter()
        .map(|&(layers, width)| {
            let arch = &arch;
            Scenario::new(
                format!("scaling/{layers}x{width}"),
                (layers * 1000 + width) as u64,
                move || {
                    let (g, chars) = synthetic_graph(layers, width);
                    let t0 = Instant::now();
                    let r = adequate(
                        &g,
                        arch,
                        &chars,
                        &ConstraintsFile::new(),
                        &AdequationOptions::default(),
                    )
                    .map_err(SweepError::scenario)?;
                    Ok(ScalingPoint {
                        operations: g.len(),
                        wall: t0.elapsed(),
                        makespan: r.makespan,
                    })
                },
            )
            .with_param("layers", layers)
            .with_param("width", width)
        })
        .collect();
    engine.run(scenarios)
}

/// Run the scaling sweep over graph sizes.
pub fn run_scaling(sizes: &[(usize, usize)]) -> Result<Vec<ScalingPoint>, SweepError> {
    scaling_sweep(sizes, &SweepEngine::new()).into_values()
}

/// One greedy-vs-annealing comparison point.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyPoint {
    /// Graph description.
    pub graph: String,
    /// Operations in the graph.
    pub operations: usize,
    /// Greedy makespan and quality ratio vs the lower bound.
    pub greedy_makespan: TimePs,
    /// Greedy quality (makespan / lower bound).
    pub greedy_quality: f64,
    /// Annealed makespan.
    pub annealed_makespan: TimePs,
    /// Annealed quality.
    pub annealed_quality: f64,
    /// Greedy wall time.
    pub greedy_wall: std::time::Duration,
    /// Annealing wall time.
    pub anneal_wall: std::time::Duration,
}

impl StrategyPoint {
    /// The point as a JSON object for sweep artifacts.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("graph", Value::String(self.graph.clone())),
            ("operations", Value::UInt(self.operations as u64)),
            ("greedy_makespan_ps", Value::UInt(self.greedy_makespan.0)),
            ("greedy_quality", Value::Float(self.greedy_quality)),
            (
                "annealed_makespan_ps",
                Value::UInt(self.annealed_makespan.0),
            ),
            ("annealed_quality", Value::Float(self.annealed_quality)),
            (
                "greedy_wall_secs",
                Value::Float(self.greedy_wall.as_secs_f64()),
            ),
            (
                "anneal_wall_secs",
                Value::Float(self.anneal_wall.as_secs_f64()),
            ),
        ])
    }
}

/// Run the strategy comparison on `engine`: one scenario per graph size,
/// each running greedy and annealing back to back.
pub fn strategies_sweep(
    sizes: &[(usize, usize)],
    moves: u32,
    engine: &SweepEngine,
) -> SweepReport<StrategyPoint> {
    let arch = paper::sundance_architecture();
    let scenarios: Vec<Scenario<'_, StrategyPoint>> = sizes
        .iter()
        .map(|&(layers, width)| {
            let arch = &arch;
            Scenario::new(
                format!("strategies/{layers}x{width}"),
                (layers * 1000 + width) as u64,
                move || {
                    let (g, chars) = synthetic_graph(layers, width);
                    let cons = ConstraintsFile::new();

                    let t0 = Instant::now();
                    let greedy = adequate(&g, arch, &chars, &cons, &AdequationOptions::default())
                        .map_err(SweepError::scenario)?;
                    let greedy_wall = t0.elapsed();

                    let t0 = Instant::now();
                    let (_, _, annealed_makespan, _) = anneal(
                        &g,
                        arch,
                        &chars,
                        &cons,
                        &AnnealOptions {
                            moves,
                            ..Default::default()
                        },
                    )
                    .map_err(SweepError::scenario)?;
                    let anneal_wall = t0.elapsed();

                    Ok(StrategyPoint {
                        graph: format!("{layers}x{width}"),
                        operations: g.len(),
                        greedy_makespan: greedy.makespan,
                        greedy_quality: quality_ratio(greedy.makespan, &g, arch, &chars)
                            .map_err(SweepError::scenario)?,
                        annealed_makespan,
                        annealed_quality: quality_ratio(annealed_makespan, &g, arch, &chars)
                            .map_err(SweepError::scenario)?,
                        greedy_wall,
                        anneal_wall,
                    })
                },
            )
            .with_param("layers", layers)
            .with_param("width", width)
            .with_param("moves", moves)
        })
        .collect();
    engine.run(scenarios)
}

/// Compare the greedy heuristic against simulated annealing on layered
/// synthetic graphs (the "§7 additional developments" quantified).
pub fn run_strategies(
    sizes: &[(usize, usize)],
    moves: u32,
) -> Result<Vec<StrategyPoint>, SweepError> {
    strategies_sweep(sizes, moves, &SweepEngine::new()).into_values()
}

/// Render both studies.
pub fn render(ablation: &[AblationPoint], scaling: &[ScalingPoint]) -> String {
    let mut out =
        String::from("Adequation study\n\nAblation (reconfiguration-aware vs oblivious):\n");
    out.push_str(&format!(
        "{:>8} {:<14} {:<14} {:>14} {:>16}\n",
        "p", "aware@", "oblivious@", "aware stall", "oblivious stall"
    ));
    for a in ablation {
        out.push_str(&format!(
            "{:>8.2} {:<14} {:<14} {:>14} {:>16}\n",
            a.switch_probability,
            a.aware_placement,
            a.oblivious_placement,
            a.aware_stall.to_string(),
            a.oblivious_stall.to_string()
        ));
    }
    out.push_str("\nScaling (layered synthetic graphs):\n");
    out.push_str(&format!(
        "{:>10} {:>12} {:>14}\n",
        "ops", "wall (ms)", "makespan"
    ));
    for s in scaling {
        out.push_str(&format!(
            "{:>10} {:>12.3} {:>14}\n",
            s.operations,
            s.wall.as_secs_f64() * 1e3,
            s.makespan.to_string()
        ));
    }
    out
}

/// Render the strategy comparison.
pub fn render_strategies(points: &[StrategyPoint]) -> String {
    let mut out =
        String::from("Greedy vs simulated annealing (quality = makespan / lower bound):\n");
    out.push_str(&format!(
        "{:>8} {:>6} {:>14} {:>8} {:>14} {:>8} {:>11} {:>11}\n",
        "graph", "ops", "greedy", "quality", "annealed", "quality", "greedy ms", "anneal ms"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>8} {:>6} {:>14} {:>8.3} {:>14} {:>8.3} {:>11.2} {:>11.1}\n",
            p.graph,
            p.operations,
            p.greedy_makespan.to_string(),
            p.greedy_quality,
            p.annealed_makespan.to_string(),
            p.annealed_quality,
            p.greedy_wall.as_secs_f64() * 1e3,
            p.anneal_wall.as_secs_f64() * 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aware_heuristic_wins_at_high_switching() {
        let pts = run_ablation(&[0.9]).unwrap();
        let p = &pts[0];
        // At 90 % switching the aware heuristic avoids the dynamic region
        // entirely → zero stall; the oblivious one eats ~4 ms per switch.
        assert_ne!(p.aware_placement, "op_dyn");
        assert_eq!(p.aware_stall, TimePs::ZERO);
        if p.oblivious_placement == "op_dyn" {
            assert!(p.oblivious_stall > TimePs::from_ms(10));
        }
    }

    #[test]
    fn low_switching_keeps_dynamic_region_attractive() {
        let pts = run_ablation(&[0.01]).unwrap();
        let p = &pts[0];
        // With rare switches the dynamic region's expected penalty is tiny:
        // the aware heuristic may use it (both placements acceptable), and
        // stalls stay bounded.
        assert!(p.aware_stall <= p.oblivious_stall + TimePs::from_ms(20));
    }

    #[test]
    fn synthetic_graphs_validate_and_scale() {
        let (g, chars) = synthetic_graph(4, 3);
        g.validate().unwrap();
        assert_eq!(g.len(), 4 * 3 + 2);
        assert!(chars.duration_entries() >= 24);
        let pts = run_scaling(&[(2, 2), (4, 4)]).unwrap();
        assert_eq!(pts.len(), 2);
        assert!(pts[1].operations > pts[0].operations);
        assert!(pts[1].makespan > pts[0].makespan);
    }

    #[test]
    fn render_includes_both_halves() {
        let ab = run_ablation(&[0.5]).unwrap();
        let sc = run_scaling(&[(2, 2)]).unwrap();
        let text = render(&ab, &sc);
        assert!(text.contains("Ablation"));
        assert!(text.contains("Scaling"));
    }

    #[test]
    fn strategies_compare_and_annealing_is_competitive() {
        let pts = run_strategies(&[(3, 3)], 800).unwrap();
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert!(p.greedy_quality >= 1.0);
        assert!(p.annealed_quality >= 1.0);
        // Annealing explores globally: within 15 % of greedy (often better),
        // at visibly higher search cost.
        assert!(
            p.annealed_makespan.as_ps() as f64 <= p.greedy_makespan.as_ps() as f64 * 1.15,
            "annealed {} vs greedy {}",
            p.annealed_makespan,
            p.greedy_makespan
        );
        assert!(p.anneal_wall > p.greedy_wall);
        let text = render_strategies(&pts);
        assert!(text.contains("annealed"));
    }
}
