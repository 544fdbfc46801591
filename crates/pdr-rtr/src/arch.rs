//! The Fig. 2 design space: where the manager and protocol builder live.
//!
//! Figure 2 of the paper shows *"different ways to reconfigure dynamic
//! parts of a FPGA"*, with labels `M` (configuration manager) and `P`
//! (protocol configuration builder) marking where each functionality is
//! implemented: *"Locations of these functionalities have a direct impact
//! on the reconfiguration latency."*
//!
//! * **Case (a)** — *standalone self reconfiguration*: both `M` and `P` in
//!   the FPGA's static part, driving ICAP. No processor involvement.
//! * **Case (b)** — the FPGA *"sends reconfiguration requests to the
//!   processor through hardware interruptions"*; the processor hosts `M`
//!   and `P` and drives SelectMAP.
//!
//! Two hybrid placements complete the 2×2: manager in fabric with a
//! processor-side builder, and vice versa. [`ReconfigArchitecture::latency`]
//! decomposes the request→ready latency per variant; the Fig. 2 experiment
//! sweeps all four.

use pdr_fabric::{PortProfile, TimePs};
use serde::Serialize;

/// Where a functionality (M or P) is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// In the FPGA's static logic.
    Fabric,
    /// On the external processor (DSP).
    Processor,
}

/// One point of the Fig. 2 design space.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReconfigArchitecture {
    /// Variant name, e.g. `"case-a self/ICAP"`.
    pub name: String,
    /// Where the configuration manager (M) runs.
    pub manager_at: Placement,
    /// Where the protocol configuration builder (P) runs.
    pub builder_at: Placement,
    /// Configuration port driven by the builder.
    pub port: PortProfile,
    /// Hardware-interrupt latency (request signaling to the processor);
    /// zero when the manager is in fabric.
    pub irq_latency: TimePs,
    /// Manager request-handling time (state machine in fabric is fast;
    /// an ISR + table lookup on the DSP is slower).
    pub manager_decision: TimePs,
    /// Protocol-building cost per kilobyte of stream (≈ 0 for a pipelined
    /// hardware builder; a software loop on the DSP pays per word).
    pub build_per_kb: TimePs,
    /// One crossing of the board bus (request or data redirection) whenever
    /// M and P sit on different sides.
    pub bus_hop: TimePs,
}

/// Request→ready latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct LatencyBreakdown {
    /// Interrupt signaling (case b and hybrids with processor-side M).
    pub irq: TimePs,
    /// Manager decision time.
    pub decision: TimePs,
    /// Cross-side hops between M and P.
    pub hops: TimePs,
    /// Protocol building.
    pub build: TimePs,
    /// Bitstream fetch from memory (passed in by the caller: cache-dependent).
    pub fetch: TimePs,
    /// Port load.
    pub load: TimePs,
}

impl LatencyBreakdown {
    /// Total request→ready latency.
    pub fn total(&self) -> TimePs {
        self.irq + self.decision + self.hops + self.build + self.fetch + self.load
    }
}

impl ReconfigArchitecture {
    /// Case (a): standalone self-reconfiguration through ICAP.
    pub fn case_a_self_icap() -> Self {
        ReconfigArchitecture {
            name: "case-a self/ICAP (M=fabric, P=fabric)".into(),
            manager_at: Placement::Fabric,
            builder_at: Placement::Fabric,
            port: PortProfile::icap_virtex2(),
            irq_latency: TimePs::ZERO,
            manager_decision: TimePs::from_ns(200), // a few fabric cycles
            build_per_kb: TimePs::from_ns(50),      // pipelined, overlapped
            bus_hop: TimePs::from_us(1),
        }
    }

    /// Case (b): processor-hosted reconfiguration through SelectMAP.
    pub fn case_b_cpu_selectmap() -> Self {
        ReconfigArchitecture {
            name: "case-b CPU/SelectMAP (M=cpu, P=cpu)".into(),
            manager_at: Placement::Processor,
            builder_at: Placement::Processor,
            port: PortProfile::paper_selectmap_dsp(),
            irq_latency: TimePs::from_us(5), // HW interrupt + ISR entry
            manager_decision: TimePs::from_us(10), // software dispatch
            build_per_kb: TimePs::from_us(20), // software packetization loop
            bus_hop: TimePs::from_us(1),
        }
    }

    /// Hybrid: manager in fabric, builder on the processor.
    pub fn hybrid_m_fabric_p_cpu() -> Self {
        ReconfigArchitecture {
            name: "hybrid (M=fabric, P=cpu)".into(),
            manager_at: Placement::Fabric,
            builder_at: Placement::Processor,
            port: PortProfile::paper_selectmap_dsp(),
            irq_latency: TimePs::from_us(5), // must still interrupt the CPU for P
            manager_decision: TimePs::from_ns(200),
            build_per_kb: TimePs::from_us(20),
            bus_hop: TimePs::from_us(1),
        }
    }

    /// Hybrid: manager on the processor, builder in fabric (CPU decides,
    /// fabric streams from memory into ICAP).
    pub fn hybrid_m_cpu_p_fabric() -> Self {
        ReconfigArchitecture {
            name: "hybrid (M=cpu, P=fabric)".into(),
            manager_at: Placement::Processor,
            builder_at: Placement::Fabric,
            port: PortProfile::icap_virtex2(),
            irq_latency: TimePs::from_us(5),
            manager_decision: TimePs::from_us(10),
            build_per_kb: TimePs::from_ns(50),
            bus_hop: TimePs::from_us(1),
        }
    }

    /// All four variants in Fig. 2 order.
    pub fn all_variants() -> Vec<ReconfigArchitecture> {
        vec![
            Self::case_a_self_icap(),
            Self::case_b_cpu_selectmap(),
            Self::hybrid_m_fabric_p_cpu(),
            Self::hybrid_m_cpu_p_fabric(),
        ]
    }

    /// Latency decomposition for reconfiguring a `bytes`-long stream whose
    /// fetch leg costs `fetch` (zero when cached/prefetched).
    pub fn latency(&self, bytes: usize, fetch: TimePs) -> LatencyBreakdown {
        let irq = if self.manager_at == Placement::Processor {
            self.irq_latency
        } else {
            TimePs::ZERO
        };
        // M and P on different sides: the request crosses the bus once, and
        // a processor-side builder is reached via interrupt even when the
        // manager is in fabric.
        let mut hops = TimePs::ZERO;
        if self.manager_at != self.builder_at {
            hops += self.bus_hop;
            if self.builder_at == Placement::Processor && self.manager_at == Placement::Fabric {
                hops += self.irq_latency;
            }
        }
        let kb = bytes.div_ceil(1024) as u64;
        LatencyBreakdown {
            irq,
            decision: self.manager_decision,
            hops,
            build: self.build_per_kb * kb,
            fetch,
            load: self.port.transfer_time(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODULE_BYTES: usize = 49_668; // the paper's ~8 % module

    #[test]
    fn case_a_beats_case_b() {
        let fetch = TimePs::from_ms(3);
        let a = ReconfigArchitecture::case_a_self_icap().latency(MODULE_BYTES, fetch);
        let b = ReconfigArchitecture::case_b_cpu_selectmap().latency(MODULE_BYTES, fetch);
        assert!(
            a.total() < b.total(),
            "self-reconfiguration must be faster: {} vs {}",
            a.total(),
            b.total()
        );
        assert_eq!(a.irq, TimePs::ZERO);
        assert!(b.irq > TimePs::ZERO);
    }

    #[test]
    fn builder_next_to_port_shortens_path() {
        // With the same processor-side manager, a fabric builder (ICAP at
        // line rate, no software packetization) beats a CPU builder.
        let fetch = TimePs::ZERO;
        let p_fabric = ReconfigArchitecture::hybrid_m_cpu_p_fabric().latency(MODULE_BYTES, fetch);
        let p_cpu = ReconfigArchitecture::case_b_cpu_selectmap().latency(MODULE_BYTES, fetch);
        assert!(p_fabric.total() < p_cpu.total());
    }

    #[test]
    fn all_variants_are_distinct_and_ordered_plausibly() {
        let fetch = TimePs::from_ms(3);
        let totals: Vec<(String, TimePs)> = ReconfigArchitecture::all_variants()
            .into_iter()
            .map(|v| (v.name.clone(), v.latency(MODULE_BYTES, fetch).total()))
            .collect();
        assert_eq!(totals.len(), 4);
        // Case a is the global minimum.
        let min = totals.iter().map(|(_, t)| *t).min().unwrap();
        assert_eq!(totals[0].1, min);
        // All variants land in the paper's ms regime.
        for (n, t) in &totals {
            let ms = t.as_millis_f64();
            assert!((3.0..10.0).contains(&ms), "{n}: {ms} ms");
        }
    }

    #[test]
    fn fetch_component_passes_through() {
        let v = ReconfigArchitecture::case_a_self_icap();
        let cold = v.latency(MODULE_BYTES, TimePs::from_ms(3));
        let warm = v.latency(MODULE_BYTES, TimePs::ZERO);
        assert_eq!(cold.total() - warm.total(), TimePs::from_ms(3));
    }

    #[test]
    fn breakdown_sums_to_total() {
        let v = ReconfigArchitecture::case_b_cpu_selectmap();
        let b = v.latency(MODULE_BYTES, TimePs::from_ms(1));
        assert_eq!(
            b.total(),
            b.irq + b.decision + b.hops + b.build + b.fetch + b.load
        );
    }

    #[test]
    fn software_build_scales_with_size() {
        let v = ReconfigArchitecture::case_b_cpu_selectmap();
        let small = v.latency(10_000, TimePs::ZERO);
        let large = v.latency(100_000, TimePs::ZERO);
        assert!(large.build > small.build * 5);
    }
}
