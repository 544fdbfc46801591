//! Configuration-port timing models (ICAP and SelectMAP).
//!
//! Virtex-II exposes two byte-wide write paths into configuration memory:
//!
//! * **ICAP** — the Internal Configuration Access Port, reachable from the
//!   FPGA's own logic. Used by the paper's case (a): *standalone self
//!   reconfiguration*, where the static part drives ICAP itself.
//! * **SelectMAP** — the external byte-parallel port, clocked by the board.
//!   Used by case (b): an external processor performs the reconfiguration.
//!
//! The port itself is rarely the bottleneck: the paper's §6 system streams
//! bitstreams from *external memory* through the protocol builder, and the
//! observed ≈ 4 ms for a ≈ 50 KB module corresponds to an effective
//! throughput of ≈ 12.5 MB/s — a quarter of the port's raw 50 MB/s. The
//! [`PortProfile::paper_calibrated`] profile models this as 4 port-clock
//! cycles per byte (memory address + read + handshake), which lands the
//! reproduction on the paper's number without touching the raw port spec.

use crate::time::TimePs;
use serde::Serialize;

/// Which physical port a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PortKind {
    /// Internal Configuration Access Port (driven from FPGA logic).
    Icap,
    /// External byte-parallel SelectMAP port (driven by a processor/CPLD).
    SelectMap,
}

/// A configuration-port timing profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct PortProfile {
    /// Physical port modeled.
    pub kind: PortKind,
    /// Data width in bits (Virtex-II: 8).
    pub data_width_bits: u32,
    /// Port clock frequency in Hz.
    pub clock_hz: u64,
    /// Port-clock cycles consumed per *beat* (one `data_width_bits` transfer).
    /// 1 = the port is fed at line rate; >1 models upstream stalls (external
    /// memory reads, protocol-builder handshakes).
    pub cycles_per_beat: u64,
    /// Fixed per-transfer setup time (sync, command phase, startup of the
    /// memory reader).
    pub setup: TimePs,
}

impl PortProfile {
    /// Raw Virtex-II ICAP: 8 bits @ 50 MHz, fed at line rate.
    pub fn icap_virtex2() -> Self {
        PortProfile {
            kind: PortKind::Icap,
            data_width_bits: 8,
            clock_hz: 50_000_000,
            cycles_per_beat: 1,
            setup: TimePs::from_us(5),
        }
    }

    /// Raw SelectMAP: 8 bits @ 50 MHz, fed at line rate.
    pub fn selectmap_virtex2() -> Self {
        PortProfile {
            kind: PortKind::SelectMap,
            data_width_bits: 8,
            clock_hz: 50_000_000,
            cycles_per_beat: 1,
            setup: TimePs::from_us(5),
        }
    }

    /// The paper-calibrated chain: ICAP fed from external memory through the
    /// protocol builder at 4 cycles/byte — reproduces the reported ≈ 4 ms
    /// for the ≈ 8 % XC2V2000 module.
    pub fn paper_calibrated() -> Self {
        PortProfile {
            kind: PortKind::Icap,
            data_width_bits: 8,
            clock_hz: 50_000_000,
            cycles_per_beat: 4,
            setup: TimePs::from_us(10),
        }
    }

    /// The paper's case (b) chain: SelectMAP driven by the DSP over the
    /// board bus — slower per byte (bus arbitration + DSP EMIF reads) and
    /// with a larger setup (interrupt latency handled separately by
    /// `pdr-rtr`).
    pub fn paper_selectmap_dsp() -> Self {
        PortProfile {
            kind: PortKind::SelectMap,
            data_width_bits: 8,
            clock_hz: 50_000_000,
            cycles_per_beat: 6,
            setup: TimePs::from_us(20),
        }
    }

    /// Beats needed to push `bytes` through the port.
    pub fn beats_for(&self, bytes: usize) -> u64 {
        let bits = bytes as u64 * 8;
        bits.div_ceil(self.data_width_bits as u64)
    }

    /// Total transfer time for `bytes`, including setup.
    pub fn transfer_time(&self, bytes: usize) -> TimePs {
        let cycles = self.beats_for(bytes) * self.cycles_per_beat;
        self.setup + TimePs::cycles_at(cycles, self.clock_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use crate::device::Device;
    use crate::region::ReconfigRegion;

    #[test]
    fn raw_icap_is_50_mb_per_sec() {
        let p = PortProfile::icap_virtex2();
        // 8-bit beats at 50 MHz, one cycle each: 50 MB take one second.
        assert_eq!(p.transfer_time(50_000_000) - p.setup, TimePs::from_secs(1));
    }

    #[test]
    fn paper_profile_reproduces_4ms() {
        // The paper: Op_Dyn occupies ~8 % of an XC2V2000 and takes "about
        // 4 ms" to reconfigure.
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 0xF00D);
        let t = PortProfile::paper_calibrated().transfer_time(bs.len_bytes());
        let ms = t.as_millis_f64();
        assert!((3.5..4.5).contains(&ms), "expected ≈4 ms, got {ms} ms");
    }

    #[test]
    fn raw_icap_is_faster_than_paper_chain() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 1);
        let raw = PortProfile::icap_virtex2().transfer_time(bs.len_bytes());
        let paper = PortProfile::paper_calibrated().transfer_time(bs.len_bytes());
        assert!(raw < paper);
        // Raw line rate: ~1 ms for ~50 KB.
        assert!((0.8..1.3).contains(&raw.as_millis_f64()));
    }

    #[test]
    fn dsp_chain_is_slowest() {
        let bytes = 50_000;
        let a = PortProfile::paper_calibrated().transfer_time(bytes);
        let b = PortProfile::paper_selectmap_dsp().transfer_time(bytes);
        assert!(b > a);
    }

    #[test]
    fn beats_round_up() {
        let p = PortProfile::icap_virtex2();
        assert_eq!(p.beats_for(0), 0);
        assert_eq!(p.beats_for(1), 1);
        assert_eq!(p.beats_for(100), 100);
        let wide = PortProfile {
            data_width_bits: 32,
            ..PortProfile::icap_virtex2()
        };
        assert_eq!(wide.beats_for(5), 2);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let p = PortProfile::paper_calibrated();
        let t1 = p.transfer_time(10_000) - p.setup;
        let t2 = p.transfer_time(20_000) - p.setup;
        assert_eq!(t2.as_ps(), 2 * t1.as_ps());
    }

    #[test]
    fn zero_bytes_costs_only_setup() {
        let p = PortProfile::icap_virtex2();
        assert_eq!(p.transfer_time(0), p.setup);
    }
}
