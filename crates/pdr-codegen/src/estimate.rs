//! The synthesis analog: a deterministic resource cost model.
//!
//! Vendor synthesis is replaced by a documented cost model over the
//! structural design of [`crate::design`]. Every constant is visible and
//! overridable, so Table 1 is a *function of the generated structure*, not
//! a hard-coded answer:
//!
//! * sequencer processes cost a base plus a per-state increment (a one-hot
//!   FSM with decode logic);
//! * buffers become distributed LUT-RAM below the BRAM threshold and block
//!   RAM above it;
//! * a dynamic module costs its wrapped function's bare footprint times the
//!   *generic-shell inflation factor* (§6: *"This overhead is due to the
//!   generic VHDL structure generation, based on the macro code
//!   description"*), plus the fixed shell (handshake, `In_Reconf`
//!   lock-up, configuration status), plus its bus macros (tristate
//!   buffers);
//! * the configuration manager and protocol builder cost fixed blocks in
//!   the static part (case-a architectures).

use crate::design::{DynamicModuleDesign, EntityDesign, ProcessKind};
use pdr_fabric::Resources;
use pdr_graph::Characterization;
use serde::{Deserialize, Serialize};

/// Bits of buffer below which distributed LUT-RAM is used.
pub const BRAM_THRESHOLD_BITS: u64 = 4_096;
/// Usable bits of one 18-Kbit block RAM.
pub const BRAM_BITS: u64 = 18_432;

/// The documented cost model (synthesis analog).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Base LUTs of any generated process.
    pub seq_base_luts: u32,
    /// LUTs per sequencer state.
    pub seq_luts_per_state: u32,
    /// FFs per sequencer state (one-hot register + handshakes).
    pub seq_ffs_per_state: u32,
    /// LUTs per 16 bits of LUT-RAM buffer.
    pub lutram_luts_per_16_bits: u32,
    /// Generic-shell inflation on a wrapped function's bare footprint.
    pub shell_inflation: f64,
    /// Fixed cost of the dynamic shell (handshake, status, `In_Reconf`).
    pub shell_base: Resources,
    /// Fixed cost of the configuration manager block.
    pub manager_block: Resources,
    /// Fixed cost of the protocol configuration builder block (incl. the
    /// ICAP interface).
    pub builder_block: Resources,
    /// Achieved slice packing (LUT/FF pairs per slice actually used).
    pub packing: f64,
    /// Width in bits of the physical static↔dynamic data link each
    /// direction (time-multiplexed over the bus macros).
    pub boundary_link_bits: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_base_luts: 24,
            seq_luts_per_state: 6,
            seq_ffs_per_state: 4,
            lutram_luts_per_16_bits: 1,
            shell_inflation: 1.30,
            shell_base: Resources::logic(0, 85, 95),
            manager_block: Resources::logic(0, 190, 160),
            builder_block: Resources::logic(0, 240, 210),
            packing: 0.80,
            boundary_link_bits: 32,
        }
    }
}

impl CostModel {
    /// Resources of one buffer of `bits`.
    pub fn buffer_cost(&self, bits: u64) -> Resources {
        if bits == 0 {
            return Resources::ZERO;
        }
        if bits <= BRAM_THRESHOLD_BITS {
            let luts = (bits.div_ceil(16) as u32) * self.lutram_luts_per_16_bits;
            // Ping-pong pointers + phase flags.
            Resources::from_lut_ff(luts + 8, 12, self.packing)
        } else {
            let brams = bits.div_ceil(BRAM_BITS) as u32;
            let mut r = Resources::from_lut_ff(16, 14, self.packing);
            r.brams = brams;
            r
        }
    }

    /// Resources of one generated process of `states` states.
    pub fn process_cost(&self, states: u32) -> Resources {
        let luts = self.seq_base_luts + states * self.seq_luts_per_state;
        let ffs = states * self.seq_ffs_per_state + 8;
        Resources::from_lut_ff(luts, ffs, self.packing)
    }

    /// Resources of a static entity: its processes, buffers, instantiated
    /// functions (bare footprints from the characterization), and — when
    /// `with_reconfig_blocks` — the manager + builder blocks.
    pub fn entity_cost(
        &self,
        entity: &EntityDesign,
        chars: &Characterization,
        with_reconfig_blocks: bool,
    ) -> Resources {
        let mut total = Resources::ZERO;
        for p in &entity.processes {
            total += match p.kind {
                ProcessKind::ConfigurationManager => self.pack(self.manager_block),
                ProcessKind::ProtocolBuilder => self.pack(self.builder_block),
                _ => self.process_cost(p.states),
            };
        }
        for b in &entity.buffers {
            total += self.buffer_cost(b.bits);
        }
        for f in &entity.functions {
            total += chars.resources(&f.function);
        }
        if with_reconfig_blocks
            && entity
                .processes
                .iter()
                .all(|p| p.kind != ProcessKind::ConfigurationManager)
        {
            total += self.pack(self.manager_block) + self.pack(self.builder_block);
        }
        total
    }

    /// Resources of one dynamic module: inflated wrapped function + fixed
    /// shell + shell process + bus-macro tristate buffers.
    pub fn module_cost(&self, module: &DynamicModuleDesign, bare: Resources) -> Resources {
        let inflated = Resources {
            slices: 0,
            luts: (bare.luts as f64 * self.shell_inflation).ceil() as u32,
            ffs: (bare.ffs as f64 * self.shell_inflation).ceil() as u32,
            brams: bare.brams,
            mults: bare.mults,
            tbufs: bare.tbufs,
        };
        let mut total = Resources::from_lut_ff(inflated.luts, inflated.ffs, self.packing);
        total.brams = inflated.brams;
        total.mults = inflated.mults;
        total += self.pack(self.shell_base);
        total += self.process_cost(module.shell.states);
        total.tbufs += module.bus_macro_count() * 8;
        total
    }

    /// Number of bus macros needed per direction for this model's boundary
    /// link (data + 8 control bits).
    pub fn bus_macros_per_direction(&self) -> u32 {
        (self.boundary_link_bits + 8).div_ceil(8)
    }

    /// Derive slice count from a raw LUT/FF block via the packing factor.
    fn pack(&self, r: Resources) -> Resources {
        let mut packed = Resources::from_lut_ff(r.luts, r.ffs, self.packing);
        packed.brams = r.brams;
        packed.mults = r.mults;
        packed.tbufs = r.tbufs;
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::ProcessSpec;

    fn model() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn buffer_cost_switches_to_bram() {
        let m = model();
        let small = m.buffer_cost(2_048);
        assert_eq!(small.brams, 0);
        assert!(small.luts > 100);
        let big = m.buffer_cost(8_192);
        assert_eq!(big.brams, 1);
        let bigger = m.buffer_cost(40_000);
        assert_eq!(bigger.brams, 3);
        assert!(m.buffer_cost(0).is_zero());
    }

    #[test]
    fn process_cost_grows_with_states() {
        let m = model();
        let a = m.process_cost(4);
        let b = m.process_cost(16);
        assert!(b.luts > a.luts);
        assert!(b.ffs > a.ffs);
        assert!(b.slices > a.slices);
    }

    #[test]
    fn module_cost_exceeds_bare_function() {
        // The Table 1 effect: dynamic > fixed for the same function.
        let m = model();
        let bare = Resources::logic(90, 150, 130);
        let module = DynamicModuleDesign {
            module: "mod_qpsk".into(),
            operation: "modulation".into(),
            region: "op_dyn".into(),
            in_bits: 258,
            out_bits: 2048,
            bus_macros_in: m.bus_macros_per_direction(),
            bus_macros_out: m.bus_macros_per_direction(),
            shell: ProcessSpec {
                name: "shell".into(),
                kind: ProcessKind::OperatorBehaviour,
                states: 4,
            },
            has_in_reconf: true,
        };
        let cost = m.module_cost(&module, bare);
        assert!(
            cost.slices > bare.slices,
            "{} !> {}",
            cost.slices,
            bare.slices
        );
        assert!(cost.luts > bare.luts);
        assert!(cost.tbufs >= 8 * 2 * m.bus_macros_per_direction());
    }

    #[test]
    fn bus_macros_per_direction_covers_link_plus_control() {
        let m = model();
        // 32 data + 8 control = 40 bits = 5 macros.
        assert_eq!(m.bus_macros_per_direction(), 5);
        let wide = CostModel {
            boundary_link_bits: 64,
            ..model()
        };
        assert_eq!(wide.bus_macros_per_direction(), 9);
    }

    #[test]
    fn entity_cost_includes_reconfig_blocks_once() {
        let chars = Characterization::new();
        let mut e = EntityDesign::new("fpga_static");
        e.processes.push(ProcessSpec {
            name: "comp".into(),
            kind: ProcessKind::ComputationSequencer,
            states: 6,
        });
        let m = model();
        let without = m.entity_cost(&e, &chars, false);
        let with = m.entity_cost(&e, &chars, true);
        assert!(with.slices > without.slices);
        // Explicit manager process suppresses the implicit addition.
        e.processes.push(ProcessSpec {
            name: "mgr".into(),
            kind: ProcessKind::ConfigurationManager,
            states: 0,
        });
        e.processes.push(ProcessSpec {
            name: "pb".into(),
            kind: ProcessKind::ProtocolBuilder,
            states: 0,
        });
        let explicit = m.entity_cost(&e, &chars, true);
        assert_eq!(explicit, m.entity_cost(&e, &chars, false));
    }
}
