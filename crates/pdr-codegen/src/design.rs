//! The structural design model produced by macro-code translation.
//!
//! §5 lists the dedicated processes the generated VHDL contains, to control
//! *"communication sequencings, computation sequencings, operator
//! behaviour, activation of reading and writing phases of buffers"*. The
//! model below mirrors that structure one-to-one so the resource estimator
//! can price exactly what the generator emits:
//!
//! * [`ProcessSpec`] — one generated process with a complexity measure
//!   (number of sequencer states ≈ macro-instructions it steps through);
//! * [`BufferSpec`] — an inter-operation buffer with its width;
//! * [`EntityDesign`] — a static-part entity: processes + buffers +
//!   instantiated operator functions (+ manager/builder blocks);
//! * [`DynamicModuleDesign`] — one reconfigurable module: the wrapped
//!   function, the generic shell, `In_Reconf` lock-up, and bus-macro pins.

use serde::{Deserialize, Serialize};

/// The four dedicated process kinds of §5, plus the reconfiguration blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessKind {
    /// Sequences sends/receives on one medium interface.
    CommunicationSequencer,
    /// Sequences operator computations.
    ComputationSequencer,
    /// The behaviour of one operator function instance.
    OperatorBehaviour,
    /// Activates read/write phases of one buffer.
    BufferControl,
    /// The configuration manager state machine (case-a static parts).
    ConfigurationManager,
    /// The protocol configuration builder (case-a static parts).
    ProtocolBuilder,
}

/// One generated process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessSpec {
    /// Process name, e.g. `"comm_seq_shb"`.
    pub name: String,
    /// Kind.
    pub kind: ProcessKind,
    /// Sequencer states / instruction count — the complexity measure the
    /// estimator prices.
    pub states: u32,
}

/// One inter-operation buffer (ping-pong, per §5's read/write phases).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferSpec {
    /// Buffer name, e.g. `"buf_fec_conv_to_modulation"`.
    pub name: String,
    /// Payload bits buffered per iteration.
    pub bits: u64,
}

/// One instantiated operator function inside a static entity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionInstance {
    /// Function symbol (characterization key).
    pub function: String,
    /// Operation it implements (diagnostic).
    pub operation: String,
}

/// A generated entity for one FPGA operator's static logic.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EntityDesign {
    /// Entity name (operator name).
    pub name: String,
    /// Generated processes.
    pub processes: Vec<ProcessSpec>,
    /// Buffers.
    pub buffers: Vec<BufferSpec>,
    /// Instantiated functions.
    pub functions: Vec<FunctionInstance>,
}

impl EntityDesign {
    /// New empty entity.
    pub fn new(name: impl Into<String>) -> Self {
        EntityDesign {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Count of processes of a kind.
    pub fn process_count(&self, kind: ProcessKind) -> usize {
        self.processes.iter().filter(|p| p.kind == kind).count()
    }
}

/// A generated reconfigurable module (one alternative of a conditioned
/// operation, wrapped in the generic dynamic shell).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynamicModuleDesign {
    /// Module (function) name, e.g. `"mod_qam16"`.
    pub module: String,
    /// Conditioned operation it implements.
    pub operation: String,
    /// Region (dynamic operator) it targets.
    pub region: String,
    /// Input bits crossing the boundary per iteration.
    pub in_bits: u64,
    /// Output bits crossing the boundary per iteration.
    pub out_bits: u64,
    /// Bus macros into the region (8 bits each).
    pub bus_macros_in: u32,
    /// Bus macros out of the region.
    pub bus_macros_out: u32,
    /// The wrapped function's shell process (the "generic VHDL structure"
    /// whose overhead Table 1 measures).
    pub shell: ProcessSpec,
    /// True when the module carries the `In_Reconf` lock-up signal to the
    /// static interface (§6: receiving can be locked up during partial
    /// reconfigurations).
    pub has_in_reconf: bool,
}

impl DynamicModuleDesign {
    /// Total bus macros of the module.
    pub fn bus_macro_count(&self) -> u32 {
        self.bus_macros_in + self.bus_macros_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_aggregations() {
        let mut e = EntityDesign::new("fpga_static");
        e.processes.push(ProcessSpec {
            name: "comm_seq_shb".into(),
            kind: ProcessKind::CommunicationSequencer,
            states: 6,
        });
        e.processes.push(ProcessSpec {
            name: "comm_seq_lio".into(),
            kind: ProcessKind::CommunicationSequencer,
            states: 4,
        });
        e.processes.push(ProcessSpec {
            name: "comp_seq".into(),
            kind: ProcessKind::ComputationSequencer,
            states: 8,
        });
        assert_eq!(e.process_count(ProcessKind::CommunicationSequencer), 2);
    }

    #[test]
    fn module_bus_macro_count() {
        let m = DynamicModuleDesign {
            module: "mod_qpsk".into(),
            operation: "modulation".into(),
            region: "op_dyn".into(),
            in_bits: 258,
            out_bits: 2048,
            bus_macros_in: 33,
            bus_macros_out: 256,
            shell: ProcessSpec {
                name: "shell_mod_qpsk".into(),
                kind: ProcessKind::OperatorBehaviour,
                states: 4,
            },
            has_in_reconf: true,
        };
        assert_eq!(m.bus_macro_count(), 289);
    }
}
