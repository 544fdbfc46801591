//! # pdr-codegen — automatic design generation
//!
//! §5 of the paper: once mapping and scheduling are done, *"macro-code is
//! automatically generated and each one must be translated. The translation
//! generates the VHDL code, both for the static and dynamic parts of a
//! FPGA"*, with dedicated processes for communication sequencing,
//! computation sequencing, operator behaviour, and buffer read/write phase
//! activation. The Xilinx Modular Design back-end then places and routes
//! each module separately and emits one bitstream per module.
//!
//! Vendor synthesis and Modular Design are unavailable to a Rust
//! reproduction, so this crate implements behaviourally-equivalent
//! substitutes:
//!
//! * [`design`] — the structural design model the translation produces:
//!   one [`design::EntityDesign`] per FPGA operator, composed of the four
//!   dedicated §5 processes, operator shells, inter-operator buffers, the
//!   configuration manager / protocol builder blocks, and (for dynamic
//!   modules) the generic reconfigurable wrapper with its `In_Reconf`
//!   lock-up signal and bus-macro pins;
//! * [`generate`] — macro-code → structural design translation;
//! * [`estimate`] — a deterministic, documented resource cost model over
//!   that structure (the synthesis analog). Its constants are calibrated so
//!   the Table 1 comparison lands where the paper's does: the generic shell
//!   makes each dynamic modulation *more* expensive than its fixed
//!   counterpart, with the gap amortizing across configurations;
//! * [`floorplan`] — the Modular Design analog: places dynamic modules into
//!   full-height regions (width ≥ 4 slices), allocates bus macros on the
//!   boundaries, and emits per-module partial bitstreams plus the static
//!   full bitstream;
//! * [`vhdl`] — a VHDL-flavoured text emitter for the generated entities
//!   (inspection and golden tests; nothing downstream parses it).

pub mod design;
pub mod error;
pub mod estimate;
pub mod floorplan;
pub mod generate;
pub mod ucf;
pub mod vhdl;

pub use design::{BufferSpec, DynamicModuleDesign, EntityDesign, ProcessKind, ProcessSpec};
pub use error::CodegenError;
pub use estimate::CostModel;
pub use floorplan::{FloorplanResult, Floorplanner};
pub use generate::{generate_design, GeneratedDesign};
