//! # pdr-graph — AAA (Adequation Algorithm Architecture) front-end
//!
//! The paper's methodology starts from two graphs, in the style of the
//! SynDEx tool:
//!
//! * an **algorithm graph** ([`algorithm`]): a data-flow graph of operations
//!   and typed data dependencies, executed "as soon as inputs are available,
//!   and infinitely repeated" (§3). Conditioned operations — the paper's
//!   adaptive `modulation` block selected by the `Select` entry — are
//!   first-class: one vertex with several *alternative* implementations, of
//!   which exactly one is active per iteration.
//! * an **architecture graph** ([`architecture`]): operator vertices
//!   (DSPs, the FPGA static part, FPGA *dynamic* parts) and media vertices
//!   (board buses, the internal link between static and dynamic parts),
//!   exactly the Fig. 1 model where runtime-reconfigurable parts of a
//!   component appear as hardware operators of their own.
//!
//! Between them sit:
//!
//! * **characterization** tables ([`characterization`]): durations of each
//!   (operation, operator) pair, transfer costs per medium, per-alternative
//!   resource footprints and reconfiguration times — the metrics §3 lists as
//!   partitioning guides;
//! * the **constraints file** ([`constraints`]): per-dynamic-module loading /
//!   unloading / area-sharing / exclusion constraints (§4), with a plain-text
//!   round-trippable format;
//! * [`paper`]: ready-made builders for the paper's Fig. 1 architecture and
//!   the Fig. 4 MC-CDMA transmitter graphs, used by tests, examples and the
//!   experiment harness.
//!
//! Graphs are flat, as the flow consumes them: each is built vertex by
//! vertex, with no hierarchical refinement or export format of its own.
//!
//! ## Example: the Fig. 1 model in five lines
//!
//! ```
//! use pdr_graph::{ArchGraph, GraphError, MediumKind, OperatorKind};
//! use pdr_fabric::TimePs;
//!
//! let mut arch = ArchGraph::new("fig1");
//! let f1 = arch.add_operator("F1", OperatorKind::FpgaStatic)?;
//! let d1 = arch.add_operator("D1", OperatorKind::FpgaDynamic { host: "F1".into() })?;
//! let il = arch.add_medium("IL", MediumKind::InternalLink, 800_000_000, TimePs::from_ns(40))?;
//! arch.link(f1, il)?;
//! arch.link(d1, il)?;
//! assert_eq!(arch.route(f1, d1)?.hops(), 1);
//! # Ok::<(), GraphError>(())
//! ```

pub mod algorithm;
pub mod architecture;
pub mod characterization;
pub mod constraints;
pub mod error;
pub mod paper;

pub use algorithm::{AlgorithmGraph, DataEdge, OpId, OpKind, Operation};
pub use architecture::{
    ArchGraph, Medium, MediumId, MediumKind, Operator, OperatorId, OperatorKind, Route,
};
pub use characterization::Characterization;
pub use constraints::{ConstraintsFile, LoadPolicy, ModuleConstraints, UnloadPolicy};
pub use error::GraphError;
