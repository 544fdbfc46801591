//! # pdr-adequation — the AAA adequation step
//!
//! §3 of the paper: *"Adequation consists in performing the mapping and
//! scheduling of the operations and data transfers onto the operators and
//! the communication media. It is carried out by a heuristic which takes
//! into account durations of computations and inter-component
//! communications. The result is a synchronized executive represented by a
//! macro-code for each vertex of the architecture."*
//!
//! This crate implements that step, plus the paper's runtime-reconfiguration
//! extensions (§4):
//!
//! * [`heuristic`] — a greedy list-scheduling heuristic (critical-path
//!   priorities, earliest-finish-time operator selection) producing a
//!   [`Mapping`] and a single-iteration [`Schedule`]. With
//!   [`AdequationOptions::reconfig_aware`] the cost model charges dynamic
//!   operators the *expected* reconfiguration penalty of conditioned
//!   operations, which is the paper's "heuristic needs additional
//!   developments to optimize time reconfiguration" made concrete;
//!   the oblivious variant is retained as the ablation baseline.
//! * [`trace`] — multi-iteration scheduling against a concrete selector
//!   trace (e.g. the per-OFDM-symbol modulation choices): inserts
//!   `Reconfigure` items whenever the active alternative of a conditioned
//!   operation changes on a dynamic operator, and models the paper's
//!   *configuration prefetching*: the bitstream fetch leg is overlapped
//!   with foregoing computation so only the port-load leg can stall the
//!   pipeline.
//! * [`executive`] — translation of a schedule into per-operator
//!   *macro-code* (the synchronized executive): `Compute` / `Send` /
//!   `Receive` / `Configure` instructions with rendezvous tags, which
//!   `pdr-codegen` turns into structural designs and `pdr-sim` interprets;
//!   `generate_executive_ir` emits the interned `pdr-ir` form in the same
//!   pass.
//!
//! The adequation result is dense. [`Mapping`] holds one operator id per
//! operation, because executive and §4 design generation read it once
//! per operation and edge. `finish_times` holds one time per operation.
//! Scheduled items share one `Arc<str>` name per function symbol, owned
//! by the [`AdequationIndex`], so recording a schedule allocates nothing
//! per item. The JSON of all three is what the map- and string-based
//! forms wrote.
//!
//! The parity oracles (reference schedulers) and the §7 annealing
//! ablation with its quality bounds live in `pdr-bench`.

pub mod error;
pub mod executive;
pub mod heuristic;
pub mod index;
pub mod mapping;
pub mod schedule;
pub mod trace;

pub use error::AdequationError;
pub use executive::{Executive, MacroInstr};
pub use heuristic::{
    adequate, adequate_with_index, evaluate_makespan, AdequationOptions, AdequationResult,
    EvalWorkspace,
};
pub use index::{AdequationIndex, WcetEntry};
pub use mapping::Mapping;
pub use schedule::{ItemKind, Schedule, ScheduledItem};
pub use trace::{schedule_trace, ReconfigSplit, TraceOptions, TraceResult, TraceStats};
