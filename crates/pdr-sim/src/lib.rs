//! # pdr-sim — discrete-event simulation of reconfigurable systems
//!
//! The paper validates its flow by running the generated design on a real
//! Sundance board. The reproduction's board is this crate: a
//! discrete-event simulator that
//!
//! * interprets each operator's **synchronized executive** (the macro-code
//!   of `pdr-adequation`) instruction by instruction,
//! * resolves **Send/Receive rendezvous** over shared media with the
//!   architecture graph's bandwidth/latency characteristics and
//!   first-come-first-served contention,
//! * services **Configure** instructions through one runtime model per
//!   interpreter — the production [`IrSimSystem`] drives a single `pdr-rtr`
//!   [`RtrEngine`](pdr_rtr::RtrEngine) serving every dynamic region, the
//!   string [`SimSystem`] (the differential oracle) a reference
//!   [`ConfigurationManager`](pdr_rtr::ConfigurationManager) per region —
//!   including staging-cache hits and prefetching — and asserts
//!   the `In_Reconf` lock-up for the duration (§6: the static interface's
//!   receive process is locked up during partial reconfigurations),
//! * repeats the executive for a configurable number of iterations with a
//!   per-iteration **module selection** (the DSP writing the `Select`
//!   register),
//! * and reports makespan, utilization, reconfiguration events and stalls
//!   ([`report::SimReport`]).
//!
//! The engine ([`engine`]) is a classic time-ordered event queue with
//! deterministic tie-breaking; both interpreters ([`ir`], [`system`])
//! build on it.

pub mod engine;
pub mod error;
pub mod gantt;
pub mod ir;
pub mod report;
pub mod system;

pub use engine::EventQueue;
pub use error::SimError;
pub use ir::IrSimSystem;
pub use report::{ReconfigEvent, SimReport, TraceEvent, TraceKind};
pub use system::{SimConfig, SimSystem};
