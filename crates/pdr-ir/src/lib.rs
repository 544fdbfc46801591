//! # pdr-ir — interned-symbol intermediate representation
//!
//! The flow's artifact chain (graphs → synchronized executive →
//! design/floorplan → runtime) originally handed owned `String` names
//! from stage to stage; the hot interpreter loop cloned heap strings per
//! executed instruction. This crate provides the shared substrate that
//! removes those allocations:
//!
//! * [`SymbolTable`] / [`Sym`] — an append-only string interner with
//!   copyable 4-byte handles ([`symbol`]);
//! * [`OpId`], [`OperatorId`], [`MediumId`], [`ModuleId`] — typed
//!   wrappers so different name spaces cannot be mixed ([`ids`]);
//! * [`IrExecutive`] / [`IrInstr`] — the lowered executive: flat
//!   instruction arrays, dense per-executive `u32` refs, no owned
//!   strings ([`executive`]).
//!
//! `pdr-graph` interns names at graph construction, `pdr-adequation`
//! builds the [`IrExecutive`] from those ids in the same pass that
//! builds its string `Executive` (whose `lower` stays as the parity
//! oracle), `pdr-sim` interprets the lowered form allocation-free, and
//! `pdr-lint` renders diagnostics back through the table — byte-identical
//! to the string pipeline, which stays as the human-readable golden
//! surface.

pub mod executive;
pub mod ids;
pub mod symbol;

pub use executive::{IrBuilder, IrExecutive, IrInstr, IrStream, MediumRef, PeerRef};
pub use ids::{MediumId, ModuleId, OpId, OperatorId};
pub use symbol::{Sym, SymbolTable};
