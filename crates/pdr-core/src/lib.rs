//! # pdr-core — the complete top-down design flow
//!
//! This crate is the paper's Figure 3 as one API: *"By using SynDEx tool
//! and Xilinx Modular Design flow, we define a top-down and validated
//! methodology addressing the complete design flow."*
//!
//! ```text
//! Modelisation (graphs, constraints)          pdr-graph
//!        │ adequation                         pdr-adequation
//!        ▼
//! macro-code (synchronized executive)
//!        │ VHDL generation + constraints file pdr-codegen
//!        ▼
//! structural design
//!        │ Modular Design analog (floorplan,
//!        │ place, bitgen)                     pdr-codegen + pdr-fabric
//!        ▼
//! bitstreams + floorplan
//!        │ deploy                              pdr-rtr + pdr-sim
//!        ▼
//! running system (DES) with runtime reconfiguration manager
//! ```
//!
//! * [`flow`] — [`DesignFlow`]: one builder that runs the whole pipeline
//!   and returns every intermediate artifact ([`FlowArtifacts`]);
//!   [`DesignFlow::verify`] statically analyzes those artifacts with
//!   `pdr-lint` (rendezvous, deadlock, reconfiguration safety, floorplan)
//!   and [`DesignFlow::run_verified`] gates on a clean report;
//! * [`gallery`] — named, ready-to-run example flows (the §6 case-study
//!   variants plus two-region designs) shared by the `pdr-lint` CLI,
//!   ci.sh and the lint regression suite;
//! * [`deploy`] — turn artifacts into a runnable [`deploy::DeployedSystem`]
//!   (configuration managers built from the generated bitstreams, port and
//!   memory models chosen per Fig. 2 variant) and simulate it;
//! * [`paper`] — the §6 case study pre-assembled: the MC-CDMA transmitter
//!   on the Sundance DSP + XC2V2000 platform, plus helpers to turn an SNR
//!   trace into per-iteration module selections via the adaptive policy.
//!
//! ## Quickstart
//!
//! ```
//! use pdr_core::paper::PaperCaseStudy;
//!
//! let study = PaperCaseStudy::build().expect("flow runs");
//! // The dynamic region is ~8 % of the device and reconfigures in ~4 ms.
//! let frac = study.artifacts.design.floorplan.floorplan.dynamic_fraction();
//! assert!((frac - 0.083).abs() < 0.01);
//! ```

pub mod deploy;
pub mod error;
pub mod flow;
pub mod gallery;
pub mod paper;

pub use deploy::{DeployedSystem, EvictionChoice, RuntimeOptions};
pub use error::FlowError;
pub use flow::{DesignFlow, FlowArtifacts};
