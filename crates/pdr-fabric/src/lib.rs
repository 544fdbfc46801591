//! # pdr-fabric — Virtex-II-class FPGA fabric substrate
//!
//! This crate is the hardware substrate of the `pdr` workspace. The paper
//! (Berthelot et al., IPDPS 2006) targets a Xilinx Virtex-II XC2V2000 and the
//! vendor Modular Design flow; neither the silicon nor the tools are available
//! to a Rust reproduction, so this crate models the parts of the device that
//! the paper's evaluation actually depends on:
//!
//! * **Geometry** ([`device`]): CLB array, slices, LUTs/FFs, BRAM columns —
//!   the denominators of Table 1 and of the "8 % of the FPGA" region size.
//! * **Configuration frames** ([`frame`]): the atomic unit of (re)configuration.
//!   Partial-reconfiguration latency in Virtex-II is a pure function of the
//!   number of frames transferred and the configuration-port bandwidth, so a
//!   frame-accurate model reproduces the paper's latency arithmetic
//!   (≈ 8 % of an XC2V2000 ↔ ≈ 4 ms).
//! * **Reconfigurable regions** ([`region`]): full-device-height column ranges
//!   of minimum width four slices, exactly the constraints §5 of the paper
//!   imposes on dynamic modules.
//! * **Bus macros** ([`busmacro`]): the fixed-routing, eight-tristate-buffer
//!   bridges that straddle the static/dynamic boundary.
//! * **Bitstreams** ([`bitstream`]): packetized full/partial configuration
//!   streams (SYNC / FAR / FDRI / CRC) with exact size accounting.
//! * **Configuration ports** ([`port`]): ICAP and SelectMAP timing models,
//!   including the paper-calibrated profile in which throughput is limited by
//!   the external bitstream memory rather than the port itself.
//! * **Content digests** ([`digest`]): the canonical FNV-1a hasher behind
//!   every content address in the workspace (artifact digests, the
//!   server's result cache, sweep outcome digests), beside the bitstream
//!   layer's `SplitMix64` and `Crc32`.
//! * **Time base** ([`time`]): picosecond-resolution simulation time shared by
//!   the runtime ([`pdr-rtr`](https://docs.rs/pdr-rtr)) and the simulator.
//!
//! ## Quick example
//!
//! ```
//! use pdr_fabric::{Bitstream, Device, PortProfile, ReconfigRegion};
//!
//! let dev = Device::xc2v2000();
//! // A dynamic region 4 CLB columns wide (the paper's ~8 % module).
//! let region = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
//! assert!((region.area_fraction(&dev) - 0.0833).abs() < 0.01);
//!
//! let bs = Bitstream::partial_for_region(&dev, &region, 0xD15C_0DE5);
//! let port = PortProfile::paper_calibrated();
//! let t = port.transfer_time(bs.len_bytes());
//! // ≈ 4 ms, the number reported in §6 of the paper.
//! assert!(t.as_millis_f64() > 3.0 && t.as_millis_f64() < 5.0);
//! ```

pub mod bitstream;
pub mod busmacro;
pub mod compress;
pub mod config_mem;
pub mod device;
pub mod digest;
pub mod error;
pub mod family;
pub mod frame;
pub mod port;
pub mod region;
pub mod resources;
pub mod time;

pub use bitstream::{Bitstream, BitstreamKind, Packet};
pub use busmacro::{BusMacro, BusMacroDirection};
pub use config_mem::ConfigMemory;
pub use device::{ColumnKind, Device, DeviceFamily};
pub use error::FabricError;
pub use family::{FabricCapabilities, Series7Fabric, VirtexIiFabric, S7_CLOCK_REGION_ROWS};
pub use frame::{BlockType, FrameAddress, FrameCounts};
pub use port::{PortKind, PortProfile};
pub use region::{Floorplan, ReconfigRegion, RowSpan, MIN_REGION_CLB_COLS};
pub use resources::Resources;
pub use time::TimePs;
