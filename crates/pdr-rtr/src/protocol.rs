//! The protocol configuration builder.
//!
//! §5: the builder *"is in charge to construct a valid reconfiguration
//! stream in agreement with the used protocol mode (e.g. selectmap)"*.
//! Concretely it:
//!
//! 1. validates the stored stream (structure + CRC) for the target device,
//! 2. checks the stream actually targets the requested region,
//! 3. packetizes it into port beats and reports the exact load time for the
//!    configured [`PortProfile`].
//!
//! The builder is stateless across requests; per-request work is returned as
//! a [`LoadPlan`] that the manager (and the DES simulator) consume.

use crate::error::RtrError;
use pdr_fabric::{Bitstream, BitstreamKind, Device, PortProfile, TimePs};
use serde::{Deserialize, Serialize};

/// A validated, timed plan to push one bitstream through a port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadPlan {
    /// Module being configured.
    pub module: String,
    /// Stream length in bytes.
    pub bytes: usize,
    /// Port beats required.
    pub beats: u64,
    /// Total port time (setup + beats).
    pub load_time: TimePs,
}

/// The protocol configuration builder for one device + port pairing.
#[derive(Debug, Clone)]
pub struct ProtocolBuilder {
    device: Device,
    port: PortProfile,
}

impl ProtocolBuilder {
    /// Builder for `device` driving `port`.
    pub fn new(device: Device, port: PortProfile) -> Self {
        ProtocolBuilder { device, port }
    }

    /// The port profile in use.
    pub fn port(&self) -> &PortProfile {
        &self.port
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Build the load plan for `module`'s bitstream targeting `region`.
    pub fn plan(&self, module: &str, region: &str, bs: &Bitstream) -> Result<LoadPlan, RtrError> {
        bs.check_device(&self.device)?;
        match &bs.kind {
            BitstreamKind::Partial { region: built_for } if built_for != region => {
                return Err(RtrError::RegionMismatch {
                    module: module.to_string(),
                    built_for: built_for.clone(),
                    requested: region.to_string(),
                });
            }
            _ => {}
        }
        bs.validate(&self.device)?;
        let bytes = bs.len_bytes();
        Ok(LoadPlan {
            module: module.to_string(),
            bytes,
            beats: self.port.beats_for(bytes),
            load_time: self.port.transfer_time(bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::ReconfigRegion;

    fn setup() -> (Device, ReconfigRegion, Bitstream) {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 0xABCD);
        (d, r, bs)
    }

    #[test]
    fn plan_reports_exact_load_time() {
        let (d, _, bs) = setup();
        let pb = ProtocolBuilder::new(d, PortProfile::icap_virtex2());
        let plan = pb.plan("mod_qpsk", "op_dyn", &bs).unwrap();
        assert_eq!(plan.bytes, bs.len_bytes());
        assert_eq!(plan.beats, bs.len_bytes() as u64);
        assert_eq!(plan.load_time, pb.port().transfer_time(bs.len_bytes()));
        // Raw ICAP: ~1 ms for the paper module.
        assert!((0.8..1.3).contains(&plan.load_time.as_millis_f64()));
    }

    #[test]
    fn region_mismatch_rejected() {
        let (d, _, bs) = setup();
        let pb = ProtocolBuilder::new(d, PortProfile::icap_virtex2());
        let err = pb.plan("mod_qpsk", "other_region", &bs).unwrap_err();
        assert!(matches!(err, RtrError::RegionMismatch { .. }));
    }

    #[test]
    fn device_mismatch_rejected() {
        let (_, _, bs) = setup();
        let other = Device::by_name("XC2V1000").unwrap();
        let pb = ProtocolBuilder::new(other, PortProfile::icap_virtex2());
        assert!(pb.plan("m", "op_dyn", &bs).is_err());
    }

    #[test]
    fn full_streams_load_on_any_region_request() {
        // Full-device streams are not region-bound.
        let d = Device::xc2v2000();
        let full = Bitstream::full_for_device(&d, 7);
        let pb = ProtocolBuilder::new(d, PortProfile::selectmap_virtex2());
        assert!(pb.plan("boot", "whatever", &full).is_ok());
    }
}
