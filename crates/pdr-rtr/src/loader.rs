//! The device loader: functional fidelity for reconfigurations.
//!
//! The [`crate::engine::RtrEngine`] is a *timed* model; the
//! [`DeviceLoader`] is the matching *functional* model: it owns the
//! device's [`ConfigMemory`], applies each loaded bitstream to it, tracks
//! which module is physically resident per region, and supports
//! readback-verification after a load — catching any divergence between
//! what the timing model believes and what the fabric holds. `pdr-core`'s
//! verified simulation replays a run's reconfigurations through it.

use crate::error::RtrError;
use pdr_fabric::{Bitstream, ConfigMemory, Device, ReconfigRegion};
use std::collections::BTreeMap;

/// Loader statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoaderStats {
    /// Bitstreams applied.
    pub loads: u64,
    /// Readback verifications performed.
    pub verifications: u64,
    /// Verifications that failed (should stay zero).
    pub verify_failures: u64,
}

/// Applies bitstreams to a concrete configuration memory.
#[derive(Debug)]
pub struct DeviceLoader {
    memory: ConfigMemory,
    regions: BTreeMap<String, ReconfigRegion>,
    resident: BTreeMap<String, String>,
    /// Verify every load by readback-compare.
    pub verify_loads: bool,
    stats: LoaderStats,
}

impl DeviceLoader {
    /// Loader over a blank device.
    pub fn new(device: Device) -> Self {
        DeviceLoader {
            memory: ConfigMemory::new(device),
            regions: BTreeMap::new(),
            resident: BTreeMap::new(),
            verify_loads: true,
            stats: LoaderStats::default(),
        }
    }

    /// Register a reconfigurable region (from the floorplan).
    pub fn add_region(&mut self, region: ReconfigRegion) -> Result<(), RtrError> {
        region
            .validate_on(self.memory.device())
            .map_err(RtrError::Fabric)?;
        self.regions.insert(region.name.clone(), region);
        Ok(())
    }

    /// The module physically resident in `region`, if any.
    pub fn resident(&self, region: &str) -> Option<&str> {
        self.resident.get(region).map(String::as_str)
    }

    /// Statistics.
    pub fn stats(&self) -> LoaderStats {
        self.stats
    }

    /// Direct access to the configuration memory (diagnostics, tests).
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Apply `bs` as module `module` into `region`; verifies by readback
    /// when [`DeviceLoader::verify_loads`] is set.
    pub fn load(&mut self, region: &str, module: &str, bs: &Bitstream) -> Result<(), RtrError> {
        let r = self
            .regions
            .get(region)
            .ok_or_else(|| RtrError::UnknownModule(format!("region `{region}`")))?
            .clone();
        self.memory.apply(bs).map_err(RtrError::Fabric)?;
        self.stats.loads += 1;
        if self.verify_loads {
            self.stats.verifications += 1;
            let ok = self.memory.verify(&r, bs).map_err(RtrError::Fabric)?;
            if !ok {
                self.stats.verify_failures += 1;
                return Err(RtrError::Fabric(
                    pdr_fabric::FabricError::MalformedBitstream {
                        reason: format!("readback verification of `{module}` in `{region}` failed"),
                    },
                ));
            }
        }
        self.resident.insert(region.to_string(), module.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdr_fabric::PortProfile;

    fn setup() -> (Device, ReconfigRegion, Bitstream, Bitstream) {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let qpsk = Bitstream::partial_for_region(&d, &r, 1);
        let qam = Bitstream::partial_for_region(&d, &r, 2);
        (d, r, qpsk, qam)
    }

    #[test]
    fn load_verify_and_track_residency() {
        let (d, r, qpsk, qam) = setup();
        let mut loader = DeviceLoader::new(d);
        loader.add_region(r).unwrap();
        assert_eq!(loader.resident("op_dyn"), None);
        loader.load("op_dyn", "mod_qpsk", &qpsk).unwrap();
        assert_eq!(loader.resident("op_dyn"), Some("mod_qpsk"));
        loader.load("op_dyn", "mod_qam16", &qam).unwrap();
        assert_eq!(loader.resident("op_dyn"), Some("mod_qam16"));
        let s = loader.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.verifications, 2);
        assert_eq!(s.verify_failures, 0);
    }

    #[test]
    fn unknown_region_rejected() {
        let (d, _, qpsk, _) = setup();
        let mut loader = DeviceLoader::new(d);
        assert!(loader.load("ghost", "mod_qpsk", &qpsk).is_err());
    }

    #[test]
    fn readback_of_another_regions_stream_fails() {
        let (d, a, qpsk, _) = setup();
        let b = ReconfigRegion::new("other", 2, 4).unwrap();
        let mut loader = DeviceLoader::new(d);
        loader.add_region(a).unwrap();
        loader.add_region(b).unwrap();
        // `qpsk` writes the frames of `op_dyn`; reading back `other` finds
        // them blank.
        assert!(loader.load("other", "mod_qpsk", &qpsk).is_err());
        let s = loader.stats();
        assert_eq!((s.loads, s.verifications, s.verify_failures), (1, 1, 1));
        assert_eq!(loader.resident("other"), None);
    }

    #[test]
    fn wrong_device_stream_rejected() {
        let (_, r, ..) = setup();
        let other = Device::by_name("XC2V1000").unwrap();
        let foreign_region = ReconfigRegion::new("op_dyn", 10, 4).unwrap();
        let foreign = Bitstream::partial_for_region(&other, &foreign_region, 1);
        let mut loader = DeviceLoader::new(Device::xc2v2000());
        loader.add_region(r).unwrap();
        assert!(loader.load("op_dyn", "m", &foreign).is_err());
    }

    #[test]
    fn verification_can_be_disabled() {
        let (d, r, qpsk, _) = setup();
        let mut loader = DeviceLoader::new(d);
        loader.verify_loads = false;
        loader.add_region(r).unwrap();
        loader.load("op_dyn", "mod_qpsk", &qpsk).unwrap();
        assert_eq!(loader.stats().verifications, 0);
    }

    #[test]
    fn loader_composes_with_timing_model() {
        // The loader (what) and the port profile (how long) describe the
        // same event: applying the paper module functionally while the
        // timing model reports ~4 ms.
        let (d, r, qpsk, _) = setup();
        let t = PortProfile::paper_calibrated().transfer_time(qpsk.len_bytes());
        assert!((3.5..4.5).contains(&t.as_millis_f64()));
        let mut loader = DeviceLoader::new(d);
        loader.add_region(r.clone()).unwrap();
        loader.load("op_dyn", "mod_qpsk", &qpsk).unwrap();
        assert!(loader.memory().verify(&r, &qpsk).unwrap());
    }
}
