//! Configuration memory: the actual state an FPGA holds.
//!
//! The timing models in [`crate::port`] answer *how long* a
//! reconfiguration takes; this module answers *what it does*: a
//! [`ConfigMemory`] stores one word per (frame, offset) of the device,
//! [`ConfigMemory::apply`] plays a bitstream's packets into it exactly the
//! way the configuration logic would (FAR sets the address, FDRI streams
//! frames with auto-increment), and [`ConfigMemory::readback`] re-extracts
//! a region's frames — the Virtex-II readback path, which the runtime can
//! use to *verify* a load (a capability the paper's platform has but its
//! flow does not exercise; the reproduction implements it as the natural
//! completion of the substrate).

use crate::bitstream::{Bitstream, Packet};
use crate::device::{ColumnKind, Device};
use crate::error::FabricError;
use crate::frame::FrameAddress;
use crate::region::ReconfigRegion;

/// The configuration memory of one device instance.
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    device: Device,
    /// Frame-major storage: `frames[frame][word]`.
    frames: Vec<Vec<u32>>,
    words_per_frame: usize,
    /// Total frames applied since power-up (diagnostics).
    frames_written: u64,
}

impl ConfigMemory {
    /// Blank (power-up) configuration memory for `device`.
    pub fn new(device: Device) -> Self {
        let total = device.total_frames() as usize;
        let wpf = device.words_per_frame() as usize;
        ConfigMemory {
            device,
            frames: vec![vec![0u32; wpf]; total],
            words_per_frame: wpf,
            frames_written: 0,
        }
    }

    /// The device this memory belongs to.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Frames written since power-up.
    pub fn frames_written(&self) -> u64 {
        self.frames_written
    }

    /// Linearize a frame address into an index of the frame store.
    ///
    /// The major address is interpreted as the starting CLB column scaled
    /// by the family's per-column CLB frame stride (22 on Virtex-II, 36 on
    /// series7-like); on series7-like the clock-region row additionally
    /// selects a row-sized segment. This matches how
    /// [`Bitstream::partial_for_region`] addresses regions.
    fn linear_frame(&self, addr: &FrameAddress) -> usize {
        let clb_stride = self.device.table().column_frames(ColumnKind::Clb) as usize;
        let per_row = self.frames.len() / self.device.clock_regions() as usize;
        addr.row as usize * per_row + addr.major as usize * clb_stride + addr.minor as usize
    }

    /// Apply a bitstream: plays SYNC/FAR/FDRI packets into the frame
    /// store, FAR setting the address and FDRI streaming frames with
    /// auto-increment.
    pub fn apply(&mut self, bs: &Bitstream) -> Result<(), FabricError> {
        bs.check_device(&self.device)?;
        let mut cursor: Option<usize> = None;
        let mut synced = false;
        for p in bs.packets() {
            match p {
                Packet::Sync => synced = true,
                Packet::Cmd(_) => {}
                Packet::Far(addr) => {
                    if !synced {
                        return Err(FabricError::MalformedBitstream {
                            reason: "FAR before sync word".into(),
                        });
                    }
                    let frame = self.linear_frame(addr);
                    if frame >= self.frames.len() {
                        return Err(FabricError::MalformedBitstream {
                            reason: format!(
                                "frame address {frame} outside device ({} frames)",
                                self.frames.len()
                            ),
                        });
                    }
                    cursor = Some(frame);
                }
                Packet::Fdri(words) => {
                    let Some(start) = cursor else {
                        return Err(FabricError::MalformedBitstream {
                            reason: "FDRI without a preceding FAR".into(),
                        });
                    };
                    if words.len() % self.words_per_frame != 0 {
                        return Err(FabricError::MalformedBitstream {
                            reason: format!(
                                "FDRI payload {} words is not frame-aligned ({})",
                                words.len(),
                                self.words_per_frame
                            ),
                        });
                    }
                    let nframes = words.len() / self.words_per_frame;
                    if start + nframes > self.frames.len() {
                        return Err(FabricError::MalformedBitstream {
                            reason: format!(
                                "write of {nframes} frames at {start} overruns the device"
                            ),
                        });
                    }
                    for (i, chunk) in words.chunks_exact(self.words_per_frame).enumerate() {
                        self.frames[start + i].copy_from_slice(chunk);
                        self.frames_written += 1;
                    }
                    cursor = Some(start + nframes);
                }
                Packet::Crc(_) => {}
            }
        }
        if !synced {
            return Err(FabricError::MalformedBitstream {
                reason: "stream never synchronized".into(),
            });
        }
        Ok(())
    }

    /// Read back the frames a region occupies (address-ordered words).
    ///
    /// On Virtex-II this is the region's CLB-column window of the single
    /// configuration row; on series7-like it walks each clock-region row
    /// of the rectangle, reading the full per-row window (including
    /// embedded columns) that [`ConfigMemory::apply`] wrote.
    pub fn readback(&self, region: &ReconfigRegion) -> Result<Vec<u32>, FabricError> {
        region.validate_on(&self.device)?;
        let table = self.device.table();
        let clb_stride = table.column_frames(ColumnKind::Clb) as usize;
        let (row_windows, nframes) = if table.regions_2d {
            let cr_rows = table.row_height(&self.device);
            let per_row = self.frames.len() / self.device.clock_regions() as usize;
            let (row_start, row_count) = region.rows_on(&self.device);
            let nframes = table.window_frames(
                &self.device,
                region.clb_col_start,
                region.clb_col_width,
                cr_rows,
            ) as usize;
            let windows: Vec<usize> = (row_start / cr_rows..(row_start + row_count) / cr_rows)
                .map(|r| r as usize * per_row + region.clb_col_start as usize * clb_stride)
                .collect();
            (windows, nframes)
        } else {
            // Not the one-row case of the branch above: this reads only
            // the window's CLB frames, that one reads `window_frames`,
            // embedded BRAM/GCLK columns included. The two differ on
            // 13 185 of the 15 177 interior windows of the Virtex-II
            // catalog, so merging them would change what `verify`
            // compares; ROADMAP item 8 (frame-level stream checks) owns
            // that change.
            let start = region.clb_col_start as usize * clb_stride;
            let nframes = region.clb_col_width as usize * clb_stride;
            (vec![start], nframes)
        };
        if row_windows
            .iter()
            .any(|&start| start + nframes > self.frames.len())
        {
            return Err(FabricError::InvalidRegion {
                name: region.name.clone(),
                reason: "readback window exceeds configuration memory".into(),
            });
        }
        let mut out = Vec::with_capacity(row_windows.len() * nframes * self.words_per_frame);
        for start in row_windows {
            for f in &self.frames[start..start + nframes] {
                out.extend_from_slice(f);
            }
        }
        Ok(out)
    }

    /// Verify that `region` currently holds the configuration of `bs`
    /// (readback-compare, ignoring frames the stream did not write).
    pub fn verify(&self, region: &ReconfigRegion, bs: &Bitstream) -> Result<bool, FabricError> {
        bs.check_device(&self.device)?;
        let readback = self.readback(region)?;
        // Extract the stream's FDRI payload.
        let payload: Vec<u32> = bs
            .packets()
            .iter()
            .filter_map(|p| match p {
                Packet::Fdri(w) => Some(w.as_slice()),
                _ => None,
            })
            .flatten()
            .copied()
            .collect();
        // The CLB frames of the region prefix the readback; the stream may
        // carry extra frames (embedded columns) beyond the pure-CLB window.
        let n = payload.len().min(readback.len());
        Ok(payload[..n] == readback[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Device, ReconfigRegion, ReconfigRegion) {
        let d = Device::xc2v2000();
        let a = ReconfigRegion::new("a", 2, 4).unwrap();
        let b = ReconfigRegion::new("b", 10, 4).unwrap();
        (d, a, b)
    }

    #[test]
    fn apply_then_verify() {
        let (d, a, _) = setup();
        let mut mem = ConfigMemory::new(d.clone());
        let bs = Bitstream::partial_for_region(&d, &a, 0xAAAA);
        mem.apply(&bs).unwrap();
        assert!(mem.verify(&a, &bs).unwrap());
        assert_eq!(mem.frames_written(), bs.frames() as u64);
    }

    #[test]
    fn reapply_overwrites() {
        let (d, a, _) = setup();
        let mut mem = ConfigMemory::new(d.clone());
        let bs1 = Bitstream::partial_for_region(&d, &a, 1);
        let bs2 = Bitstream::partial_for_region(&d, &a, 2);
        mem.apply(&bs1).unwrap();
        mem.apply(&bs2).unwrap();
        assert!(!mem.verify(&a, &bs1).unwrap());
        assert!(mem.verify(&a, &bs2).unwrap());
    }

    #[test]
    fn disjoint_regions_do_not_interfere() {
        let (d, a, b) = setup();
        let mut mem = ConfigMemory::new(d.clone());
        let bsa = Bitstream::partial_for_region(&d, &a, 1);
        let bsb = Bitstream::partial_for_region(&d, &b, 2);
        mem.apply(&bsa).unwrap();
        mem.apply(&bsb).unwrap();
        assert!(mem.verify(&a, &bsa).unwrap());
        assert!(mem.verify(&b, &bsb).unwrap());
    }

    #[test]
    fn blank_memory_fails_verification() {
        let (d, a, _) = setup();
        let mem = ConfigMemory::new(d.clone());
        let bs = Bitstream::partial_for_region(&d, &a, 1);
        assert!(!mem.verify(&a, &bs).unwrap());
    }

    #[test]
    fn wrong_device_rejected() {
        let (d, a, _) = setup();
        let mut mem = ConfigMemory::new(Device::by_name("XC2V1000").unwrap());
        let bs = Bitstream::partial_for_region(&d, &a, 1);
        assert!(matches!(
            mem.apply(&bs),
            Err(FabricError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn readback_is_region_sized() {
        let (d, a, _) = setup();
        let mem = ConfigMemory::new(d.clone());
        let words = mem.readback(&a).unwrap();
        assert_eq!(words.len(), 4 * 22 * d.words_per_frame() as usize);
    }

    #[test]
    fn readback_out_of_bounds_rejected() {
        let (d, ..) = setup();
        let mem = ConfigMemory::new(d);
        let r = ReconfigRegion::new("edge", 47, 2).unwrap();
        assert!(mem.readback(&r).is_err());
    }

    #[test]
    fn full_bitstream_configures_everything() {
        let (d, a, b) = setup();
        let mut mem = ConfigMemory::new(d.clone());
        let full = Bitstream::full_for_device(&d, 9);
        mem.apply(&full).unwrap();
        assert_eq!(mem.frames_written(), d.total_frames() as u64);
        // Any region readback is nonzero after full configuration.
        for r in [&a, &b] {
            let words = mem.readback(r).unwrap();
            assert!(words.iter().any(|&w| w != 0));
        }
    }
}
