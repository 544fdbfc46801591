//! Configuration frames: the atomic unit of (partial) reconfiguration.
//!
//! In Virtex-II the configuration memory is addressed by *frame*: a vertical
//! slice of configuration bits spanning the full device height. The frame
//! address register (FAR) selects a frame by block type / major (column) /
//! minor (frame within column) address; writes to the frame data input
//! register (FDRI) then stream frame payloads with address auto-increment.
//!
//! Everything in the paper's latency story reduces to *how many frames* a
//! dynamic module occupies and *how fast* they move through the port, so this
//! module is deliberately exact about counting.

use serde::Serialize;
use std::fmt;

/// Words (32-bit) per configuration frame for a device of the given CLB-row
/// count.
///
/// Virtex-II frames hold 80 bits per CLB row plus one pad word; this matches
/// the documented XC2V2000 frame length (56 rows → 141 words) and scales the
/// way the real family does.
pub const fn frame_words(clb_rows: u32) -> u32 {
    (clb_rows * 80).div_ceil(32) + 1
}

/// Configuration block types addressed by the FAR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum BlockType {
    /// CLB / IOB / interconnect configuration.
    Clb,
    /// Block-RAM content.
    BramContent,
    /// Block-RAM interconnect.
    BramInterconnect,
}

impl BlockType {
    /// FAR encoding of the block type (Virtex-II uses 0/1/2).
    pub const fn code(self) -> u32 {
        match self {
            BlockType::Clb => 0,
            BlockType::BramContent => 1,
            BlockType::BramInterconnect => 2,
        }
    }
}

/// A frame address: (clock-region row, block type, major = column, minor =
/// frame-in-column).
///
/// Virtex-II has a single full-height configuration row, so its addresses
/// always carry `row == 0` and pack exactly as before the series7-like
/// family existed. On the 2D family the row selects the clock region whose
/// frames the major/minor pair indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct FrameAddress {
    /// Clock-region row (always 0 on Virtex-II).
    pub row: u16,
    /// Block type.
    pub block: BlockType,
    /// Column (major) address within the block type.
    pub major: u16,
    /// Frame (minor) address within the column.
    pub minor: u16,
}

impl FrameAddress {
    /// Construct a frame address in configuration row 0 (the only row a
    /// Virtex-II device has).
    pub const fn new(block: BlockType, major: u16, minor: u16) -> Self {
        FrameAddress {
            row: 0,
            block,
            major,
            minor,
        }
    }

    /// Construct a frame address in an explicit clock-region row.
    pub const fn with_row(row: u16, block: BlockType, major: u16, minor: u16) -> Self {
        FrameAddress {
            row,
            block,
            major,
            minor,
        }
    }

    /// Pack into the 32-bit FAR register layout used by our bitstream
    /// encoding: `[31:26] row | [25:24] block | [23:8] major | [7:0] minor`.
    ///
    /// Row 0 leaves bits 31:26 clear, so Virtex-II FAR words are bit-for-bit
    /// what they were when the layout was `[31:24] block`.
    pub const fn pack(self) -> u32 {
        ((self.row as u32 & 0x3F) << 26)
            | (self.block.code() << 24)
            | ((self.major as u32) << 8)
            | (self.minor as u32 & 0xFF)
    }

    /// Inverse of [`FrameAddress::pack`].
    pub fn unpack(word: u32) -> Option<FrameAddress> {
        let block = match (word >> 24) & 0x3 {
            0 => BlockType::Clb,
            1 => BlockType::BramContent,
            2 => BlockType::BramInterconnect,
            _ => return None,
        };
        Some(FrameAddress {
            row: (word >> 26) as u16,
            block,
            major: ((word >> 8) & 0xFFFF) as u16,
            minor: (word & 0xFF) as u16,
        })
    }
}

impl fmt::Display for FrameAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.row == 0 {
            write!(f, "{:?}/maj{}/min{}", self.block, self.major, self.minor)
        } else {
            write!(
                f,
                "row{}/{:?}/maj{}/min{}",
                self.row, self.block, self.major, self.minor
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_words_matches_xc2v2000() {
        // 56 rows * 80 bits = 4480 bits = 140 words, +1 pad = 141.
        assert_eq!(frame_words(56), 141);
        // Smallest device.
        assert_eq!(frame_words(8), 21);
    }

    #[test]
    fn frame_words_monotone_in_rows() {
        let mut prev = 0;
        for rows in [8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112] {
            let w = frame_words(rows);
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn far_pack_unpack_roundtrip() {
        for block in [
            BlockType::Clb,
            BlockType::BramContent,
            BlockType::BramInterconnect,
        ] {
            for major in [0u16, 1, 47, 1023] {
                for minor in [0u16, 1, 21, 63] {
                    let a = FrameAddress::new(block, major, minor);
                    assert_eq!(FrameAddress::unpack(a.pack()), Some(a));
                }
            }
        }
    }

    #[test]
    fn far_unpack_rejects_bad_block() {
        assert_eq!(FrameAddress::unpack(0xFF00_0000), None);
    }

    #[test]
    fn far_row_roundtrip_and_v2_compat() {
        // Row 0 packs exactly as the historical `[31:24] block` layout.
        let v2 = FrameAddress::new(BlockType::BramInterconnect, 47, 21);
        assert_eq!(v2.pack(), (2 << 24) | (47 << 8) | 21);
        assert_eq!(v2.to_string(), "BramInterconnect/maj47/min21");
        // Non-zero rows round-trip and render visibly.
        for row in [1u16, 3, 5, 63] {
            let a = FrameAddress::with_row(row, BlockType::Clb, 12, 30);
            assert_eq!(FrameAddress::unpack(a.pack()), Some(a));
        }
        assert_eq!(
            FrameAddress::with_row(2, BlockType::Clb, 12, 30).to_string(),
            "row2/Clb/maj12/min30"
        );
    }

    #[test]
    fn frame_address_display() {
        let a = FrameAddress::new(BlockType::Clb, 20, 3);
        assert_eq!(a.to_string(), "Clb/maj20/min3");
    }
}
