//! Bitstream compression: shrinking the fetch leg.
//!
//! Reconfiguration latency in the paper's chain is dominated by reading
//! the bitstream from external memory (≈ 3 of the ≈ 4 ms). Configuration
//! frames are sparse — most words of a typical design are zero — so a
//! simple zero-run-length code shrinks the *stored* stream substantially;
//! a tiny on-chip decompressor between memory and the protocol builder
//! restores the raw stream at port line rate. The port-load leg is
//! unchanged; only the memory fetch gets cheaper.
//!
//! Format (byte-oriented, word-aligned input):
//!
//! ```text
//! 0x00, n        -> n consecutive zero words (1 ≤ n ≤ 255)
//! 0x01, n, w...  -> n literal words, big-endian (1 ≤ n ≤ 255)
//! ```

use crate::error::FabricError;

const TAG_ZEROS: u8 = 0x00;
const TAG_LITERAL: u8 = 0x01;
const MAX_RUN: usize = 255;

/// Compress a word-aligned byte image (as produced by
/// [`crate::Bitstream::encode`]).
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 4 (bitstreams always are).
pub fn compress(bytes: &[u8]) -> Vec<u8> {
    assert!(bytes.len().is_multiple_of(4), "input must be word-aligned");
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    let mut i = 0usize;
    while i < words.len() {
        if words[i] == 0 {
            let mut n = 1;
            while n < MAX_RUN && i + n < words.len() && words[i + n] == 0 {
                n += 1;
            }
            out.extend_from_slice(&[TAG_ZEROS, n as u8]);
            i += n;
        } else {
            let mut n = 1;
            while n < MAX_RUN && i + n < words.len() && words[i + n] != 0 {
                n += 1;
            }
            out.extend_from_slice(&[TAG_LITERAL, n as u8]);
            for &w in &words[i..i + n] {
                out.extend_from_slice(&w.to_be_bytes());
            }
            i += n;
        }
    }
    out
}

/// Decompress back to the raw word-aligned image.
pub fn decompress(compressed: &[u8]) -> Result<Vec<u8>, FabricError> {
    let mut out = Vec::with_capacity(compressed.len() * 2);
    let mut i = 0usize;
    while i < compressed.len() {
        let tag = compressed[i];
        let n = *compressed
            .get(i + 1)
            .ok_or(FabricError::MalformedBitstream {
                reason: "truncated compression token".into(),
            })? as usize;
        if n == 0 {
            return Err(FabricError::MalformedBitstream {
                reason: "zero-length run".into(),
            });
        }
        i += 2;
        match tag {
            TAG_ZEROS => {
                out.extend(std::iter::repeat_n(0u8, n * 4));
            }
            TAG_LITERAL => {
                let need = n * 4;
                if i + need > compressed.len() {
                    return Err(FabricError::MalformedBitstream {
                        reason: "truncated literal run".into(),
                    });
                }
                out.extend_from_slice(&compressed[i..i + need]);
                i += need;
            }
            t => {
                return Err(FabricError::MalformedBitstream {
                    reason: format!("unknown compression tag {t:#x}"),
                });
            }
        }
    }
    Ok(out)
}

/// Compression ratio (`raw / compressed`; > 1 means smaller).
pub fn ratio(raw_len: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return 1.0;
    }
    raw_len as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::Bitstream;
    use crate::device::Device;
    use crate::region::ReconfigRegion;

    #[test]
    fn roundtrip_real_partial_bitstream() {
        let d = Device::xc2v2000();
        let r = ReconfigRegion::new("op_dyn", 20, 4).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 0xC0FFEE);
        let raw = bs.encode();
        let packed = compress(&raw);
        let back = decompress(&packed).unwrap();
        assert_eq!(back, raw.to_vec());
        // 70 % sparse payload: expect at least 1.5x shrink.
        let ratio = ratio(raw.len(), packed.len());
        assert!(ratio > 1.5, "compression ratio {ratio}");
    }

    #[test]
    fn all_zero_input_collapses() {
        let raw = vec![0u8; 4 * 1024];
        let packed = compress(&raw);
        assert!(packed.len() < 20);
        assert_eq!(decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn incompressible_input_grows_bounded() {
        // Dense nonzero words: overhead is 2 bytes per 255 words.
        let raw: Vec<u8> = (0..4096u32).flat_map(|i| (i | 1).to_be_bytes()).collect();
        let packed = compress(&raw);
        assert!(packed.len() <= raw.len() + raw.len() / 500 + 8);
        assert_eq!(decompress(&packed).unwrap(), raw);
    }

    #[test]
    fn runs_longer_than_255_words_split() {
        let raw = vec![0u8; 4 * 600];
        let packed = compress(&raw);
        assert_eq!(decompress(&packed).unwrap(), raw);
        // 600 zeros = 255 + 255 + 90: three tokens.
        assert_eq!(packed.len(), 6);
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(decompress(&[TAG_LITERAL]).is_err());
        assert!(decompress(&[TAG_LITERAL, 2, 0, 0, 0, 0]).is_err());
        assert!(decompress(&[0x77, 1]).is_err());
        assert!(decompress(&[TAG_ZEROS, 0]).is_err());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_input_panics() {
        let _ = compress(&[1, 2, 3]);
    }

    #[test]
    fn empty_input_roundtrips() {
        let packed = compress(&[]);
        assert!(packed.is_empty());
        assert_eq!(decompress(&packed).unwrap(), Vec::<u8>::new());
    }
}
