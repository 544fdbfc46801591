//! Configuration-stream oracles: the table-driven CRC-32 against the
//! bitwise definition it replaced, the in-place stream validator against
//! the word-vector decoder it replaced, and the branch-free payload
//! generator (behind the shared full-device stream memo) against the
//! branchy push loop it replaced.
//!
//! The oracles live only here. They are the pre-optimization code paths,
//! kept verbatim in spirit, so any drift in a payload word, a CRC value or
//! in the accept / reject decision (or its error text) of
//! `Bitstream::validate_encoded` and `Bitstream::decode` shows up on every
//! gallery stream, on every catalog device and on seeded mutations.

use pdr_core::gallery;
use pdr_fabric::bitstream::{Command, Crc32, SplitMix64, DUMMY_WORD, SYNC_WORD};
use pdr_fabric::{
    Bitstream, BitstreamKind, BlockType, Device, DeviceFamily, FabricError, FrameAddress, Packet,
    ReconfigRegion, S7_CLOCK_REGION_ROWS,
};
use proptest::prelude::*;
use std::sync::OnceLock;

// ------------------------------------------------------------- oracles

/// Bitwise CRC-32 (reflected IEEE polynomial) over words fed in
/// big-endian byte order: eight shifts per byte.
fn crc_oracle(words: &[u32]) -> u32 {
    let mut value = 0xFFFF_FFFFu32;
    for w in words {
        for b in w.to_be_bytes() {
            value ^= b as u32;
            for _ in 0..8 {
                let mask = (value & 1).wrapping_neg();
                value = (value >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !value
}

/// The word-vector decoder's rules: collects the image into words and
/// copies each FDRI payload out. Returns the frames carried or the error
/// text.
fn decode_oracle(bytes: &[u8], device: &Device) -> Result<u32, String> {
    let err = |reason: String| FabricError::MalformedBitstream { reason }.to_string();
    if !bytes.len().is_multiple_of(4) {
        return Err(err(format!("length {} is not word-aligned", bytes.len())));
    }
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let commands = [
        Command::Wcfg,
        Command::Lfrm,
        Command::Rcrc,
        Command::Start,
        Command::Desync,
    ];
    let mut i = 0usize;
    let mut payload = Vec::new();
    let mut frames_words = 0usize;
    let mut crc_seen = false;
    while i < words.len() {
        let w = words[i];
        if w == DUMMY_WORD {
            if words.get(i + 1) != Some(&SYNC_WORD) {
                return Err(err("dummy word not followed by sync word".into()));
            }
            i += 2;
            continue;
        }
        match w >> 28 {
            0x3 => {
                if !commands.iter().any(|c| c.code() == w & 0xF) {
                    return Err(err(format!("unknown command code {:#x}", w & 0xF)));
                }
                i += 1;
            }
            0x4 => {
                let addr_word = *words
                    .get(i + 1)
                    .ok_or_else(|| err("truncated FAR packet".into()))?;
                if FrameAddress::unpack(addr_word).is_none() {
                    return Err(err(format!("bad frame address {addr_word:#010x}")));
                }
                i += 2;
            }
            0x5 => {
                let n = (w & 0x0FFF_FFFF) as usize;
                let end = i + 1 + n;
                if end > words.len() {
                    return Err(err(format!("truncated FDRI packet: {n} words declared")));
                }
                payload.extend_from_slice(&words[i + 1..end]);
                frames_words += n;
                i = end;
            }
            0x6 => {
                let stored = w & 0x0FFF_FFFF;
                let computed = crc_oracle(&payload) & 0x0FFF_FFFF;
                if stored != computed {
                    return Err(err(format!(
                        "CRC mismatch: stored {stored:#09x}, computed {computed:#09x}"
                    )));
                }
                crc_seen = true;
                i += 1;
            }
            tag => return Err(err(format!("unknown packet tag {tag:#x} at word {i}"))),
        }
    }
    if !crc_seen {
        return Err(err("stream carries no CRC packet".into()));
    }
    let wpf = device.words_per_frame() as usize;
    if !frames_words.is_multiple_of(wpf) {
        return Err(err(format!(
            "frame payload of {frames_words} words is not a multiple of \
             the device frame length ({wpf} words)"
        )));
    }
    Ok((frames_words / wpf) as u32)
}

/// The sparse payload loop the generator replaced: one SplitMix64 draw
/// per word, zero on `r % 10 < 7`, else the draw's upper half.
fn payload_oracle(rng: &mut SplitMix64, words: usize, out: &mut Vec<u32>) {
    for _ in 0..words {
        let r = rng.next_u64();
        if r % 10 < 7 {
            out.push(0);
        } else {
            out.push((r >> 32) as u32);
        }
    }
}

/// Packet layout of a stream: everything but the payload words and the
/// CRC value, which the oracle regenerates.
enum Shape {
    Sync,
    Cmd(Command),
    Far(FrameAddress),
    Fdri(usize),
    Crc,
}

fn shape_of(bs: &Bitstream) -> Vec<Shape> {
    bs.packets()
        .iter()
        .map(|p| match p {
            Packet::Sync => Shape::Sync,
            Packet::Cmd(c) => Shape::Cmd(*c),
            Packet::Far(a) => Shape::Far(*a),
            Packet::Fdri(data) => Shape::Fdri(data.len()),
            Packet::Crc(_) => Shape::Crc,
        })
        .collect()
}

/// The full-device layout, written out independently of the generator.
fn full_shape(device: &Device) -> Vec<Shape> {
    let words = device.total_frames() as usize * device.words_per_frame() as usize;
    vec![
        Shape::Sync,
        Shape::Cmd(Command::Rcrc),
        Shape::Cmd(Command::Wcfg),
        Shape::Far(FrameAddress::new(BlockType::Clb, 0, 0)),
        Shape::Fdri(words),
        Shape::Cmd(Command::Lfrm),
        Shape::Crc,
        Shape::Cmd(Command::Start),
        Shape::Cmd(Command::Desync),
    ]
}

/// Oracle-built byte image of a stream with layout `shape`: FDRI payloads
/// drawn in order from one `payload_oracle` run seeded with `fingerprint`,
/// the CRC from `crc_oracle`, every packet encoded by hand.
fn oracle_image(shape: &[Shape], fingerprint: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(fingerprint);
    let mut payload = Vec::new();
    let mut words = Vec::new();
    for s in shape {
        match s {
            Shape::Sync => words.extend([DUMMY_WORD, SYNC_WORD]),
            Shape::Cmd(c) => words.push((0x3 << 28) | c.code()),
            Shape::Far(a) => words.extend([0x4 << 28, a.pack()]),
            Shape::Fdri(n) => {
                let from = payload.len();
                payload_oracle(&mut rng, *n, &mut payload);
                words.push((0x5 << 28) | *n as u32);
                words.extend_from_slice(&payload[from..]);
            }
            Shape::Crc => words.push((0x6 << 28) | (crc_oracle(&payload) & 0x0FFF_FFFF)),
        }
    }
    words.iter().flat_map(|w| w.to_be_bytes()).collect()
}

// ------------------------------------------------------------ fixtures

/// Every bitstream every gallery flow generates, with its device.
fn gallery_streams() -> &'static [(Device, Bitstream)] {
    static STREAMS: OnceLock<Vec<(Device, Bitstream)>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let mut out = Vec::new();
        for g in gallery::all() {
            let art = g.flow.run().expect("gallery flow runs");
            for bs in art.design.floorplan.bitstreams.values() {
                out.push((g.flow.device().clone(), bs.clone()));
            }
        }
        assert!(out.len() >= 10, "gallery yields {} streams", out.len());
        out
    })
}

/// One partial gallery stream per distinct (device, packet layout): streams
/// that differ only in payload words take the same path through a
/// validator, so the mutation suites run on these to stay fast. (The
/// megabyte full-device streams are checked pristine only.)
fn distinct_layouts() -> Vec<&'static (Device, Bitstream)> {
    let mut seen = std::collections::BTreeSet::new();
    gallery_streams()
        .iter()
        .filter(|(device, bs)| {
            if !bs.is_partial() {
                return false;
            }
            let layout: Vec<(u8, usize)> = bs
                .packets()
                .iter()
                .map(|p| match p {
                    Packet::Cmd(c) => (c.code() as u8, 1),
                    p => (0x10, p.words()),
                })
                .collect();
            seen.insert((device.name.clone(), layout))
        })
        .collect()
}

/// Word offsets at which each packet of `bs` starts, plus the end.
fn packet_boundaries(bs: &Bitstream) -> Vec<usize> {
    let mut at = vec![0];
    for p in bs.packets() {
        at.push(at.last().unwrap() + p.words());
    }
    at
}

/// Run both production entry points and the oracle on `bytes`; they must
/// agree on acceptance, on the frame count and on the exact error text.
fn assert_agree(bytes: &[u8], device: &Device, kind: &BitstreamKind, what: &str) {
    let expected = decode_oracle(bytes, device);
    let validated = Bitstream::validate_encoded(bytes, device).map_err(|e| e.to_string());
    let decoded = Bitstream::decode(bytes, device, kind.clone(), 0)
        .map(|bs| bs.frames())
        .map_err(|e| e.to_string());
    assert_eq!(validated, expected, "validate_encoded vs oracle: {what}");
    assert_eq!(decoded, expected, "decode vs oracle: {what}");
}

// ----------------------------------------------------------------- CRC

#[test]
fn crc_known_answers() {
    // The standard CRC-32 check value.
    let mut crc = Crc32::new();
    crc.update_bytes(b"123456789");
    assert_eq!(crc.finish(), 0xCBF4_3926);
    // The stored CRC of the paper's module stream (XC2V2000, 4 CLB columns
    // at column 20, fingerprint 42).
    let device = Device::xc2v2000();
    let region = pdr_fabric::ReconfigRegion::new("op_dyn", 20, 4).unwrap();
    let bs = Bitstream::partial_for_region(&device, &region, 42);
    let stored = bs.packets().iter().find_map(|p| match p {
        Packet::Crc(c) => Some(*c),
        _ => None,
    });
    assert_eq!(stored, Some(0x0E4F_65D2));
}

#[test]
fn gallery_stream_crcs_match_the_bitwise_oracle() {
    for (_, bs) in gallery_streams() {
        let mut payload = Vec::new();
        for p in bs.packets() {
            match p {
                Packet::Fdri(data) => payload.extend_from_slice(data),
                Packet::Crc(stored) => assert_eq!(*stored, crc_oracle(&payload)),
                _ => {}
            }
        }
        let mut crc = Crc32::new();
        crc.update_words(&payload);
        assert_eq!(crc.finish(), crc_oracle(&payload));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Word-at-a-time, bulk-word and byte feeds — split anywhere — all
    /// equal the bitwise definition.
    #[test]
    fn table_crc_equals_bitwise_oracle(
        words in prop::collection::vec(any::<u32>(), 0..300),
        split in any::<usize>(),
    ) {
        let expected = crc_oracle(&words);
        let mut one = Crc32::new();
        for &w in &words {
            one.update_word(w);
        }
        prop_assert_eq!(one.finish(), expected);

        let cut = if words.is_empty() { 0 } else { split % (words.len() + 1) };
        let mut bulk = Crc32::new();
        bulk.update_words(&words[..cut]);
        bulk.update_words(&words[cut..]);
        prop_assert_eq!(bulk.finish(), expected);

        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
        let byte_cut = if bytes.is_empty() { 0 } else { split % (bytes.len() + 1) };
        let mut raw = Crc32::new();
        raw.update_bytes(&bytes[..byte_cut]);
        raw.update_bytes(&bytes[byte_cut..]);
        prop_assert_eq!(raw.finish(), expected);
    }
}

// ----------------------------------------------------------- generator

#[test]
fn catalog_full_streams_equal_the_oracle() {
    let mut names = Device::catalog_names_in(DeviceFamily::VirtexII);
    names.extend(Device::catalog_names_in(DeviceFamily::Series7));
    for name in names {
        let device = Device::by_name(name).unwrap();
        let expected = oracle_image(&full_shape(&device), 0x5EED);
        let bs = Bitstream::full_for_device(&device, 0x5EED);
        assert!(
            bs.encode()[..] == expected[..],
            "{name}: full stream differs"
        );
        // A second request is served from the shared copy, unchanged.
        let again = Bitstream::full_for_device(&device, 0x5EED);
        assert!(
            again.encode()[..] == expected[..],
            "{name}: memoized stream differs"
        );
    }
}

#[test]
fn gallery_streams_equal_the_oracle() {
    for (device, bs) in gallery_streams() {
        let expected = oracle_image(&shape_of(bs), bs.module_fingerprint);
        assert!(
            bs.encode()[..] == expected[..],
            "{} {:?}: stream differs from the oracle",
            device.name,
            bs.kind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over random fingerprints and geometries — so random word counts and,
    /// on the series7-like family, payloads split across clock-region
    /// rows — every generated stream equals the oracle's.
    #[test]
    fn generated_payloads_equal_the_branchy_oracle(
        fingerprint in any::<u64>(),
        clb_rows in 1u32..80,
        clb_cols in 8u32..40,
        width in 2u32..6,
        s7_rows in 1u32..3,
    ) {
        let device = Device::custom("prop", DeviceFamily::VirtexII, clb_rows, clb_cols, 2, 0);
        let full = Bitstream::full_for_device(&device, fingerprint);
        prop_assert!(full.encode()[..] == oracle_image(&full_shape(&device), fingerprint)[..]);

        let region = ReconfigRegion::new("r", clb_cols - width, width).unwrap();
        let part = Bitstream::partial_for_region(&device, &region, fingerprint);
        prop_assert!(part.encode()[..] == oracle_image(&shape_of(&part), fingerprint)[..]);

        let s7 = Device::by_name("XC7A100T").unwrap();
        let rect = ReconfigRegion::rect("r", 2 + width, width, 0, S7_CLOCK_REGION_ROWS * s7_rows).unwrap();
        let rows = Bitstream::partial_for_region(&s7, &rect, fingerprint);
        prop_assert!(rows.encode()[..] == oracle_image(&shape_of(&rows), fingerprint)[..]);
    }
}

// ---------------------------------------------------------- validation

#[test]
fn gallery_streams_validate_like_the_oracle() {
    for (device, bs) in gallery_streams() {
        let bytes = bs.encode();
        assert_agree(&bytes, device, &bs.kind, "pristine");
        assert_eq!(Bitstream::validate_encoded(&bytes, device), Ok(bs.frames()));
        // In place, from the packets: the same verdict as the image's.
        assert_eq!(bs.validate(device), Ok(bs.frames()));
    }
}

#[test]
fn truncation_at_every_packet_boundary() {
    for (device, bs) in distinct_layouts() {
        let bytes = bs.encode();
        for &w in &packet_boundaries(bs) {
            for cut in [4 * w, (4 * w).saturating_sub(2), 4 * w + 4] {
                let cut = cut.min(bytes.len());
                assert_agree(&bytes[..cut], device, &bs.kind, &format!("cut at {cut}"));
            }
        }
    }
}

#[test]
fn corrupted_tags_and_crc_words() {
    for (device, bs) in distinct_layouts() {
        let bytes = bs.encode();
        let bounds = packet_boundaries(bs);
        let headers = &bounds[..bounds.len() - 1];
        for &w in headers {
            // Every tag nibble on every packet header (including the
            // dummy word of the sync packet).
            for tag in 0..16u8 {
                let mut m = bytes.to_vec();
                m[4 * w] = (tag << 4) | (m[4 * w] & 0x0F);
                assert_agree(&m, device, &bs.kind, &format!("tag {tag:#x} at word {w}"));
            }
            // Low nibble: command codes, FDRI counts, CRC values.
            let mut m = bytes.to_vec();
            m[4 * w + 3] ^= 0x0B;
            assert_agree(&m, device, &bs.kind, &format!("low bits at word {w}"));
        }
        for (p, &w) in bs.packets().iter().zip(headers) {
            if let Packet::Crc(_) = p {
                for bit in [0, 5, 11, 19, 27, 28, 31] {
                    let mut m = bytes.to_vec();
                    m[4 * w + 3 - bit / 8] ^= 1 << (bit % 8);
                    assert_agree(&m, device, &bs.kind, &format!("CRC bit {bit}"));
                }
            }
        }
    }
}

#[test]
fn streams_without_crc_or_with_partial_frames_are_rejected_alike() {
    let (device, bs) = distinct_layouts()[0];
    let bytes = bs.encode();
    let bounds = packet_boundaries(bs);
    // Drop the CRC packet entirely.
    for (p, w) in bs.packets().iter().zip(&bounds) {
        if let Packet::Crc(_) = p {
            let mut m = bytes[..4 * w].to_vec();
            m.extend_from_slice(&bytes[4 * w + 4..]);
            assert_agree(&m, device, &bs.kind, "no CRC");
        }
    }
    // A CRC-valid stream whose payload is one word short of a frame.
    let mut words = vec![DUMMY_WORD, SYNC_WORD, 0x5000_0001, 0xDEAD_BEEF];
    let crc = crc_oracle(&[0xDEAD_BEEF]);
    words.push((0x6 << 28) | (crc & 0x0FFF_FFFF));
    let m: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
    assert_agree(&m, device, &bs.kind, "partial frame");
    assert!(decode_oracle(&m, device)
        .unwrap_err()
        .contains("not a multiple"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded byte flips anywhere in a gallery stream.
    #[test]
    fn byte_flips_are_judged_like_the_oracle(
        pick in any::<usize>(),
        flips in prop::collection::vec((any::<usize>(), 1u8..255), 1..4),
    ) {
        let streams = distinct_layouts();
        let (device, bs) = streams[pick % streams.len()];
        let mut m = bs.encode();
        for (pos, mask) in &flips {
            let len = m.len();
            m[pos % len] ^= mask;
        }
        assert_agree(&m, device, &bs.kind, &format!("flips {flips:?}"));
    }
}
