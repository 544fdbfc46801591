//! Full and partial configuration bitstreams.
//!
//! The stream format follows the Virtex-II packet discipline closely enough
//! that every size the runtime reasons about is exact:
//!
//! ```text
//! [dummy pad] [SYNC] { [CMD] | [FAR addr] | [FDRI n, n words] }* [CRC] [CMD DESYNC]
//! ```
//!
//! Each packet is one 32-bit header word, plus payload words for `FAR`
//! (one word) and `FDRI` (declared count). Frame payloads are deterministic
//! pseudo-random words derived from a *fingerprint* of the module they
//! configure, so two different generated designs produce different streams
//! and re-generating the same design is reproducible — this is what stands in
//! for real synthesis output.
//!
//! A full-device stream depends only on the device geometry and the
//! fingerprint, so its packets are generated once per geometry and shared
//! (a [`Bitstream`] holds its packets behind an `Arc`, making clones O(1)).
//!
//! The paper's latency numbers come straight from the byte counts of
//! [`Bitstream::encode`]'s image. The `pdr-rtr` protocol builder checks a
//! stream with [`Bitstream::validate`], which reads the packets in place
//! under the same rules [`Bitstream::decode`] applies to an image.

use crate::device::Device;
use crate::error::FabricError;
use crate::frame::{BlockType, FrameAddress};
use crate::region::ReconfigRegion;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// The Virtex-II synchronization word.
pub const SYNC_WORD: u32 = 0xAA99_5566;
/// Dummy pad word preceding sync.
pub const DUMMY_WORD: u32 = 0xFFFF_FFFF;

/// Configuration commands (CMD register values, Virtex-II subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Command {
    /// Write configuration data (precedes FDRI writes).
    Wcfg,
    /// Last frame: flush the frame pipeline.
    Lfrm,
    /// Reset CRC register.
    Rcrc,
    /// Begin start-up sequence (full configurations only).
    Start,
    /// Desynchronize: end of stream.
    Desync,
}

impl Command {
    /// Register encoding.
    pub const fn code(self) -> u32 {
        match self {
            Command::Wcfg => 0x1,
            Command::Lfrm => 0x3,
            Command::Rcrc => 0x7,
            Command::Start => 0x5,
            Command::Desync => 0xD,
        }
    }

    fn from_code(code: u32) -> Option<Command> {
        Some(match code {
            0x1 => Command::Wcfg,
            0x3 => Command::Lfrm,
            0x7 => Command::Rcrc,
            0x5 => Command::Start,
            0xD => Command::Desync,
            _ => return None,
        })
    }
}

/// One packet of a configuration stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Packet {
    /// Pad + synchronization word.
    Sync,
    /// Command register write.
    Cmd(Command),
    /// Frame-address register write.
    Far(FrameAddress),
    /// Frame-data input: consecutive frame payload words (address
    /// auto-increments per frame).
    Fdri(Vec<u32>),
    /// CRC check word over everything since the last `Rcrc`.
    Crc(u32),
}

impl Packet {
    /// Encoded size of the packet in 32-bit words.
    pub fn words(&self) -> usize {
        match self {
            Packet::Sync => 2, // dummy + sync
            Packet::Cmd(_) => 1,
            Packet::Far(_) => 2, // header + address word
            Packet::Fdri(data) => 1 + data.len(),
            Packet::Crc(_) => 1,
        }
    }

    /// The encoded words before any frame data: the first `n` of the
    /// returned pair. FDRI frame data follows as [`Packet::payload`].
    fn head(&self) -> ([u32; 2], usize) {
        match self {
            Packet::Sync => ([DUMMY_WORD, SYNC_WORD], 2),
            Packet::Cmd(c) => ([(TAG_CMD << 28) | c.code(), 0], 1),
            Packet::Far(a) => ([TAG_FAR << 28, a.pack()], 2),
            Packet::Fdri(data) => ([(TAG_FDRI << 28) | (data.len() as u32 & 0x0FFF_FFFF), 0], 1),
            // The CRC travels as its 28 low bits, folded into the header;
            // decode verifies those.
            Packet::Crc(c) => ([(TAG_CRC << 28) | (c & 0x0FFF_FFFF), 0], 1),
        }
    }

    /// The frame data of an FDRI packet (empty for the others).
    fn payload(&self) -> &[u32] {
        match self {
            Packet::Fdri(data) => data,
            _ => &[],
        }
    }
}

// Packet header type tags for our encoding (upper nibble of header word).
const TAG_CMD: u32 = 0x3;
const TAG_FAR: u32 = 0x4;
const TAG_FDRI: u32 = 0x5;
const TAG_CRC: u32 = 0x6;

/// Whether a bitstream configures the whole device or one region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BitstreamKind {
    /// Full-device configuration (power-on).
    Full,
    /// Partial configuration of the named region.
    Partial {
        /// Target region name.
        region: String,
    },
}

/// A configuration bitstream for a specific device.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Part name this stream was generated for.
    pub device: String,
    /// Full or partial.
    pub kind: BitstreamKind,
    /// Identifier of the design/module the stream configures (used by the
    /// simulator to know *what* is now loaded).
    pub module_fingerprint: u64,
    /// Packet sequence, shared between clones.
    packets: Arc<[Packet]>,
    /// Number of configuration frames carried.
    frames: u32,
}

impl Bitstream {
    /// Build a full-device bitstream. Its packets come from a process-wide
    /// memo of the last eight geometries, so repeated calls for one device
    /// share one copy of the payload.
    pub fn full_for_device(device: &Device, module_fingerprint: u64) -> Bitstream {
        let frames = device.total_frames();
        let packets = full_packets(device, frames, module_fingerprint);
        Bitstream {
            device: device.name.clone(),
            kind: BitstreamKind::Full,
            module_fingerprint,
            packets,
            frames,
        }
    }

    /// Build a partial bitstream reconfiguring `region` with a design
    /// identified by `module_fingerprint`.
    ///
    /// Virtex-II regions are addressed by a single FAR + FDRI pair (one
    /// full-height configuration row); series7-like regions emit one
    /// FAR/FDRI pair per clock-region row of the rectangle, sharing a
    /// single payload stream and one trailing CRC.
    pub fn partial_for_region(
        device: &Device,
        region: &ReconfigRegion,
        module_fingerprint: u64,
    ) -> Bitstream {
        let frames = region.frames(device);
        let packets = if device.capabilities().supports_2d_regions() {
            Self::packetize_rows(device, region, module_fingerprint)
        } else {
            Self::packetize(
                device,
                BlockType::Clb,
                region.clb_col_start as u16,
                frames,
                module_fingerprint,
                false,
            )
        };
        Bitstream {
            device: device.name.clone(),
            kind: BitstreamKind::Partial {
                region: region.name.clone(),
            },
            module_fingerprint,
            packets: packets.into(),
            frames,
        }
    }

    /// Packetize a 2D region: one FAR + FDRI pair per clock-region row it
    /// spans, a single sparse payload stream across the rows, one CRC over
    /// all frame data.
    fn packetize_rows(device: &Device, region: &ReconfigRegion, fingerprint: u64) -> Vec<Packet> {
        let caps = device.capabilities();
        let cr_rows = caps.clock_region_rows(device);
        let (row_start, row_count) = region.rows_on(device);
        let first_region_row = row_start / cr_rows;
        let region_rows = (row_count / cr_rows).max(1);
        let frames_per_row = caps.window_frames(
            device,
            region.clb_col_start,
            region.clb_col_width,
            row_start,
            cr_rows,
        );
        let wpf = device.words_per_frame() as usize;
        let mut rng = SplitMix64::new(fingerprint);
        let mut crc = Crc32::new();
        let mut packets = Vec::with_capacity(6 + 2 * region_rows as usize);
        packets.push(Packet::Sync);
        packets.push(Packet::Cmd(Command::Rcrc));
        packets.push(Packet::Cmd(Command::Wcfg));
        for r in 0..region_rows {
            packets.push(Packet::Far(FrameAddress::with_row(
                (first_region_row + r) as u16,
                BlockType::Clb,
                region.clb_col_start as u16,
                0,
            )));
            let data = synthetic_payload(&mut rng, frames_per_row as usize * wpf);
            crc.update_words(&data);
            packets.push(Packet::Fdri(data));
        }
        packets.push(Packet::Cmd(Command::Lfrm));
        packets.push(Packet::Crc(crc.finish()));
        packets.push(Packet::Cmd(Command::Desync));
        packets
    }

    fn packetize(
        device: &Device,
        block: BlockType,
        major_start: u16,
        frames: u32,
        fingerprint: u64,
        full: bool,
    ) -> Vec<Packet> {
        let wpf = device.words_per_frame() as usize;
        let mut rng = SplitMix64::new(fingerprint);
        let mut packets = Vec::with_capacity(8);
        packets.push(Packet::Sync);
        packets.push(Packet::Cmd(Command::Rcrc));
        packets.push(Packet::Cmd(Command::Wcfg));
        packets.push(Packet::Far(FrameAddress::new(block, major_start, 0)));
        let data = synthetic_payload(&mut rng, frames as usize * wpf);
        // CRC over the frame data: the stored value is the definitive one
        // that decode verifies.
        let mut crc = Crc32::new();
        crc.update_words(&data);
        packets.push(Packet::Fdri(data));
        packets.push(Packet::Cmd(Command::Lfrm));
        packets.push(Packet::Crc(crc.finish()));
        if full {
            packets.push(Packet::Cmd(Command::Start));
        }
        packets.push(Packet::Cmd(Command::Desync));
        packets
    }

    /// The packet sequence.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Configuration frames carried.
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Encoded length in 32-bit words.
    pub fn len_words(&self) -> usize {
        self.packets.iter().map(Packet::words).sum()
    }

    /// Encoded length in bytes — the quantity that determines transfer time
    /// through a configuration port.
    pub fn len_bytes(&self) -> usize {
        self.len_words() * 4
    }

    /// Is this a partial stream?
    pub fn is_partial(&self) -> bool {
        matches!(self.kind, BitstreamKind::Partial { .. })
    }

    /// Encode to the byte image shipped over ICAP/SelectMAP.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.len_bytes());
        for p in self.packets.iter() {
            let (head, n) = p.head();
            for &w in head[..n].iter().chain(p.payload()) {
                buf.extend_from_slice(&w.to_be_bytes());
            }
        }
        buf
    }

    /// Decode a byte image back into a bitstream (structure + CRC check).
    /// `device` and `kind` metadata must be supplied by the carrier (as with
    /// real `.bit` files, where headers travel separately from the raw
    /// stream).
    pub fn decode(
        bytes: &[u8],
        device: &Device,
        kind: BitstreamKind,
        module_fingerprint: u64,
    ) -> Result<Bitstream, FabricError> {
        let mut packets = Vec::new();
        let frames = walk(ImageWords::new(bytes)?, device, |p| {
            packets.push(match p {
                RawPacket::Sync => Packet::Sync,
                RawPacket::Cmd(c) => Packet::Cmd(c),
                RawPacket::Far(a) => Packet::Far(a),
                RawPacket::Fdri(payload) => {
                    Packet::Fdri(payload.chunks_exact(4).map(be_word).collect())
                }
                RawPacket::Crc(c) => Packet::Crc(c),
            })
        })?;
        Ok(Bitstream {
            device: device.name.clone(),
            kind,
            module_fingerprint,
            packets: packets.into(),
            frames,
        })
    }

    /// Validate a byte image in place: exactly the structure and CRC checks
    /// of [`Bitstream::decode`], with the same errors, but without copying
    /// frame data or building a packet list. Returns the number of
    /// configuration frames the stream carries.
    pub fn validate_encoded(bytes: &[u8], device: &Device) -> Result<u32, FabricError> {
        walk(ImageWords::new(bytes)?, device, |_| {})
    }

    /// Validate this stream for `device` in place: exactly the checks
    /// [`Bitstream::validate_encoded`] runs on [`Bitstream::encode`]'s
    /// image, with the same errors, read from the packets without
    /// building the image. Returns the number of configuration frames.
    pub fn validate(&self, device: &Device) -> Result<u32, FabricError> {
        walk(PacketWords::new(&self.packets), device, |_| {})
    }

    /// Check the stream targets the given device.
    pub fn check_device(&self, device: &Device) -> Result<(), FabricError> {
        if self.device != device.name {
            return Err(FabricError::DeviceMismatch {
                expected: self.device.clone(),
                actual: device.name.clone(),
            });
        }
        Ok(())
    }
}

/// Most full-device geometries [`full_packets`] keeps; the oldest goes
/// first when another is added.
const FULL_MEMO_GEOMETRIES: usize = 8;

/// Full-device packet lists generated so far, oldest first, keyed by
/// everything they depend on: (frames, words per frame, fingerprint).
type FullMemo = VecDeque<((u32, u32, u64), Arc<[Packet]>)>;

static FULL_MEMO: Mutex<FullMemo> = Mutex::new(VecDeque::new());

/// The full-device packet list for `device`, generated on first use.
/// Generation runs outside the lock; a racing thread that inserted the
/// same key first wins, so every caller shares one copy. A poisoned lock
/// is recovered: the memo is only ever left holding complete entries.
fn full_packets(device: &Device, frames: u32, fingerprint: u64) -> Arc<[Packet]> {
    let key = (frames, device.words_per_frame(), fingerprint);
    let memo = || FULL_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    let cached = |m: &FullMemo| m.iter().find(|(k, _)| *k == key).map(|(_, p)| p.clone());
    if let Some(packets) = cached(&memo()) {
        return packets;
    }
    let fresh: Arc<[Packet]> =
        Bitstream::packetize(device, BlockType::Clb, 0, frames, fingerprint, true).into();
    let mut m = memo();
    if let Some(packets) = cached(&m) {
        return packets;
    }
    if m.len() == FULL_MEMO_GEOMETRIES {
        m.pop_front();
    }
    m.push_back((key, fresh.clone()));
    fresh
}

/// `words` words of sparse synthetic frame payload. Real configuration
/// frames are sparse — most LUT/routing words of a typical design are zero
/// (~70 % measured on production bitstreams) — and the payload mirrors
/// that so compression studies behave realistically: each word is the
/// upper half of one SplitMix64 draw `r`, kept when `r % 10 >= 7` and
/// zero otherwise (masked, not branched on).
fn synthetic_payload(rng: &mut SplitMix64, words: usize) -> Vec<u32> {
    let mut data = vec![0u32; words];
    for w in &mut data {
        let r = rng.next_u64();
        *w = (r >> 32) as u32 & u32::from(r % 10 >= 7).wrapping_neg();
    }
    data
}

/// One packet of an encoded stream, viewed in place: the FDRI payload is
/// whatever the [`Words`] source hands out (a borrowed slice of a byte
/// image), never a copy.
enum RawPacket<P> {
    Sync,
    Cmd(Command),
    Far(FrameAddress),
    Fdri(P),
    Crc(u32),
}

/// An encoded stream read front to back, one 32-bit word at a time.
trait Words {
    /// An FDRI payload as [`walk`] hands it to its visitor.
    type Payload;
    /// The next word, `None` at the end.
    fn next_word(&mut self) -> Option<u32>;
    /// The next `n` words as one payload, fed to `crc` in stream order;
    /// `None` when fewer than `n` remain.
    fn payload(&mut self, n: usize, crc: &mut Crc32) -> Option<Self::Payload>;
}

/// A byte image, big-endian words; payloads borrow it.
struct ImageWords<'a> {
    rest: &'a [u8],
}

impl<'a> ImageWords<'a> {
    /// The words of `bytes`, which must be whole words.
    fn new(bytes: &'a [u8]) -> Result<Self, FabricError> {
        if !bytes.len().is_multiple_of(4) {
            return Err(malformed(format!(
                "length {} is not word-aligned",
                bytes.len()
            )));
        }
        Ok(ImageWords { rest: bytes })
    }
}

impl<'a> Words for ImageWords<'a> {
    type Payload = &'a [u8];

    fn next_word(&mut self) -> Option<u32> {
        let (word, rest) = self.rest.split_first_chunk::<4>()?;
        self.rest = rest;
        Some(u32::from_be_bytes(*word))
    }

    fn payload(&mut self, n: usize, crc: &mut Crc32) -> Option<&'a [u8]> {
        let len = n.checked_mul(4).filter(|&len| len <= self.rest.len())?;
        let (payload, rest) = self.rest.split_at(len);
        self.rest = rest;
        crc.update_bytes(payload);
        Some(payload)
    }
}

/// The words [`Bitstream::encode`] would write for a packet list, read
/// from the packets: each packet's [`Packet::head`], then its payload.
struct PacketWords<'a> {
    packets: std::slice::Iter<'a, Packet>,
    /// Head words of the current packet not yet read.
    head: std::iter::Take<std::array::IntoIter<u32, 2>>,
    /// Payload words of the current packet not yet read.
    data: &'a [u32],
}

impl<'a> PacketWords<'a> {
    fn new(packets: &'a [Packet]) -> Self {
        PacketWords {
            packets: packets.iter(),
            head: [0; 2].into_iter().take(0),
            data: &[],
        }
    }
}

impl Words for PacketWords<'_> {
    type Payload = ();

    fn next_word(&mut self) -> Option<u32> {
        loop {
            if let Some(w) = self.head.next() {
                return Some(w);
            }
            if let Some((&w, rest)) = self.data.split_first() {
                self.data = rest;
                return Some(w);
            }
            let p = self.packets.next()?;
            let (head, n) = p.head();
            self.head = head.into_iter().take(n);
            self.data = p.payload();
        }
    }

    fn payload(&mut self, n: usize, crc: &mut Crc32) -> Option<()> {
        // A well-formed FDRI packet declares exactly its own frame data.
        if self.head.len() == 0 && n <= self.data.len() {
            let (payload, rest) = self.data.split_at(n);
            crc.update_words(payload);
            self.data = rest;
            return Some(());
        }
        // Otherwise (a payload longer than its 28-bit length field can
        // declare) the declared words run on into the following packets.
        for _ in 0..n {
            crc.update_word(self.next_word()?);
        }
        Some(())
    }
}

fn be_word(c: &[u8]) -> u32 {
    u32::from_be_bytes([c[0], c[1], c[2], c[3]])
}

fn malformed(reason: impl Into<String>) -> FabricError {
    FabricError::MalformedBitstream {
        reason: reason.into(),
    }
}

/// The one copy of the stream rules: read `words` front to back, check
/// sync, command codes, frame addresses, FDRI bounds, the CRC and the
/// frame multiple, hand every packet to `visit`, and return the number of
/// frames carried.
fn walk<W: Words>(
    mut words: W,
    device: &Device,
    mut visit: impl FnMut(RawPacket<W::Payload>),
) -> Result<u32, FabricError> {
    // Index of the word being read, for error messages.
    let mut i = 0usize;
    let mut frames_words = 0usize;
    let mut crc_seen = false;
    let mut computed_crc = Crc32::new();
    while let Some(w) = words.next_word() {
        if w == DUMMY_WORD {
            if words.next_word() != Some(SYNC_WORD) {
                return Err(malformed("dummy word not followed by sync word"));
            }
            visit(RawPacket::Sync);
            i += 2;
            continue;
        }
        match w >> 28 {
            TAG_CMD => {
                let cmd = Command::from_code(w & 0xF)
                    .ok_or_else(|| malformed(format!("unknown command code {:#x}", w & 0xF)))?;
                visit(RawPacket::Cmd(cmd));
                i += 1;
            }
            TAG_FAR => {
                let addr_word = words
                    .next_word()
                    .ok_or_else(|| malformed("truncated FAR packet"))?;
                let addr = FrameAddress::unpack(addr_word)
                    .ok_or_else(|| malformed(format!("bad frame address {addr_word:#010x}")))?;
                visit(RawPacket::Far(addr));
                i += 2;
            }
            TAG_FDRI => {
                let n = (w & 0x0FFF_FFFF) as usize;
                let payload = words.payload(n, &mut computed_crc).ok_or_else(|| {
                    malformed(format!("truncated FDRI packet: {n} words declared"))
                })?;
                frames_words += n;
                visit(RawPacket::Fdri(payload));
                i += 1 + n;
            }
            TAG_CRC => {
                let stored = w & 0x0FFF_FFFF;
                let computed = computed_crc.finish() & 0x0FFF_FFFF;
                if stored != computed {
                    return Err(malformed(format!(
                        "CRC mismatch: stored {stored:#09x}, computed {computed:#09x}"
                    )));
                }
                visit(RawPacket::Crc(computed_crc.finish()));
                crc_seen = true;
                i += 1;
            }
            tag => {
                return Err(malformed(format!(
                    "unknown packet tag {tag:#x} at word {i}"
                )));
            }
        }
    }
    if !crc_seen {
        return Err(malformed("stream carries no CRC packet"));
    }
    let wpf = device.words_per_frame() as usize;
    if !frames_words.is_multiple_of(wpf) {
        return Err(malformed(format!(
            "frame payload of {frames_words} words is not a multiple of \
             the device frame length ({wpf} words)"
        )));
    }
    Ok((frames_words / wpf) as u32)
}

/// SplitMix64: tiny deterministic generator for synthetic frame payloads.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Reflected IEEE CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the register contribution of byte `b`
/// followed by `k` more bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (CRC_POLY & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE polynomial, table-driven) over 32-bit words fed in
/// big-endian byte order — the order they travel through the port.
#[derive(Debug, Clone)]
pub struct Crc32 {
    value: u32,
}

impl Crc32 {
    /// Fresh CRC accumulator.
    pub fn new() -> Self {
        Crc32 { value: 0xFFFF_FFFF }
    }

    /// Register contribution of the four bytes packed little-endian in `x`
    /// (the first of them already XORed with the register), followed by
    /// `t` further bytes.
    #[inline(always)]
    fn slice4(x: u32, t: usize) -> u32 {
        CRC_TABLES[t + 3][(x & 0xFF) as usize]
            ^ CRC_TABLES[t + 2][((x >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[t + 1][((x >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[t][(x >> 24) as usize]
    }

    /// Feed one word (big-endian byte order).
    #[inline]
    pub fn update_word(&mut self, word: u32) {
        self.value = Self::slice4(self.value ^ word.swap_bytes(), 0);
    }

    /// Feed a run of words (big-endian byte order), eight bytes per step.
    pub fn update_words(&mut self, words: &[u32]) {
        let mut pairs = words.chunks_exact(2);
        for p in &mut pairs {
            self.value = Self::slice4(self.value ^ p[0].swap_bytes(), 4)
                ^ Self::slice4(p[1].swap_bytes(), 0);
        }
        for &w in pairs.remainder() {
            self.update_word(w);
        }
    }

    /// Feed raw bytes in stream order. Over an encoded FDRI payload this
    /// equals [`Crc32::update_words`] over the decoded words.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            self.value = Self::slice4(self.value ^ lo, 4) ^ Self::slice4(hi, 0);
        }
        for &b in chunks.remainder() {
            self.value =
                (self.value >> 8) ^ CRC_TABLES[0][((self.value ^ b as u32) & 0xFF) as usize];
        }
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        !self.value
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::xc2v2000()
    }

    fn region() -> ReconfigRegion {
        ReconfigRegion::new("op_dyn", 20, 4).unwrap()
    }

    #[test]
    fn partial_stream_size_matches_region_frames() {
        let d = dev();
        let r = region();
        let bs = Bitstream::partial_for_region(&d, &r, 1);
        assert_eq!(bs.frames(), r.frames(&d));
        // Dominated by frame payload: header overhead is < 1 %.
        let payload_bytes = r.frames(&d) as usize * d.words_per_frame() as usize * 4;
        assert!(bs.len_bytes() > payload_bytes);
        assert!(bs.len_bytes() < payload_bytes + 64);
    }

    #[test]
    fn paper_module_is_tens_of_kilobytes() {
        // 4 CLB columns of an XC2V2000 ≈ 50 KB of configuration data —
        // the quantity behind the paper's ≈ 4 ms at memory-limited rates.
        let bs = Bitstream::partial_for_region(&dev(), &region(), 7);
        let kb = bs.len_bytes() as f64 / 1024.0;
        assert!((30.0..80.0).contains(&kb), "got {kb} KB");
    }

    #[test]
    fn full_stream_is_larger_than_partial() {
        let d = dev();
        let full = Bitstream::full_for_device(&d, 1);
        let part = Bitstream::partial_for_region(&d, &region(), 1);
        assert!(full.len_bytes() > 10 * part.len_bytes());
        assert!(!part.kind.eq(&BitstreamKind::Full));
        assert!(part.is_partial());
        assert!(!full.is_partial());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = dev();
        let bs = Bitstream::partial_for_region(&d, &region(), 42);
        let bytes = bs.encode();
        assert_eq!(bytes.len(), bs.len_bytes());
        let back = Bitstream::decode(&bytes, &d, bs.kind.clone(), 42).unwrap();
        assert_eq!(back, bs);
    }

    #[test]
    fn decode_detects_corruption() {
        let d = dev();
        let bs = Bitstream::partial_for_region(&d, &region(), 42);
        let mut bytes = bs.encode();
        // Flip a bit inside the frame payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let err = Bitstream::decode(&bytes, &d, bs.kind, 42).unwrap_err();
        assert!(err.to_string().contains("CRC"), "got: {err}");
    }

    #[test]
    fn decode_detects_truncation() {
        let d = dev();
        let bs = Bitstream::partial_for_region(&d, &region(), 42);
        let bytes = bs.encode();
        let err = Bitstream::decode(&bytes[..bytes.len() - 8], &d, bs.kind, 42);
        assert!(err.is_err());
    }

    #[test]
    fn decode_rejects_unaligned() {
        let d = dev();
        let err = Bitstream::decode(&[0xFF, 0xFF, 0xFF], &d, BitstreamKind::Full, 0).unwrap_err();
        assert!(err.to_string().contains("word-aligned"));
    }

    #[test]
    fn different_fingerprints_differ() {
        let d = dev();
        let a = Bitstream::partial_for_region(&d, &region(), 1);
        let b = Bitstream::partial_for_region(&d, &region(), 2);
        assert_ne!(a.encode(), b.encode());
        assert_eq!(a.len_bytes(), b.len_bytes());
    }

    #[test]
    fn device_check() {
        let d = dev();
        let other = Device::by_name("XC2V1000").unwrap();
        let bs = Bitstream::partial_for_region(&d, &region(), 1);
        assert!(bs.check_device(&d).is_ok());
        assert!(matches!(
            bs.check_device(&other),
            Err(FabricError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn s7_rect_stream_has_one_far_per_clock_region_row() {
        let d = Device::by_name("XC7A100T").unwrap();
        let r = ReconfigRegion::rect("r", 10, 6, 50, 100).unwrap();
        let bs = Bitstream::partial_for_region(&d, &r, 42);
        let fars: Vec<FrameAddress> = bs
            .packets()
            .iter()
            .filter_map(|p| match p {
                Packet::Far(a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(fars.len(), 2, "one FAR per clock-region row spanned");
        assert_eq!(fars[0].row, 1);
        assert_eq!(fars[1].row, 2);
        assert_eq!(bs.frames(), r.frames(&d));
        // Round-trips through encode/decode, exercising CRC accumulation
        // across multiple FDRI packets.
        let back = Bitstream::decode(&bs.encode(), &d, bs.kind.clone(), 42).unwrap();
        assert_eq!(back, bs);
    }

    #[test]
    fn full_stream_memo_shares_storage_and_stays_bounded() {
        // Small custom devices: each (rows, cols, fingerprint) is its own
        // geometry, twice as many as the memo keeps.
        let geometries: Vec<(Device, u64)> = (0..2 * FULL_MEMO_GEOMETRIES as u32)
            .map(|i| {
                let d = Device::custom(format!("memo{i}"), 8 + 4 * (i % 3), 6 + i % 5, 1);
                (d, 1_000 + u64::from(i))
            })
            .collect();
        let fresh = |d: &Device, fp: u64| {
            Bitstream::packetize(d, BlockType::Clb, 0, d.total_frames(), fp, true)
        };

        let (d, fp) = &geometries[0];
        let a = Bitstream::full_for_device(d, *fp);
        let b = Bitstream::full_for_device(d, *fp);
        assert!(
            Arc::ptr_eq(&a.packets, &b.packets),
            "one geometry, one copy"
        );
        assert_eq!(a.packets(), fresh(d, *fp).as_slice());

        std::thread::scope(|s| {
            for t in 0..4 {
                let geometries = &geometries;
                s.spawn(move || {
                    for round in 0..3 {
                        for k in 0..geometries.len() {
                            let (d, fp) = &geometries[(k + 5 * t + round) % geometries.len()];
                            let bs = Bitstream::full_for_device(d, *fp);
                            assert_eq!(bs.packets(), fresh(d, *fp).as_slice());
                            assert_eq!(bs.frames(), d.total_frames());
                            let len = FULL_MEMO
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .len();
                            assert!(len <= FULL_MEMO_GEOMETRIES, "memo holds {len}");
                        }
                    }
                });
            }
        });

        // A panic while the lock is held poisons it; the memo keeps serving.
        let poisoner = std::thread::spawn(|| {
            let _held = FULL_MEMO.lock();
            panic!("poison the memo lock");
        });
        assert!(poisoner.join().is_err());
        let (d, fp) = &geometries[1];
        assert_eq!(
            Bitstream::full_for_device(d, *fp).packets(),
            fresh(d, *fp).as_slice()
        );
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        let mut c = SplitMix64::new(10);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn crc_is_order_sensitive() {
        let mut a = Crc32::new();
        a.update_word(1);
        a.update_word(2);
        let mut b = Crc32::new();
        b.update_word(2);
        b.update_word(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn packet_words_accounting() {
        assert_eq!(Packet::Sync.words(), 2);
        assert_eq!(Packet::Cmd(Command::Wcfg).words(), 1);
        assert_eq!(
            Packet::Far(FrameAddress::new(BlockType::Clb, 0, 0)).words(),
            2
        );
        assert_eq!(Packet::Fdri(vec![0; 10]).words(), 11);
        assert_eq!(Packet::Crc(0).words(), 1);
    }

    /// `bs` with its packets replaced by `edit` of them.
    fn edited(bs: &Bitstream, edit: impl FnOnce(&mut Vec<Packet>)) -> Bitstream {
        let mut packets = bs.packets().to_vec();
        edit(&mut packets);
        Bitstream {
            packets: packets.into(),
            ..bs.clone()
        }
    }

    #[test]
    fn validate_in_place_matches_the_encoded_image() {
        let d = dev();
        let good = Bitstream::partial_for_region(&d, &region(), 3);
        let fdri = |p: &[Packet]| p.iter().position(|p| matches!(p, Packet::Fdri(_))).unwrap();
        let crc = |p: &[Packet]| p.iter().position(|p| matches!(p, Packet::Crc(_))).unwrap();
        let cases = [
            ("intact", good.clone()),
            (
                "corrupted CRC",
                edited(&good, |p| {
                    let i = crc(p);
                    p[i] = Packet::Crc(0x0123_4567);
                }),
            ),
            (
                "no CRC",
                edited(&good, |p| {
                    let i = crc(p);
                    p.remove(i);
                }),
            ),
            (
                "frame data off the frame multiple, CRC consistent",
                edited(&good, |p| {
                    let i = fdri(p);
                    let Packet::Fdri(data) = &mut p[i] else {
                        unreachable!()
                    };
                    data.pop();
                    let mut c = Crc32::new();
                    c.update_words(data);
                    let j = crc(p);
                    p[j] = Packet::Crc(c.finish());
                }),
            ),
            ("empty", edited(&good, |p| p.clear())),
        ];
        for (what, bs) in &cases {
            let in_place = bs.validate(&d);
            assert_eq!(
                in_place,
                Bitstream::validate_encoded(&bs.encode(), &d),
                "{what}"
            );
            assert_eq!(in_place.is_ok(), *what == "intact", "{what}: {in_place:?}");
        }
        assert_eq!(good.validate(&d), Ok(good.frames()));
        // A stream built for another geometry fails the frame multiple.
        let other = Device::custom(d.name.clone(), d.clb_rows + 8, d.clb_cols, d.bram_cols);
        let err = good.validate(&other).unwrap_err();
        assert_eq!(
            Err(err),
            Bitstream::validate_encoded(&good.encode(), &other)
        );
    }

    /// The packet reader yields the image's words, and a payload read of
    /// any length — within the packet, running on into the following
    /// packets (what a payload longer than its length field would
    /// declare), or past the end — sees what the image reader sees.
    #[test]
    fn packet_words_read_as_the_image() {
        let bs = Bitstream::partial_for_region(&dev(), &region(), 5);
        let image = bs.encode();
        let mut from_packets = PacketWords::new(bs.packets());
        let mut from_image = ImageWords::new(&image).unwrap();
        let mut n = 0;
        while let Some(w) = from_image.next_word() {
            assert_eq!(from_packets.next_word(), Some(w), "word {n}");
            n += 1;
        }
        assert_eq!(from_packets.next_word(), None);
        assert_eq!(n, bs.len_words());

        let header = 1 + bs
            .packets()
            .iter()
            .take_while(|p| !matches!(p, Packet::Fdri(_)))
            .map(Packet::words)
            .sum::<usize>();
        let data = bs.packets().iter().find_map(|p| match p {
            Packet::Fdri(data) => Some(data.len()),
            _ => None,
        });
        let data = data.unwrap();
        for take in [
            0,
            1,
            data - 1,
            data,
            data + 1,
            data + 3,
            n - header,
            n - header + 1,
        ] {
            let mut from_packets = PacketWords::new(bs.packets());
            let mut from_image = ImageWords::new(&image).unwrap();
            for _ in 0..header {
                assert_eq!(from_packets.next_word(), from_image.next_word());
            }
            let (mut crc_p, mut crc_i) = (Crc32::new(), Crc32::new());
            let read_p = from_packets.payload(take, &mut crc_p).is_some();
            let read_i = from_image.payload(take, &mut crc_i).is_some();
            assert_eq!(read_p, read_i, "payload of {take} words");
            if read_i {
                assert_eq!(crc_p.finish(), crc_i.finish(), "payload of {take} words");
                assert_eq!(from_packets.next_word(), from_image.next_word());
            }
        }
    }

    #[test]
    fn command_codes_roundtrip() {
        for c in [
            Command::Wcfg,
            Command::Lfrm,
            Command::Rcrc,
            Command::Start,
            Command::Desync,
        ] {
            assert_eq!(Command::from_code(c.code()), Some(c));
        }
        assert_eq!(Command::from_code(0xE), None);
    }
}
