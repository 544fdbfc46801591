//! The canonical FNV-1a digest shared by everything that content-addresses
//! artifacts: `FlowArtifacts::digest()` in `pdr-core`, `pdr-server`'s
//! content-addressed result cache, and the sweep engine's
//! thread-count-invariant outcome digests. One implementation, so two
//! layers can never disagree about what a digest covers byte-for-byte.

/// A streaming 64-bit FNV-1a hasher.
///
/// Deterministic across platforms, processes and thread counts — the
/// point is a *canonical* content address, not collision resistance.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64 {
            state: OFFSET_BASIS,
        }
    }

    /// Absorb raw bytes.
    pub fn eat_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
        self
    }

    /// Absorb a string's UTF-8 bytes.
    pub fn eat_str(&mut self, s: &str) -> &mut Self {
        self.eat_bytes(s.as_bytes())
    }

    /// Absorb an unsigned integer (little-endian bytes, fixed width, so
    /// `1u64` and `"1"` hash differently and fields can't bleed into one
    /// another).
    pub fn eat_u64(&mut self, v: u64) -> &mut Self {
        self.eat_bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot digest of a string.
    pub fn of_str(s: &str) -> u64 {
        let mut h = Fnv64::new();
        h.eat_str(s);
        h.finish()
    }
}

/// Formatted text absorbs exactly like [`Fnv64::eat_str`] over the whole
/// text, however it is split into pieces — so a render can be hashed as
/// it is written, without building the `String`.
impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.eat_str(s);
        Ok(())
    }
}

/// Render a digest the way artifacts and the server protocol print it:
/// 16 lowercase hex digits, zero padded.
pub fn to_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::of_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::of_str("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.eat_str("foo").eat_str("bar");
        assert_eq!(h.finish(), Fnv64::of_str("foobar"));
    }

    #[test]
    fn formatted_writes_equal_one_shot() {
        use std::fmt::Write;
        let mut h = Fnv64::new();
        let op = "dsp";
        write!(h, "op {op}: {:>4}", 42).unwrap();
        h.write_char('é').unwrap();
        assert_eq!(h.finish(), Fnv64::of_str("op dsp:   42é"));
    }

    #[test]
    fn u64_fields_are_width_delimited() {
        let mut a = Fnv64::new();
        a.eat_u64(1).eat_u64(0);
        let mut b = Fnv64::new();
        b.eat_u64(0).eat_u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(Fnv64::new().eat_u64(1).finish(), Fnv64::of_str("1"));
    }

    #[test]
    fn hex_render_is_fixed_width() {
        assert_eq!(to_hex(0xab), "00000000000000ab");
        assert_eq!(to_hex(u64::MAX), "ffffffffffffffff");
    }
}
