//! Walsh–Hadamard spreading — the CDMA component of MC-CDMA.
//!
//! Each user's symbol stream is multiplied by an orthogonal ±1 Walsh code
//! of length `SF` (the spreading factor); the chips of all users are summed
//! and spread across subcarriers. Orthogonality makes despreading exact on
//! an ideal channel.

use crate::complex::Cplx;

/// A Walsh–Hadamard code book of a given power-of-two spreading factor.
#[derive(Debug, Clone)]
pub struct WalshHadamard {
    sf: usize,
    /// Row-major ±1 matrix, `sf × sf`.
    codes: Vec<i8>,
}

impl WalshHadamard {
    /// Build the code book via the Sylvester construction.
    pub fn new(sf: usize) -> Self {
        assert!(
            sf.is_power_of_two(),
            "spreading factor must be a power of two"
        );
        let mut codes = vec![1i8; sf * sf];
        let mut size = 1;
        while size < sf {
            for i in 0..size {
                for j in 0..size {
                    let v = codes[i * sf + j];
                    codes[i * sf + (j + size)] = v;
                    codes[(i + size) * sf + j] = v;
                    codes[(i + size) * sf + (j + size)] = -v;
                }
            }
            size <<= 1;
        }
        WalshHadamard { sf, codes }
    }

    /// The spreading factor.
    pub fn sf(&self) -> usize {
        self.sf
    }

    /// Code row of `user`.
    pub fn code(&self, user: usize) -> &[i8] {
        assert!(user < self.sf, "user {user} out of {} codes", self.sf);
        &self.codes[user * self.sf..(user + 1) * self.sf]
    }

    /// Spread a symbol stream of one user (concatenated chip blocks).
    pub fn spread(&self, user: usize, symbols: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(symbols.len() * self.sf);
        self.spread_into(user, symbols, &mut out);
        out
    }

    /// [`WalshHadamard::spread`] appending into a caller-owned buffer: one
    /// flat pass over the code row per symbol, no per-symbol chip vector.
    pub fn spread_into(&self, user: usize, symbols: &[Cplx], out: &mut Vec<Cplx>) {
        let code = self.code(user);
        out.reserve(symbols.len() * self.sf);
        for &s in symbols {
            out.extend(code.iter().map(|&c| s.scale(c as f64)));
        }
    }

    /// Despread chips back to symbols (correlate with the user's code and
    /// normalize by `sf`).
    pub fn despread(&self, user: usize, chips: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::with_capacity(chips.len() / self.sf);
        self.despread_into(user, chips, &mut out);
        out
    }

    /// [`WalshHadamard::despread`] appending into a caller-owned buffer.
    pub fn despread_into(&self, user: usize, chips: &[Cplx], out: &mut Vec<Cplx>) {
        assert!(
            chips.len().is_multiple_of(self.sf),
            "chip count {} is not a multiple of SF {}",
            chips.len(),
            self.sf
        );
        let code = self.code(user);
        out.extend(chips.chunks_exact(self.sf).map(|block| {
            let acc: Cplx = block
                .iter()
                .zip(code)
                .map(|(&chip, &c)| chip.scale(c as f64))
                .sum();
            acc / self.sf as f64
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_orthogonal() {
        let wh = WalshHadamard::new(32);
        for a in 0..32 {
            for b in 0..32 {
                let dot: i32 = wh
                    .code(a)
                    .iter()
                    .zip(wh.code(b))
                    .map(|(&x, &y)| (x as i32) * (y as i32))
                    .sum();
                if a == b {
                    assert_eq!(dot, 32);
                } else {
                    assert_eq!(dot, 0, "codes {a} and {b} not orthogonal");
                }
            }
        }
    }

    #[test]
    fn spread_despread_roundtrip() {
        let wh = WalshHadamard::new(16);
        let symbols = vec![Cplx::new(1.0, -0.5), Cplx::new(-0.3, 0.8)];
        for user in [0, 5, 15] {
            let chips = wh.spread(user, &symbols);
            assert_eq!(chips.len(), 32);
            let back = wh.despread(user, &chips);
            for (a, b) in symbols.iter().zip(&back) {
                assert!((*a - *b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multi_user_separation() {
        // Three users share the channel; each recovers exactly their own
        // symbols thanks to orthogonality.
        let wh = WalshHadamard::new(8);
        let users = [1usize, 3, 6];
        let symbols = [
            vec![Cplx::new(1.0, 0.0)],
            vec![Cplx::new(0.0, -1.0)],
            vec![Cplx::new(-0.7, 0.7)],
        ];
        let mut combined = vec![Cplx::ZERO; 8];
        for (&u, s) in users.iter().zip(&symbols) {
            for (o, c) in combined.iter_mut().zip(wh.spread(u, s)) {
                *o += c;
            }
        }
        for (i, &u) in users.iter().enumerate() {
            let rec = wh.despread(u, &combined);
            assert!((rec[0] - symbols[i][0]).abs() < 1e-12, "user {u}");
        }
        // An unused code sees zero.
        let silent = wh.despread(0, &combined);
        assert!(silent[0].abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sf_panics() {
        let _ = WalshHadamard::new(12);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn bad_user_panics() {
        let wh = WalshHadamard::new(4);
        let _ = wh.code(4);
    }

    #[test]
    #[should_panic(expected = "multiple of SF")]
    fn misaligned_chips_panic() {
        let wh = WalshHadamard::new(4);
        let _ = wh.despread(0, &[Cplx::ZERO; 6]);
    }
}
