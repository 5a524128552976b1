//! SPHINCS+ parameter sets (Table I of the paper).
//!
//! The paper targets the *fast* (`-f`) variants with SHA-256; the small
//! (`-s`) variants are included as an extension because the tuner and the
//! GPU kernels are parameter-generic. The `shake_*` shapes pair the same
//! six `(n, h, d, log t, k, w)` tuples with the SHAKE-256 instantiation
//! ([`Params::preferred_alg`]), completing the NIST parameter matrix.
//!
//! ```
//! use hero_sphincs::{hash::HashAlg, params::Params};
//! let p = Params::shake_128f();
//! assert_eq!(p.sig_bytes(), 17_088); // sizes depend only on the shape
//! assert_eq!(p.preferred_alg(), HashAlg::Shake256);
//! ```

use crate::hash::HashAlg;
use std::fmt;

/// A SPHINCS+ parameter set.
///
/// All derived quantities (WOTS+ lengths, signature sizes, hash counts)
/// are computed from the six base parameters of Table I.
///
/// ```
/// use hero_sphincs::params::Params;
/// let p = Params::sphincs_128f();
/// assert_eq!(p.sig_bytes(), 17_088); // matches the paper's intro
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Params {
    name: &'static str,
    /// Security parameter: bytes of hash output, secret keys, public seeds.
    pub n: usize,
    /// Total hypertree height.
    pub h: usize,
    /// Number of hypertree layers.
    pub d: usize,
    /// Height of each FORS tree (`log t`, written `a` in the spec).
    pub log_t: usize,
    /// Number of FORS trees.
    pub k: usize,
    /// Winternitz parameter.
    pub w: usize,
}

impl fmt::Debug for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Params")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("h", &self.h)
            .field("d", &self.d)
            .field("log_t", &self.log_t)
            .field("k", &self.k)
            .field("w", &self.w)
            .finish()
    }
}

impl fmt::Display for Params {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl Params {
    /// SPHINCS+-128f: n=16, h=66, d=22, log t=6, k=33, w=16.
    pub const fn sphincs_128f() -> Self {
        Self {
            name: "SPHINCS+-128f",
            n: 16,
            h: 66,
            d: 22,
            log_t: 6,
            k: 33,
            w: 16,
        }
    }

    /// SPHINCS+-192f: n=24, h=66, d=22, log t=8, k=33, w=16.
    pub const fn sphincs_192f() -> Self {
        Self {
            name: "SPHINCS+-192f",
            n: 24,
            h: 66,
            d: 22,
            log_t: 8,
            k: 33,
            w: 16,
        }
    }

    /// SPHINCS+-256f: n=32, h=68, d=17, log t=9, k=35, w=16.
    pub const fn sphincs_256f() -> Self {
        Self {
            name: "SPHINCS+-256f",
            n: 32,
            h: 68,
            d: 17,
            log_t: 9,
            k: 35,
            w: 16,
        }
    }

    /// SPHINCS+-128s (extension; not evaluated in the paper).
    pub const fn sphincs_128s() -> Self {
        Self {
            name: "SPHINCS+-128s",
            n: 16,
            h: 63,
            d: 7,
            log_t: 12,
            k: 14,
            w: 16,
        }
    }

    /// SPHINCS+-192s (extension; not evaluated in the paper).
    pub const fn sphincs_192s() -> Self {
        Self {
            name: "SPHINCS+-192s",
            n: 24,
            h: 63,
            d: 7,
            log_t: 14,
            k: 17,
            w: 16,
        }
    }

    /// SPHINCS+-256s (extension; not evaluated in the paper).
    pub const fn sphincs_256s() -> Self {
        Self {
            name: "SPHINCS+-256s",
            n: 32,
            h: 64,
            d: 8,
            log_t: 14,
            k: 22,
            w: 16,
        }
    }

    /// SPHINCS+-SHAKE-128f: the 128f shape under the SHAKE-256
    /// instantiation. Signature, key and digest sizes depend only on
    /// `(n, h, d, log t, k, w)`, so they match [`Params::sphincs_128f`];
    /// the name differs so key files and CLI labels never conflate the
    /// two hash families.
    pub const fn shake_128f() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-128f",
            ..Self::sphincs_128f()
        }
    }

    /// SPHINCS+-SHAKE-192f (see [`Params::shake_128f`]).
    pub const fn shake_192f() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-192f",
            ..Self::sphincs_192f()
        }
    }

    /// SPHINCS+-SHAKE-256f (see [`Params::shake_128f`]).
    pub const fn shake_256f() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-256f",
            ..Self::sphincs_256f()
        }
    }

    /// SPHINCS+-SHAKE-128s (see [`Params::shake_128f`]).
    pub const fn shake_128s() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-128s",
            ..Self::sphincs_128s()
        }
    }

    /// SPHINCS+-SHAKE-192s (see [`Params::shake_128f`]).
    pub const fn shake_192s() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-192s",
            ..Self::sphincs_192s()
        }
    }

    /// SPHINCS+-SHAKE-256s (see [`Params::shake_128f`]).
    pub const fn shake_256s() -> Self {
        Self {
            name: "SPHINCS+-SHAKE-256s",
            ..Self::sphincs_256s()
        }
    }

    /// The three `-f` sets evaluated throughout the paper.
    pub const fn fast_sets() -> [Self; 3] {
        [
            Self::sphincs_128f(),
            Self::sphincs_192f(),
            Self::sphincs_256f(),
        ]
    }

    /// All built-in SHA-2 parameter sets.
    pub const fn all_sets() -> [Self; 6] {
        [
            Self::sphincs_128f(),
            Self::sphincs_192f(),
            Self::sphincs_256f(),
            Self::sphincs_128s(),
            Self::sphincs_192s(),
            Self::sphincs_256s(),
        ]
    }

    /// All six SHAKE-256 parameter sets.
    pub const fn shake_sets() -> [Self; 6] {
        [
            Self::shake_128f(),
            Self::shake_192f(),
            Self::shake_256f(),
            Self::shake_128s(),
            Self::shake_192s(),
            Self::shake_256s(),
        ]
    }

    /// The hash primitive this shape is named for: [`HashAlg::Shake256`]
    /// for the `shake_*` shapes, [`HashAlg::Sha256`] otherwise. Shapes
    /// and primitives stay independently combinable ([`crate::hash::HashCtx`]
    /// accepts any pairing); this is the default the CLI and key files
    /// use when no explicit algorithm is given.
    pub const fn preferred_alg(&self) -> HashAlg {
        if self.is_shake_shape() {
            HashAlg::Shake256
        } else {
            HashAlg::Sha256
        }
    }

    /// Whether this is one of the `shake_*`-named shapes.
    const fn is_shake_shape(&self) -> bool {
        // const-compatible prefix test on the name.
        const PREFIX: &[u8] = b"SPHINCS+-SHAKE-";
        let name = self.name.as_bytes();
        if name.len() < PREFIX.len() {
            return false;
        }
        let mut i = 0;
        while i < PREFIX.len() {
            if name[i] != PREFIX[i] {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Human-readable name, e.g. `"SPHINCS+-128f"`.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Looks a built-in set up by label: `128f`, `shake-192s`,
    /// `SPHINCS+-SHAKE-128f`, … (case-insensitive; the `SPHINCS+-`
    /// prefix and the dash after `shake` are optional). The single
    /// parser behind the CLI, key files, and the server's keygen op.
    ///
    /// ```
    /// use hero_sphincs::params::Params;
    /// assert_eq!(Params::from_label("128f"), Some(Params::sphincs_128f()));
    /// assert_eq!(Params::from_label("SHAKE256s"), Some(Params::shake_256s()));
    /// assert_eq!(Params::from_label("512f"), None);
    /// ```
    pub fn from_label(label: &str) -> Option<Self> {
        let norm = label.trim().to_ascii_lowercase();
        let norm = norm.strip_prefix("sphincs+-").unwrap_or(&norm);
        match norm {
            "128f" => Some(Self::sphincs_128f()),
            "192f" => Some(Self::sphincs_192f()),
            "256f" => Some(Self::sphincs_256f()),
            "128s" => Some(Self::sphincs_128s()),
            "192s" => Some(Self::sphincs_192s()),
            "256s" => Some(Self::sphincs_256s()),
            "shake-128f" | "shake128f" => Some(Self::shake_128f()),
            "shake-192f" | "shake192f" => Some(Self::shake_192f()),
            "shake-256f" | "shake256f" => Some(Self::shake_256f()),
            "shake-128s" | "shake128s" => Some(Self::shake_128s()),
            "shake-192s" | "shake192s" => Some(Self::shake_192s()),
            "shake-256s" | "shake256s" => Some(Self::shake_256s()),
            _ => None,
        }
    }

    /// Height of each subtree in the hypertree (`h/d`, written `h'`).
    pub const fn tree_height(&self) -> usize {
        self.h / self.d
    }

    /// Number of leaves per FORS tree (`t = 2^log_t`).
    pub const fn t(&self) -> usize {
        1 << self.log_t
    }

    /// `log2(w)`: bits encoded per WOTS+ chain.
    pub const fn log_w(&self) -> usize {
        self.w.trailing_zeros() as usize
    }

    /// WOTS+ message chains: `len1 = ceil(8n / log2 w)`.
    pub const fn wots_len1(&self) -> usize {
        (8 * self.n).div_ceil(self.log_w())
    }

    /// WOTS+ checksum chains: `len2 = floor(log2(len1*(w-1)) / log2 w) + 1`.
    pub const fn wots_len2(&self) -> usize {
        let max_csum = self.wots_len1() * (self.w - 1);
        // floor(log2(max_csum)) via leading zeros.
        let log2 = usize::BITS as usize - 1 - max_csum.leading_zeros() as usize;
        log2 / self.log_w() + 1
    }

    /// Total WOTS+ chains: `len = len1 + len2`.
    pub const fn wots_len(&self) -> usize {
        self.wots_len1() + self.wots_len2()
    }

    /// Bytes of a WOTS+ signature (`len · n`).
    pub const fn wots_sig_bytes(&self) -> usize {
        self.wots_len() * self.n
    }

    /// Bytes of a FORS signature: `k · (n + log_t · n)` (secret element plus
    /// authentication path per tree).
    pub const fn fors_sig_bytes(&self) -> usize {
        self.k * (self.n + self.log_t * self.n)
    }

    /// Bytes of the full SPHINCS+ signature:
    /// `n (randomizer) + FORS + d · (WOTS+ + h' · n)`.
    pub const fn sig_bytes(&self) -> usize {
        self.n
            + self.fors_sig_bytes()
            + self.d * (self.wots_sig_bytes() + self.tree_height() * self.n)
    }

    /// Bytes of the public key (`pk_seed || pk_root`).
    pub const fn pk_bytes(&self) -> usize {
        2 * self.n
    }

    /// Bytes of the secret key (`sk_seed || sk_prf || pk_seed || pk_root`).
    pub const fn sk_bytes(&self) -> usize {
        4 * self.n
    }

    /// Total FORS leaves across all `k` trees (`k · t`), the quantity that
    /// overflows a 1024-thread block and motivates FORS Fusion (§III-B).
    pub const fn fors_total_leaves(&self) -> usize {
        self.k * self.t()
    }

    /// Leaves per hypertree subtree (`2^(h/d)`).
    pub const fn subtree_leaves(&self) -> usize {
        1 << self.tree_height()
    }

    /// Total hypertree leaf nodes across all `d` layers (`d · 2^(h/d)`),
    /// e.g. 176 / 176 / 272 for 128f/192f/256f (§III-B1).
    pub const fn hypertree_total_leaves(&self) -> usize {
        self.d * self.subtree_leaves()
    }

    /// Message-digest length in bytes consumed by `H_msg` splitting:
    /// `ceil(k·log_t/8) + ceil((h - h/d)/8) + ceil(h'/8)`.
    pub const fn digest_bytes(&self) -> usize {
        let md = (self.k * self.log_t).div_ceil(8);
        let tree = (self.h - self.tree_height()).div_ceil(8);
        let leaf = self.tree_height().div_ceil(8);
        md + tree + leaf
    }

    /// Validates internal consistency of a (possibly custom) parameter set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.n, 16 | 24 | 32) {
            return Err(format!("unsupported n={} (need 16, 24 or 32)", self.n));
        }
        if !self.w.is_power_of_two() || self.w < 4 {
            return Err(format!("w={} must be a power of two >= 4", self.w));
        }
        if !(8 * self.n).is_multiple_of(self.log_w()) {
            // base_w consumes exactly len1·log2(w) message bits; a
            // non-dividing w would demand more bits than the n-byte
            // digest carries.
            return Err(format!(
                "w={}: log2(w) must divide the digest bits 8n={}",
                self.w,
                8 * self.n
            ));
        }
        if self.d == 0 || !self.h.is_multiple_of(self.d) {
            return Err(format!("d={} must divide h={}", self.d, self.h));
        }
        if self.log_t == 0 || self.log_t > 16 {
            return Err(format!("log_t={} out of range", self.log_t));
        }
        if self.k == 0 {
            return Err("k must be positive".to_string());
        }
        if self.h > 64 + self.tree_height() {
            return Err(format!("h={} too large for 64-bit tree index", self.h));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let p128 = Params::sphincs_128f();
        assert_eq!(
            (p128.n, p128.h, p128.d, p128.log_t, p128.k, p128.w),
            (16, 66, 22, 6, 33, 16)
        );
        let p192 = Params::sphincs_192f();
        assert_eq!(
            (p192.n, p192.h, p192.d, p192.log_t, p192.k, p192.w),
            (24, 66, 22, 8, 33, 16)
        );
        let p256 = Params::sphincs_256f();
        assert_eq!(
            (p256.n, p256.h, p256.d, p256.log_t, p256.k, p256.w),
            (32, 68, 17, 9, 35, 16)
        );
    }

    #[test]
    fn wots_lengths() {
        // For w=16: len1 = 2n, len2 = 3 for all three sets.
        assert_eq!(Params::sphincs_128f().wots_len(), 35);
        assert_eq!(Params::sphincs_192f().wots_len(), 51);
        assert_eq!(Params::sphincs_256f().wots_len(), 67);
    }

    #[test]
    fn signature_sizes_match_published() {
        // Published SPHINCS+ round-3 signature sizes.
        assert_eq!(Params::sphincs_128f().sig_bytes(), 17_088);
        assert_eq!(Params::sphincs_192f().sig_bytes(), 35_664);
        assert_eq!(Params::sphincs_256f().sig_bytes(), 49_856);
        assert_eq!(Params::sphincs_128s().sig_bytes(), 7_856);
        assert_eq!(Params::sphincs_192s().sig_bytes(), 16_224);
        assert_eq!(Params::sphincs_256s().sig_bytes(), 29_792);
    }

    #[test]
    fn hypertree_leaf_counts_match_paper() {
        // §III-B1: 176, 176, 272 hypertree leaves.
        assert_eq!(Params::sphincs_128f().hypertree_total_leaves(), 176);
        assert_eq!(Params::sphincs_192f().hypertree_total_leaves(), 176);
        assert_eq!(Params::sphincs_256f().hypertree_total_leaves(), 272);
    }

    #[test]
    fn fors_leaf_counts_match_paper() {
        // §III-B1: 2112, 8448, 17920 FORS leaves.
        assert_eq!(Params::sphincs_128f().fors_total_leaves(), 2_112);
        assert_eq!(Params::sphincs_192f().fors_total_leaves(), 8_448);
        assert_eq!(Params::sphincs_256f().fors_total_leaves(), 17_920);
    }

    #[test]
    fn all_sets_validate() {
        for p in Params::all_sets() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        }
    }

    #[test]
    fn invalid_sets_rejected() {
        let mut p = Params::sphincs_128f();
        p.n = 20;
        assert!(p.validate().is_err());
        let mut p = Params::sphincs_128f();
        p.d = 23; // does not divide 66
        assert!(p.validate().is_err());
        let mut p = Params::sphincs_128f();
        p.w = 12;
        assert!(p.validate().is_err());
        let mut p = Params::sphincs_128f();
        p.k = 0;
        assert!(p.validate().is_err());
    }
}
