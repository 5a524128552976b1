//! Seeded input generation: every message and key is a pure function of
//! `(--seed, index)`, so the same seed gives the same inputs and the
//! program under test receives nothing but those inputs.

use hero_sphincs::params::Params;
use hero_sphincs::sign::{keygen_from_seeds, SigningKey, VerifyingKey};

/// Message length in bytes (a digest-sized payload, as a caller that
/// pre-hashes would send).
pub const MSG_LEN: usize = 32;

/// One message.
pub type Msg = [u8; MSG_LEN];

const MSG_DOMAIN: u64 = 0x6d73_6773; // "msgs"
const KEY_DOMAIN: u64 = 0x6b65_7973; // "keys"
const TAMPER_DOMAIN: u64 = 0x7461_6d70; // "tamp"

/// xorshift64* generator.
pub struct XorShift(u64);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl XorShift {
    /// The stream of `(seed, domain, index)`; never the all-zero state.
    pub fn stream(seed: u64, domain: u64, index: u64) -> Self {
        let state = splitmix64(splitmix64(seed ^ domain.rotate_left(32)) ^ index);
        Self(state | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }
}

/// Message `index` of the run seeded with `seed`.
pub fn message(seed: u64, index: u64) -> Msg {
    let mut msg = [0u8; MSG_LEN];
    XorShift::stream(seed, MSG_DOMAIN, index).fill(&mut msg);
    msg
}

/// `count` consecutive messages starting at `first`.
pub fn messages(seed: u64, first: u64, count: usize) -> Vec<Msg> {
    (0..count as u64)
        .map(|i| message(seed, first + i))
        .collect()
}

/// Key pair `index` of the run seeded with `seed` (SPHINCS+-128f, SHA-256).
pub fn keypair(seed: u64, index: u64) -> (SigningKey, VerifyingKey) {
    let params = Params::sphincs_128f();
    let mut rng = XorShift::stream(seed, KEY_DOMAIN, index);
    let mut part = || {
        let mut bytes = vec![0u8; params.n];
        rng.fill(&mut bytes);
        bytes
    };
    let (sk_seed, sk_prf, pk_seed) = (part(), part(), part());
    keygen_from_seeds(params, sk_seed, sk_prf, pk_seed)
}

/// The generator that picks which bit of entry `index` to flip.
pub fn tamper_stream(seed: u64, index: u64) -> XorShift {
    XorShift::stream(seed, TAMPER_DOMAIN, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(messages(7, 0, 64), messages(7, 0, 64));
        let (a, _) = keypair(7, 3);
        let (b, _) = keypair(7, 3);
        assert_eq!(a.sk_seed(), b.sk_seed());
        assert_eq!(a.pk_root(), b.pk_root());
    }

    #[test]
    fn seeds_and_indices_give_different_inputs() {
        assert_ne!(message(1, 0), message(2, 0));
        assert_ne!(message(1, 0), message(1, 1));
        let all = messages(1, 0, 512);
        let distinct: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
        assert_ne!(keypair(1, 0).0.sk_seed(), keypair(2, 0).0.sk_seed());
        assert_ne!(keypair(1, 0).0.sk_seed(), keypair(1, 1).0.sk_seed());
        // Messages and keys draw from separate streams.
        assert_ne!(&message(1, 0)[..16], keypair(1, 0).0.sk_seed());
    }
}
