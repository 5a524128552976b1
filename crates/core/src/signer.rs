//! The backend-agnostic [`Signer`] trait and the CPU [`ReferenceSigner`].
//!
//! Callers that only need *signatures* — services, the CLI, benches —
//! program against `dyn Signer` and pick a backend at the edge:
//!
//! * [`crate::engine::HeroSigner`] — the paper's three-kernel
//!   decomposition, each batch one stage graph ([`crate::plan`]) on the
//!   signer's persistent worker pool. It prices nothing; the GPU model
//!   is [`crate::SimModel`].
//! * [`ReferenceSigner`] — [`hero_sphincs::reference`] behind the trait:
//!   the scalar second implementation of the scheme, sign and verify, one
//!   hash call at a time on the calling thread. It shares no tree
//!   builder, chain kernel or lane engine with the engine, which is what
//!   makes it the correctness oracle: a `dyn Signer` agreement test is a
//!   cross-implementation check. Some ten times slower than the engine.
//!
//! Every backend produces bit-identical signatures for the same key and
//! message; backends differ in *how* the work is executed, never in the
//! bytes produced.

use crate::cache::CacheStats;
use crate::error::HeroError;
use crate::kernels::verify::VerifyOutcome;

use hero_sphincs::params::Params;
use hero_sphincs::reference;
use hero_sphincs::sign::{Signature, SigningKey, VerifyingKey};
use rand::RngCore;

/// A SPHINCS+ signing backend.
///
/// The trait is object-safe: `Box<dyn Signer>` lets services select the
/// backend at runtime (see `examples/batch_signing_service.rs`).
pub trait Signer {
    /// The parameter set this backend was constructed for.
    fn params(&self) -> &Params;

    /// A short human-readable backend label (for logs and CLI output).
    fn backend(&self) -> &'static str;

    /// Generates a key pair for this backend's parameter set, under the
    /// shape's preferred hash primitive (SHAKE-256 for the `shake_*`
    /// shapes, SHA-256 otherwise).
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidParams`] if the parameter set fails substrate
    /// validation.
    fn keygen(&self, rng: &mut dyn RngCore) -> Result<(SigningKey, VerifyingKey), HeroError> {
        // Reborrow: `keygen_with_alg` is generic over sized `R: RngCore`,
        // and `&mut dyn RngCore` itself implements `RngCore`.
        let mut rng = rng;
        let params = *self.params();
        hero_sphincs::keygen_with_alg(params, params.preferred_alg(), &mut rng)
            .map_err(HeroError::from)
    }

    /// Signs `msg` with `sk`.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this backend.
    fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError>;

    /// Signs every message in `msgs`, in order.
    ///
    /// # Errors
    ///
    /// As [`Signer::sign`]; the default implementation stops at the
    /// first failure.
    fn sign_batch(&self, sk: &SigningKey, msgs: &[&[u8]]) -> Result<Vec<Signature>, HeroError> {
        msgs.iter().map(|m| self.sign(sk, m)).collect()
    }

    /// Snapshot of this backend's hypertree-memoization counters, or
    /// `None` for backends without a cache (the default). Lets
    /// `dyn Signer` holders — servers, the CLI — report cache health
    /// without downcasting to a concrete engine.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Pre-fills this backend's hypertree cache for `sk`, returning how
    /// many subtrees were freshly built. The default (for backends
    /// without a cache) does nothing and reports zero.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this backend.
    fn warm_key(&self, sk: &SigningKey) -> Result<usize, HeroError> {
        let _ = sk;
        Ok(0)
    }

    /// Verifies `sig` over `msg` with `vk`.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] on a foreign key;
    /// [`HeroError::Sphincs`] when verification fails.
    fn verify(&self, vk: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), HeroError> {
        check_key(self.params(), vk.params())?;
        vk.verify(msg, sig).map_err(HeroError::from)
    }

    /// Verifies every `sigs[i]` over `msgs[i]`, returning one typed
    /// [`VerifyOutcome`] per message — a mixed batch reports exactly
    /// which indices failed, and never short-circuits. The reference
    /// backend goes pair by pair through the scalar verifier, the engine
    /// through the planned, lane-batched path; they agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] on a foreign key;
    /// [`HeroError::BatchMismatch`] when `msgs.len() != sigs.len()`.
    fn verify_batch(
        &self,
        vk: &VerifyingKey,
        msgs: &[&[u8]],
        sigs: &[Signature],
    ) -> Result<Vec<VerifyOutcome>, HeroError>;
}

/// Rejects keys generated for a different parameter set.
pub(crate) fn check_key(engine: &Params, key: &Params) -> Result<(), HeroError> {
    if engine == key {
        Ok(())
    } else {
        Err(crate::error::KeyMismatch {
            engine: *engine,
            key: *key,
        }
        .into_error())
    }
}

/// The scalar reference backend: [`hero_sphincs::reference`] signing and
/// verification, with no kernel decomposition, lanes, worker pool,
/// tuning, or device model.
#[derive(Clone, Debug)]
pub struct ReferenceSigner {
    params: Params,
}

impl ReferenceSigner {
    /// Builds a reference backend for `params`.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidParams`] if the set fails validation.
    pub fn new(params: Params) -> Result<Self, HeroError> {
        params.validate().map_err(HeroError::InvalidParams)?;
        Ok(Self { params })
    }
}

impl Signer for ReferenceSigner {
    fn params(&self) -> &Params {
        &self.params
    }

    fn backend(&self) -> &'static str {
        "reference-cpu"
    }

    fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError> {
        check_key(&self.params, sk.params())?;
        Ok(reference::sign(sk, msg))
    }

    fn verify(&self, vk: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), HeroError> {
        check_key(&self.params, vk.params())?;
        reference::verify(vk, msg, sig).map_err(HeroError::from)
    }

    fn verify_batch(
        &self,
        vk: &VerifyingKey,
        msgs: &[&[u8]],
        sigs: &[Signature],
    ) -> Result<Vec<VerifyOutcome>, HeroError> {
        check_key(&self.params, vk.params())?;
        if msgs.len() != sigs.len() {
            return Err(HeroError::BatchMismatch {
                messages: msgs.len(),
                signatures: sigs.len(),
            });
        }
        Ok(msgs
            .iter()
            .zip(sigs)
            .map(|(msg, sig)| VerifyOutcome::from_result(reference::verify(vk, msg, sig)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        p
    }

    #[test]
    fn reference_round_trip() {
        let signer = ReferenceSigner::new(tiny_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (sk, vk) = signer.keygen(&mut rng).unwrap();
        let sig = signer.sign(&sk, b"reference backend").unwrap();
        signer.verify(&vk, b"reference backend", &sig).unwrap();
        assert!(signer.verify(&vk, b"other message", &sig).is_err());
    }

    #[test]
    fn reference_rejects_invalid_params() {
        let mut p = Params::sphincs_128f();
        p.d = 5; // does not divide h = 66
        assert!(matches!(
            ReferenceSigner::new(p),
            Err(HeroError::InvalidParams(_))
        ));
    }

    #[test]
    fn reference_rejects_foreign_keys() {
        let signer = ReferenceSigner::new(tiny_params()).unwrap();
        let mut other = tiny_params();
        other.k = 9;
        let mut rng = StdRng::seed_from_u64(4);
        let (sk, _) = hero_sphincs::keygen(other, &mut rng).unwrap();
        assert!(matches!(
            signer.sign(&sk, b"x"),
            Err(HeroError::KeyMismatch(_))
        ));
    }

    #[test]
    fn batch_default_impl_signs_in_order() {
        let signer = ReferenceSigner::new(tiny_params()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let (sk, vk) = signer.keygen(&mut rng).unwrap();
        let msgs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 8]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let sigs = signer.sign_batch(&sk, &refs).unwrap();
        for (m, s) in refs.iter().zip(&sigs) {
            signer.verify(&vk, m, s).unwrap();
        }
    }
}
