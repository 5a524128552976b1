//! The [`Signer`] trait: what a service holds of a signer.
//!
//! Callers that only need *signatures* — the service, the server —
//! program against `dyn Signer`. [`crate::engine::HeroSigner`] is the
//! signer: the paper's three-kernel decomposition, each batch one stage
//! graph ([`crate::plan`]) on the signer's persistent worker pool. It
//! prices nothing; the GPU model is [`crate::SimModel`]. The trait lets
//! a test hold a service's batcher inside a wrapping signer; the
//! correctness oracle is [`hero_sphincs::reference`], which tests compare
//! the signer with directly.

use crate::cache::CacheStats;
use crate::error::HeroError;
use crate::kernels::verify::VerifyOutcome;

use hero_sphincs::params::Params;
use hero_sphincs::sign::{Signature, SigningKey, VerifyingKey};
use rand::RngCore;

/// A SPHINCS+ signer, as a service holds it.
///
/// The trait is object-safe: a service holds an
/// `Arc<dyn Signer + Send + Sync>` (see
/// `examples/batch_signing_service.rs`).
pub trait Signer {
    /// The parameter set this signer was constructed for.
    fn params(&self) -> &Params;

    /// Generates a key pair for this signer's parameter set, under the
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
    /// parameter set than this signer.
    fn sign(&self, sk: &SigningKey, msg: &[u8]) -> Result<Signature, HeroError>;

    /// Signs every message in `msgs`, in order.
    ///
    /// # Errors
    ///
    /// As [`Signer::sign`].
    fn sign_batch(&self, sk: &SigningKey, msgs: &[&[u8]]) -> Result<Vec<Signature>, HeroError>;

    /// Snapshot of this signer's hypertree-memoization counters, or
    /// `None` for a signer without a cache (the default). Lets
    /// `dyn Signer` holders — servers, the CLI — report cache health
    /// without downcasting to a concrete engine.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Pre-fills this signer's hypertree cache for `sk`, returning how
    /// many subtrees were freshly built. The default (for a signer
    /// without a cache) does nothing and reports zero.
    ///
    /// # Errors
    ///
    /// [`HeroError::KeyMismatch`] if `sk` was generated for a different
    /// parameter set than this signer.
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
    /// which indices failed, and never short-circuits.
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
