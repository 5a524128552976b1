//! The typed error surface of the HERO-Sign engine.
//!
//! Every fallible operation in this crate — engine construction through
//! [`crate::builder::HeroSignerBuilder`], signing and verifying through
//! [`crate::HeroSigner`], and pipeline simulation — reports a
//! [`HeroError`]. The CLI and services wrap it rather than matching on
//! strings.

use crate::tuning::TuneError;
use hero_sphincs::params::Params;
use hero_sphincs::sign::SignError;
use std::fmt;

/// Errors produced by the HERO-Sign engine and its builders.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum HeroError {
    /// The parameter set failed [`hero_sphincs::Params::validate`].
    InvalidParams(String),
    /// An option carried an unusable value (zero workers, zero messages,
    /// zero streams, …); the message names the offending field.
    InvalidOptions(String),
    /// The Auto Tree Tuning search failed and the caller asked for its
    /// result ([`crate::tuning::tune_auto`]; a [`crate::SimModel`] falls
    /// back to an unfused layout instead of raising this).
    Tuning(TuneError),
    /// A key built for one parameter set was used with an engine built
    /// for another. Boxed to keep the error small; carries the full
    /// sets, since two customized shapes can share a name while
    /// differing structurally.
    KeyMismatch(Box<KeyMismatch>),
    /// A batch operation was handed mismatched slice lengths (e.g.
    /// `verify_batch` with a different number of messages and
    /// signatures); nothing was paired or verified.
    BatchMismatch {
        /// Number of messages supplied.
        messages: usize,
        /// Number of signatures supplied.
        signatures: usize,
    },
    /// An error bubbled up from the `hero-sphincs` substrate (keygen,
    /// signature parsing, verification).
    Sphincs(SignError),
}

/// Details of a [`HeroError::KeyMismatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyMismatch {
    /// Parameter set the engine was constructed for.
    pub engine: Params,
    /// Parameter set the key carries.
    pub key: Params,
}

impl KeyMismatch {
    /// Wraps the mismatch into a [`HeroError`].
    pub fn into_error(self) -> HeroError {
        HeroError::KeyMismatch(Box::new(self))
    }
}

impl fmt::Display for HeroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeroError::InvalidParams(what) => write!(f, "invalid parameter set: {what}"),
            HeroError::InvalidOptions(what) => write!(f, "invalid options: {what}"),
            HeroError::Tuning(e) => write!(f, "tree tuning failed: {e}"),
            HeroError::KeyMismatch(m) => {
                let (engine, key) = (&m.engine, &m.key);
                if engine.name() == key.name() {
                    // Same label, different shape: print every field.
                    write!(
                        f,
                        "key parameters {key:?} do not match engine parameters {engine:?}"
                    )
                } else {
                    write!(
                        f,
                        "key parameter set {key} does not match engine parameter set {engine}"
                    )
                }
            }
            HeroError::BatchMismatch {
                messages,
                signatures,
            } => write!(
                f,
                "batch length mismatch: {messages} messages vs {signatures} signatures"
            ),
            HeroError::Sphincs(e) => write!(f, "sphincs substrate: {e}"),
        }
    }
}

impl std::error::Error for HeroError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeroError::Tuning(e) => Some(e),
            HeroError::Sphincs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TuneError> for HeroError {
    fn from(e: TuneError) -> Self {
        HeroError::Tuning(e)
    }
}

impl From<SignError> for HeroError {
    fn from(e: SignError) -> Self {
        match e {
            SignError::InvalidParams(what) => HeroError::InvalidParams(what),
            other => HeroError::Sphincs(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = KeyMismatch {
            engine: Params::sphincs_128f(),
            key: Params::sphincs_192f(),
        }
        .into_error();
        assert!(e.to_string().contains("SPHINCS+-128f"));
        assert!(e.to_string().contains("SPHINCS+-192f"));

        // Same name, customized shape: the message must expose the
        // differing fields, not assert two identical labels differ.
        let mut tiny = Params::sphincs_128f();
        tiny.k = 8;
        let same_name = KeyMismatch {
            engine: Params::sphincs_128f(),
            key: tiny,
        }
        .into_error();
        assert!(same_name.to_string().contains("k: 8"), "{same_name}");
        assert!(HeroError::InvalidOptions("workers must be >= 1".into())
            .to_string()
            .contains("workers"));

        let mismatch = HeroError::BatchMismatch {
            messages: 3,
            signatures: 1,
        };
        assert!(mismatch.to_string().contains("3 messages"), "{mismatch}");
        assert!(mismatch.to_string().contains("1 signatures"), "{mismatch}");
    }

    #[test]
    fn sphincs_invalid_params_normalizes() {
        let e = HeroError::from(SignError::InvalidParams("d must divide h".into()));
        assert!(matches!(e, HeroError::InvalidParams(_)));
        let v = HeroError::from(SignError::VerificationFailed);
        assert!(matches!(
            v,
            HeroError::Sphincs(SignError::VerificationFailed)
        ));
    }

    #[test]
    fn tuning_errors_keep_their_source() {
        use std::error::Error;
        let e = HeroError::from(TuneError::NoCandidate);
        assert!(e.source().is_some());
    }
}
