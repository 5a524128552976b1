//! Top-level SPHINCS+ key generation, signing and verification
//! (the flow of Fig. 2 in the paper).

use crate::address::{Address, AddressType};
use crate::fors::{self, ForsSignature};
use crate::hash::{self, ChainJob, HashAlg, HashCtx};
use crate::hypertree::{self, HtSignature};
use crate::params::Params;

use rand::RngCore;
use std::fmt;

/// Errors returned by signing/verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SignError {
    /// Signature fields do not match the parameter set's dimensions.
    MalformedSignature(String),
    /// The signature did not verify.
    VerificationFailed,
    /// Parameter set failed validation.
    InvalidParams(String),
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::MalformedSignature(what) => write!(f, "malformed signature: {what}"),
            SignError::VerificationFailed => f.write_str("signature verification failed"),
            SignError::InvalidParams(what) => write!(f, "invalid parameters: {what}"),
        }
    }
}

impl std::error::Error for SignError {}

/// A SPHINCS+ secret key: `(sk_seed, sk_prf, pk_seed, pk_root)`.
#[derive(Clone)]
pub struct SigningKey {
    params: Params,
    alg: HashAlg,
    sk_seed: Vec<u8>,
    sk_prf: Vec<u8>,
    pk_seed: Vec<u8>,
    pk_root: Vec<u8>,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        f.debug_struct("SigningKey")
            .field("params", &self.params)
            .finish_non_exhaustive()
    }
}

/// A SPHINCS+ public key: `(pk_seed, pk_root)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    params: Params,
    alg: HashAlg,
    pk_seed: Vec<u8>,
    pk_root: Vec<u8>,
}

/// A SPHINCS+ signature: randomizer, FORS signature, hypertree signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Message randomizer `r` (`n` bytes).
    pub randomizer: Vec<u8>,
    /// FORS component.
    pub fors: ForsSignature,
    /// Hypertree component.
    pub ht: HtSignature,
}

impl Signature {
    /// Serialized byte length for `params` (matches [`Params::sig_bytes`]).
    pub fn byte_len(&self, params: &Params) -> usize {
        params.sig_bytes()
    }

    /// Flattens the signature to bytes (`r || FORS || HT`).
    pub fn to_bytes(&self, params: &Params) -> Vec<u8> {
        let mut out = Vec::with_capacity(params.sig_bytes());
        out.extend_from_slice(&self.randomizer);
        for tree in &self.fors.trees {
            out.extend_from_slice(&tree.sk);
            for node in &tree.auth_path {
                out.extend_from_slice(node);
            }
        }
        for layer in &self.ht.layers {
            for node in &layer.wots_sig {
                out.extend_from_slice(node);
            }
            for node in &layer.auth_path {
                out.extend_from_slice(node);
            }
        }
        out
    }

    /// Parses a signature from bytes produced by [`Signature::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SignError::MalformedSignature`] if `bytes` has the wrong
    /// length.
    pub fn from_bytes(params: &Params, bytes: &[u8]) -> Result<Self, SignError> {
        if bytes.len() != params.sig_bytes() {
            return Err(SignError::MalformedSignature(format!(
                "expected {} bytes, got {}",
                params.sig_bytes(),
                bytes.len()
            )));
        }
        let n = params.n;
        let mut pos = 0usize;
        let mut take = |len: usize| {
            let slice = bytes[pos..pos + len].to_vec();
            pos += len;
            slice
        };
        let randomizer = take(n);
        let mut trees = Vec::with_capacity(params.k);
        for _ in 0..params.k {
            let sk = take(n);
            let auth_path = (0..params.log_t).map(|_| take(n)).collect();
            trees.push(crate::fors::ForsTreeSig { sk, auth_path });
        }
        let mut layers = Vec::with_capacity(params.d);
        for _ in 0..params.d {
            let wots_sig = (0..params.wots_len()).map(|_| take(n)).collect();
            let auth_path = (0..params.tree_height()).map(|_| take(n)).collect();
            layers.push(crate::hypertree::XmssSig {
                wots_sig,
                auth_path,
            });
        }
        debug_assert_eq!(pos, bytes.len());
        Ok(Self {
            randomizer,
            fors: ForsSignature { trees },
            ht: HtSignature { layers },
        })
    }

    /// Checks every dimension of the signature against `params`: the
    /// shape gate [`VerifyingKey::verify`] applies before recomputing
    /// any hash, split out so batched and planned verification can
    /// pre-screen signatures without entering the lane sweeps.
    ///
    /// # Errors
    ///
    /// [`SignError::MalformedSignature`] naming the first bad field.
    pub fn check_shape(&self, params: &Params) -> Result<(), SignError> {
        if self.randomizer.len() != params.n {
            return Err(SignError::MalformedSignature("randomizer length".into()));
        }
        if self.fors.trees.len() != params.k {
            return Err(SignError::MalformedSignature("FORS tree count".into()));
        }
        if self.ht.layers.len() != params.d {
            return Err(SignError::MalformedSignature(
                "hypertree layer count".into(),
            ));
        }
        for tree in &self.fors.trees {
            if tree.sk.len() != params.n || tree.auth_path.len() != params.log_t {
                return Err(SignError::MalformedSignature("FORS tree shape".into()));
            }
            if tree.auth_path.iter().any(|node| node.len() != params.n) {
                return Err(SignError::MalformedSignature(
                    "FORS auth-path node length".into(),
                ));
            }
        }
        for layer in &self.ht.layers {
            if layer.wots_sig.len() != params.wots_len()
                || layer.auth_path.len() != params.tree_height()
            {
                return Err(SignError::MalformedSignature("XMSS layer shape".into()));
            }
            if layer
                .wots_sig
                .iter()
                .chain(layer.auth_path.iter())
                .any(|node| node.len() != params.n)
            {
                return Err(SignError::MalformedSignature(
                    "XMSS layer node length".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Generates a key pair for `params` using `rng`.
///
/// # Errors
///
/// Returns [`SignError::InvalidParams`] if the parameter set is
/// inconsistent.
pub fn keygen<R: RngCore>(
    params: Params,
    rng: &mut R,
) -> Result<(SigningKey, VerifyingKey), SignError> {
    params.validate().map_err(SignError::InvalidParams)?;
    let mut sk_seed = vec![0u8; params.n];
    let mut sk_prf = vec![0u8; params.n];
    let mut pk_seed = vec![0u8; params.n];
    rng.fill_bytes(&mut sk_seed);
    rng.fill_bytes(&mut sk_prf);
    rng.fill_bytes(&mut pk_seed);
    Ok(keygen_from_seeds(params, sk_seed, sk_prf, pk_seed))
}

/// [`keygen`] over an explicit hash primitive (the paper's
/// hash-agnosticism claim: SHA-512 works wherever SHA-256 does).
///
/// # Errors
///
/// Returns [`SignError::InvalidParams`] if the parameter set is
/// inconsistent.
pub fn keygen_with_alg<R: RngCore>(
    params: Params,
    alg: HashAlg,
    rng: &mut R,
) -> Result<(SigningKey, VerifyingKey), SignError> {
    params.validate().map_err(SignError::InvalidParams)?;
    let mut sk_seed = vec![0u8; params.n];
    let mut sk_prf = vec![0u8; params.n];
    let mut pk_seed = vec![0u8; params.n];
    rng.fill_bytes(&mut sk_seed);
    rng.fill_bytes(&mut sk_prf);
    rng.fill_bytes(&mut pk_seed);
    Ok(keygen_from_seeds_with_alg(
        params, alg, sk_seed, sk_prf, pk_seed,
    ))
}

/// Deterministic key generation from explicit seeds (each `n` bytes).
///
/// # Panics
///
/// Panics if any seed has the wrong length.
pub fn keygen_from_seeds(
    params: Params,
    sk_seed: Vec<u8>,
    sk_prf: Vec<u8>,
    pk_seed: Vec<u8>,
) -> (SigningKey, VerifyingKey) {
    keygen_from_seeds_with_alg(params, HashAlg::Sha256, sk_seed, sk_prf, pk_seed)
}

/// [`keygen_from_seeds`] over an explicit hash primitive.
///
/// # Panics
///
/// Panics if any seed has the wrong length.
pub fn keygen_from_seeds_with_alg(
    params: Params,
    alg: HashAlg,
    sk_seed: Vec<u8>,
    sk_prf: Vec<u8>,
    pk_seed: Vec<u8>,
) -> (SigningKey, VerifyingKey) {
    assert_eq!(sk_seed.len(), params.n);
    assert_eq!(sk_prf.len(), params.n);
    assert_eq!(pk_seed.len(), params.n);
    let ctx = HashCtx::with_alg(params, &pk_seed, alg);
    let pk_root = hypertree::public_root(&ctx, &sk_seed);
    let sk = SigningKey {
        params,
        alg,
        sk_seed,
        sk_prf,
        pk_seed: pk_seed.clone(),
        pk_root: pk_root.clone(),
    };
    let vk = VerifyingKey {
        params,
        alg,
        pk_seed,
        pk_root,
    };
    (sk, vk)
}

/// What a message selects of a key pair (the host preamble of Fig. 2):
/// the FORS digest and the hypertree leaf its signature hangs from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Preamble {
    /// The `k · log_t` bits that pick one leaf per FORS tree.
    pub md: Vec<u8>,
    /// Bottom-layer tree of the hypertree.
    pub tree_idx: u64,
    /// Leaf of that tree: the FORS key pair.
    pub leaf_idx: u32,
    /// Address of that FORS key pair.
    pub keypair_adrs: Address,
}

/// `H_msg` → [`hash::split_digest`] → FORS key pair address, the one
/// spelling signing, verification and the batch planner share. A signer
/// passes the `PRF_msg` output as `randomizer`, a verifier the
/// signature's.
pub fn preamble(ctx: &HashCtx, pk_root: &[u8], randomizer: &[u8], msg: &[u8]) -> Preamble {
    let digest = ctx.h_msg(randomizer, pk_root, msg);
    let (md, tree_idx, leaf_idx) = hash::split_digest(ctx.params(), &digest);
    let mut keypair_adrs = Address::new();
    keypair_adrs.set_layer(0);
    keypair_adrs.set_tree(tree_idx);
    keypair_adrs.set_type(AddressType::ForsTree);
    keypair_adrs.set_keypair(leaf_idx);
    Preamble {
        md,
        tree_idx,
        leaf_idx,
        keypair_adrs,
    }
}

impl SigningKey {
    /// The parameter set of this key.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The hash primitive this key signs with.
    pub fn alg(&self) -> HashAlg {
        self.alg
    }

    /// Secret FORS/WOTS+ seed (exposed for the GPU engine, which re-derives
    /// leaves inside kernels).
    pub fn sk_seed(&self) -> &[u8] {
        &self.sk_seed
    }

    /// PRF key for message randomization.
    pub fn sk_prf(&self) -> &[u8] {
        &self.sk_prf
    }

    /// Public seed.
    pub fn pk_seed(&self) -> &[u8] {
        &self.pk_seed
    }

    /// Public hypertree root.
    pub fn pk_root(&self) -> &[u8] {
        &self.pk_root
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            params: self.params,
            alg: self.alg,
            pk_seed: self.pk_seed.clone(),
            pk_root: self.pk_root.clone(),
        }
    }

    /// Signs `msg`. `opt_rand` (`n` bytes) randomizes the signature;
    /// deterministic signing passes the public seed (the spec default).
    ///
    /// This is the batch planner's stage sequence for one message on the
    /// calling thread: the `k` FORS trees in one [`fors::sign`], every
    /// layer's subtree and then every layer's chains in one
    /// [`hypertree::sign`]. [`crate::reference::sign`] is the
    /// implementation it is held to.
    pub fn sign_with_rand(&self, msg: &[u8], opt_rand: &[u8]) -> Signature {
        let ctx = HashCtx::with_alg(self.params, &self.pk_seed, self.alg);
        let randomizer = ctx.prf_msg(&self.sk_prf, opt_rand, msg);
        let pre = preamble(&ctx, &self.pk_root, &randomizer, msg);
        let (fors, fors_pk) = fors::sign(&ctx, &pre.md, &self.sk_seed, &pre.keypair_adrs);
        let ht = hypertree::sign(&ctx, &fors_pk, &self.sk_seed, pre.tree_idx, pre.leaf_idx);
        Signature {
            randomizer,
            fors,
            ht,
        }
    }

    /// Signs `msg` deterministically (opt_rand = pk_seed).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_with_rand(msg, &self.pk_seed)
    }
}

impl VerifyingKey {
    /// The parameter set of this key.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The hash primitive this key verifies with.
    pub fn alg(&self) -> HashAlg {
        self.alg
    }

    /// Serializes to the spec's `pk_seed || pk_root` (`2n` bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 * self.params.n);
        out.extend_from_slice(&self.pk_seed);
        out.extend_from_slice(&self.pk_root);
        out
    }

    /// Parses a public key serialized by [`VerifyingKey::to_bytes`].
    /// The parameter set and hash primitive are carried out of band (as
    /// the spec does).
    ///
    /// # Errors
    ///
    /// [`SignError::MalformedSignature`] on a wrong length.
    pub fn from_bytes(params: Params, alg: HashAlg, bytes: &[u8]) -> Result<Self, SignError> {
        if bytes.len() != params.pk_bytes() {
            return Err(SignError::MalformedSignature(format!(
                "public key must be {} bytes, got {}",
                params.pk_bytes(),
                bytes.len()
            )));
        }
        let n = params.n;
        Ok(Self {
            params,
            alg,
            pk_seed: bytes[..n].to_vec(),
            pk_root: bytes[n..].to_vec(),
        })
    }

    /// Public seed.
    pub fn pk_seed(&self) -> &[u8] {
        &self.pk_seed
    }

    /// Public hypertree root.
    pub fn pk_root(&self) -> &[u8] {
        &self.pk_root
    }

    /// Verifies `sig` over `msg`: [`VerifyingKey::verify_many`] of one.
    ///
    /// # Errors
    ///
    /// [`SignError::MalformedSignature`] if dimensions are wrong,
    /// [`SignError::VerificationFailed`] if the root does not match.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SignError> {
        self.verify_many(&[msg], &[sig])
            .pop()
            .expect("one verdict per signature")
    }

    /// Verifies many signatures lane-batched: shape-invalid signatures
    /// short-circuit to their typed error, and the rest go a group at a
    /// time through one pipeline, whatever the hash family and tier: the
    /// group's FORS public keys ([`fors::pk_from_sig_many`]), then every
    /// hypertree layer ([`hypertree::xmss_pk_from_sig_many`]), then the
    /// comparison with the root — so signature A's chains share SIMD lanes
    /// with signature B's. A group is the resident width where the lane
    /// bodies run (under SHA-256, above the `scalar` rung), otherwise
    /// [`fors::LANE_SIGNATURES`]; each stage picks its body for the group
    /// — the lanes, the byte tail of a narrow group, or the level sweep —
    /// and the call allocates its scratch once, whatever `d` and the
    /// batch, so the batch is best handed over in multiples of that
    /// constant. Verdicts are those of [`crate::reference::verify`] per
    /// pair, and the batch never short-circuits on a bad signature (like
    /// a GPU batch that always runs to completion).
    ///
    /// ```
    /// use hero_sphincs::params::Params;
    /// use hero_sphincs::sign::keygen_from_seeds;
    ///
    /// let mut params = Params::sphincs_128f();
    /// params.h = 6;
    /// params.d = 3;
    /// params.log_t = 4;
    /// params.k = 8;
    /// let n = params.n;
    /// let (sk, vk) = keygen_from_seeds(
    ///     params,
    ///     vec![1; n],
    ///     vec![2; n],
    ///     vec![3; n],
    /// );
    /// let sig_a = sk.sign(b"batch item a");
    /// let mut sig_b = sk.sign(b"batch item b");
    /// sig_b.randomizer[0] ^= 1; // tampered
    /// let verdicts = vk.verify_many(
    ///     &[b"batch item a", b"batch item b"],
    ///     &[&sig_a, &sig_b],
    /// );
    /// assert!(verdicts[0].is_ok());
    /// assert!(verdicts[1].is_err());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `msgs.len() != sigs.len()`.
    pub fn verify_many(&self, msgs: &[&[u8]], sigs: &[&Signature]) -> Vec<Result<(), SignError>> {
        let params = &self.params;
        assert_eq!(msgs.len(), sigs.len(), "one message per signature");
        let mut out: Vec<Result<(), SignError>> =
            sigs.iter().map(|sig| sig.check_shape(params)).collect();
        // Only well-formed signatures enter the pipeline.
        let live: Vec<usize> = (0..sigs.len()).filter(|&i| out[i].is_ok()).collect();
        if live.is_empty() {
            return out;
        }

        let ctx = HashCtx::with_alg(*params, &self.pk_seed, self.alg);
        let mut scratch = Scratch::new(&ctx);
        for group in live.chunks(scratch.width) {
            let pres: Vec<Preamble> = group
                .iter()
                .map(|&i| preamble(&ctx, &self.pk_root, &sigs[i].randomizer, msgs[i]))
                .collect();
            let fors_sigs: Vec<&ForsSignature> = group.iter().map(|&i| &sigs[i].fors).collect();
            let mds: Vec<&[u8]> = pres.iter().map(|pre| pre.md.as_slice()).collect();
            let keypair_adrs: Vec<Address> = pres.iter().map(|pre| pre.keypair_adrs).collect();
            fors::pks_group(&ctx, &mut scratch, &fors_sigs, &mds, &keypair_adrs);

            let mut coords: Vec<(u64, u32)> = pres
                .iter()
                .map(|pre| (pre.tree_idx, pre.leaf_idx))
                .collect();
            for layer in 0..params.d {
                let sig = |s: usize| &sigs[group[s]].ht.layers[layer];
                hypertree::xmss_roots_group(&ctx, &mut scratch, layer as u32, sig, &coords);
                for coords in &mut coords {
                    *coords = hypertree::parent(params, *coords);
                }
            }

            for (&i, root) in group.iter().zip(scratch.roots.chunks_exact(params.n)) {
                if root != self.pk_root {
                    out[i] = Err(SignError::VerificationFailed);
                }
            }
        }
        out
    }
}

/// What one verification call works in, allocated once for all its
/// groups and layers: the lane bodies where they run, and the buffers of
/// the byte tail and the level sweep.
pub(crate) struct Scratch<'a> {
    #[cfg(target_arch = "x86_64")]
    pub lanes: Option<crate::ascent::Resident<'a>>,
    /// Signatures a group holds.
    pub width: usize,
    /// `n` bytes a signature of the group: what the next stage signs,
    /// and the last stage's root.
    pub roots: Vec<u8>,
    /// The group's chain lengths, signature after signature.
    pub digits: Vec<u32>,
    /// Nodes on bytes: a signature's in the byte tail, the group's in
    /// the sweep.
    pub bytes: Vec<u8>,
    /// The sweep's leaves, its addresses, a round's live chains and its
    /// chains.
    pub leaves: Vec<u8>,
    pub adrs: Vec<Address>,
    pub live: Vec<usize>,
    pub jobs: Vec<ChainJob<'a>>,
}

impl<'a> Scratch<'a> {
    /// The scratch of a verification call under `ctx`: the one place
    /// verification chooses between the lanes and the sweep.
    pub(crate) fn new(ctx: &'a HashCtx) -> Self {
        let params = ctx.params();
        let (n, len, k) = (params.n, params.wots_len(), params.k);
        let width = fors::LANE_SIGNATURES;
        let mut scratch = Scratch {
            #[cfg(target_arch = "x86_64")]
            lanes: None,
            width,
            roots: vec![0; width * n],
            digits: Vec::with_capacity(width * len),
            bytes: Vec::new(),
            leaves: Vec::new(),
            adrs: Vec::new(),
            live: Vec::new(),
            jobs: Vec::new(),
        };
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = crate::ascent::Resident::new(ctx) {
            scratch.width = lanes.width();
            scratch.lanes = Some(lanes);
            scratch.bytes.reserve(k.max(len) * n);
            return scratch;
        }
        scratch.bytes.reserve(width * k.max(len) * n);
        scratch.leaves.reserve(width * k * n);
        scratch.adrs.reserve(width * k.max(len));
        scratch.live.reserve(width * len);
        scratch.jobs.reserve(width * len);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Tiny parameters so full sign/verify is test-speed: h=6, d=3,
    /// log_t=4, k=8.
    pub(crate) fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        p
    }

    #[test]
    fn keygen_sign_verify_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        let (sk, vk) = keygen(tiny_params(), &mut rng).expect("keygen");
        let sig = sk.sign(b"hello post-quantum world");
        vk.verify(b"hello post-quantum world", &sig)
            .expect("verify");
    }

    #[test]
    fn verify_rejects_other_message() {
        let mut rng = StdRng::seed_from_u64(43);
        let (sk, vk) = keygen(tiny_params(), &mut rng).unwrap();
        let sig = sk.sign(b"msg A");
        assert_eq!(
            vk.verify(b"msg B", &sig),
            Err(SignError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_tampered_components() {
        let mut rng = StdRng::seed_from_u64(44);
        let (sk, vk) = keygen(tiny_params(), &mut rng).unwrap();
        let msg = b"tamper test";
        let sig = sk.sign(msg);

        let mut bad = sig.clone();
        bad.randomizer[0] ^= 1;
        assert!(vk.verify(msg, &bad).is_err());

        let mut bad = sig.clone();
        bad.fors.trees[0].sk[0] ^= 1;
        assert!(vk.verify(msg, &bad).is_err());

        let mut bad = sig.clone();
        bad.ht.layers[0].wots_sig[0][0] ^= 1;
        assert!(vk.verify(msg, &bad).is_err());

        let mut bad = sig.clone();
        let last = bad.ht.layers.len() - 1;
        bad.ht.layers[last].auth_path[0][0] ^= 1;
        assert!(vk.verify(msg, &bad).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length_nodes() {
        // Hand-built signatures with truncated nodes must fail with a
        // typed error, not a panic in the batched hot path.
        let mut rng = StdRng::seed_from_u64(54);
        let (sk, vk) = keygen(tiny_params(), &mut rng).unwrap();
        let msg = b"node length";
        let sig = sk.sign(msg);

        let mut bad = sig.clone();
        bad.ht.layers[0].wots_sig[0].pop();
        assert!(matches!(
            vk.verify(msg, &bad),
            Err(SignError::MalformedSignature(_))
        ));

        let mut bad = sig.clone();
        bad.ht.layers[1].auth_path[0].push(0);
        assert!(matches!(
            vk.verify(msg, &bad),
            Err(SignError::MalformedSignature(_))
        ));

        let mut bad = sig.clone();
        bad.fors.trees[0].auth_path[0].pop();
        assert!(matches!(
            vk.verify(msg, &bad),
            Err(SignError::MalformedSignature(_))
        ));
    }

    #[test]
    fn verify_many_matches_scalar_verdicts() {
        // A batch mixing valid, root-mismatching, and shape-invalid
        // signatures: every verdict must be the reference verifier's, in
        // place, with no cross-contamination — and `verify`, the batch of
        // one, must return it too.
        let mut rng = StdRng::seed_from_u64(46);
        let (sk, vk) = keygen(tiny_params(), &mut rng).unwrap();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 11]).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m)).collect();
        sigs[1].fors.trees[0].sk[0] ^= 1; // root mismatch
        sigs[3].ht.layers.pop(); // malformed shape
        sigs[4].randomizer[0] ^= 1; // root mismatch via digest

        let msg_refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let sig_refs: Vec<&Signature> = sigs.iter().collect();
        let batched = vk.verify_many(&msg_refs, &sig_refs);
        assert_eq!(batched.len(), sigs.len());
        for (i, verdict) in batched.iter().enumerate() {
            assert_eq!(
                verdict,
                &reference::verify(&vk, &msgs[i], &sigs[i]),
                "index {i}"
            );
            assert_eq!(verdict, &vk.verify(&msgs[i], &sigs[i]), "index {i} alone");
        }
        assert!(batched[0].is_ok());
        assert_eq!(batched[1], Err(SignError::VerificationFailed));
        assert!(matches!(batched[3], Err(SignError::MalformedSignature(_))));

        // All-malformed batches never touch the lane sweeps.
        let empty: Vec<&[u8]> = Vec::new();
        assert!(vk.verify_many(&empty, &[]).is_empty());
    }

    #[test]
    fn sign_matches_reference_under_every_family() {
        // The shipping signer against the scalar second implementation:
        // deterministic and randomised, every hash family, and the
        // reference verifier accepts what either produced.
        for (alg, params) in [
            (HashAlg::Sha256, tiny_params()),
            (HashAlg::Sha512, tiny_params()),
            (HashAlg::Shake256, {
                let mut p = Params::shake_128f();
                (p.h, p.d, p.log_t, p.k) = (6, 3, 4, 8);
                p
            }),
        ] {
            let n = params.n;
            let (sk, vk) =
                keygen_from_seeds_with_alg(params, alg, vec![7; n], vec![8; n], vec![9; n]);
            for msg in [&b""[..], b"m", &[0x5a; 200]] {
                let sig = sk.sign(msg);
                assert_eq!(sig, reference::sign(&sk, msg), "{alg:?}");
                reference::verify(&vk, msg, &sig).unwrap();
                let opt_rand = vec![0xC3; n];
                assert_eq!(
                    sk.sign_with_rand(msg, &opt_rand),
                    reference::sign_with_rand(&sk, msg, &opt_rand),
                    "{alg:?} randomised"
                );
            }
        }
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(45);
        let params = tiny_params();
        let (sk, vk) = keygen(params, &mut rng).unwrap();
        let sig = sk.sign(b"serialize me");
        let bytes = sig.to_bytes(&params);
        assert_eq!(bytes.len(), params.sig_bytes());
        let parsed = Signature::from_bytes(&params, &bytes).expect("parse");
        assert_eq!(parsed, sig);
        vk.verify(b"serialize me", &parsed).expect("verify parsed");
    }

    #[test]
    fn from_bytes_rejects_wrong_length() {
        let params = tiny_params();
        assert!(matches!(
            Signature::from_bytes(&params, &[0u8; 10]),
            Err(SignError::MalformedSignature(_))
        ));
    }

    #[test]
    fn deterministic_signing_is_reproducible() {
        let mut rng = StdRng::seed_from_u64(46);
        let (sk, _) = keygen(tiny_params(), &mut rng).unwrap();
        assert_eq!(sk.sign(b"same"), sk.sign(b"same"));
    }

    #[test]
    fn randomized_signing_differs_but_verifies() {
        let mut rng = StdRng::seed_from_u64(47);
        let (sk, vk) = keygen(tiny_params(), &mut rng).unwrap();
        let s1 = sk.sign_with_rand(b"m", &[1u8; 16]);
        let s2 = sk.sign_with_rand(b"m", &[2u8; 16]);
        assert_ne!(s1, s2);
        vk.verify(b"m", &s1).unwrap();
        vk.verify(b"m", &s2).unwrap();
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        use crate::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(51);
        let params = tiny_params();
        let (sk, vk) = keygen(params, &mut rng).unwrap();
        let bytes = vk.to_bytes();
        assert_eq!(bytes.len(), params.pk_bytes());
        let parsed = VerifyingKey::from_bytes(params, HashAlg::Sha256, &bytes).unwrap();
        assert_eq!(parsed, vk);
        let sig = sk.sign(b"pk wire");
        parsed.verify(b"pk wire", &sig).unwrap();
        assert!(VerifyingKey::from_bytes(params, HashAlg::Sha256, &bytes[1..]).is_err());
    }

    #[test]
    fn sha512_keygen_sign_verify_roundtrip() {
        // The paper's hash-agnosticism claim end to end: the whole scheme
        // runs unchanged on SHA-512.
        use crate::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(52);
        let (sk, vk) = keygen_with_alg(tiny_params(), HashAlg::Sha512, &mut rng).unwrap();
        assert_eq!(sk.alg(), HashAlg::Sha512);
        let sig = sk.sign(b"sha-512 instantiation");
        vk.verify(b"sha-512 instantiation", &sig).expect("verify");
        assert!(vk.verify(b"sha-512 instantiation!", &sig).is_err());
    }

    #[test]
    fn shake256_keygen_sign_verify_roundtrip() {
        // The SPHINCS+-SHAKE half of the parameter family end to end.
        use crate::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(55);
        let mut p = Params::shake_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        let (sk, vk) = keygen_with_alg(p, HashAlg::Shake256, &mut rng).unwrap();
        assert_eq!(sk.alg(), HashAlg::Shake256);
        let sig = sk.sign(b"shake instantiation");
        vk.verify(b"shake instantiation", &sig).expect("verify");
        assert!(vk.verify(b"shake instantiation!", &sig).is_err());
        // Wire-format round trip under SHAKE.
        let parsed = Signature::from_bytes(&p, &sig.to_bytes(&p)).unwrap();
        vk.verify(b"shake instantiation", &parsed).unwrap();
    }

    #[test]
    fn shake256_and_sha256_keys_are_incompatible() {
        use crate::hash::HashAlg;
        let seeds = (vec![1u8; 16], vec![2u8; 16], vec![3u8; 16]);
        let (sk_sha, vk_sha) = keygen_from_seeds_with_alg(
            tiny_params(),
            HashAlg::Sha256,
            seeds.0.clone(),
            seeds.1.clone(),
            seeds.2.clone(),
        );
        let (sk_shake, vk_shake) =
            keygen_from_seeds_with_alg(tiny_params(), HashAlg::Shake256, seeds.0, seeds.1, seeds.2);
        assert_ne!(vk_sha.pk_root(), vk_shake.pk_root());
        assert!(vk_shake.verify(b"cross", &sk_sha.sign(b"cross")).is_err());
        assert!(vk_sha.verify(b"cross", &sk_shake.sign(b"cross")).is_err());
    }

    #[test]
    fn sha256_and_sha512_keys_are_incompatible() {
        use crate::hash::HashAlg;
        let mut rng = StdRng::seed_from_u64(53);
        let seeds = (vec![1u8; 16], vec![2u8; 16], vec![3u8; 16]);
        let (sk256, vk256) = keygen_from_seeds_with_alg(
            tiny_params(),
            HashAlg::Sha256,
            seeds.0.clone(),
            seeds.1.clone(),
            seeds.2.clone(),
        );
        let (sk512, vk512) =
            keygen_from_seeds_with_alg(tiny_params(), HashAlg::Sha512, seeds.0, seeds.1, seeds.2);
        assert_ne!(
            vk256.pk_root(),
            vk512.pk_root(),
            "same seeds, different primitive"
        );
        let sig256 = sk256.sign(b"cross");
        let sig512 = sk512.sign(b"cross");
        assert!(vk512.verify(b"cross", &sig256).is_err());
        assert!(vk256.verify(b"cross", &sig512).is_err());
        let _ = &mut rng;
    }

    #[test]
    fn keygen_rejects_invalid_params() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut p = tiny_params();
        p.d = 4; // 4 does not divide 6
        assert!(matches!(
            keygen(p, &mut rng),
            Err(SignError::InvalidParams(_))
        ));
    }

    #[test]
    fn debug_does_not_leak_secrets() {
        let mut rng = StdRng::seed_from_u64(49);
        let (sk, _) = keygen(tiny_params(), &mut rng).unwrap();
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains("sk_seed"));
    }
}
