//! Top-level SPHINCS+ key generation, signing and verification
//! (the flow of Fig. 2 in the paper).

use crate::address::{Address, AddressType};
use crate::fors::{self, ForsSignature, ForsTreeRequest, ForsTreeSig};
use crate::hash::{self, ChainJob, HashAlg, HashCtx};
use crate::hypertree::{self, HtSignature, SubtreeItem, XmssSig};
use crate::nodes::Nodes;
use crate::params::Params;
use crate::wots::{self, ChainGroupItem};

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

    /// Flattens the signature to bytes (`r || FORS || HT`): one copy per
    /// field, each node list copied whole.
    pub fn to_bytes(&self, params: &Params) -> Vec<u8> {
        let mut out = Vec::with_capacity(params.sig_bytes());
        out.extend_from_slice(&self.randomizer);
        for tree in &self.fors.trees {
            out.extend_from_slice(&tree.sk);
            out.extend_from_slice(tree.auth_path.as_bytes());
        }
        for layer in &self.ht.layers {
            out.extend_from_slice(layer.wots_sig.as_bytes());
            out.extend_from_slice(layer.auth_path.as_bytes());
        }
        out
    }

    /// Parses a signature from bytes produced by [`Signature::to_bytes`]:
    /// one copy per field, a node list being one.
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
        let mut rest = bytes;
        let mut take = |nodes: usize| {
            let (field, tail) = rest.split_at(nodes * n);
            rest = tail;
            field.to_vec()
        };
        let randomizer = take(1);
        let trees = (0..params.k)
            .map(|_| ForsTreeSig {
                sk: take(1),
                auth_path: Nodes::from_bytes(n, take(params.log_t)),
            })
            .collect();
        let layers = (0..params.d)
            .map(|_| XmssSig {
                wots_sig: Nodes::from_bytes(n, take(params.wots_len())),
                auth_path: Nodes::from_bytes(n, take(params.tree_height())),
            })
            .collect();
        debug_assert!(rest.is_empty());
        Ok(Self {
            randomizer,
            fors: ForsSignature { trees },
            ht: HtSignature { layers },
        })
    }

    /// Checks every dimension of the signature against `params` — the
    /// count of every list and the stride of every node list — the shape
    /// gate [`VerifyingKey::verify`] applies before recomputing any hash,
    /// split out so batched and planned verification can pre-screen
    /// signatures without entering the lane sweeps.
    ///
    /// # Errors
    ///
    /// [`SignError::MalformedSignature`] naming the first bad field.
    pub fn check_shape(&self, params: &Params) -> Result<(), SignError> {
        let n = params.n;
        let fits = |nodes: &Nodes, count: usize| nodes.stride() == n && nodes.len() == count;
        let malformed = |what: &str| Err(SignError::MalformedSignature(what.into()));
        if self.randomizer.len() != n {
            return malformed("randomizer length");
        }
        if self.fors.trees.len() != params.k {
            return malformed("FORS tree count");
        }
        if self.ht.layers.len() != params.d {
            return malformed("hypertree layer count");
        }
        for tree in &self.fors.trees {
            if tree.sk.len() != n || !fits(&tree.auth_path, params.log_t) {
                return malformed("FORS tree shape");
            }
        }
        for layer in &self.ht.layers {
            if !fits(&layer.wots_sig, params.wots_len())
                || !fits(&layer.auth_path, params.tree_height())
            {
                return malformed("XMSS layer shape");
            }
        }
        Ok(())
    }
}

/// Generates a key pair for `params` using `rng`, hashing with the
/// shape's own family ([`Params::preferred_alg`]).
///
/// # Errors
///
/// Returns [`SignError::InvalidParams`] if the parameter set is
/// inconsistent.
pub fn keygen<R: RngCore>(
    params: Params,
    rng: &mut R,
) -> Result<(SigningKey, VerifyingKey), SignError> {
    keygen_with_alg(params, params.preferred_alg(), rng)
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

/// Deterministic key generation from explicit seeds (each `n` bytes),
/// hashing with the shape's own family ([`Params::preferred_alg`]).
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
    keygen_from_seeds_with_alg(params, params.preferred_alg(), sk_seed, sk_prf, pk_seed)
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
struct Preamble {
    /// The `k · log_t` bits that pick one leaf per FORS tree.
    md: Vec<u8>,
    /// Bottom-layer subtree of the hypertree, at the leaf that is the
    /// FORS key pair.
    bottom: SubtreeItem,
    /// Address of that FORS key pair.
    keypair_adrs: Address,
}

/// `H_msg` → [`hash::split_digest`] → FORS key pair address, the one
/// spelling signing and verification share. A signer passes the
/// `PRF_msg` output as `randomizer`, a verifier the signature's.
fn preamble(ctx: &HashCtx, pk_root: &[u8], randomizer: &[u8], msg: &[u8]) -> Preamble {
    let digest = ctx.h_msg(randomizer, pk_root, msg);
    let (md, tree_idx, leaf_idx) = hash::split_digest(ctx.params(), &digest);
    let mut keypair_adrs = Address::new();
    keypair_adrs.set_layer(0);
    keypair_adrs.set_tree(tree_idx);
    keypair_adrs.set_type(AddressType::ForsTree);
    keypair_adrs.set_keypair(leaf_idx);
    Preamble {
        md,
        bottom: SubtreeItem {
            layer: 0,
            tree_idx,
            leaf_idx,
        },
        keypair_adrs,
    }
}

/// A message's signature before any tree is built: the work each of the
/// paper's three kernels does for it. The digest of the randomizer and
/// the message selects the FORS key pair, and with it the `k` FORS trees
/// (`FORS_Sign`) and the `d` subtrees, bottom to top (`TREE_Sign`), so
/// every tree can start at once (§III-A). Each subtree's signing leaf
/// then signs the FORS public key or the root below it (`WOTS+_Sign`,
/// [`SubtreeItem::chains`]). [`SigningKey::sign_with_rand`] runs each
/// list in one call; a batch planner cuts many messages' lists into
/// nodes.
///
/// The FORS list is kept as the digest's leaf indices, four bytes a
/// tree; [`Stages::fors_request`] spells out a tree's request when it is
/// built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stages {
    /// The signature's randomizer `R`.
    pub randomizer: Vec<u8>,
    /// Address of the FORS key pair the digest selects.
    pub keypair_adrs: Address,
    /// The leaf the digest reveals in each FORS tree, `k` of them.
    pub fors_leaves: Vec<u32>,
    /// One subtree per hypertree layer, bottom to top.
    pub subtrees: Vec<SubtreeItem>,
}

impl Stages {
    /// The `FORS_Sign` request of tree `tree` (`0..k`).
    ///
    /// # Panics
    ///
    /// Panics if `tree >= k`.
    pub fn fors_request(&self, tree: usize) -> ForsTreeRequest {
        ForsTreeRequest {
            keypair_adrs: self.keypair_adrs,
            tree_idx: tree as u32,
            leaf_idx: self.fors_leaves[tree],
        }
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

    /// The [`Stages`] of signing `msg` under `ctx` (this key's): the
    /// randomizer `PRF_msg(sk_prf, opt_rand, msg)` and what its digest
    /// selects.
    pub fn stages(&self, ctx: &HashCtx, msg: &[u8], opt_rand: &[u8]) -> Stages {
        let params = ctx.params();
        let randomizer = ctx.prf_msg(&self.sk_prf, opt_rand, msg);
        let Preamble {
            md,
            bottom,
            keypair_adrs,
        } = preamble(ctx, &self.pk_root, &randomizer, msg);
        Stages {
            randomizer,
            keypair_adrs,
            fors_leaves: fors::message_to_indices(params, &md),
            subtrees: hypertree::subtree_items(params, bottom.tree_idx, bottom.leaf_idx),
        }
    }

    /// Signs `msg`. `opt_rand` (`n` bytes) randomizes the signature;
    /// deterministic signing passes the public seed (the spec default).
    ///
    /// The [`Stages`] run in order on the calling thread, each whole list
    /// in one call: the `k` FORS trees in one [`fors::tree_hash_many`],
    /// the `d` subtrees in one [`hypertree::subtrees`], and the `d`
    /// WOTS+ signatures in one [`wots::sign_chain_groups`].
    /// [`crate::reference::sign`] is the implementation it is held to.
    pub fn sign_with_rand(&self, msg: &[u8], opt_rand: &[u8]) -> Signature {
        let ctx = HashCtx::with_alg(self.params, &self.pk_seed, self.alg);
        let stages = self.stages(&ctx, msg, opt_rand);
        let k = self.params.k;
        let reqs: Vec<ForsTreeRequest> = (0..k).map(|tree| stages.fors_request(tree)).collect();
        let mut roots = vec![0u8; k * self.params.n];
        let trees = fors::tree_hash_many(&ctx, &self.sk_seed, &reqs, &mut roots);
        let fors_pk = fors::roots_to_pk(&ctx, &stages.keypair_adrs, &roots);
        let Stages {
            randomizer,
            subtrees,
            ..
        } = stages;
        let built = hypertree::subtrees(&ctx, &self.sk_seed, &subtrees);
        let signed = std::iter::once(&fors_pk[..]).chain((0..built.len()).map(|j| built.root(j)));
        let chains: Vec<ChainGroupItem> = subtrees
            .iter()
            .zip(signed)
            .map(|(item, msg)| item.chains(msg))
            .collect();
        let layers = wots::sign_chain_groups(&ctx, &self.sk_seed, &chains)
            .into_iter()
            .zip(subtrees.iter().enumerate())
            .map(|(wots_sig, (j, item))| XmssSig {
                wots_sig,
                auth_path: built.auth_path(j, item.leaf_idx),
            })
            .collect();
        Signature {
            randomizer,
            fors: ForsSignature { trees },
            ht: HtSignature { layers },
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

    /// Verifies many signatures lane-batched — the one way into
    /// verification this crate has: shape-invalid signatures
    /// short-circuit to their typed error, and the rest go a group at a
    /// time through one pipeline, whatever the hash family and tier: the
    /// group's FORS public keys (the FORS stage, `fors::pks_group`), then
    /// every hypertree layer (an XMSS stage each,
    /// `hypertree::xmss_roots_group`), then the comparison with the root —
    /// so signature A's chains share SIMD lanes with signature B's. A group is the resident width where the lane
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

            let mut items: Vec<SubtreeItem> = pres.iter().map(|pre| pre.bottom).collect();
            for layer in 0..params.d {
                let sig = |s: usize| &sigs[group[s]].ht.layers[layer];
                hypertree::xmss_roots_group(&ctx, &mut scratch, sig, &items);
                for item in &mut items {
                    *item = item.parent(params);
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

/// What one verification call ([`VerifyingKey::verify_many`]) works in,
/// allocated once for all its groups and layers: the lane bodies where
/// they run, and the buffers of the byte tail and the level sweep.
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
        // Each node list a signature carries, at the wrong stride or the
        // wrong node count, must fail with a typed error, not a panic in
        // the batched hot path.
        let mut rng = StdRng::seed_from_u64(54);
        let params = tiny_params();
        let n = params.n;
        let (sk, vk) = keygen(params, &mut rng).unwrap();
        let msg = b"node length";
        let sig = sk.sign(msg);

        type List = fn(&mut Signature) -> &mut Nodes;
        let lists: [(&str, List); 3] = [
            ("WOTS+ signature", |s| &mut s.ht.layers[0].wots_sig),
            ("XMSS auth path", |s| &mut s.ht.layers[1].auth_path),
            ("FORS auth path", |s| &mut s.fors.trees[0].auth_path),
        ];
        for (what, list) in lists {
            let nodes = list(&mut sig.clone()).clone();
            let (count, bytes) = (nodes.len(), nodes.as_bytes());
            let mut longer = nodes.clone();
            longer.push(&bytes[..n]);
            let reshaped = [
                (
                    "stride n - 1",
                    Nodes::from_bytes(n - 1, bytes[..(n - 1) * count].to_vec()),
                ),
                ("one node short", Nodes::from_bytes(n, bytes[n..].to_vec())),
                ("one node long", longer),
            ];
            for (how, nodes) in reshaped {
                let mut bad = sig.clone();
                *list(&mut bad) = nodes;
                assert!(
                    matches!(vk.verify(msg, &bad), Err(SignError::MalformedSignature(_))),
                    "{what}, {how}"
                );
                assert_eq!(
                    reference::verify(&vk, msg, &bad),
                    vk.verify(msg, &bad),
                    "{what}, {how}"
                );
            }
        }
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
    fn keygen_takes_the_shape_family() {
        // A key hashes with its shape's family, whichever keygen made it:
        // SHAKE-256 for a SHAKE-named shape, SHA-256 for a SHA-named one.
        let mut shake = Params::shake_128f();
        (shake.h, shake.d, shake.log_t, shake.k) = (6, 3, 4, 8);
        for (params, alg) in [(shake, HashAlg::Shake256), (tiny_params(), HashAlg::Sha256)] {
            let n = params.n;
            let from_rng = keygen(params, &mut StdRng::seed_from_u64(56)).unwrap();
            let from_seeds = keygen_from_seeds(params, vec![1; n], vec![2; n], vec![3; n]);
            for (sk, vk) in [from_rng, from_seeds] {
                assert_eq!((sk.alg(), vk.alg()), (alg, alg), "{}", params.name());
                let sig = sk.sign(b"family");
                vk.verify(b"family", &sig).unwrap();
            }
        }
    }

    #[test]
    fn debug_does_not_leak_secrets() {
        let mut rng = StdRng::seed_from_u64(49);
        let (sk, _) = keygen(tiny_params(), &mut rng).unwrap();
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains("sk_seed"));
    }
}

/// The two stages of [`VerifyingKey::verify_many`], each driven over any
/// number of signatures a group at a time through one [`Scratch`], held
/// byte-identical to [`crate::reference::fors_pk_from_sig`] and
/// [`crate::reference::xmss_pk_from_sig`], one `F` / `H` / `T_l` at a
/// time, under every ISA tier the host supports. Forcing a SHA-256 tier
/// forces the resident ladder's too (`sha-ni`, which has no body there,
/// selects the ladder's best), so walking the SHA-256 tiers walks both
/// widths of the lane = tree climb and the lane = signature ascent, and
/// the level sweep. `hero-sphincs` is built optimised under `cargo test`
/// too (the root `Cargo.toml`), so the bodies run here as they ship, at
/// every group width.
///
/// Neither side checks a signature against a key — both recompute a root
/// from whatever they are given — so the signatures here are random bytes
/// of the right shape: any `n`, any `w`, full-size forests, and nothing
/// to sign first.
#[cfg(test)]
pub(crate) mod verify_stages {
    use super::*;
    use crate::reference;
    use crate::tier::tests::{with_forced_tier, FORCE_LOCK};
    use crate::tier::{self, HashTier};

    /// The FORS stage over `sigs`, a group at a time through one scratch:
    /// signature `s`'s public key, from digest `mds[s]` at `adrs[s]`.
    pub(crate) fn fors_many(
        ctx: &HashCtx,
        sigs: &[&ForsSignature],
        mds: &[&[u8]],
        adrs: &[Address],
    ) -> Vec<Vec<u8>> {
        let mut scratch = Scratch::new(ctx);
        let (n, w) = (ctx.params().n, scratch.width);
        let mut out = Vec::with_capacity(sigs.len());
        for ((sigs, mds), adrs) in sigs.chunks(w).zip(mds.chunks(w)).zip(adrs.chunks(w)) {
            fors::pks_group(ctx, &mut scratch, sigs, mds, adrs);
            let roots = scratch.roots.chunks_exact(n).take(sigs.len());
            out.extend(roots.map(<[u8]>::to_vec));
        }
        out
    }

    /// One XMSS stage over `sigs`, a group at a time through one scratch:
    /// the root signature `s` recomputes over `msgs[s]` at `items[s]`.
    pub(crate) fn xmss_many(
        ctx: &HashCtx,
        sigs: &[&XmssSig],
        msgs: &[&[u8]],
        items: &[SubtreeItem],
    ) -> Vec<Vec<u8>> {
        let mut scratch = Scratch::new(ctx);
        let (n, w) = (ctx.params().n, scratch.width);
        let mut out = Vec::with_capacity(sigs.len());
        for ((sigs, msgs), items) in sigs.chunks(w).zip(msgs.chunks(w)).zip(items.chunks(w)) {
            for (msg, node) in msgs.iter().zip(scratch.roots.chunks_exact_mut(n)) {
                node.copy_from_slice(msg);
            }
            hypertree::xmss_roots_group(ctx, &mut scratch, |s| sigs[s], items);
            let roots = scratch.roots.chunks_exact(n).take(sigs.len());
            out.extend(roots.map(<[u8]>::to_vec));
        }
        out
    }

    /// Requests per case: two of the widest lane = signature groups and
    /// one more, so that every width on either side of the selection, a
    /// last group filled in part and a 17th signature all occur. A case is
    /// cut to every count from none to all of them.
    const REQUESTS: usize = 33;

    /// xorshift64*: the tests' own stream, so a case is its seed.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, bound: u32) -> u32 {
            (self.next() % bound as u64) as u32
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    /// Runs `body` under every SHA-256 tier the host supports, one test of
    /// this crate at a time.
    fn under_every_tier(mut body: impl FnMut(HashTier)) {
        let _turn = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for tier in tier::supported_sha256_tiers() {
            with_forced_tier(tier, || body(tier));
        }
    }

    /// Every node width (one- and two-block `H`; `T_len` over 35, 51 and
    /// 67 chain ends at `w = 16`) at both ends of `w` and in the middle.
    fn shapes() -> Vec<Params> {
        let mut shapes = Vec::new();
        for set in Params::fast_sets() {
            for w in [4, 16, 256] {
                let mut params = set;
                params.w = w;
                params.validate().expect("a shape the library accepts");
                shapes.push(params);
            }
        }
        shapes
    }

    /// A tree index with both ends of the range over-represented.
    fn random_tree(rng: &mut Stream) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => (1 << 63) - 1,
            _ => rng.next() >> 1,
        }
    }

    fn random_nodes(count: usize, n: usize, rng: &mut Stream) -> Nodes {
        Nodes::from_bytes(n, (0..count).flat_map(|_| rng.bytes(n)).collect())
    }

    /// One FORS verification: a signature, the digest that picks its
    /// leaves, and where its forest stands.
    struct ForsCase {
        sig: ForsSignature,
        md: Vec<u8>,
        keypair_adrs: Address,
    }

    fn random_fors_case(params: &Params, rng: &mut Stream) -> ForsCase {
        let trees = (0..params.k)
            .map(|_| ForsTreeSig {
                sk: rng.bytes(params.n),
                auth_path: random_nodes(params.log_t, params.n, rng),
            })
            .collect();
        let mut keypair_adrs = Address::new();
        keypair_adrs.set_tree(random_tree(rng));
        keypair_adrs.set_type(AddressType::ForsTree);
        keypair_adrs.set_keypair(rng.next() as u32);
        ForsCase {
            sig: ForsSignature { trees },
            md: rng.bytes((params.k * params.log_t).div_ceil(8)),
            keypair_adrs,
        }
    }

    fn fors_oracle(ctx: &HashCtx, cases: &[ForsCase]) -> Vec<Vec<u8>> {
        cases
            .iter()
            .map(|case| reference::fors_pk_from_sig(ctx, &case.sig, &case.md, &case.keypair_adrs))
            .collect()
    }

    fn fors_cases(ctx: &HashCtx, cases: &[ForsCase]) -> Vec<Vec<u8>> {
        let sigs: Vec<&ForsSignature> = cases.iter().map(|case| &case.sig).collect();
        let mds: Vec<&[u8]> = cases.iter().map(|case| case.md.as_slice()).collect();
        let adrs: Vec<Address> = cases.iter().map(|case| case.keypair_adrs).collect();
        fors_many(ctx, &sigs, &mds, &adrs)
    }

    /// One XMSS layer verification: the layer's signature, the node it
    /// covers, and where its tree stands.
    struct XmssCase {
        sig: XmssSig,
        msg: Vec<u8>,
        tree: u64,
        leaf_idx: u32,
    }

    fn random_xmss_case(params: &Params, rng: &mut Stream) -> XmssCase {
        let leaves = params.subtree_leaves() as u32;
        XmssCase {
            sig: XmssSig {
                wots_sig: random_nodes(params.wots_len(), params.n, rng),
                auth_path: random_nodes(params.tree_height(), params.n, rng),
            },
            // A zero or an all-ones digit now and then: a chain of `w − 1`
            // steps, a chain of none.
            msg: match rng.below(8) {
                0 => vec![0; params.n],
                1 => vec![0xff; params.n],
                _ => rng.bytes(params.n),
            },
            tree: random_tree(rng),
            leaf_idx: match rng.below(4) {
                0 => 0,
                1 => leaves - 1,
                _ => rng.below(leaves),
            },
        }
    }

    fn xmss_oracle(ctx: &HashCtx, layer: u32, cases: &[XmssCase]) -> Vec<Vec<u8>> {
        cases
            .iter()
            .map(|c| reference::xmss_pk_from_sig(ctx, &c.sig, &c.msg, layer, c.tree, c.leaf_idx))
            .collect()
    }

    fn xmss_cases(ctx: &HashCtx, layer: u32, cases: &[XmssCase]) -> Vec<Vec<u8>> {
        let sigs: Vec<&XmssSig> = cases.iter().map(|c| &c.sig).collect();
        let msgs: Vec<&[u8]> = cases.iter().map(|c| c.msg.as_slice()).collect();
        let items: Vec<SubtreeItem> = cases
            .iter()
            .map(|c| SubtreeItem {
                layer,
                tree_idx: c.tree,
                leaf_idx: c.leaf_idx,
            })
            .collect();
        xmss_many(ctx, &sigs, &msgs, &items)
    }

    /// Every request count up to [`REQUESTS`], every shape, every tier:
    /// the first `count` answers of the stages are the scalar ones.
    #[test]
    fn every_width_of_every_shape_matches_scalar_under_every_tier() {
        let mut rng = Stream(0x00a5_ce47);
        for params in shapes() {
            let ctx = HashCtx::new(params, &rng.bytes(params.n));
            let layer = rng.below(params.d as u32);
            let fors: Vec<ForsCase> = (0..REQUESTS)
                .map(|_| random_fors_case(&params, &mut rng))
                .collect();
            let xmss: Vec<XmssCase> = (0..REQUESTS)
                .map(|_| random_xmss_case(&params, &mut rng))
                .collect();
            let fors_expected = fors_oracle(&ctx, &fors);
            let xmss_expected = xmss_oracle(&ctx, layer, &xmss);
            under_every_tier(|tier| {
                for count in 0..=REQUESTS {
                    let what = format!(
                        "{} w={} count={count} under {}",
                        params.name(),
                        params.w,
                        tier.label()
                    );
                    assert_eq!(
                        fors_cases(&ctx, &fors[..count]),
                        fors_expected[..count],
                        "FORS, {what}"
                    );
                    assert_eq!(
                        xmss_cases(&ctx, layer, &xmss[..count]),
                        xmss_expected[..count],
                        "XMSS, {what}"
                    );
                }
            });
        }
    }

    /// Every leaf index of a tree — every pattern of left and right on the
    /// way up — in every lane of a group, for both kinds of climb.
    #[test]
    fn every_leaf_index_matches_scalar_under_every_tier() {
        let mut rng = Stream(0x1eaf);
        for set in Params::fast_sets() {
            let mut params = set;
            (params.h, params.d, params.log_t, params.k) = (20, 5, 4, 5);
            params.validate().expect("a shape the library accepts");
            let ctx = HashCtx::new(params, &rng.bytes(params.n));
            let t = params.t() as u32;

            // Request `r`'s tree `j` reveals leaf `(r + j) mod t`: over `t`
            // requests every tree sees every leaf.
            let fors: Vec<ForsCase> = (0..t)
                .map(|r| {
                    let mut case = random_fors_case(&params, &mut rng);
                    let mut bits = 0u32;
                    for j in 0..params.k as u32 {
                        bits = (bits << params.log_t) | ((r + j) % t);
                    }
                    // k · log_t = 20 bits, MSB first, in three bytes.
                    case.md = (bits << 4).to_be_bytes()[1..].to_vec();
                    assert_eq!(
                        fors::message_to_indices(&params, &case.md)[0],
                        r % t,
                        "the digest spells the indices"
                    );
                    case
                })
                .collect();
            let xmss: Vec<XmssCase> = (0..2 * params.subtree_leaves() as u32)
                .map(|r| {
                    let mut case = random_xmss_case(&params, &mut rng);
                    case.leaf_idx = r % params.subtree_leaves() as u32;
                    case
                })
                .collect();
            let fors_expected = fors_oracle(&ctx, &fors);
            let xmss_expected = xmss_oracle(&ctx, 2, &xmss);
            under_every_tier(|tier| {
                let what = format!("{} under {}", params.name(), tier.label());
                assert_eq!(fors_cases(&ctx, &fors), fors_expected, "FORS, {what}");
                assert_eq!(xmss_cases(&ctx, 2, &xmss), xmss_expected, "XMSS, {what}");
            });
        }
    }

    /// One flipped bit in a revealed secret, in a chain node or in an
    /// authentication node of either kind moves the recomputed root, and
    /// moves the batched one to the same place — in a wide group and in
    /// one the selection leaves on bytes.
    #[test]
    fn tampered_nodes_move_the_root_as_they_move_the_scalar_one() {
        let mut rng = Stream(0x7a3b);
        for set in Params::fast_sets() {
            let ctx = HashCtx::new(set, &rng.bytes(set.n));
            for count in [1usize, 5, 17] {
                let mut fors: Vec<ForsCase> = (0..count)
                    .map(|_| random_fors_case(&set, &mut rng))
                    .collect();
                let mut xmss: Vec<XmssCase> = (0..count)
                    .map(|_| random_xmss_case(&set, &mut rng))
                    .collect();
                let fors_clean = fors_oracle(&ctx, &fors);
                let xmss_clean = xmss_oracle(&ctx, 0, &xmss);

                let hit = count - 1;
                let tree = rng.below(set.k as u32) as usize;
                let level = rng.below(set.log_t as u32) as usize;
                let chain = rng.below(set.wots_len() as u32) as usize;
                let step = rng.below(set.tree_height() as u32) as usize;
                type Tamper = fn(&mut ForsCase, &mut XmssCase, [usize; 4]);
                let tampers: [(&str, Tamper); 4] = [
                    ("FORS secret", |f, _, at| f.sig.trees[at[0]].sk[0] ^= 1),
                    ("FORS path", |f, _, at| {
                        f.sig.trees[at[0]].auth_path[at[1]][3] ^= 0x10
                    }),
                    ("chain node", |_, x, at| x.sig.wots_sig[at[2]][1] ^= 0x80),
                    ("XMSS path", |_, x, at| x.sig.auth_path[at[3]][2] ^= 4),
                ];
                for (what, tamper) in tampers {
                    let at = [tree, level, chain, step];
                    tamper(&mut fors[hit], &mut xmss[hit], at);
                    let fors_expected = fors_oracle(&ctx, &fors);
                    let xmss_expected = xmss_oracle(&ctx, 0, &xmss);
                    assert!(
                        fors_expected != fors_clean || xmss_expected != xmss_clean,
                        "{what}: a flipped bit moves a root"
                    );
                    under_every_tier(|tier| {
                        let what = format!(
                            "{what}, {} count={count} under {}",
                            set.name(),
                            tier.label()
                        );
                        assert_eq!(fors_cases(&ctx, &fors), fors_expected, "{what}");
                        assert_eq!(xmss_cases(&ctx, 0, &xmss), xmss_expected, "{what}");
                    });
                    // Flip it back: the next tamper starts from clean.
                    tamper(&mut fors[hit], &mut xmss[hit], at);
                }
            }
        }
    }

    /// SHAKE-256 and SHA-512 go through the same stages, with the level
    /// sweep and the round loop behind them.
    #[test]
    fn the_other_primitives_match_scalar_through_the_same_stages() {
        let mut rng = Stream(0x5eed);
        for alg in [HashAlg::Shake256, HashAlg::Sha512] {
            for set in Params::fast_sets() {
                let ctx = HashCtx::with_alg(set, &rng.bytes(set.n), alg);
                let fors: Vec<ForsCase> =
                    (0..17).map(|_| random_fors_case(&set, &mut rng)).collect();
                let xmss: Vec<XmssCase> =
                    (0..17).map(|_| random_xmss_case(&set, &mut rng)).collect();
                let what = format!("{alg:?} {}", set.name());
                assert_eq!(
                    fors_cases(&ctx, &fors),
                    fors_oracle(&ctx, &fors),
                    "FORS, {what}"
                );
                assert_eq!(
                    xmss_cases(&ctx, 3, &xmss),
                    xmss_oracle(&ctx, 3, &xmss),
                    "XMSS, {what}"
                );
            }
        }
    }
}
