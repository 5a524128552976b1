//! FORS (Forest Of Random Subsets) few-time signature scheme.
//!
//! `k` Merkle trees of height `log t`; the message digest selects one leaf
//! per tree, and the signature reveals that leaf's secret preimage plus its
//! authentication path (§II-A2 of the paper). Tree independence is the
//! parallelism HERO-Sign's FORS Fusion exploits.
//!
//! Signing builds trees many at a time ([`tree_hash_many`]). Under
//! SHA-256 that is the CPU mirror of the paper's Tree Fusion (§III-B):
//! where the GPU's fused `Set` packs whole trees into one block, a SIMD
//! register group holds one whole tree per lane and takes them from
//! `PRF` through `F` to the last `H` without leaving the registers, the
//! revealed secret and the authentication path falling out on the way.
//! Elsewhere a tree's `t` leaves derive their secrets with chunked
//! [`HashCtx::prf_many`] sweeps into a flat buffer, hash to leaves in
//! place with [`HashCtx::f_many_at`], and halve level by level. The
//! scalar spelling of all of it is [`crate::reference`], which every
//! routine here is tested against.
//!
//! ```
//! use hero_sphincs::{address::{Address, AddressType}, fors, hash::HashCtx, params::Params, reference};
//!
//! // Reduced shape: k=8 trees of 2^4 leaves keeps the example fast.
//! let mut params = Params::sphincs_128f();
//! params.log_t = 4;
//! params.k = 8;
//! let ctx = HashCtx::new(params, &[0u8; 16]);
//! let mut adrs = Address::new();
//! adrs.set_type(AddressType::ForsTree);
//!
//! // The message digest picks one leaf per tree (k·log_t = 32 bits).
//! let md = [0b1011_0001u8, 0x7f, 0x33, 0x04];
//! let reqs = fors::tree_requests(&params, &md, &adrs);
//! // The trees' roots go to a buffer of the caller's, `n` bytes each.
//! let mut roots = vec![0u8; params.k * params.n];
//! let trees = fors::tree_hash_many(&ctx, &[1u8; 16], &reqs, &mut roots);
//! let sig = fors::ForsSignature { trees };
//! assert_eq!(sig.trees.len(), params.k);
//! // The public key is `T_k` over the roots, and verification
//! // recomputes the k roots and compresses them.
//! let pk = fors::roots_to_pk(&ctx, &adrs, &roots);
//! assert_eq!(reference::fors_pk_from_sig(&ctx, &sig, &md, &adrs), pk);
//! ```
//!
//! Verification has one way in, [`crate::sign::VerifyingKey::verify_many`]:
//! its FORS stage takes a group of signatures at a time (`pks_group`).

use crate::address::{Address, AddressType};
use crate::hash::HashCtx;
use crate::merkle;
use crate::nodes::Nodes;
use crate::params::Params;
use crate::sign::Scratch;
#[cfg(target_arch = "x86_64")]
use crate::{ascent, forest, lanes};

/// Leaves batched per scratch refill while filling a tree's bottom layer.
const LEAF_CHUNK: usize = 128;

/// One tree's share of a FORS signature.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForsTreeSig {
    /// Revealed secret element (`n` bytes).
    pub sk: Vec<u8>,
    /// Authentication path, `log t` nodes.
    pub auth_path: Nodes,
}

/// A complete FORS signature: one [`ForsTreeSig`] per tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForsSignature {
    /// Per-tree signatures, length `k`.
    pub trees: Vec<ForsTreeSig>,
}

impl ForsSignature {
    /// Serialized length in bytes for `params`.
    pub fn byte_len(params: &Params) -> usize {
        params.fors_sig_bytes()
    }
}

/// Maps the message digest `md` to `k` leaf indices, one per FORS tree
/// (spec Algorithm 14 `message_to_indices`): consumes `log_t` bits per
/// index, MSB first.
pub fn message_to_indices(params: &Params, md: &[u8]) -> Vec<u32> {
    indices(params, md).collect()
}

/// [`message_to_indices`], one index at a time.
fn indices<'a>(params: &Params, md: &'a [u8]) -> impl Iterator<Item = u32> + 'a {
    let log_t = params.log_t;
    (0..params.k).map(move |tree| {
        (tree * log_t..(tree + 1) * log_t).fold(0u32, |idx, offset| {
            let bit = (md[offset >> 3] >> (7 - (offset & 7))) & 1;
            (idx << 1) | bit as u32
        })
    })
}

/// The PRF address of the forest-global leaf slot `global_idx`
/// (`tree_idx · t + leaf_idx`) — the single place the ForsPrf field
/// sequence is spelled out.
fn prf_adrs_for(keypair_adrs: &Address, global_idx: u32) -> Address {
    let mut adrs = Address::new();
    adrs.copy_subtree_from(keypair_adrs);
    adrs.set_type(AddressType::ForsPrf);
    adrs.set_keypair(keypair_adrs.keypair());
    adrs.set_tree_height(0);
    adrs.set_tree_index(global_idx);
    adrs
}

/// The leaf-hash (`F`) address of forest-global leaf slot `global_idx`.
fn leaf_adrs_for(keypair_adrs: &Address, global_idx: u32) -> Address {
    let mut adrs = Address::new();
    adrs.copy_subtree_from(keypair_adrs);
    adrs.set_type(AddressType::ForsTree);
    adrs.set_keypair(keypair_adrs.keypair());
    adrs.set_tree_height(0);
    adrs.set_tree_index(global_idx);
    adrs
}

/// The forest-global node address carried by every internal `H` of a
/// tree's reduction.
fn node_adrs_for(keypair_adrs: &Address) -> Address {
    let mut node_adrs = Address::new();
    node_adrs.copy_subtree_from(keypair_adrs);
    node_adrs.set_type(AddressType::ForsTree);
    node_adrs.set_keypair(keypair_adrs.keypair());
    node_adrs
}

/// The `T_k` address compressing the roots of the forest at
/// `keypair_adrs`.
fn roots_adrs_for(keypair_adrs: &Address) -> Address {
    let mut roots_adrs = Address::new();
    roots_adrs.copy_subtree_from(keypair_adrs);
    roots_adrs.set_type(AddressType::ForsRoots);
    roots_adrs.set_keypair(keypair_adrs.keypair());
    roots_adrs
}

/// Streams one tree's whole bottom layer into `buf`: chunks of
/// [`LEAF_CHUNK`] leaves run `PRF` then `F` through the multi-lane engine
/// directly into the flat level buffer.
fn fill_tree_leaves(
    ctx: &HashCtx,
    sk_seed: &[u8],
    keypair_adrs: &Address,
    leaf_offset: u32,
    buf: &mut [u8],
) {
    let n = ctx.params().n;
    let t = ctx.params().t();
    let mut prf_adrs = [Address::new(); LEAF_CHUNK];
    let mut leaf_adrs = [Address::new(); LEAF_CHUNK];
    let identity: [usize; LEAF_CHUNK] = std::array::from_fn(|j| j);
    let mut start = 0usize;
    while start < t {
        let chunk = LEAF_CHUNK.min(t - start);
        for j in 0..chunk {
            let global = leaf_offset + (start + j) as u32;
            prf_adrs[j] = prf_adrs_for(keypair_adrs, global);
            leaf_adrs[j] = leaf_adrs_for(keypair_adrs, global);
        }
        let slots = &mut buf[start * n..(start + chunk) * n];
        ctx.prf_many(&prf_adrs[..chunk], sk_seed, slots);
        ctx.f_many_at(&leaf_adrs[..chunk], slots, &identity[..chunk]);
        start += chunk;
    }
}

/// One FORS tree of one message in a cross-message batch: the message's
/// keypair address (layer-0 tree/leaf coordinates) plus which of its `k`
/// trees to build and which leaf the digest selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForsTreeRequest {
    /// The message's FORS keypair address.
    pub keypair_adrs: Address,
    /// Tree index within the forest (`0..k`).
    pub tree_idx: u32,
    /// Leaf revealed by the message digest.
    pub leaf_idx: u32,
}

impl ForsTreeRequest {
    fn leaf_offset(&self, params: &Params) -> u32 {
        self.tree_idx * params.t() as u32
    }
}

/// Trees the widest fused body builds at once: request lists are best
/// cut in multiples of it.
pub const FUSED_TREES: usize = 16;

/// Signatures a verification group of
/// [`crate::sign::VerifyingKey::verify_many`] holds: the widest resident
/// ascent's, a lane each, and the group of the level sweep where no body
/// runs. Batches are best cut in multiples of it.
pub const LANE_SIGNATURES: usize = 16;

/// Builds many trees — possibly belonging to different messages — in one
/// pass: each request's revealed secret and authentication path, in the
/// order of `reqs` and held at their exact size, and its root, written to
/// `roots[j·n..]` for request `j`. A request's output does not depend on
/// what else is in the call.
///
/// Under SHA-256, on a CPU the resident ladder has a body for
/// ([`crate::tier::sha256_chain_tier`] above `scalar`), requests are
/// taken a register group at a time and every lane builds one whole tree
/// — `PRF`, `F` and all `H` levels — without leaving the registers (the
/// fused kernel, the paper's Tree Fusion). Requests that do not fill a
/// last group share its lanes out among themselves, a subtree per lane,
/// and only the few levels above the subtree roots go level by level.
/// That is how everything goes under SHAKE-256, SHA-512 and the `scalar`
/// rung ([`merkle::treehash_many_levels`]: every reduction level hashes
/// all requests' sibling pairs through one combined multi-lane batch).
///
/// # Panics
///
/// Panics if `roots` is not `n` bytes for each request.
pub fn tree_hash_many(
    ctx: &HashCtx,
    sk_seed: &[u8],
    reqs: &[ForsTreeRequest],
    roots: &mut [u8],
) -> Vec<ForsTreeSig> {
    let n = ctx.params().n;
    assert_eq!(roots.len(), reqs.len() * n, "one n-byte root per request");
    #[cfg(target_arch = "x86_64")]
    if let (Some(iv), Some(kernel)) = (ctx.sha256_seed_state(), forest::Kernel::active(n)) {
        // Whole groups first, then the last group the requests do not
        // fill.
        let full = reqs.len() - reqs.len() % kernel.lanes;
        let mut sigs = Vec::with_capacity(reqs.len());
        let (full_roots, short_roots) = roots.split_at_mut(full * n);
        fused_trees(
            ctx,
            &kernel,
            iv,
            sk_seed,
            &reqs[..full],
            &mut sigs,
            full_roots,
        );
        fused_trees(
            ctx,
            &kernel,
            iv,
            sk_seed,
            &reqs[full..],
            &mut sigs,
            short_roots,
        );
        return sigs;
    }
    tree_hash_sweep(ctx, sk_seed, reqs, roots)
}

/// [`tree_hash_many`] in the fused kernel. Requests that do not fill a
/// group give each tree as many lanes as go round: a tree is cut into
/// `2^split` subtrees of equal height that a lane builds each, the secret
/// and the lower part of the authentication path come from the lane
/// whose subtree holds the revealed leaf, and the levels above the
/// subtree roots are halved across all trees at once
/// ([`merkle::treehash_many_levels`]). Appends a signature per request to
/// `sigs` and writes the roots to `roots`.
#[cfg(target_arch = "x86_64")]
fn fused_trees(
    ctx: &HashCtx,
    kernel: &forest::Kernel,
    iv: &[u32; 8],
    sk_seed: &[u8],
    reqs: &[ForsTreeRequest],
    sigs: &mut Vec<ForsTreeSig>,
    roots: &mut [u8],
) {
    if reqs.is_empty() {
        return;
    }
    let params = *ctx.params();
    let n = params.n;
    let split = (kernel.lanes / reqs.len()).checked_ilog2().unwrap_or(0) as usize;
    let split = split.min(params.log_t);
    let height = params.log_t - split;
    let trees: Vec<forest::Tree> = reqs
        .iter()
        .flat_map(|req| {
            (0..1u32 << split).map(move |part| forest::Tree {
                node_adrs: node_adrs_for(&req.keypair_adrs),
                prf_adrs: prf_adrs_for(&req.keypair_adrs, 0),
                leaf_offset: req.leaf_offset(&params) + (part << height),
                leaf_idx: (req.leaf_idx >> height == part)
                    .then_some(req.leaf_idx & ((1 << height) - 1)),
            })
        })
        .collect();
    if split == 0 {
        kernel.run(iv, height, sk_seed, &trees, sigs, roots);
        return;
    }

    let jobs: Vec<merkle::TreeHashJob> = reqs
        .iter()
        .map(|req| {
            let mut node_adrs = node_adrs_for(&req.keypair_adrs);
            node_adrs.set_tree_height(height as u32);
            merkle::TreeHashJob {
                leaf_idx: req.leaf_idx >> height,
                node_adrs,
                leaf_offset: req.leaf_offset(&params) >> height,
            }
        })
        .collect();
    // The lanes' subtree roots are the leaves of the levels above them.
    let first = sigs.len();
    let tops = merkle::treehash_many_levels(ctx, split, &jobs, |buf| {
        kernel.run(iv, height, sk_seed, &trees, sigs, buf)
    });
    for (j, (job, root)) in jobs.iter().zip(roots.chunks_exact_mut(n)).enumerate() {
        root.copy_from_slice(tops.root(j));
        let sig = &mut sigs[first + j];
        let mut path = Nodes::with_capacity(n, params.log_t);
        for node in &sig.auth_path {
            path.push(node);
        }
        tops.push_auth_path(j, job.leaf_idx, &mut path);
        sig.auth_path = path;
    }
}

/// [`tree_hash_many`] level by level: the secrets to reveal in one `PRF`
/// sweep, the leaves tree by tree ([`fill_tree_leaves`]), the reduction
/// across all requests at once.
fn tree_hash_sweep(
    ctx: &HashCtx,
    sk_seed: &[u8],
    reqs: &[ForsTreeRequest],
    roots: &mut [u8],
) -> Vec<ForsTreeSig> {
    let params = *ctx.params();
    let n = params.n;
    let sk_adrs: Vec<Address> = reqs
        .iter()
        .map(|req| prf_adrs_for(&req.keypair_adrs, req.leaf_offset(&params) + req.leaf_idx))
        .collect();
    let mut sks = vec![0u8; reqs.len() * n];
    ctx.prf_many(&sk_adrs, sk_seed, &mut sks);

    let jobs: Vec<merkle::TreeHashJob> = reqs
        .iter()
        .map(|req| merkle::TreeHashJob {
            leaf_idx: req.leaf_idx,
            node_adrs: node_adrs_for(&req.keypair_adrs),
            leaf_offset: req.leaf_offset(&params),
        })
        .collect();
    let built = merkle::treehash_many_levels(ctx, params.log_t, &jobs, |buf| {
        for (req, buf) in reqs.iter().zip(buf.chunks_exact_mut(params.t() * n)) {
            fill_tree_leaves(
                ctx,
                sk_seed,
                &req.keypair_adrs,
                req.leaf_offset(&params),
                buf,
            )
        }
    });
    for (j, root) in roots.chunks_exact_mut(n).enumerate() {
        root.copy_from_slice(built.root(j));
    }
    sks.chunks_exact(n)
        .zip(reqs)
        .enumerate()
        .map(|(j, (sk, req))| ForsTreeSig {
            sk: sk.to_vec(),
            auth_path: built.auth_path(j, req.leaf_idx),
        })
        .collect()
}

/// One [`ForsTreeRequest`] per tree of the forest at `keypair_adrs`, leaf
/// indices decoded from `md`: the `FORS_Sign` stage list of one message.
/// Signers keep only the leaf indices ([`crate::sign::Stages`]) and
/// spell out a request when its tree is built
/// ([`crate::sign::Stages::fors_request`]).
pub fn tree_requests(params: &Params, md: &[u8], keypair_adrs: &Address) -> Vec<ForsTreeRequest> {
    (0u32..)
        .zip(message_to_indices(params, md))
        .map(|(tree_idx, leaf_idx)| ForsTreeRequest {
            keypair_adrs: *keypair_adrs,
            tree_idx,
            leaf_idx,
        })
        .collect()
}

/// `T_k`: compresses a forest's `k` roots (concatenated in `roots_flat`)
/// into its FORS public key.
pub fn roots_to_pk(ctx: &HashCtx, keypair_adrs: &Address, roots_flat: &[u8]) -> Vec<u8> {
    let mut pk = vec![0u8; ctx.params().n];
    ctx.t_l_flat_into(&roots_adrs_for(keypair_adrs), roots_flat, &mut pk);
    pk
}

/// The FORS stage of verification for one group of signatures: public
/// key `s` goes to `scratch.roots[s*n..]`. The one place the stage picks
/// its body.
///
/// In the lanes (SHA-256 above the `scalar` rung) the signatures are read
/// out into words one after another in their byte order — tree by tree,
/// the revealed secret and then the authentication path — and every tree
/// is a lane of the resident ascent: `F` of the secret at its
/// forest-global address, then its `log_t` levels, the root written over
/// the secret. From four signatures in zmm, two in ymm
/// ([`ascent::Resident::ascends_in_lanes`]), each signature's `T_k` is a
/// lane of its own over those roots; a narrower group runs `T_k` on
/// bytes. The level sweep hashes the group's `count · k` secrets to
/// leaves in one [`HashCtx::f_many`], climbs every tree a level of the
/// whole group at a time (`merkle::roots_in`) and runs `T_k` on bytes.
///
/// # Panics
///
/// Panics if a signature's shape is malformed, or there are more
/// signatures than the group holds.
pub(crate) fn pks_group(
    ctx: &HashCtx,
    scratch: &mut Scratch,
    sigs: &[&ForsSignature],
    mds: &[&[u8]],
    keypair_adrs_list: &[Address],
) {
    let params = *ctx.params();
    let (n, k, log_t, t) = (params.n, params.k, params.log_t, params.t() as u32);
    let count = sigs.len();
    assert!(count <= scratch.width, "one group of signatures at most");
    #[cfg(target_arch = "x86_64")]
    if let Some(lanes) = &mut scratch.lanes {
        let nw = n / 4;
        let tree_words = (1 + log_t) * nw;
        let forest_words = k * tree_words;
        let in_lanes = lanes.ascends_in_lanes(count);
        let words = &mut lanes.words;
        words.resize(count * forest_words, 0);
        for (sig, words) in sigs.iter().zip(words.chunks_exact_mut(forest_words)) {
            assert_eq!(sig.trees.len(), k, "FORS signature tree count");
            for (tree, words) in sig.trees.iter().zip(words.chunks_exact_mut(tree_words)) {
                assert_eq!(tree.auth_path.len(), log_t, "authentication path height");
                let (sk, auth) = words.split_at_mut(nw);
                lanes::put_nodes(sk, &tree.sk);
                lanes::put_nodes(auth, tree.auth_path.as_bytes());
            }
        }
        // A leaf's `F` address is the tree's node address at height zero
        // but for its last field, the forest-global leaf index.
        let climbs = &mut lanes.climbs;
        climbs.clear();
        for (s, (md, adrs)) in mds.iter().zip(keypair_adrs_list).enumerate() {
            let node_adrs = node_adrs_for(adrs).compressed_words();
            for (tree, idx) in indices(&params, md).enumerate() {
                let leaf_idx = tree as u32 * t + idx;
                climbs.push(ascent::Climb {
                    leaf_adrs: node_adrs,
                    leaf_last: leaf_idx,
                    node_adrs,
                    leaf_idx,
                    at: (s * forest_words + tree * tree_words) as u32,
                    ..Default::default()
                });
            }
        }
        let trees = ascent::Shape {
            leaf_nodes: 1,
            height: log_t,
            stride: nw,
        };
        lanes.ascent.run(lanes.iv, climbs, &trees, words, None);

        // Tree `j`'s root is now where its secret was.
        if in_lanes {
            climbs.clear();
            climbs.extend((0..).zip(keypair_adrs_list).map(|(s, adrs)| {
                let roots_adrs = roots_adrs_for(adrs).compressed_words();
                ascent::Climb {
                    leaf_adrs: roots_adrs,
                    node_adrs: roots_adrs,
                    at: (s * forest_words) as u32,
                    ..Default::default()
                }
            }));
            let forests = ascent::Shape {
                leaf_nodes: k,
                height: 0,
                stride: tree_words,
            };
            let mut rows = ascent::Nodes::default();
            lanes
                .ascent
                .run(lanes.iv, climbs, &forests, words, Some(&mut rows));
            for (lane, pk) in scratch.roots.chunks_exact_mut(n).take(count).enumerate() {
                lanes::take_words(&rows, lane, pk);
            }
            return;
        }
        let roots = &mut scratch.bytes;
        let forests = words.chunks_exact(forest_words).zip(keypair_adrs_list);
        for ((forest, adrs), pk) in forests.zip(scratch.roots.chunks_exact_mut(n)) {
            roots.clear();
            for root in forest.chunks_exact(tree_words) {
                roots.extend(root[..nw].iter().flat_map(|word| word.to_be_bytes()));
            }
            ctx.t_l_flat_into(&roots_adrs_for(adrs), roots, pk);
        }
        return;
    }
    let Scratch {
        roots,
        bytes,
        leaves,
        adrs,
        ..
    } = scratch;
    adrs.clear();
    bytes.clear();
    for (sig, (md, keypair_adrs)) in sigs.iter().zip(mds.iter().zip(keypair_adrs_list)) {
        assert_eq!(sig.trees.len(), k, "FORS signature tree count");
        for ((tree, tree_sig), idx) in (0..).zip(&sig.trees).zip(indices(&params, md)) {
            assert_eq!(tree_sig.sk.len(), n, "FORS sk element must be n bytes");
            adrs.push(leaf_adrs_for(keypair_adrs, tree * t + idx));
            bytes.extend_from_slice(&tree_sig.sk);
        }
    }
    leaves.resize(count * k * n, 0);
    ctx.f_many(adrs, bytes, leaves);
    // A leaf's `F` address is its tree's node address at height zero but
    // for the forest-global leaf index: all a climb reads of it.
    let climb = |j: usize| merkle::AuthPathJob {
        leaf: &leaves[j * n..(j + 1) * n],
        leaf_idx: adrs[j].tree_index(),
        auth_path: sigs[j / k].trees[j % k].auth_path.as_bytes(),
        node_adrs: adrs[j],
        leaf_offset: 0,
    };
    merkle::roots_in(ctx, count * k, climb, bytes);
    let forests = bytes.chunks_exact(k * n).zip(keypair_adrs_list);
    for ((forest, adrs), pk) in forests.zip(roots.chunks_exact_mut(n)) {
        ctx.t_l_flat_into(&roots_adrs_for(adrs), forest, pk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::sign::verify_stages::fors_many;

    /// One signature's public key: the FORS stage of verification for a
    /// group of one.
    fn pk_from_sig(ctx: &HashCtx, sig: &ForsSignature, md: &[u8], adrs: &Address) -> Vec<u8> {
        fors_many(ctx, &[sig], &[md], std::slice::from_ref(adrs)).remove(0)
    }

    /// The `FORS_Sign` stage of one message: its `k` trees in one
    /// [`tree_hash_many`] call, and `T_k` over their roots.
    fn sign(ctx: &HashCtx, md: &[u8], sk_seed: &[u8], adrs: &Address) -> (ForsSignature, Vec<u8>) {
        let reqs = tree_requests(ctx.params(), md, adrs);
        let mut roots = vec![0u8; reqs.len() * ctx.params().n];
        let trees = tree_hash_many(ctx, sk_seed, &reqs, &mut roots);
        (ForsSignature { trees }, roots_to_pk(ctx, adrs, &roots))
    }

    fn setup() -> (Params, HashCtx, Vec<u8>, Address) {
        let params = Params::sphincs_128f();
        let ctx = HashCtx::new(params, &[13u8; 16]);
        let sk_seed = vec![4u8; 16];
        let mut adrs = Address::new();
        adrs.set_tree(9);
        adrs.set_keypair(1);
        (params, ctx, sk_seed, adrs)
    }

    fn digest_for(params: &Params, fill: u8) -> Vec<u8> {
        vec![fill; (params.k * params.log_t).div_ceil(8)]
    }

    #[test]
    fn indices_extract_bits_msb_first() {
        let params = Params::sphincs_128f(); // log_t = 6
        let md = [0b1010_1011, 0b1100_0000];
        let idx = message_to_indices(
            &params,
            &vec![
                md[0], md[1], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        );
        assert_eq!(idx[0], 0b101010);
        assert_eq!(idx[1], 0b111100);
    }

    #[test]
    fn indices_in_range() {
        let (params, ctx, _, _) = setup();
        let md = ctx.h_msg(&[1; 16], &[2; 16], b"x");
        for idx in message_to_indices(&params, &md) {
            assert!((idx as usize) < params.t());
        }
    }

    #[test]
    fn sign_pk_roundtrip() {
        let (params, ctx, sk_seed, adrs) = setup();
        let md = digest_for(&params, 0xA7);
        let (sig, pk) = sign(&ctx, &md, &sk_seed, &adrs);
        assert_eq!(sig.trees.len(), params.k);
        assert_eq!(pk.len(), params.n);
        assert_eq!(pk_from_sig(&ctx, &sig, &md, &adrs), pk);
        assert_eq!(reference::fors_pk_from_sig(&ctx, &sig, &md, &adrs), pk);
        assert_eq!(reference::fors_sign(&ctx, &md, &sk_seed, &adrs), (sig, pk));
    }

    #[test]
    fn wrong_digest_changes_pk() {
        let (params, ctx, sk_seed, adrs) = setup();
        let md = digest_for(&params, 0xA7);
        let md2 = digest_for(&params, 0xA6);
        let (sig, pk) = sign(&ctx, &md, &sk_seed, &adrs);
        assert_ne!(pk_from_sig(&ctx, &sig, &md2, &adrs), pk);
    }

    #[test]
    fn tampered_sk_changes_pk() {
        let (params, ctx, sk_seed, adrs) = setup();
        let md = digest_for(&params, 0x33);
        let (sig, pk) = sign(&ctx, &md, &sk_seed, &adrs);
        let mut bad = sig.clone();
        bad.trees[0].sk[0] ^= 1;
        assert_ne!(pk_from_sig(&ctx, &bad, &md, &adrs), pk);
    }

    #[test]
    fn consistency_sign_derives_same_roots_as_treehash() {
        // The pk a signature carries must equal the pk from recomputing
        // all trees directly, node by node.
        let (params, ctx, sk_seed, adrs) = setup();
        let md = digest_for(&params, 0x55);
        let indices = message_to_indices(&params, &md);
        let (sig, pk) = sign(&ctx, &md, &sk_seed, &adrs);
        assert_eq!(pk_from_sig(&ctx, &sig, &md, &adrs), pk);

        let roots: Vec<Vec<u8>> = (0..params.k as u32)
            .map(|t| reference::fors_tree(&ctx, &sk_seed, &adrs, t, indices[t as usize]).0)
            .collect();
        let parts: Vec<&[u8]> = roots.iter().map(Vec::as_slice).collect();
        assert_eq!(ctx.t_l(&roots_adrs_for(&adrs), &parts), pk);
    }

    #[test]
    fn tree_hash_many_matches_per_tree() {
        // Trees from two different "messages" (distinct keypair
        // addresses) interleaved in one request batch, each against the
        // reference's tree and secret.
        let (params, ctx, sk_seed, adrs) = setup();
        let mut adrs2 = Address::new();
        adrs2.set_tree(12);
        adrs2.set_keypair(3);
        let reqs: Vec<ForsTreeRequest> = (0..5u32)
            .map(|i| ForsTreeRequest {
                keypair_adrs: if i % 2 == 0 { adrs } else { adrs2 },
                tree_idx: i % params.k as u32,
                leaf_idx: (i * 13) % params.t() as u32,
            })
            .collect();
        let mut roots = vec![0u8; reqs.len() * params.n];
        let many = tree_hash_many(&ctx, &sk_seed, &reqs, &mut roots);
        for (i, req) in reqs.iter().enumerate() {
            let (keypair_adrs, tree, leaf) = (&req.keypair_adrs, req.tree_idx, req.leaf_idx);
            let (root, auth_path) = reference::fors_tree(&ctx, &sk_seed, keypair_adrs, tree, leaf);
            let sig = &many[i];
            assert_eq!(roots[i * params.n..][..params.n], root, "request {i}");
            assert_eq!(sig.auth_path, auth_path, "request {i}");
            assert_eq!(
                sig.sk,
                reference::fors_sk(&ctx, &sk_seed, keypair_adrs, tree, leaf),
                "request {i} sk"
            );
        }
        assert!(tree_hash_many(&ctx, &sk_seed, &[], &mut []).is_empty());
    }

    #[test]
    fn pk_from_sig_many_matches_per_signature() {
        // Signatures under distinct keypair addresses and digests — the
        // cross-signature verify group — must each recover a public key
        // byte-identical to the reference's.
        let (params, ctx, sk_seed, _) = setup();
        for count in [1usize, 2, 4] {
            let sigs_md: Vec<(ForsSignature, Vec<u8>, Address)> = (0..count)
                .map(|i| {
                    let mut a = Address::new();
                    a.set_tree(i as u64 * 3 + 1);
                    a.set_keypair(i as u32);
                    let md = digest_for(&params, 0x41 + i as u8);
                    (sign(&ctx, &md, &sk_seed, &a).0, md, a)
                })
                .collect();
            let sigs: Vec<&ForsSignature> = sigs_md.iter().map(|(s, ..)| s).collect();
            let mds: Vec<&[u8]> = sigs_md.iter().map(|(_, md, _)| md.as_slice()).collect();
            let adrs_list: Vec<Address> = sigs_md.iter().map(|(.., a)| *a).collect();
            let batched = fors_many(&ctx, &sigs, &mds, &adrs_list);
            assert_eq!(batched.len(), count);
            for (i, (sig, md, a)) in sigs_md.iter().enumerate() {
                assert_eq!(
                    batched[i],
                    reference::fors_pk_from_sig(&ctx, sig, md, a),
                    "count={count} signature {i}"
                );
            }
        }
        assert!(fors_many(&ctx, &[], &[], &[]).is_empty());
    }
}
