//! Generic Merkle tree-hash with authentication-path extraction.
//!
//! Used by both FORS trees and the hypertree's XMSS subtrees. The
//! level-by-level formulation here is deliberately the same shape as the
//! GPU kernels' tree-based reduction (Fig. 7 of the paper): compute all
//! leaves, then halve level by level.
//!
//! The hot path is allocation-free in the steady state: leaves are
//! produced into one flat `n`-stride buffer ([`treehash_flat`]), every
//! level is halved with one batched [`HashCtx::h_many`] sweep (the CPU
//! analogue of a warp hashing sibling pairs in lockstep), and
//! authentication-path siblings are sliced straight out of the flat level
//! buffer instead of cloning `Vec<Vec<u8>>` levels. Everything is
//! generic over the hash primitive carried by the [`HashCtx`].
//!
//! ```
//! use hero_sphincs::{address::Address, hash::HashCtx, merkle, params::Params};
//!
//! let ctx = HashCtx::new(Params::sphincs_128f(), &[0u8; 16]);
//! let adrs = Address::new();
//! // A height-3 tree whose leaf i is [i; 16]; extract leaf 5's path.
//! let out = merkle::treehash(&ctx, 3, 5, &adrs, |i, slot: &mut [u8]| {
//!     slot.fill(i as u8);
//! });
//! assert_eq!(out.auth_path.len(), 3);
//! let rebuilt = merkle::root_from_auth_path(&ctx, &[5u8; 16], 5, &out.auth_path, &adrs);
//! assert_eq!(rebuilt, out.root);
//! ```

use crate::address::Address;
use crate::hash::HashCtx;

/// Result of a treehash: the root plus the authentication path for one leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeHashOutput {
    /// Merkle root (`n` bytes).
    pub root: Vec<u8>,
    /// Sibling nodes from the leaf's level up (each `n` bytes).
    pub auth_path: Vec<Vec<u8>>,
}

/// Computes the Merkle root and the authentication path of `leaf_idx` for a
/// tree of `height` levels whose leaves are produced by
/// `leaf_fn(i, slot)` writing leaf `i` into the `n`-byte `slot`.
///
/// `node_adrs` carries the layer/tree coordinates; tree-height and
/// tree-index fields are set here for every internal `H` call.
///
/// # Panics
///
/// Panics if `leaf_idx >= 2^height`.
pub fn treehash<F>(
    ctx: &HashCtx,
    height: usize,
    leaf_idx: u32,
    node_adrs: &Address,
    leaf_fn: F,
) -> TreeHashOutput
where
    F: FnMut(u32, &mut [u8]),
{
    treehash_with_offset(ctx, height, leaf_idx, node_adrs, 0, leaf_fn)
}

/// [`treehash`] for a tree embedded in a forest: node addresses at level
/// `z` use index `(leaf_offset >> z) + i`, so each of the `k` FORS trees
/// hashes under forest-global coordinates (as the reference implementation
/// does).
///
/// # Panics
///
/// Panics if `leaf_idx >= 2^height` or `leaf_offset` is not a multiple of
/// `2^height`.
pub fn treehash_with_offset<F>(
    ctx: &HashCtx,
    height: usize,
    leaf_idx: u32,
    node_adrs: &Address,
    leaf_offset: u32,
    mut leaf_fn: F,
) -> TreeHashOutput
where
    F: FnMut(u32, &mut [u8]),
{
    let n = ctx.params().n;
    treehash_flat(ctx, height, leaf_idx, node_adrs, leaf_offset, |leaves| {
        for (i, slot) in leaves.chunks_exact_mut(n).enumerate() {
            leaf_fn(i as u32, slot);
        }
    })
}

/// The flat-buffer treehash core: `fill_leaves` writes all `2^height`
/// leaves into one `2^height * n`-byte buffer at once (letting the caller
/// batch leaf generation across the whole bottom layer), then levels halve
/// in place via [`HashCtx::h_many`].
///
/// # Panics
///
/// As [`treehash_with_offset`].
pub fn treehash_flat<F>(
    ctx: &HashCtx,
    height: usize,
    leaf_idx: u32,
    node_adrs: &Address,
    leaf_offset: u32,
    fill_leaves: F,
) -> TreeHashOutput
where
    F: FnOnce(&mut [u8]),
{
    let n = ctx.params().n;
    let num_leaves = 1usize << height;
    assert!((leaf_idx as usize) < num_leaves, "leaf index out of range");
    assert!(
        (leaf_offset as usize).is_multiple_of(num_leaves),
        "leaf offset must be a multiple of the tree size"
    );

    // Ping-pong level buffers: `level` holds the current level's nodes
    // contiguously, `next` receives the parents.
    let mut level = vec![0u8; num_leaves * n];
    fill_leaves(&mut level);
    let mut next = vec![0u8; (num_leaves / 2).max(1) * n];
    let mut adrs_buf: Vec<Address> = Vec::with_capacity(num_leaves / 2);

    let mut auth_path = Vec::with_capacity(height);
    let mut idx = leaf_idx;
    let mut adrs = *node_adrs;
    let mut len = num_leaves;

    for level_height in 1..=height {
        let sibling = (idx ^ 1) as usize;
        auth_path.push(level[sibling * n..(sibling + 1) * n].to_vec());

        adrs.set_tree_height(level_height as u32);
        let level_offset = leaf_offset >> level_height;
        let parents = len / 2;
        adrs_buf.clear();
        for i in 0..parents as u32 {
            let mut a = adrs;
            a.set_tree_index(level_offset + i);
            adrs_buf.push(a);
        }
        ctx.h_many(&adrs_buf, &level[..len * n], &mut next[..parents * n]);
        std::mem::swap(&mut level, &mut next);
        len = parents;
        idx >>= 1;
    }

    debug_assert_eq!(len, 1);
    TreeHashOutput {
        root: level[..n].to_vec(),
        auth_path,
    }
}

/// One tree's coordinates in a combined [`treehash_many`] sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeHashJob {
    /// Leaf whose authentication path is extracted.
    pub leaf_idx: u32,
    /// Layer/tree coordinates for node addressing. Its height field is
    /// the height the job's leaves sit at: 0, unless they are themselves
    /// roots of subtrees built elsewhere ([`treehash_many`] only).
    pub node_adrs: Address,
    /// Forest-global offset of the first leaf, counted in nodes of the
    /// leaves' height (0 for hypertree subtrees, `tree·t` for FORS
    /// trees).
    pub leaf_offset: u32,
}

/// Builds many same-height trees in one sweep: every tree's level is
/// halved by a *single* combined [`HashCtx::h_many`] call over all jobs,
/// so the near-root levels — where one tree has fewer nodes than SHA
/// lanes — still fill the multi-lane engine with siblings from the other
/// jobs. The jobs may belong to different messages entirely (the
/// cross-message batching of the batch planner); per-job output is
/// byte-identical to calling [`treehash_flat`] per tree.
///
/// `fill_leaves(buf)` writes every job's `2^height · n`-byte leaf layer,
/// job after job, in one call — so a filler that batches across leaves
/// (a WOTS+ fill keeps a register group full that way) batches across
/// the jobs too.
///
/// # Panics
///
/// As [`treehash_with_offset`], per job.
pub fn treehash_many<F>(
    ctx: &HashCtx,
    height: usize,
    jobs: &[TreeHashJob],
    fill_leaves: F,
) -> Vec<TreeHashOutput>
where
    F: FnOnce(&mut [u8]),
{
    let n = ctx.params().n;
    let num_leaves = 1usize << height;
    let jn = jobs.len();
    if jn == 0 {
        return Vec::new();
    }
    for job in jobs {
        assert!(
            (job.leaf_idx as usize) < num_leaves,
            "leaf index out of range"
        );
        assert!(
            (job.leaf_offset as usize).is_multiple_of(num_leaves),
            "leaf offset must be a multiple of the tree size"
        );
    }

    // One flat buffer holds every job's current level back to back; the
    // stride shrinks as levels halve, keeping each job's nodes contiguous
    // so sibling pairs never straddle a job boundary.
    let mut level = vec![0u8; jn * num_leaves * n];
    fill_leaves(&mut level);
    let mut next = vec![0u8; jn * (num_leaves / 2).max(1) * n];
    let mut adrs_buf: Vec<Address> = Vec::with_capacity(jn * num_leaves / 2);

    let mut auth_paths: Vec<Vec<Vec<u8>>> = (0..jn).map(|_| Vec::with_capacity(height)).collect();
    let mut idxs: Vec<u32> = jobs.iter().map(|job| job.leaf_idx).collect();
    let mut len = num_leaves;

    for level_height in 1..=height {
        let parents = len / 2;
        adrs_buf.clear();
        for (j, job) in jobs.iter().enumerate() {
            let sibling = (idxs[j] ^ 1) as usize;
            let base = j * len * n;
            auth_paths[j].push(level[base + sibling * n..base + (sibling + 1) * n].to_vec());
            idxs[j] >>= 1;

            let mut adrs = job.node_adrs;
            adrs.set_tree_height(job.node_adrs.tree_height() + level_height as u32);
            let level_offset = job.leaf_offset >> level_height;
            for i in 0..parents as u32 {
                let mut a = adrs;
                a.set_tree_index(level_offset + i);
                adrs_buf.push(a);
            }
        }
        ctx.h_many(
            &adrs_buf,
            &level[..jn * len * n],
            &mut next[..jn * parents * n],
        );
        std::mem::swap(&mut level, &mut next);
        len = parents;
    }

    debug_assert_eq!(len, 1);
    auth_paths
        .into_iter()
        .enumerate()
        .map(|(j, auth_path)| TreeHashOutput {
            root: level[j * n..(j + 1) * n].to_vec(),
            auth_path,
        })
        .collect()
}

/// Every level of a built Merkle tree, bottom to top: level `0` is the
/// flat leaf layer (`2^height · n` bytes), level `z` the flat layer of
/// `2^(height−z)` nodes, and the top level the `n`-byte root.
///
/// Retaining the levels is what makes a subtree *memoizable*: the root
/// and the authentication path of **any** leaf can be sliced out later
/// without re-hashing ([`TreeLevels::output_for`]), byte-identical to
/// what [`treehash_flat`] would have extracted for that leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeLevels {
    n: usize,
    levels: Vec<Vec<u8>>,
}

impl TreeLevels {
    /// Tree height (number of halving levels retained above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The `n`-byte Merkle root.
    pub fn root(&self) -> &[u8] {
        &self.levels[self.levels.len() - 1]
    }

    /// The authentication path of `leaf_idx`, sliced from the retained
    /// levels — byte-identical to [`treehash_flat`]'s path for the same
    /// leaf.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_idx >= 2^height`.
    pub fn auth_path(&self, leaf_idx: u32) -> Vec<Vec<u8>> {
        let n = self.n;
        assert!(
            (leaf_idx as usize) < (1usize << self.height()),
            "leaf index out of range"
        );
        let mut idx = leaf_idx as usize;
        (0..self.height())
            .map(|z| {
                let sibling = idx ^ 1;
                let node = self.levels[z][sibling * n..(sibling + 1) * n].to_vec();
                idx >>= 1;
                node
            })
            .collect()
    }

    /// Root plus `leaf_idx`'s authentication path, as the
    /// [`TreeHashOutput`] a fresh treehash of this tree would produce.
    ///
    /// # Panics
    ///
    /// As [`TreeLevels::auth_path`].
    pub fn output_for(&self, leaf_idx: u32) -> TreeHashOutput {
        TreeHashOutput {
            root: self.root().to_vec(),
            auth_path: self.auth_path(leaf_idx),
        }
    }

    /// Total retained node bytes (`(2^(height+1) − 1) · n`) — the
    /// memoization layer's accounting unit for its memory bound.
    pub fn byte_len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// [`treehash_flat`] that retains every level instead of ping-ponging
/// them away, for memoization. The per-level hashing is the same batched
/// [`HashCtx::h_many`] sweep, so node bytes are identical.
///
/// # Panics
///
/// Panics if `leaf_offset` is not a multiple of `2^height`.
pub fn treehash_levels<F>(
    ctx: &HashCtx,
    height: usize,
    node_adrs: &Address,
    leaf_offset: u32,
    fill_leaves: F,
) -> TreeLevels
where
    F: FnOnce(&mut [u8]),
{
    let job = TreeHashJob {
        leaf_idx: 0,
        node_adrs: *node_adrs,
        leaf_offset,
    };
    treehash_many_levels(ctx, height, &[job], fill_leaves)
        .pop()
        .expect("one output per job")
}

/// [`treehash_many`] that retains every job's levels, for memoization:
/// the same combined per-level [`HashCtx::h_many`] sweep across all jobs,
/// but instead of one leaf's authentication path, each job keeps its
/// whole node pyramid ([`TreeLevels`]) so any leaf can be served later.
/// Jobs' `leaf_idx` fields are not consulted; `fill_leaves` is
/// [`treehash_many`]'s.
///
/// # Panics
///
/// Panics if any job's `leaf_offset` is not a multiple of `2^height`.
pub fn treehash_many_levels<F>(
    ctx: &HashCtx,
    height: usize,
    jobs: &[TreeHashJob],
    fill_leaves: F,
) -> Vec<TreeLevels>
where
    F: FnOnce(&mut [u8]),
{
    let n = ctx.params().n;
    let num_leaves = 1usize << height;
    let jn = jobs.len();
    if jn == 0 {
        return Vec::new();
    }
    for job in jobs {
        assert!(
            (job.leaf_offset as usize).is_multiple_of(num_leaves),
            "leaf offset must be a multiple of the tree size"
        );
    }

    let mut out: Vec<TreeLevels> = (0..jn)
        .map(|_| TreeLevels {
            n,
            levels: Vec::with_capacity(height + 1),
        })
        .collect();

    // Same flat shrinking-stride layout as `treehash_many`; each level is
    // copied out per job as it is produced.
    let mut level = vec![0u8; jn * num_leaves * n];
    fill_leaves(&mut level);
    for (levels, region) in out.iter_mut().zip(level.chunks_exact(num_leaves * n)) {
        levels.levels.push(region.to_vec());
    }
    let mut next = vec![0u8; jn * (num_leaves / 2).max(1) * n];
    let mut adrs_buf: Vec<Address> = Vec::with_capacity(jn * num_leaves / 2);

    let mut len = num_leaves;
    for level_height in 1..=height {
        let parents = len / 2;
        adrs_buf.clear();
        for job in jobs {
            let mut adrs = job.node_adrs;
            adrs.set_tree_height(level_height as u32);
            let level_offset = job.leaf_offset >> level_height;
            for i in 0..parents as u32 {
                let mut a = adrs;
                a.set_tree_index(level_offset + i);
                adrs_buf.push(a);
            }
        }
        ctx.h_many(
            &adrs_buf,
            &level[..jn * len * n],
            &mut next[..jn * parents * n],
        );
        for (j, region) in next[..jn * parents * n]
            .chunks_exact(parents * n)
            .enumerate()
        {
            out[j].levels.push(region.to_vec());
        }
        std::mem::swap(&mut level, &mut next);
        len = parents;
    }
    out
}

/// Recomputes a Merkle root from a leaf and its authentication path
/// (verification side of [`treehash`]).
pub fn root_from_auth_path(
    ctx: &HashCtx,
    leaf: &[u8],
    leaf_idx: u32,
    auth_path: &[Vec<u8>],
    node_adrs: &Address,
) -> Vec<u8> {
    root_from_auth_path_with_offset(ctx, leaf, leaf_idx, auth_path, node_adrs, 0)
}

/// Verification counterpart of [`treehash_with_offset`].
pub fn root_from_auth_path_with_offset(
    ctx: &HashCtx,
    leaf: &[u8],
    leaf_idx: u32,
    auth_path: &[Vec<u8>],
    node_adrs: &Address,
    leaf_offset: u32,
) -> Vec<u8> {
    let n = ctx.params().n;
    let mut node = leaf.to_vec();
    let mut out = vec![0u8; n];
    let mut idx = leaf_idx;
    let mut adrs = *node_adrs;
    for (level, sibling) in auth_path.iter().enumerate() {
        let height = level as u32 + 1;
        adrs.set_tree_height(height);
        adrs.set_tree_index((leaf_offset >> height) + (idx >> 1));
        if idx & 1 == 0 {
            ctx.h_into(&adrs, &node, sibling, &mut out);
        } else {
            ctx.h_into(&adrs, sibling, &node, &mut out);
        }
        std::mem::swap(&mut node, &mut out);
        idx >>= 1;
    }
    node
}

/// One leaf-to-root recomputation in a batched auth-path sweep: the
/// verification-side analogue of [`TreeHashJob`]. `leaf_offset` embeds
/// the job's tree in a forest exactly as in
/// [`root_from_auth_path_with_offset`].
pub struct AuthPathJob<'a> {
    /// The recomputed leaf node (`n` bytes).
    pub leaf: &'a [u8],
    /// Index of the leaf within its tree.
    pub leaf_idx: u32,
    /// Sibling nodes from the leaf's level up (each `n` bytes).
    pub auth_path: &'a [Vec<u8>],
    /// Address carrying layer/tree coordinates; tree-height and
    /// tree-index are set here per level.
    pub node_adrs: Address,
    /// Forest-global index of the tree's first leaf.
    pub leaf_offset: u32,
}

/// Recomputes many Merkle roots from leaves and authentication paths in
/// one combined sweep: all jobs climb in lockstep, each level hashing
/// every job's (node, sibling) pair through a single batched
/// [`HashCtx::h_many`] call — the verification twin of
/// [`treehash_many`]. All jobs must share one auth-path height (true for
/// both FORS forests, `log_t` per tree, and XMSS layers, `tree_height`
/// per layer).
///
/// Output is byte-identical to calling [`root_from_auth_path_with_offset`]
/// per job.
///
/// ```
/// use hero_sphincs::{address::Address, hash::HashCtx, merkle, params::Params};
///
/// let ctx = HashCtx::new(Params::sphincs_128f(), &[0u8; 16]);
/// let adrs = Address::new();
/// let out = merkle::treehash(&ctx, 3, 5, &adrs, |i, slot: &mut [u8]| slot.fill(i as u8));
/// let jobs = [merkle::AuthPathJob {
///     leaf: &[5u8; 16],
///     leaf_idx: 5,
///     auth_path: &out.auth_path,
///     node_adrs: adrs,
///     leaf_offset: 0,
/// }];
/// assert_eq!(merkle::roots_from_auth_paths_many(&ctx, &jobs), vec![out.root]);
/// ```
///
/// # Panics
///
/// Panics if jobs disagree on auth-path height or any node is not `n`
/// bytes (the library verify path checks shapes first and returns a
/// typed error).
pub fn roots_from_auth_paths_many(ctx: &HashCtx, jobs: &[AuthPathJob]) -> Vec<Vec<u8>> {
    let n = ctx.params().n;
    let jn = jobs.len();
    if jn == 0 {
        return Vec::new();
    }
    let height = jobs[0].auth_path.len();
    let mut nodes = vec![0u8; jn * n];
    let mut idxs = vec![0u32; jn];
    for (j, job) in jobs.iter().enumerate() {
        assert_eq!(
            job.auth_path.len(),
            height,
            "all jobs must share one auth-path height"
        );
        assert_eq!(job.leaf.len(), n, "leaf must be n bytes");
        nodes[j * n..(j + 1) * n].copy_from_slice(job.leaf);
        idxs[j] = job.leaf_idx;
    }

    let mut pairs = vec![0u8; 2 * jn * n];
    let mut out = vec![0u8; jn * n];
    let mut adrs_buf: Vec<Address> = Vec::with_capacity(jn);
    for level in 0..height {
        let level_height = level as u32 + 1;
        adrs_buf.clear();
        for (j, job) in jobs.iter().enumerate() {
            let sibling = &job.auth_path[level];
            assert_eq!(sibling.len(), n, "auth-path node must be n bytes");
            let node = &nodes[j * n..(j + 1) * n];
            let pair = &mut pairs[j * 2 * n..(j + 1) * 2 * n];
            // Even index: the node is a left child, sibling on the right.
            if idxs[j] & 1 == 0 {
                pair[..n].copy_from_slice(node);
                pair[n..].copy_from_slice(sibling);
            } else {
                pair[..n].copy_from_slice(sibling);
                pair[n..].copy_from_slice(node);
            }
            let mut a = job.node_adrs;
            a.set_tree_height(level_height);
            a.set_tree_index((job.leaf_offset >> level_height) + (idxs[j] >> 1));
            adrs_buf.push(a);
            idxs[j] >>= 1;
        }
        ctx.h_many(&adrs_buf, &pairs, &mut out);
        std::mem::swap(&mut nodes, &mut out);
    }
    nodes.chunks_exact(n).map(<[u8]>::to_vec).collect()
}

/// Number of `H` calls a treehash of `height` performs: `2^height - 1`.
pub fn internal_node_count(height: usize) -> usize {
    (1 << height) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;

    fn ctx() -> HashCtx {
        HashCtx::new(Params::sphincs_128f(), &[11u8; 16])
    }

    fn leaf(i: u32, slot: &mut [u8]) {
        slot.fill(0);
        slot[..4].copy_from_slice(&i.to_be_bytes());
    }

    fn leaf_vec(i: u32) -> Vec<u8> {
        let mut v = vec![0u8; 16];
        leaf(i, &mut v);
        v
    }

    #[test]
    fn auth_path_reconstructs_root_every_leaf() {
        let ctx = ctx();
        let adrs = Address::new();
        let height = 4;
        for leaf_idx in 0..(1u32 << height) {
            let out = treehash(&ctx, height, leaf_idx, &adrs, leaf);
            assert_eq!(out.auth_path.len(), height);
            let rebuilt =
                root_from_auth_path(&ctx, &leaf_vec(leaf_idx), leaf_idx, &out.auth_path, &adrs);
            assert_eq!(rebuilt, out.root, "leaf {leaf_idx}");
        }
    }

    #[test]
    fn flat_fill_matches_per_leaf_fill() {
        let ctx = ctx();
        let adrs = Address::new();
        for leaf_idx in [0u32, 3, 7] {
            let per_leaf = treehash(&ctx, 3, leaf_idx, &adrs, leaf);
            let flat = treehash_flat(&ctx, 3, leaf_idx, &adrs, 0, |buf| {
                for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                    leaf(i as u32, slot);
                }
            });
            assert_eq!(per_leaf, flat);
        }
    }

    #[test]
    fn scalar_oracle_agrees_with_batched_levels() {
        // Reference model: explicit Vec<Vec<u8>> levels hashed with the
        // scalar two-to-one H (the seed-era implementation).
        let ctx = ctx();
        let mut base = Address::new();
        base.set_tree(3);
        let height = 5;
        let leaf_offset = 3 << height;
        let leaf_idx = 11u32;

        let mut level: Vec<Vec<u8>> = (0..1u32 << height).map(leaf_vec).collect();
        let mut idx = leaf_idx;
        let mut adrs = base;
        let mut expected_path = Vec::new();
        for level_height in 1..=height {
            expected_path.push(level[(idx ^ 1) as usize].clone());
            adrs.set_tree_height(level_height as u32);
            let level_offset = leaf_offset >> level_height;
            level = (0..level.len() / 2)
                .map(|i| {
                    adrs.set_tree_index(level_offset + i as u32);
                    ctx.h(&adrs, &level[2 * i], &level[2 * i + 1])
                })
                .collect();
            idx >>= 1;
        }

        let out = treehash_with_offset(&ctx, height, leaf_idx, &base, leaf_offset, leaf);
        assert_eq!(out.root, level[0]);
        assert_eq!(out.auth_path, expected_path);
    }

    #[test]
    fn batched_auth_path_sweep_matches_scalar_climb() {
        // Jobs spanning different trees of a forest, different leaves,
        // and offsets — the FORS verification mix — must each be
        // byte-identical to a lone root_from_auth_path_with_offset.
        let ctx = ctx();
        for jn in [1usize, 2, 5, 8] {
            let height = 4;
            let outs: Vec<(u32, u32, Address, TreeHashOutput)> = (0..jn)
                .map(|t| {
                    let mut adrs = Address::new();
                    adrs.set_tree(t as u64);
                    let leaf_idx = (t as u32 * 5) % (1 << height);
                    let leaf_offset = (t as u32) << height;
                    let out =
                        treehash_with_offset(&ctx, height, leaf_idx, &adrs, leaf_offset, leaf);
                    (leaf_idx, leaf_offset, adrs, out)
                })
                .collect();
            let leaves: Vec<Vec<u8>> = outs.iter().map(|(idx, ..)| leaf_vec(*idx)).collect();
            let jobs: Vec<AuthPathJob> = outs
                .iter()
                .zip(&leaves)
                .map(|((leaf_idx, leaf_offset, adrs, out), leaf)| AuthPathJob {
                    leaf,
                    leaf_idx: *leaf_idx,
                    auth_path: &out.auth_path,
                    node_adrs: *adrs,
                    leaf_offset: *leaf_offset,
                })
                .collect();
            let roots = roots_from_auth_paths_many(&ctx, &jobs);
            assert_eq!(roots.len(), jn);
            for (j, ((leaf_idx, leaf_offset, adrs, out), root)) in
                outs.iter().zip(&roots).enumerate()
            {
                assert_eq!(root, &out.root, "jn={jn} job {j} root");
                let scalar = root_from_auth_path_with_offset(
                    &ctx,
                    &leaves[j],
                    *leaf_idx,
                    &out.auth_path,
                    adrs,
                    *leaf_offset,
                );
                assert_eq!(root, &scalar, "jn={jn} job {j} scalar");
            }
        }
        assert!(roots_from_auth_paths_many(&ctx, &[]).is_empty());
    }

    #[test]
    fn root_independent_of_chosen_leaf() {
        let ctx = ctx();
        let adrs = Address::new();
        let r0 = treehash(&ctx, 3, 0, &adrs, leaf).root;
        let r7 = treehash(&ctx, 3, 7, &adrs, leaf).root;
        assert_eq!(r0, r7);
    }

    #[test]
    fn wrong_leaf_fails_reconstruction() {
        let ctx = ctx();
        let adrs = Address::new();
        let out = treehash(&ctx, 3, 2, &adrs, leaf);
        let rebuilt = root_from_auth_path(&ctx, &leaf_vec(3), 2, &out.auth_path, &adrs);
        assert_ne!(rebuilt, out.root);
    }

    #[test]
    fn tampered_path_fails_reconstruction() {
        let ctx = ctx();
        let adrs = Address::new();
        let mut out = treehash(&ctx, 3, 5, &adrs, leaf);
        out.auth_path[1][0] ^= 0x80;
        let rebuilt = root_from_auth_path(&ctx, &leaf_vec(5), 5, &out.auth_path, &adrs);
        assert_ne!(rebuilt, out.root);
    }

    #[test]
    fn height_zero_tree() {
        let ctx = ctx();
        let adrs = Address::new();
        let out = treehash(&ctx, 0, 0, &adrs, leaf);
        assert_eq!(out.root, leaf_vec(0));
        assert!(out.auth_path.is_empty());
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn leaf_index_bounds_checked() {
        let ctx = ctx();
        let adrs = Address::new();
        let _ = treehash(&ctx, 2, 4, &adrs, leaf);
    }

    #[test]
    fn internal_counts() {
        assert_eq!(internal_node_count(0), 0);
        assert_eq!(internal_node_count(6), 63);
        assert_eq!(internal_node_count(9), 511);
    }

    #[test]
    fn treehash_many_matches_per_tree_flat() {
        // Jobs with different addresses, offsets, and leaf indices (as a
        // cross-message batch would mix) must each reproduce the
        // single-tree output exactly.
        let ctx = ctx();
        let height = 3;
        let jobs: Vec<TreeHashJob> = (0..5u32)
            .map(|j| {
                let mut adrs = Address::new();
                adrs.set_tree(j as u64 * 7);
                TreeHashJob {
                    leaf_idx: j % (1 << height),
                    node_adrs: adrs,
                    leaf_offset: j * (1 << height),
                }
            })
            .collect();
        // Leaves differ per job so cross-job mixups would be caught.
        let many = treehash_many(&ctx, height, &jobs, |buf| {
            for (j, buf) in buf.chunks_exact_mut(16 << height).enumerate() {
                for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                    leaf(i as u32 + 100 * j as u32, slot);
                }
            }
        });
        for (j, job) in jobs.iter().enumerate() {
            let single = treehash_flat(
                &ctx,
                height,
                job.leaf_idx,
                &job.node_adrs,
                job.leaf_offset,
                |buf| {
                    for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                        leaf(i as u32 + 100 * j as u32, slot);
                    }
                },
            );
            assert_eq!(many[j], single, "job {j}");
        }
    }

    #[test]
    fn treehash_many_single_job_and_empty() {
        let ctx = ctx();
        let adrs = Address::new();
        let job = TreeHashJob {
            leaf_idx: 2,
            node_adrs: adrs,
            leaf_offset: 0,
        };
        let many = treehash_many(&ctx, 3, &[job], |buf| {
            for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                leaf(i as u32, slot);
            }
        });
        assert_eq!(many[0], treehash(&ctx, 3, 2, &adrs, leaf));
        assert!(treehash_many(&ctx, 3, &[], |_| {}).is_empty());
    }

    #[test]
    fn treehash_many_height_zero() {
        let ctx = ctx();
        let jobs = [
            TreeHashJob {
                leaf_idx: 0,
                node_adrs: Address::new(),
                leaf_offset: 0,
            },
            TreeHashJob {
                leaf_idx: 0,
                node_adrs: Address::new(),
                leaf_offset: 5,
            },
        ];
        let out = treehash_many(&ctx, 0, &jobs, |buf| {
            for (j, slot) in buf.chunks_exact_mut(16).enumerate() {
                leaf(j as u32, slot);
            }
        });
        assert_eq!(out[0].root, leaf_vec(0));
        assert_eq!(out[1].root, leaf_vec(1));
        assert!(out[0].auth_path.is_empty());
    }

    #[test]
    fn retained_levels_serve_every_leaf_byte_identically() {
        let ctx = ctx();
        let mut adrs = Address::new();
        adrs.set_tree(9);
        let height = 4;
        let fill = |buf: &mut [u8]| {
            for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                leaf(i as u32, slot);
            }
        };
        let levels = treehash_levels(&ctx, height, &adrs, 0, fill);
        assert_eq!(levels.height(), height);
        assert_eq!(levels.byte_len(), ((1 << (height + 1)) - 1) * 16);
        for leaf_idx in 0..(1u32 << height) {
            let fresh = treehash_flat(&ctx, height, leaf_idx, &adrs, 0, fill);
            assert_eq!(levels.output_for(leaf_idx), fresh, "leaf {leaf_idx}");
        }
    }

    #[test]
    fn many_levels_match_single_levels_with_offsets() {
        let ctx = ctx();
        let height = 3;
        let jobs: Vec<TreeHashJob> = (0..4u32)
            .map(|j| {
                let mut adrs = Address::new();
                adrs.set_tree(j as u64 * 5);
                TreeHashJob {
                    leaf_idx: 0,
                    node_adrs: adrs,
                    leaf_offset: j * (1 << height),
                }
            })
            .collect();
        let many = treehash_many_levels(&ctx, height, &jobs, |buf| {
            for (j, buf) in buf.chunks_exact_mut(16 << height).enumerate() {
                for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                    leaf(i as u32 + 50 * j as u32, slot);
                }
            }
        });
        for (j, job) in jobs.iter().enumerate() {
            let single = treehash_levels(&ctx, height, &job.node_adrs, job.leaf_offset, |buf| {
                for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                    leaf(i as u32 + 50 * j as u32, slot);
                }
            });
            assert_eq!(many[j], single, "job {j}");
            // And the sliced output matches the auth-path treehash.
            let fresh = treehash_flat(&ctx, height, 5, &job.node_adrs, job.leaf_offset, |buf| {
                for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                    leaf(i as u32 + 50 * j as u32, slot);
                }
            });
            assert_eq!(many[j].output_for(5), fresh, "job {j}");
        }
        assert!(treehash_many_levels(&ctx, height, &[], |_| {}).is_empty());
    }

    #[test]
    fn levels_height_zero() {
        let ctx = ctx();
        let adrs = Address::new();
        let levels = treehash_levels(&ctx, 0, &adrs, 0, |buf| leaf(7, buf));
        assert_eq!(levels.height(), 0);
        assert_eq!(levels.root(), &leaf_vec(7)[..]);
        assert!(levels.auth_path(0).is_empty());
        assert_eq!(levels.byte_len(), 16);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn levels_leaf_bounds_checked() {
        let ctx = ctx();
        let adrs = Address::new();
        let levels = treehash_levels(&ctx, 2, &adrs, 0, |buf| {
            for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                leaf(i as u32, slot);
            }
        });
        let _ = levels.auth_path(4);
    }

    #[test]
    fn different_tree_addresses_different_roots() {
        let ctx = ctx();
        let a = Address::new();
        let mut b = Address::new();
        b.set_tree(1);
        assert_ne!(
            treehash(&ctx, 2, 0, &a, leaf).root,
            treehash(&ctx, 2, 0, &b, leaf).root
        );
    }
}
