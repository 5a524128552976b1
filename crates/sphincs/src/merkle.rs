//! Generic Merkle tree-hash with authentication-path extraction.
//!
//! Used by both FORS trees and the hypertree's XMSS subtrees. The
//! level-by-level formulation here is deliberately the same shape as the
//! GPU kernels' tree-based reduction (Fig. 7 of the paper): compute all
//! leaves, then halve level by level.
//!
//! A tree is built one way. A call takes any number of same-height trees
//! ([`TreeHashJob`]; a single tree is a one-job slice), has the caller
//! fill all their leaves into one flat `n`-stride buffer, and halves
//! every level of every tree with one batched [`HashCtx::h_many`] sweep
//! (the CPU analogue of a warp hashing sibling pairs in lockstep), each
//! level's parents written right behind it in the same buffer — one
//! allocation holds every node of the call. What the caller gets is a
//! projection of that buffer: [`treehash_many`] slices the root and one
//! leaf's authentication path out of it per tree, [`treehash_many_levels`]
//! hands over the whole buffer ([`TreeLevels`]), from which any leaf of
//! any tree can be served later. Verification's level sweep climbs many
//! authentication paths the same way, a level of all of them per sweep
//! (`roots_in`). Everything is generic over the hash
//! primitive carried by the [`HashCtx`]; the node-by-node spelling both
//! directions are tested against is [`crate::reference::treehash`] and
//! [`crate::reference::root_from_auth_path`].
//!
//! ```
//! use hero_sphincs::{address::Address, hash::HashCtx, merkle, params::Params, reference};
//!
//! let ctx = HashCtx::new(Params::sphincs_128f(), &[0u8; 16]);
//! // A height-3 tree whose leaf i is [i; 16]; extract leaf 5's path.
//! let job = merkle::TreeHashJob {
//!     leaf_idx: 5,
//!     node_adrs: Address::new(),
//!     leaf_offset: 0,
//! };
//! let out = &merkle::treehash_many(&ctx, 3, &[job], |leaves| {
//!     for (i, slot) in leaves.chunks_exact_mut(16).enumerate() {
//!         slot.fill(i as u8);
//!     }
//! })[0];
//! assert_eq!(out.auth_path.len(), 3);
//! // The reference builds the same tree one `H` at a time.
//! let by_hand = reference::treehash(&ctx, 3, 5, &job.node_adrs, 0, |i| vec![i as u8; 16]);
//! assert_eq!(by_hand, (out.root.clone(), out.auth_path.clone()));
//! ```

use crate::address::Address;
use crate::hash::HashCtx;
use crate::nodes::Nodes;
use crate::{keccak, sha256};

/// Climbs [`roots_in`] holds on the stack between two batched `H` calls:
/// a multiple of every multi-lane engine's lane group, so the batches
/// hash in the same lane groups as one call over all the jobs would, and
/// enough of them that a batch costs what its share of that call would.
const CLIMBS: usize = 8 * sha256::LANES;
const _: () = assert!(CLIMBS.is_multiple_of(keccak::LANES));

/// Result of a treehash: the root plus the authentication path for one leaf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeHashOutput {
    /// Merkle root (`n` bytes).
    pub root: Vec<u8>,
    /// Sibling nodes from the leaf's level up (each `n` bytes).
    pub auth_path: Nodes,
}

/// One tree's coordinates in a combined sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeHashJob {
    /// Leaf whose authentication path is extracted ([`treehash_many`]
    /// only).
    pub leaf_idx: u32,
    /// Layer/tree coordinates for node addressing. Its height field is
    /// the height the job's leaves sit at: 0, unless they are themselves
    /// roots of subtrees built elsewhere.
    pub node_adrs: Address,
    /// Forest-global offset of the first leaf, counted in nodes of the
    /// leaves' height (0 for hypertree subtrees, `tree·t` for FORS
    /// trees): node addresses at level `z` use index
    /// `(leaf_offset >> z) + i`, so each of the `k` FORS trees hashes
    /// under forest-global coordinates (as the reference implementation
    /// does).
    pub leaf_offset: u32,
}

/// Builds many same-height trees in one sweep and keeps every node, for
/// memoization: the call returns every job's whole tree in one buffer
/// ([`TreeLevels`], tree `j` being job `j`), so any leaf can be served
/// later. Jobs' `leaf_idx` fields are not consulted; `fill_leaves` is
/// [`treehash_many`]'s.
///
/// This is the level loop, the only one there is: `fill_leaves` writes
/// every job's leaf layer, then each level of all jobs is halved by a
/// *single* combined [`HashCtx::h_many`] call, so the near-root levels —
/// where one tree has fewer nodes than SHA lanes — still fill the
/// multi-lane engine with siblings from the other jobs.
///
/// # Panics
///
/// Panics if any job's `leaf_offset` is not a multiple of `2^height`.
pub fn treehash_many_levels<F>(
    ctx: &HashCtx,
    height: usize,
    jobs: &[TreeHashJob],
    fill_leaves: F,
) -> TreeLevels
where
    F: FnOnce(&mut [u8]),
{
    let n = ctx.params().n;
    let num_leaves = 1usize << height;
    let jn = jobs.len();
    let mut levels = TreeLevels {
        n,
        height,
        trees: jn,
        nodes: Vec::new(),
    };
    if jn == 0 {
        return levels;
    }
    for job in jobs {
        assert!(
            (job.leaf_offset as usize).is_multiple_of(num_leaves),
            "leaf offset must be a multiple of the tree size"
        );
    }

    let mut nodes = vec![0u8; jn * (2 * num_leaves - 1) * n];
    fill_leaves(&mut nodes[..jn * num_leaves * n]);
    let mut adrs_buf: Vec<Address> = Vec::with_capacity(jn * num_leaves / 2);

    // `children` walks up the buffer: the level being halved, with its
    // parents' level starting where it ends.
    let mut children = 0usize;
    for level in 1..=height {
        let parents = num_leaves >> level;
        adrs_buf.clear();
        for job in jobs {
            let mut adrs = job.node_adrs;
            adrs.set_tree_height(job.node_adrs.tree_height() + level as u32);
            let level_offset = job.leaf_offset >> level;
            adrs_buf.extend((0..parents as u32).map(|i| {
                let mut a = adrs;
                a.set_tree_index(level_offset + i);
                a
            }));
        }
        let len = jn * 2 * parents * n;
        let (below, above) = nodes[children..].split_at_mut(len);
        ctx.h_many(&adrs_buf, below, &mut above[..len / 2]);
        children += len;
    }
    levels.nodes = nodes;
    levels
}

/// Builds many same-height trees in one sweep (see the module docs) and
/// returns each job's root and the authentication path of its
/// `leaf_idx`. The jobs may belong to different messages entirely (the
/// cross-message batching of the batch planner); a job's output does not
/// depend on what else is in the call.
///
/// `fill_leaves(buf)` writes every job's `2^height · n`-byte leaf layer,
/// job after job, in one call — so a filler that batches across leaves
/// (a WOTS+ fill keeps a register group full that way) batches across
/// the jobs too.
///
/// # Panics
///
/// Panics if any job's `leaf_idx >= 2^height` or its `leaf_offset` is
/// not a multiple of `2^height`.
pub fn treehash_many<F>(
    ctx: &HashCtx,
    height: usize,
    jobs: &[TreeHashJob],
    fill_leaves: F,
) -> Vec<TreeHashOutput>
where
    F: FnOnce(&mut [u8]),
{
    let built = treehash_many_levels(ctx, height, jobs, fill_leaves);
    jobs.iter()
        .enumerate()
        .map(|(j, job)| built.output_for(j, job.leaf_idx))
        .collect()
}

/// Every node of one or more same-height Merkle trees built together, in
/// one flat buffer, level-major: all trees' `2^height` leaves first (tree
/// after tree), each level's parents right behind it, the `n`-byte roots
/// last. A tree's nodes are contiguous within a level, so sibling pairs
/// never straddle a tree boundary, and the trees' leaves are one run.
///
/// Retaining the nodes lets one build serve every leaf: the root and
/// the authentication path of **any** leaf of any tree can be sliced out
/// without re-hashing ([`TreeLevels::output_for`]), byte-identical to
/// what [`treehash_many`] extracts for that leaf. A tree kept for later
/// keeps only its [`TreeLevels::leaves`] and is built again from them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeLevels {
    n: usize,
    height: usize,
    trees: usize,
    nodes: Vec<u8>,
}

impl TreeLevels {
    /// The `2^(height − level)` nodes of tree `tree` at `level`.
    fn level(&self, level: usize, tree: usize) -> &[u8] {
        assert!(tree < self.trees, "tree index out of range");
        let width = 1usize << (self.height - level);
        // Nodes per tree below this level: 2^(h+1) − 2^(h+1−level).
        let below = (2usize << self.height) - 2 * width;
        &self.nodes[(below * self.trees + width * tree) * self.n..][..width * self.n]
    }

    /// Trees held.
    pub fn len(&self) -> usize {
        self.trees
    }

    /// Whether no tree is held.
    pub fn is_empty(&self) -> bool {
        self.trees == 0
    }

    /// Tree height (number of halving levels retained above the leaves).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The `n`-byte Merkle root of tree `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `tree >= self.len()`.
    pub fn root(&self, tree: usize) -> &[u8] {
        self.level(self.height, tree)
    }

    /// The authentication path of `leaf_idx` in tree `tree`, sliced from
    /// the retained nodes: the sibling of the leaf's ancestor at every
    /// level, from the leaf's level up.
    ///
    /// # Panics
    ///
    /// Panics if `tree >= self.len()` or `leaf_idx >= 2^height`.
    pub fn auth_path(&self, tree: usize, leaf_idx: u32) -> Nodes {
        let mut path = Nodes::with_capacity(self.n, self.height);
        self.push_auth_path(tree, leaf_idx, &mut path);
        path
    }

    /// [`TreeLevels::auth_path`], appended to `path`: the upper part of a
    /// path whose lower part comes from the trees these were built over.
    ///
    /// # Panics
    ///
    /// As [`TreeLevels::auth_path`], and if `path`'s nodes are not `n`
    /// bytes.
    pub(crate) fn push_auth_path(&self, tree: usize, leaf_idx: u32, path: &mut Nodes) {
        assert!(
            (leaf_idx as usize) < (1usize << self.height),
            "leaf index out of range"
        );
        for z in 0..self.height {
            let sibling = (leaf_idx as usize >> z) ^ 1;
            path.push(&self.level(z, tree)[sibling * self.n..][..self.n]);
        }
    }

    /// Root plus `leaf_idx`'s authentication path of tree `tree`, as the
    /// [`TreeHashOutput`] a fresh treehash of that tree would produce.
    ///
    /// # Panics
    ///
    /// As [`TreeLevels::auth_path`].
    pub fn output_for(&self, tree: usize, leaf_idx: u32) -> TreeHashOutput {
        TreeHashOutput {
            root: self.root(tree).to_vec(),
            auth_path: self.auth_path(tree, leaf_idx),
        }
    }

    /// The `2^height` leaves of tree `tree`, `n` bytes each, left to
    /// right: all a memoized tree needs to keep, since they rebuild every
    /// other node with `2^height − 1` `H`.
    ///
    /// # Panics
    ///
    /// Panics if `tree >= self.len()`.
    pub fn leaves(&self, tree: usize) -> &[u8] {
        self.level(0, tree)
    }
}

/// One leaf-to-root recomputation in a batched auth-path sweep: the
/// verification-side analogue of [`TreeHashJob`]. `leaf_offset` embeds
/// the job's tree in a forest exactly as [`TreeHashJob::leaf_offset`]
/// does.
pub(crate) struct AuthPathJob<'a> {
    /// The recomputed leaf node (`n` bytes).
    pub leaf: &'a [u8],
    /// Index of the leaf within its tree.
    pub leaf_idx: u32,
    /// Sibling nodes from the leaf's level up, back to back (`n` bytes
    /// each).
    pub auth_path: &'a [u8],
    /// Address carrying layer/tree coordinates; tree-height and
    /// tree-index are set here per level.
    pub node_adrs: Address,
    /// Forest-global index of the tree's first leaf.
    pub leaf_offset: u32,
}

/// Recomputes the Merkle roots of `count` jobs from their leaves and
/// authentication paths, job `j` being `job(j)`, its root written to
/// `out[j*n..]` — the verification twin of [`treehash_many`]: the jobs
/// climb in lockstep, each level hashing every job's (node, sibling) pair
/// through one batched [`HashCtx::h_many`]. [`CLIMBS`] jobs at a time
/// climb every level, so nothing is allocated, and a lone job climbs one
/// `H` at a time instead of in a part-empty lane group. A job's root does
/// not depend on what else is in the call.
///
/// # Panics
///
/// Panics if a leaf is not `n` bytes or the jobs disagree on auth-path
/// height (true for both FORS forests, `log_t` per tree, and XMSS layers,
/// `tree_height` per layer).
pub(crate) fn roots_in<'p>(
    ctx: &HashCtx,
    count: usize,
    job: impl Fn(usize) -> AuthPathJob<'p>,
    out: &mut [u8],
) {
    let n = ctx.params().n;
    let mut pairs = [0u8; CLIMBS * 2 * 32];
    let mut adrs = [Address::new(); CLIMBS];
    for (first, nodes) in (0..)
        .step_by(CLIMBS)
        .zip(out[..count * n].chunks_mut(CLIMBS * n))
    {
        let (jobs, height) = (nodes.len() / n, job(0).auth_path.len() / n);
        for (j, node) in nodes.chunks_exact_mut(n).enumerate() {
            let leaf = job(first + j).leaf;
            assert_eq!(leaf.len(), n, "leaf must be n bytes");
            node.copy_from_slice(leaf);
        }
        let pairs = &mut pairs[..2 * jobs * n];
        for level in 0..height {
            for (j, (node, pair)) in nodes
                .chunks_exact(n)
                .zip(pairs.chunks_exact_mut(2 * n))
                .enumerate()
            {
                let job = job(first + j);
                assert_eq!(
                    job.auth_path.len(),
                    height * n,
                    "all jobs must share one auth-path height"
                );
                let sibling = &job.auth_path[level * n..][..n];
                let node_left;
                (adrs[j], node_left) = climb_level(&job, level);
                let (left, right) = pair.split_at_mut(n);
                left.copy_from_slice(if node_left { node } else { sibling });
                right.copy_from_slice(if node_left { sibling } else { node });
            }
            match jobs {
                1 => ctx.h_into(&adrs[0], &pairs[..n], &pairs[n..], nodes),
                _ => ctx.h_many(&adrs[..jobs], pairs, nodes),
            }
        }
    }
}

/// Level `level` of `job`'s climb: the address of the parent it hashes
/// into, and whether its node is the parent's left child — an even index,
/// the sibling on the right.
fn climb_level(job: &AuthPathJob, level: usize) -> (Address, bool) {
    let height = level as u32 + 1;
    let mut adrs = job.node_adrs;
    adrs.set_tree_height(height);
    adrs.set_tree_index((job.leaf_offset >> height) + (job.leaf_idx >> height));
    (adrs, job.leaf_idx >> level & 1 == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::reference;

    fn ctx() -> HashCtx {
        HashCtx::new(Params::sphincs_128f(), &[11u8; 16])
    }

    fn leaf_vec(i: u32) -> Vec<u8> {
        let mut v = vec![0u8; 16];
        v[..4].copy_from_slice(&i.to_be_bytes());
        v
    }

    /// Fills one tree's leaf layer with `leaf_vec(first + i)`.
    fn fill_from(first: u32, buf: &mut [u8]) {
        for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
            slot.copy_from_slice(&leaf_vec(first + i as u32));
        }
    }

    /// What every builder in this module is held to: the root and
    /// `leaf_idx`'s authentication path of the tree at `job` whose leaves
    /// are `leaf_vec(first_leaf + i)`, from the reference's node-by-node
    /// tree hash.
    fn model(
        ctx: &HashCtx,
        height: usize,
        job: &TreeHashJob,
        first_leaf: u32,
        leaf_idx: u32,
    ) -> TreeHashOutput {
        let (root, auth_path) = reference::treehash(
            ctx,
            height,
            leaf_idx,
            &job.node_adrs,
            job.leaf_offset,
            |i| leaf_vec(first_leaf + i),
        );
        TreeHashOutput { root, auth_path }
    }

    /// Tree `tree` of retained levels holds the leaves it was filled with
    /// and serves every leaf as the reference would — which reads every
    /// node of it.
    fn assert_levels_match(
        ctx: &HashCtx,
        levels: &TreeLevels,
        tree: usize,
        job: &TreeHashJob,
        first_leaf: u32,
        what: &str,
    ) {
        let height = levels.height();
        let leaves: Vec<u8> = (0..1u32 << height)
            .flat_map(|i| leaf_vec(first_leaf + i))
            .collect();
        assert_eq!(levels.leaves(tree), &leaves[..], "{what}");
        for leaf_idx in 0..1u32 << height {
            assert_eq!(
                levels.output_for(tree, leaf_idx),
                model(ctx, height, job, first_leaf, leaf_idx),
                "{what}, leaf {leaf_idx}"
            );
        }
    }

    fn job(leaf_idx: u32, tree: u64, leaf_offset: u32) -> TreeHashJob {
        let mut node_adrs = Address::new();
        node_adrs.set_tree(tree);
        TreeHashJob {
            leaf_idx,
            node_adrs,
            leaf_offset,
        }
    }

    /// One tree at `adrs` over the leaves `leaf_vec(0..)`.
    fn one(ctx: &HashCtx, height: usize, leaf_idx: u32, adrs: &Address) -> TreeHashOutput {
        let job = TreeHashJob {
            leaf_idx,
            node_adrs: *adrs,
            leaf_offset: 0,
        };
        treehash_many(ctx, height, &[job], |buf| fill_from(0, buf)).remove(0)
    }

    /// One climb from `leaf` at `leaf_idx` of the tree at `adrs`.
    fn climb(
        ctx: &HashCtx,
        leaf: &[u8],
        leaf_idx: u32,
        auth_path: &Nodes,
        adrs: &Address,
    ) -> Vec<u8> {
        let job = AuthPathJob {
            leaf,
            leaf_idx,
            auth_path: auth_path.as_bytes(),
            node_adrs: *adrs,
            leaf_offset: 0,
        };
        let mut root = vec![0u8; leaf.len()];
        roots_in(ctx, 1, |_| AuthPathJob { ..job }, &mut root);
        root
    }

    #[test]
    fn auth_path_reconstructs_root_every_leaf() {
        let ctx = ctx();
        let adrs = Address::new();
        for height in 1..=5 {
            for leaf_idx in 0..(1u32 << height) {
                let out = one(&ctx, height, leaf_idx, &adrs);
                assert_eq!(out.auth_path.len(), height);
                let leaf = leaf_vec(leaf_idx);
                assert_eq!(
                    climb(&ctx, &leaf, leaf_idx, &out.auth_path, &adrs),
                    out.root,
                    "height {height} leaf {leaf_idx}"
                );
                assert_eq!(
                    reference::root_from_auth_path(&ctx, &leaf, leaf_idx, &out.auth_path, &adrs, 0),
                    out.root,
                    "height {height} leaf {leaf_idx} reference"
                );
            }
        }
    }

    #[test]
    fn flat_fill_matches_per_leaf_fill() {
        let ctx = ctx();
        for leaf_idx in [0u32, 3, 7] {
            let job = job(leaf_idx, 0, 0);
            let flat = treehash_many(&ctx, 3, &[job], |buf| fill_from(0, buf));
            assert_eq!(flat, [model(&ctx, 3, &job, 0, leaf_idx)]);
        }
    }

    #[test]
    fn scalar_oracle_agrees_with_batched_levels() {
        let ctx = ctx();
        let height = 5;
        let job = job(11, 3, 3 << height);
        let out = treehash_many(&ctx, height, &[job], |buf| fill_from(0, buf));
        assert_eq!(out, [model(&ctx, height, &job, 0, 11)]);
    }

    #[test]
    fn batched_auth_path_sweep_matches_scalar_climb() {
        // Jobs spanning different trees of a forest, different leaves,
        // and offsets — the FORS verification mix — must each be
        // byte-identical to the reference's lone climb.
        let ctx = ctx();
        for jn in [1usize, 2, 5, 8] {
            let height = 4;
            let built: Vec<TreeHashJob> = (0..jn as u32)
                .map(|t| job((t * 5) % (1 << height), t as u64, t << height))
                .collect();
            let outs = treehash_many(&ctx, height, &built, |buf| {
                buf.chunks_exact_mut(16 << height)
                    .for_each(|tree| fill_from(0, tree))
            });
            let leaves: Vec<Vec<u8>> = built.iter().map(|job| leaf_vec(job.leaf_idx)).collect();
            let jobs: Vec<AuthPathJob> = built
                .iter()
                .zip(&outs)
                .zip(&leaves)
                .map(|((job, out), leaf)| AuthPathJob {
                    leaf,
                    leaf_idx: job.leaf_idx,
                    auth_path: out.auth_path.as_bytes(),
                    node_adrs: job.node_adrs,
                    leaf_offset: job.leaf_offset,
                })
                .collect();
            let mut roots = vec![0u8; jn * 16];
            roots_in(&ctx, jn, |j| AuthPathJob { ..jobs[j] }, &mut roots);
            for (j, ((job, out), root)) in built.iter().zip(&outs).zip(roots.chunks(16)).enumerate()
            {
                assert_eq!(root, &out.root, "jn={jn} job {j} root");
                let scalar = reference::root_from_auth_path(
                    &ctx,
                    &leaves[j],
                    job.leaf_idx,
                    &out.auth_path,
                    &job.node_adrs,
                    job.leaf_offset,
                );
                assert_eq!(root, &scalar, "jn={jn} job {j} scalar");
            }
        }
        roots_in(&ctx, 0, |_| unreachable!("no jobs"), &mut []);
    }

    #[test]
    fn root_independent_of_chosen_leaf() {
        let ctx = ctx();
        let adrs = Address::new();
        assert_eq!(one(&ctx, 3, 0, &adrs).root, one(&ctx, 3, 7, &adrs).root);
    }

    #[test]
    fn wrong_leaf_fails_reconstruction() {
        let ctx = ctx();
        let adrs = Address::new();
        let out = one(&ctx, 3, 2, &adrs);
        assert_ne!(
            climb(&ctx, &leaf_vec(3), 2, &out.auth_path, &adrs),
            out.root
        );
    }

    #[test]
    fn tampered_path_fails_reconstruction() {
        let ctx = ctx();
        let adrs = Address::new();
        let mut out = one(&ctx, 3, 5, &adrs);
        out.auth_path[1][0] ^= 0x80;
        assert_ne!(
            climb(&ctx, &leaf_vec(5), 5, &out.auth_path, &adrs),
            out.root
        );
    }

    #[test]
    fn height_zero_tree() {
        let ctx = ctx();
        let out = one(&ctx, 0, 0, &Address::new());
        assert_eq!(out.root, leaf_vec(0));
        assert!(out.auth_path.is_empty());
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn leaf_index_bounds_checked() {
        let _ = one(&ctx(), 2, 4, &Address::new());
    }

    #[test]
    #[should_panic(expected = "leaf offset must be a multiple of the tree size")]
    fn leaf_offset_alignment_checked() {
        let _ = treehash_many(&ctx(), 2, &[job(0, 0, 6)], |buf| fill_from(0, buf));
    }

    /// Jobs with different addresses, offsets, and leaf indices (as a
    /// cross-message batch would mix), leaves differing per job so that
    /// cross-job mixups would be caught.
    fn mixed_jobs(count: u32, height: usize, tree_step: u64) -> Vec<TreeHashJob> {
        (0..count)
            .map(|j| job(j % (1 << height), j as u64 * tree_step, j << height))
            .collect()
    }

    fn fill_mixed(height: usize, leaf_step: u32, buf: &mut [u8]) {
        for (j, tree) in buf.chunks_exact_mut(16 << height).enumerate() {
            fill_from(leaf_step * j as u32, tree);
        }
    }

    #[test]
    fn treehash_many_matches_per_tree_flat() {
        let ctx = ctx();
        let height = 3;
        let jobs = mixed_jobs(5, height, 7);
        let many = treehash_many(&ctx, height, &jobs, |buf| fill_mixed(height, 100, buf));
        for (j, job) in jobs.iter().enumerate() {
            let expected = model(&ctx, height, job, 100 * j as u32, job.leaf_idx);
            assert_eq!(many[j], expected, "job {j}");
        }
    }

    #[test]
    fn treehash_many_single_job_and_empty() {
        let ctx = ctx();
        let job = job(2, 0, 0);
        let many = treehash_many(&ctx, 3, &[job], |buf| fill_from(0, buf));
        assert_eq!(many, [model(&ctx, 3, &job, 0, 2)]);
        assert!(treehash_many(&ctx, 3, &[], |_| {}).is_empty());
    }

    #[test]
    fn treehash_many_height_zero() {
        let ctx = ctx();
        let jobs = [job(0, 0, 0), job(0, 0, 5)];
        let out = treehash_many(&ctx, 0, &jobs, |buf| fill_from(0, buf));
        assert_eq!(out[0].root, leaf_vec(0));
        assert_eq!(out[1].root, leaf_vec(1));
        assert!(out[0].auth_path.is_empty());
    }

    #[test]
    fn retained_levels_serve_every_leaf_byte_identically() {
        let ctx = ctx();
        let height = 4;
        let job = job(0, 9, 0);
        let levels = treehash_many_levels(&ctx, height, &[job], |buf| fill_from(0, buf));
        assert_eq!((levels.len(), levels.height()), (1, height));
        assert_eq!(levels.root(0), model(&ctx, height, &job, 0, 0).root);
        assert_levels_match(&ctx, &levels, 0, &job, 0, "one job");
    }

    #[test]
    fn many_levels_match_single_levels_with_offsets() {
        let ctx = ctx();
        let height = 3;
        let jobs = mixed_jobs(4, height, 5);
        let many = treehash_many_levels(&ctx, height, &jobs, |buf| fill_mixed(height, 50, buf));
        assert_eq!(many.len(), jobs.len());
        for (j, job) in jobs.iter().enumerate() {
            assert_levels_match(&ctx, &many, j, job, 50 * j as u32, &format!("job {j}"));
        }
        assert!(treehash_many_levels(&ctx, height, &[], |_| {}).is_empty());
    }

    #[test]
    fn leaves_above_height_zero_hash_under_their_own_heights() {
        // The split top of a fused FORS tree: the jobs' leaves are roots
        // of height-2 subtrees built elsewhere, so level `z` of a job
        // sits at tree height 2 + z. Both projections, offsets and leaf
        // indices mixed across jobs.
        let ctx = ctx();
        let height = 3;
        for count in [1u32, 2, 5] {
            let mut jobs = mixed_jobs(count, height, 3);
            for job in &mut jobs {
                job.node_adrs.set_tree_height(2);
            }
            let outs = treehash_many(&ctx, height, &jobs, |buf| fill_mixed(height, 20, buf));
            let levels =
                treehash_many_levels(&ctx, height, &jobs, |buf| fill_mixed(height, 20, buf));
            for (j, job) in jobs.iter().enumerate() {
                let first = 20 * j as u32;
                let expected = model(&ctx, height, job, first, job.leaf_idx);
                assert_eq!(outs[j], expected, "{count} jobs, {j}");
                assert_levels_match(&ctx, &levels, j, job, first, &format!("{count} jobs, {j}"));
                // The base height is part of every address: the same job
                // on leaves at height 0 is another tree.
                let mut flat_job = *job;
                flat_job.node_adrs.set_tree_height(0);
                let flat = model(&ctx, height, &flat_job, first, job.leaf_idx);
                assert_ne!(expected.root, flat.root);
            }
        }
    }

    #[test]
    fn levels_height_zero() {
        let ctx = ctx();
        let levels = treehash_many_levels(&ctx, 0, &[job(0, 0, 0)], |buf| fill_from(7, buf));
        assert_eq!(levels.height(), 0);
        assert_eq!(levels.root(0), &leaf_vec(7)[..]);
        assert!(levels.auth_path(0, 0).is_empty());
        assert_eq!(levels.leaves(0), &leaf_vec(7)[..]);
    }

    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn levels_leaf_bounds_checked() {
        let ctx = ctx();
        let levels = treehash_many_levels(&ctx, 2, &[job(0, 0, 0)], |buf| fill_from(0, buf));
        let _ = levels.auth_path(0, 4);
    }

    #[test]
    fn different_tree_addresses_different_roots() {
        let ctx = ctx();
        let a = Address::new();
        let mut b = Address::new();
        b.set_tree(1);
        assert_ne!(one(&ctx, 2, 0, &a).root, one(&ctx, 2, 0, &b).root);
    }
}
