//! The cross-message batch planner: one stage graph for the whole
//! `sign_batch` call.
//!
//! ## Why plan across messages
//!
//! The paper's throughput argument (§IV-E1) is that SPHINCS+ signing only
//! saturates a device when the *batch* fills it — a single message never
//! does. The CPU analogue has the same gap: within one message, the big
//! stages (FORS bottom layers, subtree leaf generation) fill all SHA
//! lanes and workers, but the small ones drain them — top Merkle levels
//! with fewer nodes than lanes, WOTS+ chains retiring at their message
//! digits, and the three per-message barriers (`FORS → TREE → WOTS+`)
//! that idle the pool while one kernel's tail finishes.
//!
//! The planner removes both drains by making the **batch** the unit of
//! execution:
//!
//! 1. [`sign_batch`] takes every message's stage lists
//!    ([`SigningKey::stages`], the decomposition a lone
//!    [`SigningKey::sign`] runs too) and cuts them into work-items —
//!    FORS tree groups ([`hero_sphincs::fors::tree_hash_many`]), subtree
//!    builds, one per distinct `(layer, tree)` of the batch that is not
//!    resident in the cache ([`hero_sphincs::hypertree::subtrees`]), and
//!    WOTS+ chain groups ([`hero_sphincs::wots::sign_chain_groups`]) —
//!    where one item may carry work from *several* messages. Each
//!    message's signature is allocated at its exact size when the plan
//!    is made, and every node moves what it makes into the signatures it
//!    serves: a FORS node spells out its requests from the messages'
//!    leaf indices and hands each message its trees and their roots
//!    (`n` bytes each, in one buffer per message that its `T_k` node
//!    reads), a build node each member its authentication path and the
//!    root the layer above signs, a chain group each member its WOTS+
//!    signature. The subtree items are one list of flat indices sorted
//!    by coordinates; a build node takes a run of it.
//! 2. The items become closure nodes of a
//!    [`hero_task_graph::TaskGraph`], with edges only where the signature
//!    really demands them: a message's `T_k` FORS-pk compression waits
//!    for its tree groups; its layer-0 WOTS+ signs wait for the FORS pk;
//!    its layer-`l` WOTS+ signs wait for the layer-`l−1` subtree root.
//!    Nothing else orders anything — message A's layer-3 treehash
//!    co-schedules with message B's FORS leaves.
//! 3. [`hero_task_graph::Executor::run`] submits the whole DAG onto the
//!    engine's *persistent* worker pool — no thread spin-up per call,
//!    and concurrent `sign_batch` calls from different threads interleave
//!    their work-items on the same workers like kernels from different
//!    CUDA streams — while the grouped stages keep all SHA lanes full
//!    across message boundaries (mixed-address `h_many` / `f_chains`
//!    sweeps).
//!
//! ## The batch ↔ GPU-stream analogy
//!
//! On the GPU, HERO-Sign fills the device by launching one kernel over a
//! whole batch and letting blocks from many messages share SMs; streams
//! and CUDA graphs keep the next batch's transfers and kernels
//! overlapped so the device never idles between messages. Here the
//! worker pool plays the SM array and the multi-lane SHA engine plays the
//! warp: the stage graph is the CUDA graph (dependencies instead of
//! barriers), the ready queue is the stream scheduler, and grouped
//! work-items are the blocks that mix messages on one SM. Sequential
//! per-message signing corresponds to `batch_size = 1` on the device —
//! the configuration Fig. 12 shows wasting most of the hardware.
//!
//! Planned output is byte-identical to sequential signing: every hash
//! call keeps its exact address and input bytes; only the packing into
//! lanes and the execution order of *independent* calls change (held to
//! [`hero_sphincs::reference`] by this module's tests and proptests, cold
//! and warm, and to the pre-refactor fixtures).

use crate::cache::{HypertreeCache, KeyId};
use crate::error::HeroError;
use crate::kernels::verify::VerifyOutcome;

use hero_sphincs::fors::{self, ForsSignature, ForsTreeRequest, ForsTreeSig};
use hero_sphincs::hash::HashCtx;
use hero_sphincs::hypertree::{self, HtSignature, SubtreeItem, XmssSig};
use hero_sphincs::merkle::TreeLevels;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{Signature, SigningKey, Stages, VerifyingKey};
use hero_sphincs::wots::{self, ChainGroupItem};
use hero_sphincs::Nodes;
use hero_task_graph::{Executor, NodeId, TaskGraph};

use std::ops::Range;
use std::sync::Mutex;

/// Work-item grouping of one planned batch: how many per-message units
/// each stage node carries. Larger groups amortize scheduling and fill
/// lanes across messages; smaller groups give the ready queue more
/// balance. The engine signs with [`PlanShape::for_batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanShape {
    /// FORS trees per [`fors::tree_hash_many`] node.
    pub fors_trees_per_item: usize,
    /// Hypertree subtrees per [`hypertree::subtrees`] node.
    pub subtrees_per_item: usize,
    /// WOTS+ layer signs per [`wots::sign_chain_groups`] node.
    pub chains_per_item: usize,
}

impl PlanShape {
    /// The shape the engine signs with: FORS items are one group of the
    /// widest fused tree kernel, whichever messages its trees belong to,
    /// and subtree items are two subtrees, at every batch size.
    ///
    /// Two 8-leaf subtrees are 16 key pairs, one full zmm group of the
    /// WOTS+ leaf kernel; one subtree per node shares 16 lanes among 8 key
    /// pairs and pays the per-call set-up once per subtree. A lone cold
    /// 128f signature's 22 subtrees take 1.82 ms single-threaded at one
    /// per call and 1.72 ms at two (medians of 40 alternating blocks on
    /// the 2-vCPU reference host), and its 11 subtree nodes still keep
    /// two workers busy. Batches of four or more had two per node
    /// already.
    ///
    /// The batch size no longer changes the shape. The parameter stays
    /// so that callers keep asking for the shape of their batch, and the
    /// repository benchmark, which calls this, keeps compiling.
    pub fn for_batch(_messages: usize) -> Self {
        Self {
            fors_trees_per_item: fors::FUSED_TREES,
            subtrees_per_item: 2,
            chains_per_item: 4,
        }
    }
}

/// Node census of a plan, for observability and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanSummary {
    /// Messages in the batch.
    pub messages: usize,
    /// FORS tree-group nodes.
    pub fors_items: usize,
    /// Per-message `T_k` FORS-pk nodes.
    pub fors_pk_items: usize,
    /// Subtree build nodes, at most: one subtree per layer of every
    /// message. A plan builds a subtree that messages share once, and
    /// none that is resident in the cache.
    pub subtree_items: usize,
    /// WOTS+ chain-group nodes.
    pub chain_items: usize,
}

impl PlanSummary {
    /// Total DAG nodes.
    pub fn nodes(&self) -> usize {
        self.fors_items + self.fors_pk_items + self.subtree_items + self.chain_items
    }
}

/// The node census [`sign_batch`] would build for `messages`
/// messages of `params` under `shape`, without signing anything — of
/// messages that share no subtree, which is what a full-size parameter
/// set's bottom layers make of any batch (see
/// [`PlanSummary::subtree_items`]).
pub fn summarize(params: &Params, messages: usize, shape: &PlanShape) -> PlanSummary {
    let flat_trees = messages * params.k;
    let flat_layers = messages * params.d;
    PlanSummary {
        messages,
        fors_items: flat_trees.div_ceil(shape.fors_trees_per_item.max(1)),
        fors_pk_items: messages,
        subtree_items: flat_layers.div_ceil(shape.subtrees_per_item.max(1)),
        chain_items: flat_layers.div_ceil(shape.chains_per_item.max(1)),
    }
}

/// Runs `f` over `0..len` cut into ranges of `chunk`, one node per range
/// on `exec`, and concatenates the results in range order; each node
/// fills its own slot. A `len` that fits one range runs on the calling
/// thread with no submission.
fn fan_out<R: Send>(
    exec: &Executor,
    len: usize,
    chunk: usize,
    f: impl Fn(Range<usize>) -> Vec<R> + Sync,
) -> Vec<R> {
    if len <= chunk {
        return f(0..len);
    }
    let mut parts: Vec<Vec<R>> = (0..len.div_ceil(chunk)).map(|_| Vec::new()).collect();
    let mut graph = TaskGraph::new();
    for (c, part) in parts.iter_mut().enumerate() {
        let f = &f;
        graph.task(move || *part = f(c * chunk..((c + 1) * chunk).min(len)));
    }
    exec.run(graph)
        .expect("independent nodes form an acyclic graph");
    let mut out = Vec::with_capacity(len);
    out.extend(parts.into_iter().flatten());
    out
}

/// Builds `items` through one [`hypertree::subtrees`] call (tree `j` is
/// item `j`'s) and publishes the leaves of those of the layers `cache`
/// memoizes. [`sign_batch`] and [`warm_cache`] both build through it.
fn build(
    ctx: &HashCtx,
    sk_seed: &[u8],
    key: &KeyId,
    cache: &HypertreeCache,
    items: &[SubtreeItem],
) -> TreeLevels {
    let built = hypertree::subtrees(ctx, sk_seed, items);
    for (j, item) in items.iter().enumerate() {
        if cache.caches_layer(ctx.params(), item.layer) {
            cache.insert(key, item.layer, item.tree_idx, built.leaves(j));
        }
    }
    built
}

/// The `(layer, tree)` coordinates of a subtree item.
fn coords(item: SubtreeItem) -> (u32, u64) {
    (item.layer, item.tree_idx)
}

/// The end of the run of `order` from `start` whose items share the
/// coordinates of `order[start]`.
fn group_end(order: &[u32], start: usize, item: impl Fn(u32) -> SubtreeItem) -> usize {
    let at = coords(item(order[start]));
    start
        + order[start..]
            .iter()
            .take_while(|&&flat| coords(item(flat)) == at)
            .count()
}

/// `order` (sorted by coordinates) cut into runs of `trees` distinct
/// subtrees each, the last run holding what is left: the members of one
/// build node each.
fn build_runs<'o>(
    order: &'o [u32],
    trees: usize,
    item: impl Fn(u32) -> SubtreeItem + 'o,
) -> impl Iterator<Item = &'o [u32]> + 'o {
    let mut rest = order;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut end = 0;
        for _ in 0..trees {
            if end == rest.len() {
                break;
            }
            end = group_end(rest, end, &item);
        }
        let (run, tail) = rest.split_at(end);
        rest = tail;
        Some(run)
    })
}

/// Settles at plan time the flat subtree items of `order` (flat indices,
/// sorted by coordinates; `item` reads one) whose subtree `cache` holds,
/// and leaves the others in `order`, in the same order. Every item of a
/// memoizable layer costs one [`HypertreeCache::get`]; the distinct
/// trees that hit are rebuilt from their leaves in one
/// [`hypertree::subtrees_from_leaves`] call (`2^h' − 1` `H` a tree, no
/// graph node), and `serve` gets each of their items with its tree's
/// root and its own authentication path.
fn settle_warm(
    ctx: &HashCtx,
    cache: &HypertreeCache,
    key: &KeyId,
    order: &mut Vec<u32>,
    item: impl Fn(u32) -> SubtreeItem,
    mut serve: impl FnMut(u32, &[u8], Nodes),
) {
    let params = ctx.params();
    let tree_bytes = params.n << params.tree_height();
    // One slot of leaves per tree, kept if any member hit: the trees are
    // served whole from the leaves a hit copied.
    let (mut warm, mut leaves) = (Vec::new(), Vec::new());
    let mut start = 0;
    while start < order.len() {
        let end = group_end(order, start, &item);
        let tree = item(order[start]);
        if cache.caches_layer(params, tree.layer) {
            let at = leaves.len();
            leaves.resize(at + tree_bytes, 0);
            let mut hit = false;
            for _ in start..end {
                hit |= cache.get(key, tree.layer, tree.tree_idx, &mut leaves[at..]);
            }
            if hit {
                warm.push(tree);
            } else {
                leaves.truncate(at);
            }
        }
        start = end;
    }
    let rebuilt = hypertree::subtrees_from_leaves(ctx, &warm, &leaves);
    drop(leaves);

    // The warm trees are a subsequence of `order`'s groups: serve their
    // members, and close the others up behind each other.
    let (mut kept, mut next_warm) = (0, 0);
    let mut start = 0;
    while start < order.len() {
        let end = group_end(order, start, &item);
        let tree = item(order[start]);
        if warm
            .get(next_warm)
            .is_some_and(|&w| coords(w) == coords(tree))
        {
            for &flat in &order[start..end] {
                let leaf_idx = item(flat).leaf_idx;
                serve(
                    flat,
                    rebuilt.root(next_warm),
                    rebuilt.auth_path(next_warm, leaf_idx),
                );
            }
            next_warm += 1;
        } else {
            order.copy_within(start..end, kept);
            kept += end - start;
        }
        start = end;
    }
    order.truncate(kept);
}

/// One message's signature while the stage nodes fill it in, and the
/// values that pass between its stages. The signature is allocated at
/// its exact size when the plan is made: `k` FORS tree and `d` layer
/// handles, each field left empty until its node moves its output in.
struct Pending {
    sig: Signature,
    /// The message's `k` FORS roots, `n` bytes each, until `T_k` takes
    /// them.
    roots: Vec<u8>,
    /// What each layer's WOTS+ signature signs, `n` bytes a layer: the
    /// FORS public key, then the root of each subtree below the top.
    signed: Vec<u8>,
}

impl Pending {
    fn new(params: &Params, randomizer: Vec<u8>) -> Self {
        let empty = XmssSig {
            wots_sig: Nodes::default(),
            auth_path: Nodes::default(),
        };
        Self {
            sig: Signature {
                randomizer,
                fors: ForsSignature {
                    trees: vec![ForsTreeSig::default(); params.k],
                },
                ht: HtSignature {
                    layers: vec![empty; params.d],
                },
            },
            roots: vec![0u8; params.k * params.n],
            signed: vec![0u8; params.d * params.n],
        }
    }

    /// Takes layer `layer`'s subtree: its `root`, which the layer above
    /// signs, and the signing leaf's `auth_path`.
    fn subtree(&mut self, layer: usize, root: &[u8], auth_path: Nodes) {
        let n = root.len();
        if let Some(signed) = self.signed.get_mut((layer + 1) * n..(layer + 2) * n) {
            signed.copy_from_slice(root);
        }
        self.sig.ht.layers[layer].auth_path = auth_path;
    }
}

/// Plans and signs a whole batch as one stage graph submitted onto
/// `exec`, its work items grouped as `shape` says — see the module docs
/// for the decomposition. Output is byte-identical to signing each
/// message sequentially, whatever the shape and whatever `cache` holds:
/// resident subtrees are rebuilt from their leaves and sliced at plan
/// time (warm — no node, no WOTS+ leaf), and the build nodes of
/// everything else publish the leaves of the layers `cache` memoizes; a
/// disabled or empty cache merely changes what the stage graph
/// recomputes.
///
/// Each signature is allocated at its exact size when the plan is made
/// and every node moves its outputs into the signatures it serves, so
/// what the call returns holds the signatures' bytes and their handles,
/// and nothing else.
pub fn sign_batch(
    ctx: &HashCtx,
    sk: &SigningKey,
    msgs: &[&[u8]],
    exec: &Executor,
    cache: &HypertreeCache,
    shape: &PlanShape,
) -> Vec<Signature> {
    let params = *ctx.params();
    let m = msgs.len();
    if m == 0 {
        return Vec::new();
    }
    let (k, d, n) = (params.k, params.d, params.n);
    let sk_seed = sk.sk_seed();

    // Each message's stage lists (deterministic signing), one node per
    // worker (message digesting is hash work too). The work items are
    // cut from them in flat, message-major order, so a chunk mixes
    // messages exactly at the boundaries.
    let mut stages: Vec<Stages> = fan_out(exec, m, m.div_ceil(exec.workers()), |range| {
        msgs[range]
            .iter()
            .map(|msg| sk.stages(ctx, msg, sk.pk_seed()))
            .collect()
    });
    let mut pending: Vec<Mutex<Pending>> = stages
        .iter_mut()
        .map(|lists| Mutex::new(Pending::new(&params, std::mem::take(&mut lists.randomizer))))
        .collect();
    let stages = &stages;
    let item = move |flat: u32| stages[flat as usize / d].subtrees[flat as usize % d];

    let fg = shape.fors_trees_per_item.max(1);
    let tg = shape.subtrees_per_item.max(1);
    let wg = shape.chains_per_item.max(1);

    // Subtree stage, optionally memoized. Each flat (message, layer) item
    // is settled once at plan time, its subtree's items side by side in
    // `order`, the flat indices sorted by coordinates:
    //   * warm — the subtree's leaves are resident in the cache; the
    //     warm trees are rebuilt from them in one sweep and every warm
    //     item's root and authentication path sliced immediately (no
    //     node, no WOTS+ leaf — the steady-state payoff).
    //   * build — anything else stays in `order` and joins the build
    //     node of its (layer, tree): *distinct* coordinates are built
    //     once per batch (a batch's repeated upper trees are not rebuilt
    //     per message), with no dependencies (coordinates derive from
    //     the digest alone — the independence §III-A exploits), and
    //     slice every dependent item's root and path.
    //
    // Declared before the graph so the node closures borrowing the
    // runs outlive it.
    let key = KeyId::of(sk);
    let mut order: Vec<u32> = (0..(m * d) as u32).collect();
    order.sort_unstable_by_key(|&flat| (coords(item(flat)), flat));
    settle_warm(ctx, cache, &key, &mut order, item, |flat, root, path| {
        let (mi, layer) = (flat as usize / d, flat as usize % d);
        pending[mi].get_mut().unwrap().subtree(layer, root, path);
    });

    let mut graph = TaskGraph::new();

    // FORS tree groups: no dependencies. The node of flat trees
    // `lo..hi` builds them through one `tree_hash_many` call and moves
    // each message's trees and roots into its signature.
    let fors_nodes: Vec<_> = (0..m * k)
        .step_by(fg)
        .map(|lo| {
            let hi = (lo + fg).min(m * k);
            let pending = &pending;
            graph.task(move || {
                crate::faults::stage(crate::faults::PLAN_STAGE);
                let reqs: Vec<ForsTreeRequest> = (lo..hi)
                    .map(|t| stages[t / k].fors_request(t % k))
                    .collect();
                let mut roots = vec![0u8; (hi - lo) * n];
                let mut trees = fors::tree_hash_many(ctx, sk_seed, &reqs, &mut roots).into_iter();
                let first = lo / k;
                for (mi, message) in (first..).zip(&pending[first..=(hi - 1) / k]) {
                    let (a, b) = (lo.max(mi * k), hi.min((mi + 1) * k));
                    let mut p = message.lock().unwrap();
                    p.roots[(a - mi * k) * n..(b - mi * k) * n]
                        .copy_from_slice(&roots[(a - lo) * n..(b - lo) * n]);
                    for slot in &mut p.sig.fors.trees[a - mi * k..b - mi * k] {
                        *slot = trees.next().expect("one signature per request");
                    }
                }
            })
        })
        .collect();

    // Per-message T_k compression: waits for the tree groups covering
    // this message's k trees, and leaves the FORS public key for its
    // layer-0 WOTS+ signature.
    let pk_nodes: Vec<_> = (0..m)
        .map(|mi| {
            let (lo, hi) = (mi * k, (mi + 1) * k);
            let pending = &pending;
            let node = graph.task(move || {
                crate::faults::stage(crate::faults::PLAN_STAGE);
                let roots = std::mem::take(&mut pending[mi].lock().unwrap().roots);
                let pk = fors::roots_to_pk(ctx, &stages[mi].keypair_adrs, &roots);
                pending[mi].lock().unwrap().signed[..n].copy_from_slice(&pk);
            });
            for &group in &fors_nodes[lo / fg..=(hi - 1) / fg] {
                graph.depends_on(node, group);
            }
            node
        })
        .collect();

    // Subtree builds: a node per run of `tg` distinct trees of `order`,
    // slicing every member of each.
    let build_nodes: Vec<NodeId> = build_runs(&order, tg, item)
        .map(|members| {
            let (key, pending) = (&key, &pending);
            graph.task(move || {
                crate::faults::stage(crate::faults::PLAN_STAGE);
                let same = |a: &u32, b: &u32| coords(item(*a)) == coords(item(*b));
                let items: Vec<SubtreeItem> =
                    members.chunk_by(same).map(|group| item(group[0])).collect();
                let built = build(ctx, sk_seed, key, cache, &items);
                for (j, group) in members.chunk_by(same).enumerate() {
                    for &flat in group {
                        let (mi, layer) = (flat as usize / d, flat as usize % d);
                        let path = built.auth_path(j, item(flat).leaf_idx);
                        pending[mi]
                            .lock()
                            .unwrap()
                            .subtree(layer, built.root(j), path);
                    }
                }
            })
        })
        .collect();

    // WOTS+ chain groups: layer 0 signs the FORS pk, layer l > 0 signs
    // the layer-(l−1) subtree root; each group depends on exactly the
    // nodes producing its inputs.
    let flat_layers = m * d;
    let chain_nodes: Vec<NodeId> = (0..flat_layers)
        .step_by(wg)
        .map(|start| {
            let end = (start + wg).min(flat_layers);
            let pending = &pending;
            let node = graph.task(move || {
                crate::faults::stage(crate::faults::PLAN_STAGE);
                // Own the messages first (copied out of the signatures'
                // stage values into one n-stride buffer), then borrow
                // them into the chain-group items.
                let mut inputs = vec![0u8; (end - start) * n];
                for (flat, input) in (start..end).zip(inputs.chunks_exact_mut(n)) {
                    let (mi, layer) = (flat / d, flat % d);
                    input.copy_from_slice(&pending[mi].lock().unwrap().signed[layer * n..][..n]);
                }
                let items: Vec<ChainGroupItem<'_>> = (start..end)
                    .zip(inputs.chunks_exact(n))
                    .map(|(flat, msg)| stages[flat / d].subtrees[flat % d].chains(msg))
                    .collect();
                let sigs = wots::sign_chain_groups(ctx, sk_seed, &items);
                for (flat, sig) in (start..end).zip(sigs) {
                    pending[flat / d].lock().unwrap().sig.ht.layers[flat % d].wots_sig = sig;
                }
            });
            for &pk in &pk_nodes[start.div_ceil(d)..end.div_ceil(d)] {
                graph.depends_on(node, pk);
            }
            node
        })
        .collect();
    // A build node's members feed the chain groups signing the layer
    // above them (the top layer's root is the public key's).
    let mut consumers = Vec::new();
    for (members, &node) in build_runs(&order, tg, item).zip(&build_nodes) {
        consumers.clear();
        consumers.extend(
            members
                .iter()
                .map(|&flat| flat as usize)
                .filter(|flat| flat % d + 1 < d)
                .map(|flat| (flat + 1) / wg),
        );
        consumers.sort_unstable();
        consumers.dedup();
        for &group in &consumers {
            graph.depends_on(chain_nodes[group], node);
        }
    }

    exec.run(graph)
        .expect("batch plan construction yields a DAG");

    let mut sigs = Vec::with_capacity(m);
    sigs.extend(pending.into_iter().map(|p| {
        p.into_inner()
            .expect("no node panicked holding a signature")
            .sig
    }));
    sigs
}

/// Pre-fills `sk`'s memoizable upper hypertree layers
/// ([`HypertreeCache::warm_coordinates`]) as a stage graph on `exec` — a
/// cache fill co-schedules on the executor like any other planned work.
/// Best-effort under chaos: a dropped fill only means the next sign pays
/// cold. Returns the number of subtrees built (0 when the cache is
/// disabled, the warm budget is empty, or everything was resident).
pub fn warm_cache(
    ctx: &HashCtx,
    sk: &SigningKey,
    exec: &Executor,
    cache: &HypertreeCache,
) -> usize {
    let params = ctx.params();
    let sk_seed = sk.sk_seed();
    let key = &KeyId::of(sk);
    let items: Vec<SubtreeItem> = cache
        .warm_coordinates(params)
        .into_iter()
        .filter(|&(layer, tree_idx)| !cache.contains(key, layer, tree_idx))
        .map(|(layer, tree_idx)| SubtreeItem {
            layer,
            tree_idx,
            leaf_idx: 0,
        })
        .collect();
    if items.is_empty() {
        return 0;
    }
    let mut graph = TaskGraph::new();
    for chunk in items.chunks(PlanShape::for_batch(1).subtrees_per_item) {
        graph.task(move || {
            crate::faults::stage(crate::faults::PLAN_STAGE);
            build(ctx, sk_seed, key, cache, chunk);
        });
    }
    exec.run(graph).expect("warm plan is a DAG");
    items.len()
}

/// Signatures per verify node of a batch of `batch` on `workers` workers.
///
/// One node runs its group's *whole* pipeline — shape gate, digest, FORS
/// roots, `d` XMSS layers — because nothing inside a verification can
/// overlap: every stage consumes the previous stage's root. A chain of
/// `1 + d` nodes per group would buy no parallelism and make every hop
/// queue FIFO behind the nodes of whatever sign is in flight (measured:
/// 0.22 ms of hashing took 1.3 ms on a busy server); parallelism comes
/// from the groups, which share nothing.
///
/// A node is sized to the lanes: [`VerifyingKey::verify_many`] gives each
/// signature of a group a lane of its own for `T_k`, `T_len` and the XMSS
/// authentication paths, so a group of
/// [`hero_sphincs::fors::LANE_SIGNATURES`] fills the registers a group of
/// four leaves three quarters empty. It shrinks only so that the batch
/// still makes a node for every worker, and never below four, the size
/// every node had before and the largest batch that runs with no
/// submission whatever the pool. Nodes of 4 / 8 / 16 / 32 measured
/// 5.0–5.6 / 4.5–4.6 / 4.2–4.3 / 4.2–4.8 ms per 128f batch of 64 on the
/// two hardware threads of the reference host, 9.3–10.1 / 8.0–8.8 /
/// 7.6–8.4 / 7.6–8.5 on one (range of the medians of five alternating
/// rounds of 15 batches; while no stage held a signature per lane the
/// same four sizes were level, 6.4 / 6.3 / 6.2 / 6.2).
pub fn verify_node_size(batch: usize, workers: usize) -> usize {
    (batch / workers.max(1)).clamp(4, hero_sphincs::fors::LANE_SIGNATURES)
}

/// Plans and verifies a whole batch on `exec`: one node per
/// [`verify_node_size`] signatures, no edges.
///
/// Each node runs [`VerifyingKey::verify_many`] over its group's slice,
/// so every hash stage takes the group's signatures through the lanes
/// together, and different groups interleave freely on the pool — with
/// each other and with any signing work in flight. A batch that fits one
/// node has nothing to distribute and runs on the calling thread without
/// a submission. Verdicts are bit-for-bit what
/// [`hero_sphincs::reference::verify`] returns, malformed signatures
/// included; the batch never short-circuits, like a GPU batch that
/// always runs to completion.
///
/// # Errors
///
/// [`HeroError::BatchMismatch`] when `msgs.len() != sigs.len()` (nothing
/// is silently paired by the shorter slice).
///
/// # Examples
///
/// ```
/// use hero_sign::{plan, VerifyOutcome};
/// use hero_task_graph::Executor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut params = hero_sphincs::Params::sphincs_128f();
/// params.h = 6;
/// params.d = 3;
/// params.log_t = 4;
/// params.k = 8;
/// let mut rng = StdRng::seed_from_u64(9);
/// let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
///
/// let msgs: Vec<&[u8]> = vec![b"a", b"b"];
/// let mut sigs: Vec<_> = msgs.iter().map(|m| sk.sign(m)).collect();
/// sigs[1].fors.trees[0].sk[0] ^= 1;
///
/// let exec = Executor::new(2).unwrap();
/// let outcomes = plan::verify_batch(&vk, &msgs, &sigs, &exec).unwrap();
/// assert_eq!(outcomes, [VerifyOutcome::Valid, VerifyOutcome::Invalid]);
///
/// // One message per signature, or nothing is verified.
/// assert!(plan::verify_batch(&vk, &msgs, &sigs[..1], &exec).is_err());
/// ```
pub fn verify_batch(
    vk: &VerifyingKey,
    msgs: &[&[u8]],
    sigs: &[Signature],
    exec: &Executor,
) -> Result<Vec<VerifyOutcome>, HeroError> {
    if msgs.len() != sigs.len() {
        return Err(HeroError::BatchMismatch {
            messages: msgs.len(),
            signatures: sigs.len(),
        });
    }
    if msgs.is_empty() {
        return Ok(Vec::new());
    }
    let node = verify_node_size(msgs.len(), exec.workers());
    Ok(fan_out(exec, msgs.len(), node, |range| {
        crate::faults::stage(crate::faults::PLAN_STAGE);
        let refs: Vec<&Signature> = sigs[range.clone()].iter().collect();
        vk.verify_many(&msgs[range], &refs)
            .into_iter()
            .map(VerifyOutcome::from_result)
            .collect()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheStats};
    use hero_sphincs::merkle::TreeHashOutput;
    use hero_sphincs::reference;
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

    fn ctx_for(sk: &SigningKey) -> HashCtx {
        HashCtx::with_alg(*sk.params(), sk.pk_seed(), sk.alg())
    }

    fn no_cache() -> HypertreeCache {
        HypertreeCache::new(CacheConfig::disabled())
    }

    /// [`sign_batch`] under the shape the engine uses.
    fn sign_default(
        sk: &SigningKey,
        msgs: &[&[u8]],
        exec: &Executor,
        cache: &HypertreeCache,
    ) -> Vec<Signature> {
        let shape = PlanShape::for_batch(msgs.len());
        sign_batch(&ctx_for(sk), sk, msgs, exec, cache, &shape)
    }

    #[test]
    fn planned_batch_matches_sequential_reference() {
        let mut rng = StdRng::seed_from_u64(41);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        for batch in [1usize, 2, 5] {
            let msgs_owned: Vec<Vec<u8>> = (0..batch).map(|i| vec![i as u8; 24 + i]).collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            for workers in [1usize, 4] {
                let exec = Executor::new(workers).unwrap();
                let sigs = sign_default(&sk, &msgs, &exec, &no_cache());
                assert_eq!(sigs.len(), batch);
                for (i, (msg, sig)) in msgs.iter().zip(&sigs).enumerate() {
                    assert_eq!(
                        *sig,
                        reference::sign(&sk, msg),
                        "batch={batch} workers={workers} msg {i}"
                    );
                    reference::verify(&vk, msg, sig).unwrap();
                }
            }
        }
    }

    #[test]
    fn shapes_do_not_change_bytes() {
        let mut rng = StdRng::seed_from_u64(42);
        let params = tiny_params();
        let (sk, _) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let ctx = ctx_for(&sk);
        let msgs_owned: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 10]).collect();
        let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
        let exec2 = Executor::new(2).unwrap();
        let exec3 = Executor::new(3).unwrap();
        let expected: Vec<Signature> = msgs.iter().map(|m| reference::sign(&sk, m)).collect();
        assert_eq!(sign_default(&sk, &msgs, &exec2, &no_cache()), expected);
        for shape in [
            PlanShape {
                fors_trees_per_item: 1,
                subtrees_per_item: 1,
                chains_per_item: 1,
            },
            PlanShape {
                fors_trees_per_item: 3,
                subtrees_per_item: 4,
                chains_per_item: 5,
            },
            PlanShape {
                fors_trees_per_item: 1000,
                subtrees_per_item: 1000,
                chains_per_item: 1000,
            },
        ] {
            assert_eq!(
                sign_batch(&ctx, &sk, &msgs, &exec3, &no_cache(), &shape),
                expected,
                "{shape:?}"
            );
        }
    }

    /// Under SHA-2 and SHAKE: a batch signs the same cold (filling the
    /// cache) and warm (every subtree rebuilt from resident leaves), and
    /// a warm tree of every layer serves each of its leaves as a fresh
    /// build does.
    #[test]
    fn cached_batches_match_plain_cold_and_warm() {
        let mut shake = Params::shake_128f();
        (shake.h, shake.d, shake.log_t, shake.k) = (6, 3, 4, 8);
        for params in [tiny_params(), shake] {
            let mut rng = StdRng::seed_from_u64(44);
            let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
            let name = params.name();
            let exec = Executor::new(4).unwrap();
            let cache = HypertreeCache::new(CacheConfig::default());
            let msgs_owned: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 20]).collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            let expected: Vec<Signature> = msgs.iter().map(|m| reference::sign(&sk, m)).collect();

            let cold = sign_default(&sk, &msgs, &exec, &cache);
            assert_eq!(cold, expected, "{name}: cold fill path");
            let after_cold = cache.stats();
            assert!(after_cold.misses > 0 && after_cold.resident_subtrees > 0);
            assert_eq!(after_cold.hits, 0);

            let warm = sign_default(&sk, &msgs, &exec, &cache);
            assert_eq!(warm, expected, "{name}: warm rebuild path");
            let after_warm = cache.stats();
            assert_eq!(
                after_warm.hits,
                (msgs.len() * params.d) as u64,
                "{name}: every layer of every message served warm"
            );
            for (msg, sig) in msgs.iter().zip(&warm) {
                vk.verify(msg, sig).unwrap();
            }

            // Tree 0 of every layer, made resident, at each of its leaves.
            let ctx = ctx_for(&sk);
            warm_cache(&ctx, &sk, &exec, &cache);
            let leaves = 1u32 << params.tree_height();
            let every_leaf: Vec<SubtreeItem> = (0..params.d as u32)
                .flat_map(|layer| {
                    (0..leaves).map(move |leaf_idx| SubtreeItem {
                        layer,
                        tree_idx: 0,
                        leaf_idx,
                    })
                })
                .collect();
            let mut served = vec![None; every_leaf.len()];
            let mut unbuilt: Vec<u32> = (0..every_leaf.len() as u32).collect();
            let item = |flat: u32| every_leaf[flat as usize];
            settle_warm(
                &ctx,
                &cache,
                &KeyId::of(&sk),
                &mut unbuilt,
                item,
                |flat, root, path| {
                    served[flat as usize] = Some(TreeHashOutput {
                        root: root.to_vec(),
                        auth_path: path,
                    })
                },
            );
            assert!(
                unbuilt.is_empty(),
                "{name}: tree 0 of every layer is resident"
            );
            for (flat, (&item, out)) in every_leaf.iter().zip(&served).enumerate() {
                let fresh = hypertree::subtrees(&ctx, sk.sk_seed(), &[item]);
                assert_eq!(
                    out.as_ref(),
                    Some(&fresh.output_for(0, item.leaf_idx)),
                    "{name}: {item:?} (slot {flat})"
                );
            }

            // A disabled cache builds everything and keeps nothing.
            let off = no_cache();
            assert_eq!(sign_default(&sk, &msgs, &exec, &off), expected);
            assert_eq!(off.stats(), CacheStats::default());
        }
    }

    #[test]
    fn warm_cache_prefills_so_first_sign_hits() {
        let mut rng = StdRng::seed_from_u64(45);
        let (sk, _) = hero_sphincs::keygen(tiny_params(), &mut rng).unwrap();
        let ctx = ctx_for(&sk);
        let exec = Executor::new(4).unwrap();
        let cache = HypertreeCache::new(CacheConfig::default());
        // Tiny shape: 16 + 4 + 1 trees, all within the default budget.
        assert_eq!(warm_cache(&ctx, &sk, &exec, &cache), 21);
        assert_eq!(warm_cache(&ctx, &sk, &exec, &cache), 0, "idempotent");

        let sigs = sign_default(&sk, &[b"warmed"], &exec, &cache);
        assert_eq!(sigs[0], reference::sign(&sk, b"warmed"));
        let stats = cache.stats();
        assert_eq!(stats.hits, 3, "all layers pre-filled");
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn eviction_degrades_to_cold_never_errors() {
        let mut rng = StdRng::seed_from_u64(46);
        let params = tiny_params();
        let (sk_a, _) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let (sk_b, _) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let exec = Executor::new(2).unwrap();
        // One resident key: every key switch evicts the other.
        let cache = HypertreeCache::new(CacheConfig {
            max_keys: 1,
            ..CacheConfig::default()
        });
        for round in 0..3u8 {
            for sk in [&sk_a, &sk_b] {
                let msg = vec![round; 9];
                let sigs = sign_default(sk, &[&msg], &exec, &cache);
                assert_eq!(sigs[0], reference::sign(sk, &msg), "round {round}");
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 4, "{stats:?}");
        assert_eq!(stats.resident_keys, 1);
    }

    #[test]
    fn planned_verify_matches_scalar_verdicts() {
        let mut rng = StdRng::seed_from_u64(47);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        for batch in 1usize..=9 {
            let msgs_owned: Vec<Vec<u8>> = (0..batch).map(|i| vec![i as u8; 16 + i]).collect();
            let msgs: Vec<&[u8]> = msgs_owned.iter().map(Vec::as_slice).collect();
            let mut sigs: Vec<Signature> = msgs.iter().map(|m| sk.sign(m)).collect();
            // Tamper with a spread of regions so mixed batches exercise
            // the per-index verdicts, not just all-pass: cut in nodes of
            // four (as four workers have it; one worker takes the batch
            // as one node), the first (0..4) mixes invalid, malformed and
            // valid members, the second (4..8) is malformed throughout
            // once it is full, and 8 stays valid in a node of its own.
            if batch > 1 {
                sigs[1].randomizer[0] ^= 1;
            }
            if batch > 3 {
                sigs[2].fors.trees.pop();
                sigs[3].ht.layers[1].auth_path[0][0] ^= 1;
            }
            for sig in sigs.iter_mut().take(8).skip(4) {
                sig.ht.layers.pop();
            }
            for workers in [1usize, 4] {
                let exec = Executor::new(workers).unwrap();
                let outcomes = verify_batch(&vk, &msgs, &sigs, &exec).unwrap();
                assert_eq!(outcomes.len(), batch);
                for (i, outcome) in outcomes.iter().enumerate() {
                    let scalar =
                        VerifyOutcome::from_result(reference::verify(&vk, msgs[i], &sigs[i]));
                    assert_eq!(*outcome, scalar, "batch={batch} workers={workers} sig {i}");
                }
            }
        }
    }

    #[test]
    fn planned_verify_all_malformed_never_builds_a_graph() {
        let mut rng = StdRng::seed_from_u64(48);
        let (sk, vk) = hero_sphincs::keygen(tiny_params(), &mut rng).unwrap();
        let mut sig = sk.sign(b"m");
        sig.randomizer.pop();
        let exec = Executor::new(2).unwrap();
        let outcomes = verify_batch(&vk, &[b"m"], std::slice::from_ref(&sig), &exec).unwrap();
        assert!(matches!(outcomes[0], VerifyOutcome::Malformed(_)));
    }

    #[test]
    fn planned_verify_empty_batch_is_empty() {
        let mut rng = StdRng::seed_from_u64(49);
        let (_, vk) = hero_sphincs::keygen(tiny_params(), &mut rng).unwrap();
        let exec = Executor::new(2).unwrap();
        assert!(verify_batch(&vk, &[], &[], &exec).unwrap().is_empty());
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut rng = StdRng::seed_from_u64(43);
        let (sk, _) = hero_sphincs::keygen(tiny_params(), &mut rng).unwrap();
        let exec = Executor::new(4).unwrap();
        assert!(sign_default(&sk, &[], &exec, &no_cache()).is_empty());
    }

    #[test]
    fn summary_counts_match_shape() {
        let params = tiny_params(); // k = 8, d = 3
        let shape = PlanShape {
            fors_trees_per_item: 8,
            subtrees_per_item: 2,
            chains_per_item: 4,
        };
        let s = summarize(&params, 5, &shape);
        assert_eq!(s.messages, 5);
        assert_eq!(s.fors_items, 5); // 40 trees / 8
        assert_eq!(s.fors_pk_items, 5);
        assert_eq!(s.subtree_items, 8); // 15 layers / 2
        assert_eq!(s.chain_items, 4); // 15 layers / 4
        assert_eq!(s.nodes(), 22);
        // The default shape pairs subtrees at every batch size.
        assert_eq!(PlanShape::for_batch(1).subtrees_per_item, 2);
        assert_eq!(PlanShape::for_batch(64).subtrees_per_item, 2);
        // A lone 128f signature: 3 FORS groups (33 trees / 16), one T_k,
        // 11 subtree nodes (22 layers / 2) and 6 chain groups (22 / 4).
        let lone = summarize(&Params::sphincs_128f(), 1, &PlanShape::for_batch(1));
        assert_eq!(
            lone,
            PlanSummary {
                messages: 1,
                fors_items: 3,
                fors_pk_items: 1,
                subtree_items: 11,
                chain_items: 6,
            }
        );
        assert_eq!(lone.nodes(), 21);
    }
}
