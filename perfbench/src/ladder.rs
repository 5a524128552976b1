//! The per-layer ladder: each layer's public functions timed on the
//! inputs the workload used, from the hash core up to the wire codec.
//!
//! Every rung states its efficiency against the rung below it: a stage
//! kernel's achieved compressions/s over the hash core's rate, the
//! planner's time over the sum of its stages, the pool's rate over
//! `nproc` times one worker's. Everything is single-threaded unless the
//! name says otherwise, and every measurement is a span in the trace.

use crate::gen::{self, Msg};
use crate::host;
use crate::names::Metrics;
use crate::spans::{At, SpanLog};
use crate::stats;
use crate::workloads::{default_engine, refs, Run, BATCH};

use hero_gpu_sim::device::rtx_4090;
use hero_server::wire;
use hero_sign::kernels::{fors_sign, tree_sign, wots_sign};
use hero_sign::plan::{self, PlanShape};
use hero_sign::service::{ServiceConfig, SignService};
use hero_sign::{workload, HeroSigner, PipelineOptions, TuningOptions};
use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::fors::{ForsSignature, ForsTreeRequest, ForsTreeSig};
use hero_sphincs::hash::{self, HashCtx};
use hero_sphincs::hypertree::{HtSignature, XmssSig};
use hero_sphincs::params::Params;
use hero_sphincs::sign::{Signature, SigningKey};
use hero_sphincs::tier::{self, HashTier, Primitive};
use hero_sphincs::{keccak, sha256, wots};
use hero_task_graph::TaskGraph;

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the ladder replays.
pub struct Inputs<'a> {
    pub run: &'a Run,
    pub log: &'a SpanLog,
    /// The workload's first requests.
    pub requests: &'a [(SigningKey, Msg)],
    /// Span of the call each of them was (one call for all when `batched`).
    pub parents: &'a [u32],
    /// The requests were one `sign_batch`/`verify_batch` call, not singles.
    pub batched: bool,
    /// The workload signs with its key's upper layers already cached.
    pub hot: bool,
}

/// Share of `--seconds` each rate measurement runs for.
const PROBE_SHARE: f64 = 0.01;

/// Windows a rate measurement is split into; the rate is their median,
/// so that one slow stretch of a shared host does not set it.
const RATE_WINDOWS: usize = 5;

/// Calls `work` (which performs `per_call` operations) for `seconds`,
/// reading the clock once per `stride` calls; operations per second.
fn rate(
    log: &SpanLog,
    at: At,
    seconds: f64,
    per_call: usize,
    stride: usize,
    mut work: impl FnMut(),
) -> f64 {
    work(); // first touch of code and data stays out of the rate
    let windows: Vec<f64> = (0..RATE_WINDOWS)
        .map(|_| {
            let (calls, elapsed, _) = log.timed(at, || {
                let start = Instant::now();
                let mut calls = 0usize;
                while start.elapsed().as_secs_f64() < seconds / RATE_WINDOWS as f64 {
                    for _ in 0..stride {
                        work();
                    }
                    calls += stride;
                }
                calls
            });
            (calls * per_call) as f64 / elapsed.as_secs_f64()
        })
        .collect();
    stats::median(&windows)
}

/// Median time of `REPEATS` runs of `work`, each under its own span.
fn median_time<R>(log: &SpanLog, at: At, mut work: impl FnMut() -> R) -> (R, f64) {
    const REPEATS: usize = 3;
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPEATS {
        let (result, elapsed, _) = log.timed(at, &mut work);
        times.push(elapsed.as_secs_f64());
        last = Some(result);
    }
    (last.expect("REPEATS is positive"), stats::median(&times))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(inputs: &Inputs<'_>) -> Metrics {
    let mut m = Metrics::new();
    let params = Params::sphincs_128f();
    let probe_s = inputs.run.seconds * PROBE_SHARE;
    let core_rate = hash_core(inputs.log, probe_s, &mut m);
    thash(inputs.log, probe_s, &params, core_rate, &mut m);
    let corpus = replays(inputs, &params, core_rate, &mut m);
    // One more default engine, its cache empty, for the rungs above.
    let engine = default_engine();
    executor_and_cache(inputs, &engine, &mut m);
    service(inputs, &engine, &corpus, &mut m);
    codec(inputs.log, probe_s, &params, &corpus, &mut m);
    model(inputs.log, &engine, &mut m);
    m
}

/// Compressions per second of the dispatched 8-lane SHA-256 core, which
/// every efficiency above it is stated against.
fn hash_core(log: &SpanLog, seconds: f64, m: &mut Metrics) -> f64 {
    let block = [0x5au8; sha256::BLOCK_LEN];
    let blocks = [&block; sha256::LANES];
    let mut states = [sha256::H0; sha256::LANES];
    let core_rate = rate(
        log,
        At::probe("hash_core", "sha256_compress_x"),
        seconds,
        sha256::LANES,
        256,
        || sha256::compress_x(black_box(&mut states), black_box(&blocks)),
    );
    m.set("hash_core.sha256_compress_per_s", core_rate);
    for (tier, name) in [
        (
            HashTier::Scalar,
            "hash_core.sha256_tier_scalar_compress_per_s",
        ),
        (HashTier::Avx2, "hash_core.sha256_tier_avx2_compress_per_s"),
        (
            HashTier::ShaNi,
            "hash_core.sha256_tier_sha-ni_compress_per_s",
        ),
        (
            HashTier::Avx512,
            "hash_core.sha256_tier_avx512_compress_per_s",
        ),
    ] {
        // `compress_x_with` falls back to the portable body for a tier
        // the CPU lacks; that is not the tier's rate, so it reads 0.
        let tier_rate = if tier::supported(Primitive::Sha256, tier) {
            rate(
                log,
                At::probe("hash_core", "sha256_compress_x_with"),
                seconds,
                sha256::LANES,
                256,
                || sha256::compress_x_with(tier, black_box(&mut states), black_box(&blocks)),
            )
        } else {
            0.0
        };
        m.set(name, tier_rate);
    }
    // No workload uses SHAKE: this rate is the control that must move
    // nothing end to end.
    let mut sponge = [[0x5au64; keccak::LANES]; 25];
    let keccak_rate = rate(
        log,
        At::probe("hash_core", "keccak_permute_x"),
        seconds,
        keccak::LANES,
        256,
        || keccak::permute_x(black_box(&mut sponge)),
    );
    m.set("hash_core.keccak_permute_per_s", keccak_rate);
    core_rate
}

/// The tweakable hash on the WOTS+ leaf shape: distinct addresses,
/// `n`-byte inputs. A gap to the core rate is address and padding work.
fn thash(log: &SpanLog, seconds: f64, params: &Params, core_rate: f64, m: &mut Metrics) {
    const COUNT: usize = 2048;
    let n = params.n;
    let ctx = HashCtx::new(*params, &[7u8; 16]);
    let adrs: Vec<Address> = (0..COUNT as u32)
        .map(|i| {
            let mut a = Address::new();
            a.set_type(AddressType::WotsHash);
            a.set_keypair(i / 64);
            a.set_chain(i % 64);
            a
        })
        .collect();
    let input: Vec<u8> = (0..COUNT * 2 * n).map(|i| (i % 251) as u8).collect();
    let sk_seed = [9u8; 16];
    let mut out = vec![0u8; COUNT * n];
    let at = |name| At::probe("thash", name);

    let f_rate = rate(log, at("f_many"), seconds, COUNT, 1, || {
        ctx.f_many(&adrs, &input[..COUNT * n], black_box(&mut out));
    });
    m.set("thash.f_many_per_s", f_rate);
    m.set(
        "thash.f_efficiency",
        f_rate * workload::f_compressions(params) as f64 / core_rate,
    );
    let h_rate = rate(log, at("h_many"), seconds, COUNT, 1, || {
        ctx.h_many(&adrs, &input, black_box(&mut out));
    });
    m.set("thash.h_many_per_s", h_rate);
    let prf_rate = rate(log, at("prf_many"), seconds, COUNT, 1, || {
        ctx.prf_many(&adrs, &sk_seed, black_box(&mut out));
    });
    m.set("thash.prf_many_per_s", prf_rate);
    // T_len: the WOTS+ public-key compression, the longest input there is.
    let len = params.wots_len();
    let t_l_rate = rate(log, at("t_l"), seconds, 1, 64, || {
        ctx.t_l_flat_into(&adrs[0], &input[..len * n], black_box(&mut out[..n]));
    });
    m.set("thash.t_l_per_s", t_l_rate);
}

/// Time and exact compression counts of the three signing stages over
/// one planned call, and the signatures they assemble into.
#[derive(Default)]
struct StageReplay {
    fors: Duration,
    tree: Duration,
    wots: Duration,
    fors_compressions: u64,
    tree_compressions: u64,
    wots_compressions: u64,
    verify_compressions: u64,
    sigs: Vec<Signature>,
}

/// Replays what the planner does for `msgs` under one key — the same
/// stage functions on the same work-items in the same groups — one
/// stage after the other on this thread.
fn stage_replay(
    log: &SpanLog,
    parent: Option<u32>,
    request: u64,
    engine: &HeroSigner,
    sk: &SigningKey,
    msgs: &[&[u8]],
    hot: bool,
) -> StageReplay {
    let params = *engine.params();
    let (k, d) = (params.k, params.d);
    let ctx = HashCtx::with_alg(params, sk.pk_seed(), sk.alg());
    let shape = PlanShape::for_batch(msgs.len());
    let at = |name| At::replay(parent, request, "stage", name);
    let mut out = StageReplay::default();

    // Host preamble, as `plan::sign_batch` computes it per message.
    struct Pre {
        randomizer: Vec<u8>,
        keypair_adrs: Address,
        subtrees: Vec<tree_sign::SubtreeItem>,
    }
    let mut fors_reqs: Vec<ForsTreeRequest> = Vec::new();
    let pres: Vec<Pre> = msgs
        .iter()
        .map(|msg| {
            let randomizer = ctx.prf_msg(sk.sk_prf(), sk.pk_seed(), msg);
            let digest = ctx.h_msg(&randomizer, sk.pk_root(), msg);
            let (md, tree_idx, leaf_idx) = hash::split_digest(&params, &digest);
            let mut keypair_adrs = Address::new();
            keypair_adrs.set_layer(0);
            keypair_adrs.set_tree(tree_idx);
            keypair_adrs.set_type(AddressType::ForsTree);
            keypair_adrs.set_keypair(leaf_idx);
            fors_reqs.extend(fors_sign::tree_requests(&params, &md, &keypair_adrs));
            Pre {
                randomizer,
                keypair_adrs,
                subtrees: tree_sign::subtree_items(&params, tree_idx, leaf_idx),
            }
        })
        .collect();

    // FORS_Sign: tree groups, then each message's T_k.
    let (fors_out, fors_time, _) = log.timed(at("fors_sign"), || {
        let trees: Vec<(ForsTreeSig, Vec<u8>)> = fors_reqs
            .chunks(shape.fors_trees_per_item)
            .flat_map(|group| fors_sign::sign_trees(&ctx, sk.sk_seed(), group))
            .collect();
        let pks: Vec<Vec<u8>> = pres
            .iter()
            .enumerate()
            .map(|(mi, pre)| {
                let roots_flat: Vec<u8> = trees[mi * k..(mi + 1) * k]
                    .iter()
                    .flat_map(|(_, root)| root.iter().copied())
                    .collect();
                fors_sign::roots_to_pk(&ctx, &pre.keypair_adrs, &roots_flat)
            })
            .collect();
        (trees, pks)
    });
    let (fors_trees, fors_pks) = fors_out;
    out.fors = fors_time;
    out.fors_compressions = msgs.len() as u64 * workload::fors_sign_compressions(&params);

    // TREE_Sign: the subtrees a real request computes. A hot workload
    // finds the memoized upper layers in the cache; those are built here
    // too, because WOTS+ signs their roots, but outside the clock.
    let all_items: Vec<tree_sign::SubtreeItem> = pres
        .iter()
        .flat_map(|p| p.subtrees.iter().copied())
        .collect();
    let cached =
        |item: &tree_sign::SubtreeItem| hot && engine.cache().caches_layer(&params, item.layer);
    let computed: Vec<usize> = (0..all_items.len())
        .filter(|&i| !cached(&all_items[i]))
        .collect();
    let served: Vec<usize> = (0..all_items.len())
        .filter(|&i| cached(&all_items[i]))
        .collect();
    let build = |indices: &[usize]| -> Vec<tree_sign::LayerTree> {
        indices
            .chunks(shape.subtrees_per_item)
            .flat_map(|group| {
                let items: Vec<_> = group.iter().map(|&i| all_items[i]).collect();
                tree_sign::subtrees(&ctx, sk.sk_seed(), &items)
            })
            .collect()
    };
    let (built, tree_time, _) = log.timed(at("tree_sign"), || build(&computed));
    out.tree = tree_time;
    let leaves = params.subtree_leaves() as u64;
    out.tree_compressions = computed.len() as u64
        * (leaves * workload::wots_gen_leaf_compressions(&params)
            + (leaves - 1) * workload::h_compressions(&params));
    let mut layer_trees: Vec<Option<tree_sign::LayerTree>> = vec![None; all_items.len()];
    for (i, tree) in computed.iter().copied().zip(built) {
        layer_trees[i] = Some(tree);
    }
    for (i, tree) in served.iter().copied().zip(build(&served)) {
        layer_trees[i] = Some(tree);
    }
    let layer_trees: Vec<tree_sign::LayerTree> = layer_trees
        .into_iter()
        .map(|t| t.expect("every subtree was built"))
        .collect();

    // WOTS+_Sign: layer 0 signs the FORS pk, layer l the root below it.
    let signed_values: Vec<&[u8]> = (0..msgs.len() * d)
        .map(|flat| match flat % d {
            0 => &fors_pks[flat / d][..],
            _ => &layer_trees[flat - 1].root[..],
        })
        .collect();
    let chain_items: Vec<wots_sign::ChainGroupItem<'_>> = signed_values
        .iter()
        .enumerate()
        .map(|(flat, value)| {
            let item = all_items[flat];
            wots_sign::ChainGroupItem {
                msg: value,
                layer: item.layer,
                tree: item.tree_idx,
                leaf: item.leaf_idx,
            }
        })
        .collect();
    let (wots_sigs, wots_time, _) = log.timed(at("wots_sign"), || {
        chain_items
            .chunks(shape.chains_per_item)
            .flat_map(|group| wots_sign::sign_chain_groups(&ctx, sk.sk_seed(), group))
            .collect::<Vec<_>>()
    });
    out.wots = wots_time;
    // Exact: `len` PRFs to derive the chain heads, then as many F steps
    // as the digits say; a verifier walks the rest of each chain.
    let f = workload::f_compressions(&params);
    let len = params.wots_len() as u64;
    let top = params.w as u64 - 1;
    for value in &signed_values {
        let steps: u64 = wots::chain_lengths(&params, value)
            .iter()
            .map(|&s| s as u64)
            .sum();
        out.wots_compressions += (len + steps) * f;
        out.verify_compressions += (len * top - steps) * f
            + workload::t_l_compressions(&params, params.wots_len())
            + params.tree_height() as u64 * workload::h_compressions(&params);
    }
    out.verify_compressions += msgs.len() as u64
        * (k as u64 * (f + params.log_t as u64 * workload::h_compressions(&params))
            + workload::t_l_compressions(&params, k));

    // Assemble, so that the caller can hold the replay to the bytes the
    // planner produced from the same inputs.
    let mut fors_trees = fors_trees.into_iter();
    let mut wots_sigs = wots_sigs.into_iter();
    let mut layer_trees = layer_trees.into_iter();
    out.sigs = pres
        .into_iter()
        .map(|pre| Signature {
            randomizer: pre.randomizer,
            fors: ForsSignature {
                trees: fors_trees.by_ref().take(k).map(|(tree, _)| tree).collect(),
            },
            ht: HtSignature {
                layers: (0..d)
                    .map(|_| XmssSig {
                        wots_sig: wots_sigs.next().expect("one WOTS+ signature per layer"),
                        auth_path: layer_trees.next().expect("one subtree per layer").auth_path,
                    })
                    .collect(),
            },
        })
        .collect();
    out
}

/// A call the workload made: its key, its messages, and its span.
type ReplayedCall<'a> = (&'a SigningKey, Vec<&'a [u8]>, Option<u32>);

/// Brings `engine` to the cache state the workload signs in and runs the
/// code once, without spending the requests' own cold first use.
fn prepare(inputs: &Inputs<'_>, engine: &HeroSigner) {
    if inputs.hot {
        let sk = &inputs.requests[0].0;
        let msgs: Vec<Msg> = inputs.requests.iter().map(|(_, m)| *m).collect();
        engine
            .sign_batch(sk, &refs(&msgs))
            .expect("the warm-up signs");
    } else {
        let (stranger, _) = gen::keypair(inputs.run.seed, u64::MAX);
        engine
            .sign(&stranger, b"warm-up")
            .expect("the warm-up signs");
    }
}

/// Replays the workload's first calls through the planner on one worker
/// and on all, through the stage kernels, and through the verifiers. The
/// three replays of a call run back to back, so that a slow stretch of
/// the host hits all three; every figure is a median over the calls.
/// Returns up to `BATCH` `(message, signature)` pairs under the first
/// request's key, for the rungs above.
fn replays(
    inputs: &Inputs<'_>,
    params: &Params,
    core_rate: f64,
    m: &mut Metrics,
) -> Vec<(Msg, Signature)> {
    let log = inputs.log;
    let one = HeroSigner::builder(rtx_4090(), *params)
        .workers(1)
        .build()
        .expect("a one-worker engine builds");
    let all = default_engine();
    prepare(inputs, &one);
    prepare(inputs, &all);

    let calls: Vec<ReplayedCall<'_>> = if inputs.batched {
        let msgs: Vec<&[u8]> = inputs.requests.iter().map(|(_, msg)| &msg[..]).collect();
        let parent = inputs.parents.first().copied();
        vec![(&inputs.requests[0].0, msgs, parent); inputs.run.scale.replay_batches]
    } else {
        inputs
            .requests
            .iter()
            .enumerate()
            .map(|(i, (sk, msg))| (sk, vec![&msg[..]], inputs.parents.get(i).copied()))
            .collect()
    };
    let per_call = calls[0].1.len() as f64;
    let signatures = per_call * calls.len() as f64;

    let sign_on = |engine: &HeroSigner, name, i: usize| {
        let (sk, msgs, parent) = &calls[i];
        let (sigs, elapsed, _) = log.timed(At::replay(*parent, i as u64, "plan", name), || {
            engine.sign_batch(sk, msgs).expect("the replay signs")
        });
        (sigs, elapsed.as_secs_f64())
    };
    let (mut one_s, mut all_s) = (Vec::new(), Vec::new());
    let (mut fors_s, mut tree_s, mut wots_s, mut stages_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut counts = StageReplay::default();
    let (mut allocs, mut alloc_bytes) = (0, 0);
    let mut last_sigs = Vec::new();
    for (i, (sk, msgs, parent)) in calls.iter().enumerate() {
        let (allocs0, bytes0) = host::alloc_snapshot();
        let (sigs, one_time) = sign_on(&one, "sign_w1", i);
        let (allocs1, bytes1) = host::alloc_snapshot();
        allocs += allocs1 - allocs0;
        alloc_bytes += bytes1 - bytes0;
        one_s.push(one_time);
        all_s.push(sign_on(&all, "sign_wN", i).1);
        let part = stage_replay(log, *parent, i as u64, &all, sk, msgs, inputs.hot);
        assert!(
            part.sigs == sigs,
            "the stage replay and the planner disagree on the signature bytes"
        );
        fors_s.push(part.fors.as_secs_f64());
        tree_s.push(part.tree.as_secs_f64());
        wots_s.push(part.wots.as_secs_f64());
        stages_s.push((part.fors + part.tree + part.wots).as_secs_f64());
        counts.fors_compressions += part.fors_compressions;
        counts.tree_compressions += part.tree_compressions;
        counts.wots_compressions += part.wots_compressions;
        counts.verify_compressions += part.verify_compressions;
        last_sigs = sigs;
    }
    m.set("alloc.count_per_sign", allocs as f64 / signatures);
    m.set("alloc.bytes_per_sign", alloc_bytes as f64 / signatures);
    m.set("plan.sign_w1_per_s", per_call / stats::median(&one_s));
    m.set(
        "plan.sign_parallel_efficiency",
        stats::median(&one_s) / stats::median(&all_s) / all.workers() as f64,
    );
    m.set(
        "plan.self_share",
        1.0 - stats::median(&stages_s) / stats::median(&one_s),
    );
    let stage_sum = stats::median(&fors_s) + stats::median(&tree_s) + stats::median(&wots_s);
    for (times, compressions, [ms_name, share, count_name, efficiency]) in [
        (
            &fors_s,
            counts.fors_compressions,
            [
                "stage.fors_sign_ms",
                "stage.fors_sign_share",
                "stage.fors_sign_compressions",
                "stage.fors_sign_efficiency",
            ],
        ),
        (
            &tree_s,
            counts.tree_compressions,
            [
                "stage.tree_sign_ms",
                "stage.tree_sign_share",
                "stage.tree_sign_compressions",
                "stage.tree_sign_efficiency",
            ],
        ),
        (
            &wots_s,
            counts.wots_compressions,
            [
                "stage.wots_sign_ms",
                "stage.wots_sign_share",
                "stage.wots_sign_compressions",
                "stage.wots_sign_efficiency",
            ],
        ),
    ] {
        let seconds = stats::median(times);
        let per_signature = compressions as f64 / signatures;
        m.set(ms_name, seconds * 1e3 / per_call);
        m.set(share, seconds / stage_sum);
        m.set(count_name, per_signature);
        m.set(efficiency, per_signature * per_call / seconds / core_rate);
    }
    m.set(
        "stage.verify_compressions",
        counts.verify_compressions as f64 / signatures,
    );

    // Verification needs many signatures under one key: the first
    // request's. A batched workload has them already.
    let (sk, _) = &inputs.requests[0];
    let vk = sk.verifying_key();
    let msgs: Vec<Msg> = inputs
        .requests
        .iter()
        .take(BATCH)
        .map(|(_, m)| *m)
        .collect();
    let corpus_sigs = if inputs.batched {
        last_sigs
    } else {
        all.sign_batch(sk, &refs(&msgs))
            .expect("the verify corpus signs")
    };
    let msg_refs = refs(&msgs);
    let at = |name| At::probe("stage", name);
    let (allocs0, _) = host::alloc_snapshot();
    let scalar_ms: Vec<f64> = msg_refs
        .iter()
        .zip(&corpus_sigs)
        .map(|(msg, sig)| {
            let (verdict, elapsed, _) = log.timed(at("verify"), || vk.verify(msg, sig));
            assert!(verdict.is_ok(), "verify rejects a replayed signature");
            ms(elapsed)
        })
        .collect();
    let (allocs1, _) = host::alloc_snapshot();
    m.set("stage.verify_ms", stats::median(&scalar_ms));
    m.set(
        "alloc.count_per_verify",
        (allocs1 - allocs0) as f64 / msgs.len() as f64,
    );
    let sig_refs: Vec<&Signature> = corpus_sigs.iter().collect();
    let (verdicts, many_s) = median_time(log, at("verify_many"), || {
        vk.verify_many(&msg_refs, &sig_refs)
    });
    assert!(
        verdicts.iter().all(Result::is_ok),
        "verify_many rejects a replayed signature"
    );
    m.set("stage.verify_many_ms", many_s * 1e3 / msgs.len() as f64);
    let verify_on = |engine: &HeroSigner, name| {
        let (verdicts, seconds) = median_time(log, At::probe("plan", name), || {
            engine
                .verify_batch(&vk, &msg_refs, &corpus_sigs)
                .expect("lengths agree")
        });
        assert!(
            verdicts.iter().all(|v| v.is_valid()),
            "verify_batch rejects a replayed signature"
        );
        seconds
    };
    m.set(
        "plan.verify_parallel_efficiency",
        verify_on(&one, "verify_w1") / verify_on(&all, "verify_wN") / all.workers() as f64,
    );

    let keygens: Vec<f64> = (0..8)
        .map(|i| {
            ms(log
                .timed(at("keygen"), || {
                    gen::keypair(inputs.run.seed, u64::MAX - 1 - i)
                })
                .1)
        })
        .collect();
    m.set("stage.keygen_ms", stats::median(&keygens));

    msgs.into_iter().zip(corpus_sigs).collect()
}

/// Leaves the first request's key warm in `engine`'s cache.
fn executor_and_cache(inputs: &Inputs<'_>, engine: &HeroSigner, m: &mut Metrics) {
    let log = inputs.log;
    let params = engine.params();
    let nodes64 = plan::summarize(params, BATCH, &PlanShape::for_batch(BATCH)).nodes();
    m.set("plan.nodes_batch64", nodes64 as f64);
    m.set(
        "plan.nodes_batch1",
        plan::summarize(params, 1, &PlanShape::for_batch(1)).nodes() as f64,
    );
    // What the pool charges per node when the node does nothing: a graph
    // as large as one 64-message plan, no edges.
    let per_node_us: Vec<f64> = (0..9)
        .map(|_| {
            let mut graph = TaskGraph::new();
            for _ in 0..nodes64 {
                graph.task(|| {});
            }
            let (_, elapsed, _) = log.timed(At::probe("executor", "run_noop_graph"), || {
                engine
                    .runtime()
                    .run(graph)
                    .expect("a graph without edges has no cycle")
            });
            elapsed.as_secs_f64() * 1e6 / nodes64 as f64
        })
        .collect();
    m.set("executor.noop_node_us", stats::median(&per_node_us));

    let (sk, _) = &inputs.requests[0];
    let (built, elapsed, _) = log.timed(At::probe("cache", "warm_key"), || {
        engine.warm_key(sk).expect("the key matches the engine")
    });
    assert!(built > 0, "warm_key built nothing on an empty cache");
    m.set("cache.warm_key_ms", ms(elapsed));
}

/// The coalescing service, one caller at a time: what a request pays for
/// crossing it, over calling the engine directly with the same message.
fn service(inputs: &Inputs<'_>, engine: &HeroSigner, corpus: &[(Msg, Signature)], m: &mut Metrics) {
    let log = inputs.log;
    let (sk, _) = &inputs.requests[0];
    let vk = sk.verifying_key();
    let svc = SignService::start(
        Arc::new(engine.clone()),
        sk.clone(),
        ServiceConfig::default(),
    )
    .expect("the default service starts");
    let at = |name| At::probe("service", name);
    let (mut direct_sign, mut via_sign, mut direct_verify, mut via_verify) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (msg, sig) in corpus {
        via_sign.push(ms(log
            .timed(at("submit.wait"), || {
                svc.submit(msg.to_vec())
                    .expect("accepted")
                    .wait()
                    .expect("signed")
            })
            .1));
        direct_sign.push(ms(log
            .timed(at("engine.sign"), || engine.sign(sk, msg).expect("signed"))
            .1));
        let (verdict, elapsed, _) = log.timed(at("submit_verify.wait"), || {
            svc.submit_verify(msg.to_vec(), sig.clone())
                .expect("accepted")
                .wait()
                .expect("answered")
        });
        assert!(
            verdict.is_valid(),
            "the service rejects a replayed signature"
        );
        via_verify.push(ms(elapsed));
        direct_verify.push(ms(log
            .timed(at("engine.verify_batch"), || {
                engine
                    .verify_batch(&vk, &[&msg[..]], std::slice::from_ref(sig))
                    .expect("lengths agree")
            })
            .1));
    }
    let stats = svc.stats();
    svc.shutdown();
    m.set(
        "service.sign_overhead_p50_ms",
        stats::median(&via_sign) - stats::median(&direct_sign),
    );
    m.set(
        "service.verify_overhead_p50_ms",
        stats::median(&via_verify) - stats::median(&direct_verify),
    );
    m.set(
        "service.sign_mean_batch",
        stats.completed as f64 / stats.batches.max(1) as f64,
    );
    m.set(
        "service.verify_mean_batch",
        stats.verify_completed as f64 / stats.verify_batches.max(1) as f64,
    );
    m.set(
        "service.max_batch_observed",
        stats
            .max_batch_observed
            .max(stats.verify_max_batch_observed) as f64,
    );
}

/// Signature and frame codecs on a real 17 KB signature.
fn codec(
    log: &SpanLog,
    seconds: f64,
    params: &Params,
    corpus: &[(Msg, Signature)],
    m: &mut Metrics,
) {
    let (msg, sig) = &corpus[0];
    let bytes = sig.to_bytes(params);
    let us_per_call = |per_s: f64| 1e6 / per_s;
    m.set(
        "sig.to_bytes_us",
        us_per_call(rate(
            log,
            At::probe("sig", "to_bytes"),
            seconds,
            1,
            16,
            || {
                black_box(sig.to_bytes(params));
            },
        )),
    );
    m.set(
        "sig.from_bytes_us",
        us_per_call(rate(
            log,
            At::probe("sig", "from_bytes"),
            seconds,
            1,
            16,
            || {
                black_box(Signature::from_bytes(params, &bytes).expect("round trip"));
            },
        )),
    );
    let response = wire::Response {
        id: 1,
        result: Ok(bytes.clone()),
    };
    m.set(
        "wire.encode_response_us",
        us_per_call(rate(
            log,
            At::probe("wire", "encode_response"),
            seconds,
            1,
            16,
            || {
                black_box(wire::encode_response(&response));
            },
        )),
    );
    let mut payload = Vec::new();
    wire::put_bytes(&mut payload, msg);
    wire::put_bytes(&mut payload, &bytes);
    let frame = wire::encode_request(&wire::Request {
        id: 1,
        tenant: "bench".to_string(),
        op: wire::Op::Verify,
        payload,
        deadline_ms: None,
    });
    let body = &frame[4..]; // after the length prefix
    m.set(
        "wire.decode_request_us",
        us_per_call(rate(
            log,
            At::probe("wire", "decode_request"),
            seconds,
            1,
            16,
            || {
                black_box(wire::decode_request(body).expect("a frame this crate encoded"));
            },
        )),
    );
}

/// The GPU model and the tuning search: off the runtime path. The first
/// is deterministic and must not move unless the model is the subject;
/// the second is the part of engine construction that `setup_s` pays.
fn model(log: &SpanLog, engine: &HeroSigner, m: &mut Metrics) {
    let params = engine.params();
    let report = engine
        .simulate(PipelineOptions::new(1024).batch_size(BATCH as u32))
        .expect("the default pipeline options are valid");
    m.set("sim.sign_kops_128f", report.kops);
    let options = TuningOptions {
        hash: params.preferred_alg(),
        ..TuningOptions::default()
    };
    let searches: Vec<f64> = (0..5)
        .map(|_| {
            let (found, elapsed, _) = log.timed(At::probe("tuning", "tune_auto"), || {
                hero_sign::tune_auto(&rtx_4090(), params, &options)
            });
            assert!(found.is_ok(), "the 128f search finds a candidate");
            ms(elapsed)
        })
        .collect();
    m.set("tuning.search_ms", stats::median(&searches));
}
