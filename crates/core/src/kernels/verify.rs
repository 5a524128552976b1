//! Batch signature **verification** on the GPU model (extension beyond
//! the paper, which accelerates generation only).
//!
//! Verification is far lighter than signing — one FORS leaf + path per
//! tree and one WOTS+ `pk_from_sig` chain completion per layer, no tree
//! builds — but high-throughput consumers (block validators, update
//! servers) batch-verify too. The kernel decomposition mirrors signing:
//! chains and trees are independent, one block per message.
//!
//! The functional side is [`crate::plan::verify_batch`]: the batch is
//! spread over the persistent worker pool, one node per group of
//! signatures, each running
//! [`hero_sphincs::VerifyingKey::verify_many`] on its group — the same
//! typed [`VerifyOutcome`] verdicts, bit for bit, that scalar
//! [`hero_sphincs::VerifyingKey::verify`] gives signature by signature.

use crate::kernels::{calib, KernelConfig};
use crate::ptx::{self, KernelKind};
use crate::workload;

use hero_gpu_sim::device::DeviceProps;
use hero_gpu_sim::kernel::KernelDesc;
use hero_gpu_sim::occupancy::BlockResources;

use hero_sphincs::params::Params;
use hero_sphincs::sign::SignError;

/// Per-message verdict of a batched verification.
///
/// A mixed batch must report exactly *which* indices failed, and why —
/// a single pass/fail bit over the whole batch forces callers to
/// re-verify sequentially to locate the bad signature. The three
/// variants split the two distinct failure modes:
///
/// * [`VerifyOutcome::Invalid`] — the signature is well-formed, the
///   full root recomputation ran, and the recovered root does not match
///   the public key (a forgery, tampering, or the wrong key).
/// * [`VerifyOutcome::Malformed`] — the signature failed the shape
///   gate ([`hero_sphincs::Signature::check_shape`]) and never reached
///   root recomputation; the payload says which dimension was off.
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
/// let mut rng = StdRng::seed_from_u64(7);
/// let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
///
/// let msgs: Vec<&[u8]> = vec![b"pay alice", b"pay bob"];
/// let mut sigs: Vec<_> = msgs.iter().map(|m| sk.sign(m)).collect();
/// sigs[1].randomizer[0] ^= 1; // tamper with the second signature
///
/// let exec = Executor::new(2).unwrap();
/// let outcomes = plan::verify_batch(&vk, &msgs, &sigs, &exec).unwrap();
/// assert_eq!(outcomes[0], VerifyOutcome::Valid);
/// assert_eq!(outcomes[1], VerifyOutcome::Invalid);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The signature verified under the key.
    Valid,
    /// Well-formed signature whose recomputed hypertree root does not
    /// match the public key.
    Invalid,
    /// The signature failed the shape gate before any hashing; the
    /// string names the offending dimension.
    Malformed(String),
}

impl VerifyOutcome {
    /// `true` only for [`VerifyOutcome::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, VerifyOutcome::Valid)
    }

    /// Folds a scalar [`hero_sphincs::VerifyingKey::verify`] result into
    /// the typed outcome (the bridge between the substrate's `Result`
    /// surface and the batch API).
    pub fn from_result(result: Result<(), SignError>) -> Self {
        match result {
            Ok(()) => VerifyOutcome::Valid,
            Err(SignError::VerificationFailed) => VerifyOutcome::Invalid,
            Err(SignError::MalformedSignature(what)) | Err(SignError::InvalidParams(what)) => {
                VerifyOutcome::Malformed(what)
            }
        }
    }
}

impl std::fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyOutcome::Valid => write!(f, "valid"),
            VerifyOutcome::Invalid => write!(f, "invalid"),
            VerifyOutcome::Malformed(what) => write!(f, "malformed ({what})"),
        }
    }
}

/// Expected compressions to verify one signature: FORS (k × (1 leaf-F +
/// log t path-H) + T_k) plus hypertree (d × (len chain completions
/// averaging (w-1)/2 steps + T_len + h' path-H)).
pub fn verify_expected_compressions(params: &Params) -> u64 {
    let f = workload::f_compressions(params);
    let h = workload::h_compressions(params);
    let fors = params.k as u64 * (f + params.log_t as u64 * h)
        + workload::t_l_compressions(params, params.k);
    let len = params.wots_len() as u64;
    let avg_chain_remainder = len * (params.w as u64 - 1) / 2;
    let ht = params.d as u64
        * (avg_chain_remainder * f
            + workload::t_l_compressions(params, params.wots_len())
            + params.tree_height() as u64 * h);
    fors + ht
}

/// Analytic descriptor for a batch-verification kernel over `messages`
/// signatures: one thread per WOTS+ chain / FORS tree, one block per
/// message (chains dominate, so geometry follows `WOTS+_Sign`).
pub fn describe(
    device: &DeviceProps,
    params: &Params,
    messages: u32,
    config: &KernelConfig,
) -> KernelDesc {
    let threads = ((params.d * params.wots_len() + params.k) as u32).min(1024);
    let mut regs = ptx::regs_per_thread(KernelKind::WotsSign, params, config.path);
    regs = regs.min(device.registers_per_sm / threads);
    let block = BlockResources {
        threads,
        regs_per_thread: regs,
        smem_bytes: 0,
    };

    let mut desc = KernelDesc::empty("Verify", messages, block);
    desc.ipc_factor = calib::WOTS_IPC;
    desc.active_thread_fraction = calib::WOTS_ACTIVE;

    let compressions = verify_expected_compressions(params) * messages as u64;
    desc.instr_total =
        ptx::compression_mix(KernelKind::WotsSign, params, config.path).scaled(compressions);
    desc.critical_path = ptx::compression_mix(KernelKind::WotsSign, params, config.path)
        .scaled(params.w as u64 + params.log_t as u64);

    desc.ro_placement = config.placement;
    // Verification streams the whole signature in from global memory.
    desc.gmem_bytes = params.sig_bytes() as u64 * messages as u64;
    desc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::verify_batch;
    use hero_gpu_sim::device::rtx_4090;
    use hero_gpu_sim::engine::simulate_kernel;
    use hero_gpu_sim::isa::Sha2Path;
    use hero_sphincs::Signature;
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
    fn verification_is_much_cheaper_than_signing() {
        for p in Params::fast_sets() {
            let sign = workload::total_sign_compressions(&p);
            let verify = verify_expected_compressions(&p);
            assert!(
                verify * 10 < sign,
                "{}: verify {verify} vs sign {sign}",
                p.name()
            );
        }
    }

    #[test]
    fn batch_verify_functional() {
        let mut rng = StdRng::seed_from_u64(77);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 16]).collect();
        let slices: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut sigs: Vec<Signature> = slices.iter().map(|m| sk.sign(m)).collect();

        let exec = hero_task_graph::Executor::new(4).unwrap();
        let results = verify_batch(&vk, &slices, &sigs, &exec).unwrap();
        assert!(results.iter().all(VerifyOutcome::is_valid));

        // Corrupt one signature: exactly that slot fails, others still pass.
        sigs[2].fors.trees[0].sk[0] ^= 1;
        let results = verify_batch(&vk, &slices, &sigs, &exec).unwrap();
        for (i, r) in results.iter().enumerate() {
            assert_eq!(!r.is_valid(), i == 2, "slot {i}");
        }
        assert_eq!(results[2], VerifyOutcome::Invalid);
    }

    /// Satellite regression: a mixed valid / invalid / malformed batch
    /// reports *which* indices failed and *how*, identically signature by
    /// signature (scalar `verify`), lane-batched (`verify_many`) and
    /// planned.
    #[test]
    fn mixed_batch_reports_failing_indices_across_flavors() {
        let mut rng = StdRng::seed_from_u64(79);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 12 + i as usize]).collect();
        let slices: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let mut sigs: Vec<Signature> = slices.iter().map(|m| sk.sign(m)).collect();

        // Slot 1: tampered FORS secret element → Invalid.
        sigs[1].fors.trees[0].sk[0] ^= 1;
        // Slot 3: truncated hypertree → Malformed, never hashed.
        sigs[3].ht.layers.pop();
        // Slot 4: flipped randomizer bit → digest walks a different
        // hypertree path → Invalid.
        sigs[4].randomizer[0] ^= 0x80;

        let scalar: Vec<VerifyOutcome> = slices
            .iter()
            .zip(&sigs)
            .map(|(msg, sig)| VerifyOutcome::from_result(vk.verify(msg, sig)))
            .collect();
        assert_eq!(scalar[0], VerifyOutcome::Valid);
        assert_eq!(scalar[1], VerifyOutcome::Invalid);
        assert_eq!(scalar[2], VerifyOutcome::Valid);
        assert!(
            matches!(scalar[3], VerifyOutcome::Malformed(_)),
            "{:?}",
            scalar[3]
        );
        assert_eq!(scalar[4], VerifyOutcome::Invalid);
        assert_eq!(scalar[5], VerifyOutcome::Valid);

        let refs: Vec<&Signature> = sigs.iter().collect();
        let lanes: Vec<VerifyOutcome> = vk
            .verify_many(&slices, &refs)
            .into_iter()
            .map(VerifyOutcome::from_result)
            .collect();
        assert_eq!(lanes, scalar, "lane-batched verdicts must match scalar");

        let exec = hero_task_graph::Executor::new(4).unwrap();
        let planned = verify_batch(&vk, &slices, &sigs, &exec).unwrap();
        assert_eq!(planned, scalar, "planned verdicts must match scalar");
    }

    #[test]
    fn outcome_display_and_helpers() {
        assert!(VerifyOutcome::Valid.is_valid());
        assert!(!VerifyOutcome::Invalid.is_valid());
        assert_eq!(VerifyOutcome::from_result(Ok(())), VerifyOutcome::Valid);
        assert_eq!(
            VerifyOutcome::from_result(Err(SignError::VerificationFailed)),
            VerifyOutcome::Invalid
        );
        let malformed = VerifyOutcome::from_result(Err(SignError::MalformedSignature("x".into())));
        assert_eq!(malformed, VerifyOutcome::Malformed("x".into()));
        assert_eq!(malformed.to_string(), "malformed (x)");
        assert_eq!(VerifyOutcome::Valid.to_string(), "valid");
        assert_eq!(VerifyOutcome::Invalid.to_string(), "invalid");
    }

    #[test]
    fn verify_kernel_simulates_fast() {
        let d = rtx_4090();
        for p in Params::fast_sets() {
            let cfg = KernelConfig::hero(Sha2Path::Native);
            let verify = simulate_kernel(&d, &describe(&d, &p, 1024, &cfg));
            assert!(verify.time_us.is_finite() && verify.time_us > 0.0);
            // Verification throughput dwarfs signing throughput.
            let kops = 1024.0 / verify.time_us * 1.0e3;
            assert!(kops > 100.0, "{}: verify at {kops} KOPS", p.name());
        }
    }

    #[test]
    fn mismatched_batch_lengths_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(78);
        let params = tiny_params();
        let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
        let sig = sk.sign(b"one");
        let exec = hero_task_graph::Executor::new(1).unwrap();
        let err = verify_batch(
            &vk,
            &[b"one".as_slice(), b"two".as_slice()],
            std::slice::from_ref(&sig),
            &exec,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                crate::HeroError::BatchMismatch {
                    messages: 2,
                    signatures: 1
                }
            ),
            "{err}"
        );
        // The empty batch is consistent, not mismatched — planned and
        // lane-batched alike.
        assert!(verify_batch(&vk, &[], &[], &exec).unwrap().is_empty());
        let none: [&[u8]; 0] = [];
        assert!(vk.verify_many(&none, &[]).is_empty());
    }
}
