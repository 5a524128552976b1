//! Cross-crate tests of the public API: `HeroSigner`, its fallible
//! builder, the typed `HeroError`, and `PipelineOptions`.

use hero_gpu_sim::device::rtx_4090;
use hero_sign::{HeroError, HeroSigner, LaunchPolicy, PipelineOptions, SimModel, VerifyOutcome};
use hero_sphincs::params::Params;
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

fn tiny_shake_params() -> Params {
    let mut p = Params::shake_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

/// The signer the service and the server hold.
fn signer(params: Params) -> HeroSigner {
    HeroSigner::builder(rtx_4090(), params)
        .workers(4)
        .build()
        .unwrap()
}

/// Signs three messages through `signer`'s batch, verifies them through
/// its batch and through the verifying key, and holds the bytes to the
/// scalar reference, a second implementation that shares nothing with
/// the planner.
fn signs_the_reference_bytes(signer: &HeroSigner, seed: u64) -> hero_sphincs::SigningKey {
    let mut rng = StdRng::seed_from_u64(seed);
    let (sk, vk) = hero_sphincs::keygen(*signer.params(), &mut rng).unwrap();
    let msgs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 24]).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let sigs = signer.sign_batch(&sk, &refs).unwrap();
    let verdicts = signer.verify_batch(&vk, &refs, &sigs).unwrap();
    assert_eq!(verdicts, vec![VerifyOutcome::Valid; refs.len()]);
    for (m, s) in refs.iter().zip(&sigs) {
        vk.verify(m, s).unwrap();
        assert_eq!(*s, reference::sign(&sk, m), "byte for byte");
        reference::verify(&vk, m, s).unwrap();
    }
    sk
}

#[test]
fn hero_signer_signs_shake_shapes_to_the_reference_bytes() {
    // The SHAKE half of the parameter family through the whole stack:
    // keygen yields a SHAKE-256 key for a shake shape, and the planned
    // signer produces the scalar reference's bytes.
    use hero_sphincs::hash::HashAlg;
    let sk = signs_the_reference_bytes(&signer(tiny_shake_params()), 23);
    assert_eq!(sk.alg(), HashAlg::Shake256, "shape implies primitive");
}

#[test]
fn hero_signer_signs_the_reference_bytes() {
    let params = tiny_params();
    let signer = signer(params);
    assert_eq!(signer.params(), &params);
    signs_the_reference_bytes(&signer, 11);
}

#[test]
fn builder_reports_invalid_params_instead_of_panicking() {
    let mut bad = Params::sphincs_128f();
    bad.d = 0;
    match HeroSigner::builder(rtx_4090(), bad).build() {
        Err(HeroError::InvalidParams(what)) => assert!(what.contains("d="), "{what}"),
        other => panic!("expected InvalidParams, got {other:?}"),
    }
}

#[test]
fn hero_signer_answers_foreign_keys_with_key_mismatch() {
    let engine_params = tiny_params();
    let mut key_params = engine_params;
    key_params.k = 9;
    let mut rng = StdRng::seed_from_u64(13);
    let (sk, vk) = hero_sphincs::keygen(key_params, &mut rng).unwrap();

    let signer = signer(engine_params);
    match signer.sign(&sk, b"foreign key") {
        Err(HeroError::KeyMismatch(m)) => {
            assert_eq!(m.engine, engine_params);
            assert_eq!(m.key, key_params);
        }
        other => panic!("expected KeyMismatch, got {other:?}"),
    }
    let sig = sk.sign(b"foreign key");
    let verdicts = signer.verify_batch(&vk, &[b"foreign key"], std::slice::from_ref(&sig));
    assert!(
        matches!(verdicts, Err(HeroError::KeyMismatch(_))),
        "expected KeyMismatch, got {verdicts:?}"
    );
}

#[test]
fn verification_failures_are_typed() {
    let params = tiny_params();
    let signer = signer(params);
    let mut rng = StdRng::seed_from_u64(17);
    let (sk, vk) = hero_sphincs::keygen(params, &mut rng).unwrap();
    let sig = signer.sign(&sk, b"payload").unwrap();
    assert!(matches!(
        vk.verify(b"tampered payload", &sig),
        Err(hero_sphincs::sign::SignError::VerificationFailed)
    ));
    assert_eq!(
        signer
            .verify_batch(&vk, &[b"tampered payload"], std::slice::from_ref(&sig))
            .unwrap(),
        [VerifyOutcome::Invalid]
    );
}

#[test]
fn pipeline_options_defaults_match_the_papers_workload() {
    let opts = PipelineOptions::default();
    assert_eq!(opts.messages, 1024);
    assert_eq!(opts.batch_size, 512);
    assert_eq!(opts.streams, 4);
    assert_eq!(opts.launch, LaunchPolicy::Auto);
    assert_eq!(opts.pcie_msg_bytes, None);
    assert!(opts.validate().is_ok());

    // `new` keeps every default except the message count — and shrinks
    // the default batch to the workload so small workloads validate.
    assert_eq!(
        PipelineOptions::new(64),
        PipelineOptions {
            messages: 64,
            batch_size: 64,
            ..opts
        }
    );
    assert!(PipelineOptions::new(64).validate().is_ok());
    // Large workloads keep the paper's 512-message batch.
    assert_eq!(PipelineOptions::new(4096).batch_size, 512);
}

#[test]
fn launch_policy_overrides_the_engine_config_per_simulation() {
    let model = SimModel::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
    assert!(model.config().graph);
    let opts = PipelineOptions::new(1024).batch_size(128);
    let auto = model.simulate(opts).unwrap();
    let graph = model.simulate(opts.launch(LaunchPolicy::Graph)).unwrap();
    let streams = model.simulate(opts.launch(LaunchPolicy::Streams)).unwrap();
    // Auto follows the model's graph config.
    assert_eq!(auto.launch_overhead_us, graph.launch_overhead_us);
    // Stream replay launches each kernel from the host instead of one
    // graph per batch.
    assert!(streams.launch_overhead_us > graph.launch_overhead_us);
}

#[test]
fn oversized_batches_are_typed_errors_not_silent_clamps() {
    // A batch larger than the workload used to be clamped silently; it
    // is now an InvalidOptions error naming both numbers, so a
    // misconfigured dispatcher hears about it instead of benchmarking
    // the wrong shape.
    let model = SimModel::hero(rtx_4090(), Params::sphincs_128f()).unwrap();
    let err = model
        .simulate(PipelineOptions::new(64).batch_size(4096))
        .unwrap_err();
    match err {
        HeroError::InvalidOptions(what) => {
            assert!(what.contains("4096") && what.contains("64"), "{what}");
        }
        other => panic!("expected InvalidOptions, got {other:?}"),
    }
    // The exact-fit workload still simulates.
    model
        .simulate(PipelineOptions::new(64).batch_size(64))
        .unwrap();
}
