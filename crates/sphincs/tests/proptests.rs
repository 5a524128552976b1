//! Property-based tests over the cryptographic substrate: hashing,
//! encodings, Merkle trees, WOTS+ and full signatures.

use hero_sphincs::address::{Address, AddressType};
use hero_sphincs::hash::{HashAlg, HashCtx};
use hero_sphincs::merkle;
use hero_sphincs::params::Params;
use hero_sphincs::sha256::{self, Sha256};
use hero_sphincs::{fors, reference, wots, Signature};
use proptest::prelude::*;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 4;
    p.d = 2;
    p.log_t = 3;
    p.k = 4;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha256_compression_count_formula(len in 0usize..2048) {
        prop_assert_eq!(
            sha256::compressions_for_len(len),
            (len + 9).div_ceil(64)
        );
    }

    #[test]
    fn mgf1_prefix_property(seed in proptest::collection::vec(any::<u8>(), 1..64), a in 1usize..200, b in 1usize..200) {
        let (short, long) = if a < b { (a, b) } else { (b, a) };
        let x = sha256::mgf1(&seed, short);
        let y = sha256::mgf1(&seed, long);
        prop_assert_eq!(&y[..short], &x[..]);
    }

    #[test]
    fn base_w_digits_in_range(msg in proptest::collection::vec(any::<u8>(), 16..64)) {
        let p = Params::sphincs_128f();
        let digits = wots::base_w(&p, &msg, 2 * msg.len().min(32));
        prop_assert!(digits.iter().all(|&d| d < p.w as u32));
    }

    #[test]
    fn wots_checksum_value_decreases_when_digits_grow(msg in proptest::collection::vec(any::<u8>(), 16..17), idx in 0usize..32) {
        // Raising any message digit strictly lowers the checksum *value*
        // (Σ w-1-dᵢ) — the WOTS+ one-time security argument: a forger who
        // advances a message chain must reverse a checksum chain.
        let p = Params::sphincs_128f();
        let digits = wots::base_w(&p, &msg, p.wots_len1());
        prop_assume!(digits[idx] < p.w as u32 - 1);
        let mut raised = digits.clone();
        raised[idx] += 1;
        // Reconstruct the checksum integers from the base-w digits.
        let value = |ds: &[u32]| ds.iter().fold(0u32, |acc, &d| (acc << p.log_w()) | d);
        let c0 = value(&wots::checksum(&p, &digits));
        let c1 = value(&wots::checksum(&p, &raised));
        prop_assert!(c1 < c0, "checksum value must shrink: {c0} -> {c1}");
    }

    #[test]
    fn address_compressed_is_injective_on_fields(
        layer in 0u32..8, tree in any::<u64>(), keypair in 0u32..512, height in 0u32..16, index in 0u32..65536
    ) {
        let mut a = Address::new();
        a.set_layer(layer);
        a.set_tree(tree);
        a.set_type(AddressType::Tree);
        a.set_tree_height(height);
        a.set_tree_index(index);
        a.set_keypair(keypair);

        let mut b = a;
        b.set_tree_index(index ^ 1);
        prop_assert_ne!(a.to_compressed_bytes(), b.to_compressed_bytes());
        let mut c = a;
        c.set_layer(layer + 1);
        prop_assert_ne!(a.to_compressed_bytes(), c.to_compressed_bytes());
    }

    #[test]
    fn merkle_roundtrip_random_leaves(height in 1usize..6, leaf_idx in 0u32..32, seed in any::<u64>()) {
        let leaf_idx = leaf_idx % (1 << height);
        let p = Params::sphincs_128f();
        let ctx = HashCtx::new(p, &seed.to_le_bytes().repeat(2));
        let adrs = Address::new();
        let leaf = |i: u32| {
            let mut v = vec![0u8; 16];
            v[..8].copy_from_slice(&(seed ^ i as u64).to_le_bytes());
            v
        };
        let job = merkle::TreeHashJob { leaf_idx, node_adrs: adrs, leaf_offset: 0 };
        let out = merkle::treehash_many(&ctx, height, &[job], |buf| {
            for (i, slot) in buf.chunks_exact_mut(16).enumerate() {
                slot.copy_from_slice(&leaf(i as u32));
            }
        }).remove(0);
        let climb = merkle::AuthPathJob {
            leaf: &leaf(leaf_idx),
            leaf_idx,
            auth_path: &out.auth_path,
            node_adrs: adrs,
            leaf_offset: 0,
        };
        let mut root = vec![0u8; 16];
        merkle::roots_from_auth_paths_many(&ctx, &[climb], &mut root);
        prop_assert_eq!(&root, &out.root);
        let rebuilt = reference::root_from_auth_path(&ctx, &leaf(leaf_idx), leaf_idx, &out.auth_path, &adrs, 0);
        prop_assert_eq!(rebuilt, out.root);
    }

    #[test]
    fn wots_sign_verify_random_messages(msg in proptest::collection::vec(any::<u8>(), 16..17), seed in any::<u64>()) {
        let p = Params::sphincs_128f();
        let ctx = HashCtx::new(p, &seed.to_le_bytes().repeat(2));
        let sk_seed = seed.to_be_bytes().repeat(2);
        let mut adrs = Address::new();
        adrs.set_keypair(3);
        let mut pk = vec![0u8; p.n];
        wots::pk_gen_many(&ctx, &sk_seed, &[adrs], &mut pk);
        let sig = wots::sign_many(&ctx, &[&msg], &sk_seed, &[adrs]).remove(0);
        prop_assert_eq!(&sig, &reference::wots_sign(&ctx, &msg, &sk_seed, &adrs));
        let mut recovered = vec![0u8; p.n];
        wots::pk_from_sig_many(&ctx, &[&sig], &[&msg], &[adrs], &mut recovered);
        prop_assert_eq!(&recovered, &pk);
        prop_assert_eq!(reference::wots_pk_from_sig(&ctx, &sig, &msg, &adrs), pk);
    }

    #[test]
    fn fors_indices_cover_digest_bits(md in proptest::collection::vec(any::<u8>(), 25..26)) {
        let p = Params::sphincs_128f();
        let indices = fors::message_to_indices(&p, &md);
        prop_assert_eq!(indices.len(), p.k);
        prop_assert!(indices.iter().all(|&i| (i as usize) < p.t()));
        // Determinism + sensitivity: flipping the first bit changes index 0.
        let mut flipped = md.clone();
        flipped[0] ^= 0x80;
        let other = fors::message_to_indices(&p, &flipped);
        prop_assert_ne!(indices[0], other[0]);
    }

    #[test]
    fn signature_bytes_roundtrip_random_messages(msg in proptest::collection::vec(any::<u8>(), 0..128), alg_idx in 0usize..3, seed in any::<u64>()) {
        let p = tiny_params();
        let alg = [HashAlg::Sha256, HashAlg::Sha512, HashAlg::Shake256][alg_idx];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let (sk, vk) = hero_sphincs::keygen_with_alg(p, alg, &mut rng).unwrap();
        let sig = sk.sign(&msg);
        prop_assert_eq!(&sig, &reference::sign(&sk, &msg));
        let bytes = sig.to_bytes(&p);
        let parsed = Signature::from_bytes(&p, &bytes).unwrap();
        prop_assert_eq!(&parsed, &sig);
        prop_assert!(vk.verify(&msg, &parsed).is_ok());
        prop_assert!(reference::verify(&vk, &msg, &parsed).is_ok());
    }

    #[test]
    fn batch_hash_apis_equal_scalar(
        param_idx in 0usize..4,
        alg_idx in 0usize..3,
        count in 1usize..25,
        seed in any::<u64>(),
    ) {
        // The multi-lane `*_many` APIs must be byte-identical to looping
        // the scalar single-call APIs, for every parameter set (128f /
        // 128s / 192f / 256f), all three hash algs (the SHA-256 and
        // SHAKE-256 lanes plus scalar SHA-512), and batch sizes that
        // are not lane multiples.
        let params = [
            Params::sphincs_128f(),
            Params::sphincs_128s(),
            Params::sphincs_192f(),
            Params::sphincs_256f(),
        ][param_idx];
        let alg = [HashAlg::Sha256, HashAlg::Sha512, HashAlg::Shake256][alg_idx];
        let n = params.n;
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pk_seed = vec![0u8; n];
        rng.fill_bytes(&mut pk_seed);
        let ctx = HashCtx::with_alg(params, &pk_seed, alg);

        let adrs: Vec<Address> = (0..count)
            .map(|_| {
                let mut a = Address::new();
                a.set_layer(rng.next_u32() % 8);
                a.set_tree(rng.next_u64());
                a.set_type(AddressType::ForsTree);
                a.set_keypair(rng.next_u32() % 512);
                a.set_tree_height(rng.next_u32() % 16);
                a.set_tree_index(rng.next_u32());
                a
            })
            .collect();
        let mut msgs = vec![0u8; count * n];
        rng.fill_bytes(&mut msgs);
        let mut pairs = vec![0u8; count * 2 * n];
        rng.fill_bytes(&mut pairs);
        let mut sk_seed = vec![0u8; n];
        rng.fill_bytes(&mut sk_seed);

        let mut out = vec![0u8; count * n];
        ctx.f_many(&adrs, &msgs, &mut out);
        for i in 0..count {
            prop_assert_eq!(&out[i * n..(i + 1) * n], &ctx.f(&adrs[i], &msgs[i * n..(i + 1) * n])[..]);
        }
        ctx.h_many(&adrs, &pairs, &mut out);
        for i in 0..count {
            let expected = ctx.h(
                &adrs[i],
                &pairs[2 * i * n..(2 * i + 1) * n],
                &pairs[(2 * i + 1) * n..(2 * i + 2) * n],
            );
            prop_assert_eq!(&out[i * n..(i + 1) * n], &expected[..]);
        }
        ctx.prf_many(&adrs, &sk_seed, &mut out);
        for i in 0..count {
            prop_assert_eq!(&out[i * n..(i + 1) * n], &ctx.prf(&adrs[i], &sk_seed)[..]);
        }
    }

    #[test]
    fn flat_treehash_equals_scalar_oracle(
        param_idx in 0usize..4,
        alg_idx in 0usize..3,
        height in 1usize..6,
        leaf_sel in any::<u32>(),
        tree_off in 0u32..8,
        seed in any::<u64>(),
    ) {
        // The flat-buffer batched treehash (root AND auth path) must be
        // byte-identical to the reference's Vec<Vec<u8>> formulation with
        // per-node `H` calls and cloned siblings.
        let params = [
            Params::sphincs_128f(),
            Params::sphincs_128s(),
            Params::sphincs_192f(),
            Params::sphincs_256f(),
        ][param_idx];
        let alg = [HashAlg::Sha256, HashAlg::Sha512, HashAlg::Shake256][alg_idx];
        let n = params.n;
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pk_seed = vec![0u8; n];
        rng.fill_bytes(&mut pk_seed);
        let ctx = HashCtx::with_alg(params, &pk_seed, alg);

        let num_leaves = 1usize << height;
        let leaf_idx = leaf_sel % num_leaves as u32;
        let leaf_offset = tree_off * num_leaves as u32;
        let mut leaves = vec![0u8; num_leaves * n];
        rng.fill_bytes(&mut leaves);
        let mut base = Address::new();
        base.set_tree(rng.next_u64());
        base.set_type(AddressType::Tree);

        let (oracle_root, oracle_path) = reference::treehash(
            &ctx, height, leaf_idx, &base, leaf_offset,
            |i| leaves[i as usize * n..][..n].to_vec(),
        );

        let job = merkle::TreeHashJob { leaf_idx, node_adrs: base, leaf_offset };
        let out = merkle::treehash_many(&ctx, height, &[job], |buf| {
            buf.copy_from_slice(&leaves);
        });
        prop_assert_eq!(&out[0].root, &oracle_root);
        prop_assert_eq!(&out[0].auth_path, &oracle_path);
        // The retained pyramid serves the same leaf the same bytes.
        let kept = merkle::treehash_many_levels(&ctx, height, &[job], |buf| {
            buf.copy_from_slice(&leaves);
        });
        prop_assert_eq!(kept[0].output_for(leaf_idx), out[0].clone());
    }

    #[test]
    fn tampering_any_byte_breaks_verification(pos_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let p = tiny_params();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (sk, vk) = hero_sphincs::keygen(p, &mut rng).unwrap();
        let msg = b"property tamper";
        let mut bytes = sk.sign(msg).to_bytes(&p);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 0x01;
        let parsed = Signature::from_bytes(&p, &bytes).unwrap();
        prop_assert!(vk.verify(msg, &parsed).is_err(), "flip at {} survived", pos);
        prop_assert!(reference::verify(&vk, msg, &parsed).is_err(), "flip at {} survived the reference", pos);
    }
}
