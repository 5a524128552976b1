//! The subcommands. Each takes parsed [`crate::args::Args`] and returns
//! printable output, performing file I/O at the edges only.

use crate::args::Args;
use crate::{parse_alg, parse_device, parse_params, CliError, CmdResult};

use hero_server::keyfile;
use hero_sign::service::{ServiceConfig, SignService, SignTicket};
use hero_sign::{HeroSigner, PipelineOptions, SimModel};
use hero_sphincs::hash::HashAlg;
use hero_sphincs::Signature;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fs;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatches a parsed command line.
///
/// # Errors
///
/// A typed [`CliError`] on any failure (bad args, I/O, verification).
pub fn run(args: &Args) -> CmdResult {
    match args.command.as_str() {
        "keygen" => keygen(args),
        "sign" => sign(args),
        "verify" => verify(args),
        "export-pubkey" => export_pubkey(args),
        "tune" => tune(args),
        "simulate" => simulate(args),
        "throughput" => throughput(args),
        "serve" => serve(args),
        "remote-sign" => remote_sign(args),
        "devices" => devices(),
        "help" | "--help" => Ok(crate::USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n\n{}",
            crate::USAGE
        ))),
    }
}

fn keygen(args: &Args) -> CmdResult {
    let params = parse_params(args.get("params")?.unwrap_or("128f"))?;
    // Default to the shape's preferred primitive: shake-* shapes produce
    // SHAKE-256 keys unless --alg overrides.
    let alg = match args.get("alg")? {
        Some(label) => parse_alg(label)?,
        None => params.preferred_alg(),
    };
    let out = args.require("out")?;

    let mut rng = match args.get_number("seed")? {
        Some(seed) => StdRng::seed_from_u64(seed),
        None => StdRng::from_entropy(),
    };
    let mut sk_seed = vec![0u8; params.n];
    let mut sk_prf = vec![0u8; params.n];
    let mut pk_seed = vec![0u8; params.n];
    rng.fill_bytes(&mut sk_seed);
    rng.fill_bytes(&mut sk_prf);
    rng.fill_bytes(&mut pk_seed);

    let text = keyfile::encode(&params, alg, &sk_seed, &sk_prf, &pk_seed);
    // Validate by reconstructing (also computes the public root).
    let (_, vk) = keyfile::decode(&text)?;
    fs::write(out, &text).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "wrote {} key to {out}\npublic root: {}",
        params.name(),
        keyfile::to_hex(vk.pk_root())
    ))
}

/// Refuses a `HERO_WORKERS` that sizes no pool, naming it: every
/// command that starts a worker pool checks it before it does.
fn check_env_workers() -> Result<(), CliError> {
    hero_sign::par::env_workers()
        .map(drop)
        .map_err(|e| CliError::Usage(format!("{}: {e}", hero_sign::par::ENV_VAR)))
}

/// The signer for `params`, on `--workers` workers (default: the
/// machine's).
fn signer(args: &Args, params: hero_sphincs::Params) -> Result<HeroSigner, CliError> {
    check_env_workers()?;
    let mut builder = HeroSigner::builder(hero_gpu_sim::device::rtx_4090(), params);
    if let Some(workers) = args.get_number("workers")? {
        builder = builder.workers(workers);
    }
    Ok(builder.build()?)
}

fn sign(args: &Args) -> CmdResult {
    let key_path = args.require("key")?;
    let msg_path = args.require("message")?;
    let out = args.require("out")?;

    let key_text = fs::read_to_string(key_path).map_err(|e| CliError::io(key_path, e))?;
    let (sk, _) = keyfile::decode(&key_text)?;
    let message = fs::read(msg_path).map_err(|e| CliError::io(msg_path, e))?;

    let params = *sk.params();
    let signature = signer(args, params)?.sign(&sk, &message)?;
    let bytes = signature.to_bytes(&params);
    fs::write(out, &bytes).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "signed {} bytes -> {} byte {} signature at {out}",
        message.len(),
        bytes.len(),
        params.name(),
    ))
}

fn export_pubkey(args: &Args) -> CmdResult {
    let key_path = args.require("key")?;
    let out = args.require("out")?;
    let key_text = fs::read_to_string(key_path).map_err(|e| CliError::io(key_path, e))?;
    let (_, vk) = keyfile::decode(&key_text)?;
    fs::write(out, keyfile::encode_public(&vk)).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "wrote public key ({} bytes) to {out}",
        vk.to_bytes().len()
    ))
}

fn verify(args: &Args) -> CmdResult {
    // Accept either a secret key file (--key) or a public-only file
    // (--pubkey) — verifiers should not need secrets on disk.
    let vk = match (args.get("pubkey")?, args.get("key")?) {
        (Some(pk_path), _) => {
            let text = fs::read_to_string(pk_path).map_err(|e| CliError::io(pk_path, e))?;
            keyfile::decode_public(&text)?
        }
        (None, Some(key_path)) => {
            let text = fs::read_to_string(key_path).map_err(|e| CliError::io(key_path, e))?;
            keyfile::decode(&text)?.1
        }
        (None, None) => {
            return Err(CliError::Usage(
                "verify needs --pubkey or --key".to_string(),
            ))
        }
    };

    // Batched spelling: --sigs a.sig,b.sig,... paired one-to-one with
    // --messages, or all over one --message.
    if let Some(sig_list) = args.get("sigs")? {
        return verify_many(args, &vk, sig_list);
    }

    let msg_path = args.require("message")?;
    let sig_path = args.require("sig")?;
    let message = fs::read(msg_path).map_err(|e| CliError::io(msg_path, e))?;
    let sig_bytes = fs::read(sig_path).map_err(|e| CliError::io(sig_path, e))?;

    let signature = Signature::from_bytes(vk.params(), &sig_bytes)?;
    vk.verify(&message, &signature)?;
    Ok("signature OK".to_string())
}

/// The batched `verify --sigs` body: every decodable signature goes
/// through the signer's batch verifier in one call (spread over its
/// executor in lane-batched groups),
/// and the report lists one verdict per file. Any verdict other than
/// `valid` fails the command after the full report is assembled.
fn verify_many(args: &Args, vk: &hero_sphincs::VerifyingKey, sig_list: &str) -> CmdResult {
    let sig_paths: Vec<&str> = sig_list.split(',').filter(|p| !p.is_empty()).collect();
    if sig_paths.is_empty() {
        return Err(CliError::Usage(
            "--sigs needs at least one path".to_string(),
        ));
    }
    let msg_paths: Vec<String> = match (args.get("messages")?, args.get("message")?) {
        (Some(list), _) => list
            .split(',')
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect(),
        (None, Some(single)) => vec![single.to_string(); sig_paths.len()],
        (None, None) => {
            return Err(CliError::Usage(
                "verify --sigs needs --messages or --message".to_string(),
            ))
        }
    };
    if msg_paths.len() != sig_paths.len() {
        return Err(CliError::Usage(format!(
            "{} signatures but {} messages",
            sig_paths.len(),
            msg_paths.len()
        )));
    }

    // Decode failures become per-file `malformed` verdicts instead of
    // aborting the batch — same contract as the server's verify-batch.
    let mut msgs: Vec<Vec<u8>> = Vec::with_capacity(sig_paths.len());
    let mut sigs: Vec<Signature> = Vec::new();
    let mut undecodable: Vec<Option<String>> = Vec::with_capacity(sig_paths.len());
    for (sig_path, msg_path) in sig_paths.iter().zip(&msg_paths) {
        msgs.push(fs::read(msg_path).map_err(|e| CliError::io(msg_path, e))?);
        let sig_bytes = fs::read(sig_path).map_err(|e| CliError::io(sig_path, e))?;
        match Signature::from_bytes(vk.params(), &sig_bytes) {
            Ok(sig) => {
                sigs.push(sig);
                undecodable.push(None);
            }
            Err(e) => undecodable.push(Some(e.to_string())),
        }
    }

    let live_msgs: Vec<&[u8]> = msgs
        .iter()
        .zip(&undecodable)
        .filter(|(_, bad)| bad.is_none())
        .map(|(m, _)| m.as_slice())
        .collect();
    let signer = signer(args, *vk.params())?;
    let mut outcomes = signer.verify_batch(vk, &live_msgs, &sigs)?.into_iter();

    let mut lines = Vec::with_capacity(sig_paths.len());
    let mut all_valid = true;
    for (sig_path, bad) in sig_paths.iter().zip(&undecodable) {
        let verdict = match bad {
            Some(what) => format!("malformed ({what})"),
            None => outcomes
                .next()
                .expect("one outcome per live signature")
                .to_string(),
        };
        if verdict != "valid" {
            all_valid = false;
        }
        lines.push(format!("{sig_path}: {verdict}"));
    }
    let report = lines.join("\n");
    if all_valid {
        Ok(format!("{report}\nall {} signatures OK", sig_paths.len()))
    } else {
        eprintln!("{report}");
        Err(CliError::Signature(
            hero_sphincs::sign::SignError::VerificationFailed,
        ))
    }
}

fn tune(args: &Args) -> CmdResult {
    let device = parse_device(args.get("device")?)?;
    let sets = match args.get("params")? {
        Some(label) => vec![parse_params(label)?],
        None => hero_sphincs::Params::fast_sets().to_vec(),
    };
    // --alg overrides the shape's default primitive.
    let hash = match args.get("alg")? {
        Some(label) => parse_alg(label)?,
        None => sets[0].preferred_alg(),
    };
    let opts = hero_sign::TuningOptions {
        smem_policy: if args.flag("dynamic-smem") {
            hero_gpu_sim::SmemPolicy::DynamicMax
        } else {
            hero_gpu_sim::SmemPolicy::Static
        },
        hash,
        ..hero_sign::TuningOptions::default()
    };

    let mut out = format!("Auto Tree Tuning on {} (Algorithm 1)\n", device.name);
    for p in sets {
        let r = hero_sign::tune_auto(&device, &p, &opts).map_err(hero_sign::HeroError::from)?;
        let b = r.best;
        out.push_str(&format!(
            "{}: T_set={} N_tree={} F={} U_T={:.3} U_S={:.3} smem={}B relax_depth={} ({} candidates)\n",
            p.name(),
            b.threads_per_set,
            b.trees_per_set,
            b.fused_sets,
            b.thread_utilization,
            b.smem_utilization,
            b.smem_bytes,
            b.relax_depth,
            r.candidates.len(),
        ));
    }
    Ok(out)
}

fn simulate(args: &Args) -> CmdResult {
    let device = parse_device(args.get("device")?)?;
    let params = parse_params(args.get("params")?.unwrap_or("128f"))?;
    let messages = args.get_u32("messages", 1024)?;
    // The *default* batch shrinks to the workload (an explicit --batch
    // larger than --messages is still a validation error).
    let opts = PipelineOptions::new(messages)
        .batch_size(args.get_u32("batch", 512.min(messages.max(1)))?)
        .streams(args.get_u32("streams", 4)? as usize);

    let hero = SimModel::hero(device.clone(), params)?;
    let baseline = SimModel::baseline(device.clone(), params)?;
    let h = hero.simulate(opts)?;
    let b = baseline.simulate(
        PipelineOptions::new(opts.messages)
            .batch_size(1)
            .streams(device.sm_count as usize),
    )?;
    let sel = hero.selection();

    Ok(format!(
        "device: {}\nparams: {}\nmessages: {} (batch {})\n\
         baseline: {:.2} KOPS ({:.0} us, launch overhead {:.1} us)\n\
         HERO:     {:.2} KOPS ({:.0} us, launch overhead {:.1} us)\n\
         speedup:  {:.2}x   launch-latency reduction: {:.1}x\n\
         SHA-2 paths: FORS={:?} TREE={:?} WOTS+={:?}\n",
        device.name,
        params.name(),
        opts.messages,
        opts.batch_size,
        b.kops,
        b.makespan_us,
        b.launch_overhead_us,
        h.kops,
        h.makespan_us,
        h.launch_overhead_us,
        h.kops / b.kops,
        b.launch_overhead_us / h.launch_overhead_us,
        sel.fors,
        sel.tree,
        sel.wots,
    ))
}

/// Drives the micro-batching [`SignService`] from N closed-loop client
/// threads and reports latency percentiles plus signs/sec, alongside a
/// looped single-message `sign` baseline on the same engine and worker
/// count — the CPU analogue of benchmarking the paper's stream pipeline
/// against per-message launches.
fn throughput(args: &Args) -> CmdResult {
    let smoke = args.flag("smoke");
    let params = if smoke {
        // Reduced shape so CI and quick local runs finish in seconds;
        // labeled in the output so numbers are never read as full-set.
        let mut p = parse_params(args.get("params")?.unwrap_or("128f"))?;
        p.h = 6;
        p.d = 3;
        p.log_t = 6;
        p.k = 8;
        p
    } else {
        parse_params(args.get("params")?.unwrap_or("128f"))?
    };
    let clients = args.get_u32("clients", 4)? as usize;
    let requests = args.get_u32("requests", if smoke { 8 } else { 32 })? as usize;
    if clients == 0 {
        return Err(CliError::Usage("--clients must be >= 1".to_string()));
    }
    if requests == 0 {
        return Err(CliError::Usage("--requests must be >= 1".to_string()));
    }

    let signer = Arc::new(signer(args, params)?);
    // Deterministic workload unless --seed says otherwise.
    let seed = args.get_u64("seed", 0x4845_524f)?;
    let (sk, vk) = hero_sphincs::keygen(params, &mut StdRng::seed_from_u64(seed))?;

    let mut config = ServiceConfig::default();
    config.max_batch = args.get_number("max-batch")?.unwrap_or(config.max_batch);

    // Baseline: one thread looping single-message sign on the same
    // signer (every message pays its own stage-graph fill/drain).
    let total = clients * requests;
    let baseline_msgs: Vec<Vec<u8>> = (0..total)
        .map(|i| format!("throughput baseline {i}").into_bytes())
        .collect();
    let baseline_start = Instant::now();
    for msg in &baseline_msgs {
        signer.sign(&sk, msg)?;
    }
    let baseline_secs = baseline_start.elapsed().as_secs_f64();
    let baseline_rate = total as f64 / baseline_secs;

    // Service: N closed-loop clients share the micro-batcher.
    let service = SignService::start(signer.clone(), sk.clone(), config)?;
    let service_start = Instant::now();
    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let service = &service;
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let msg = format!("throughput client {t} request {i}").into_bytes();
                        let begin = Instant::now();
                        let ticket = service.submit(msg).expect("service accepting");
                        let sig = ticket.wait().expect("service signs");
                        lats.push(begin.elapsed());
                        let _ = sig;
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let service_secs = service_start.elapsed().as_secs_f64();
    let service_rate = total as f64 / service_secs;
    let stats = service.stats();
    let summary = hero_sign::stats::LatencySummary::from_unsorted(latencies)
        .expect("at least one request was timed");

    // Spot-check before shutdown: service output verifies under the key.
    let check_msg = b"throughput spot check".to_vec();
    let check_sig = service
        .submit(check_msg.clone())
        .and_then(SignTicket::wait)?;
    vk.verify(&check_msg, &check_sig)?;
    service.shutdown();

    let cache = signer.cache_stats();
    Ok(format!(
        "throughput: {}{} | {} clients x {} requests\n\
         looped sign (1 thread): {:>10.1} signs/sec\n\
         coalesced service:      {:>10.1} signs/sec  ({:.2}x)\n\
         latency: {}\n\
         batches: {} (largest {}, avg {:.1} msgs/batch)\n\
         cache: {} hits / {} misses / {} evictions, {} resident bytes\n",
        params.name(),
        if smoke { " (reduced smoke shape)" } else { "" },
        clients,
        requests,
        baseline_rate,
        service_rate,
        service_rate / baseline_rate,
        summary.render_us(),
        stats.batches,
        stats.max_batch_observed,
        stats.completed as f64 / stats.batches.max(1) as f64,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.resident_bytes,
    ))
}

/// Builds and starts a [`hero_server::Server`] from `serve` options;
/// split from [`serve`] so tests can drive a live server without
/// touching stdin.
pub(crate) fn start_server(args: &Args) -> Result<hero_server::Server, CliError> {
    let keys_dir = args.require("keys")?;
    let workers = args.get_number("workers")?;

    let mut service = ServiceConfig::default();
    service.max_batch = args.get_number("max-batch")?.unwrap_or(service.max_batch);
    service.queue_depth = args.get_u32("queue-depth", 1024)? as usize;

    let config = hero_server::ServerConfig {
        addr: args.get("addr")?.unwrap_or("127.0.0.1:0").to_string(),
        metrics_addr: args.get("metrics-addr")?.map(str::to_string),
        service,
        per_tenant_inflight: args.get_u32("inflight", 256)? as usize,
        keys_dir: Some(std::path::PathBuf::from(keys_dir)),
        ..hero_server::ServerConfig::default()
    };

    let factory = hero_server::hero_engine_factory(workers)?;
    let keystore = hero_server::KeyStore::new();
    keystore
        .load_dir(std::path::Path::new(keys_dir))
        .map_err(hero_server::ClientError::Wire)?;
    Ok(hero_server::Server::start(factory, keystore, config)?)
}

/// Runs the network server until stdin closes, then drains gracefully.
fn serve(args: &Args) -> CmdResult {
    // Activate the HERO_FAULTS schedule (if any) before the server
    // starts accepting, so every request sees the same fault plan.
    hero_sign::faults::init_from_env().map_err(|e| CliError::Usage(format!("HERO_FAULTS: {e}")))?;
    // Resolve the hash ISA ladder eagerly: a typo in HERO_HASH_TIER is a
    // startup usage error (with the valid names listed), not a silent
    // warning buried in the first request's logs.
    hero_sphincs::tier::init_from_env()
        .map_err(|e| CliError::Usage(format!("{}: {e}", hero_sphincs::tier::ENV_VAR)))?;
    // Likewise a HERO_WORKERS that sizes no pool.
    check_env_workers()?;
    let server = start_server(args)?;
    if let Some(plan) = hero_sign::faults::describe_active() {
        println!("fault injection ACTIVE: {plan}");
    }
    let tenants = server.tenants();
    println!(
        "hero-server listening on {} ({} tenants: {})",
        server.local_addr(),
        tenants.len(),
        tenants.join(", "),
    );
    println!("hash tiers: {}", hero_sphincs::tier::description());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics on {addr} (plaintext, connect-and-read)");
    }
    println!("close stdin (Ctrl-D) to drain and exit");
    // Blocking on stdin keeps the command testable (tests use
    // `start_server`) and gives operators a clean shutdown signal
    // without pulling in signal handling.
    let mut sink = String::new();
    while std::io::stdin()
        .read_line(&mut sink)
        .map_err(|e| CliError::io("stdin", e))?
        > 0
    {
        sink.clear();
    }
    server.shutdown();
    Ok("drained and stopped".to_string())
}

/// Signs a file over the network against a running `serve`.
fn remote_sign(args: &Args) -> CmdResult {
    let addr = args.require("addr")?;
    let tenant = args.require("tenant")?;
    let msg_path = args.require("message")?;
    let out = args.require("out")?;

    let message = fs::read(msg_path).map_err(|e| CliError::io(msg_path, e))?;
    let mut client = hero_server::Client::connect(addr)?;
    if let Some(ms) = args.get_number("timeout-ms")? {
        client.set_io_timeout(Some(Duration::from_millis(ms)))?;
    }
    let retries = args.get_u32("retries", 0)?;
    if retries > 0 {
        client.set_retry(Some(hero_server::client::RetryPolicy {
            max_attempts: retries + 1,
            ..hero_server::client::RetryPolicy::default()
        }));
    }
    let deadline_ms = args.get_number("deadline-ms")?;
    let begin = Instant::now();
    let sig = match deadline_ms {
        Some(ms) => client.sign_with_deadline(tenant, &message, ms)?,
        None => client.sign(tenant, &message)?,
    };
    let elapsed = begin.elapsed();
    // Round-trip check by default: the server verifies its own output
    // under the tenant key before we trust the bytes.
    let verified = if args.flag("no-verify") {
        false
    } else {
        if !client.verify(tenant, &message, &sig)? {
            return Err(CliError::Signature(
                hero_sphincs::sign::SignError::VerificationFailed,
            ));
        }
        true
    };
    fs::write(out, &sig).map_err(|e| CliError::io(out, e))?;
    Ok(format!(
        "signed {} bytes as tenant '{tenant}' -> {} byte signature at {out} \
         ({:.1} ms round trip{})",
        message.len(),
        sig.len(),
        elapsed.as_secs_f64() * 1e3,
        if verified { ", server-verified" } else { "" },
    ))
}

fn devices() -> CmdResult {
    let mut out = String::from("device           arch     SMs  cores  MHz   smem/block(dyn)\n");
    for d in hero_gpu_sim::device::catalog() {
        out.push_str(&format!(
            "{:<16} {:<8} {:>4} {:>6} {:>5} {:>8} KiB\n",
            d.name,
            d.arch.to_string(),
            d.sm_count,
            d.total_cores(),
            d.base_clock_mhz,
            d.smem_dynamic_max_per_block / 1024,
        ));
    }
    Ok(out)
}

/// Re-exported for tests: signs with an explicit alg through the keyfile
/// path end to end in memory.
#[doc(hidden)]
pub fn roundtrip_in_memory(params_label: &str, alg: HashAlg, msg: &[u8]) -> Result<bool, CliError> {
    let params = parse_params(params_label)?;
    let text = keyfile::encode(
        &params,
        alg,
        &vec![7u8; params.n],
        &vec![8u8; params.n],
        &vec![9u8; params.n],
    );
    let (sk, vk) = keyfile::decode(&text)?;
    let sig = sk.sign(msg);
    Ok(vk.verify(msg, &sig).is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn unknown_command_mentions_usage() {
        let err = run(&parse(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        assert!(run(&parse(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn devices_lists_catalog() {
        let out = devices().unwrap();
        assert!(out.contains("RTX 4090") && out.contains("H100"));
    }

    #[test]
    fn tune_runs_for_default_sets() {
        let out = tune(&parse(&["tune"])).unwrap();
        assert!(out.contains("SPHINCS+-128f") && out.contains("F=3"));
    }

    #[test]
    fn tune_s_set_reports_relax_depth() {
        let out = tune(&parse(&["tune", "--params", "128s"])).unwrap();
        assert!(out.contains("relax_depth=2"), "{out}");
    }

    #[test]
    fn tune_accepts_shake_sets_and_alg() {
        // The search is shape-driven, so the SHAKE twin of 128f lands on
        // the same Table IV winner — under a distinct cache fingerprint.
        let out = tune(&parse(&["tune", "--params", "shake-128f"])).unwrap();
        assert!(out.contains("SPHINCS+-SHAKE-128f"), "{out}");
        assert!(out.contains("F=3"), "{out}");
        let out = tune(&parse(&["tune", "--params", "128f", "--alg", "shake256"])).unwrap();
        assert!(out.contains("F=3"), "{out}");
        let err = tune(&parse(&["tune", "--alg", "whirlpool"])).unwrap_err();
        assert!(err.to_string().contains("shake256"), "{err}");
    }

    #[test]
    fn shake_roundtrip_in_memory() {
        // Full-shape SPHINCS+-SHAKE-128f sign + verify through the
        // keyfile path (keygen itself only computes the top subtree).
        assert!(roundtrip_in_memory("shake-128f", HashAlg::Shake256, b"shake cli").unwrap());
    }

    #[test]
    fn keygen_defaults_shake_sets_to_shake256() {
        let dir = std::env::temp_dir().join(format!("hero-cli-shake-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let key = dir.join("key.txt");
        keygen(&parse(&[
            "keygen",
            "--params",
            "shake-128f",
            "--seed",
            "7",
            "--out",
            key.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&key).unwrap();
        assert!(text.contains("alg: shake256"), "{text}");
        assert!(text.contains("params: SPHINCS+-SHAKE-128f"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_reports_speedup() {
        let out = simulate(&parse(&["simulate", "--messages", "256", "--batch", "128"])).unwrap();
        assert!(out.contains("speedup"), "{out}");
        assert!(out.contains("HERO"));
    }

    #[test]
    fn throughput_smoke_reports_percentiles_and_rates() {
        let out = throughput(&parse(&[
            "throughput",
            "--smoke",
            "--clients",
            "2",
            "--requests",
            "3",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("signs/sec"), "{out}");
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("reduced smoke shape"), "{out}");
        assert!(out.contains("batches:"), "{out}");
        // The signer's hypertree cache reports its counters on the
        // summary.
        assert!(out.contains("cache:"), "{out}");
        assert!(out.contains("hits"), "{out}");
    }

    #[test]
    fn throughput_rejects_zero_clients_and_requests() {
        for bad in [
            vec!["throughput", "--smoke", "--clients", "0"],
            vec!["throughput", "--smoke", "--requests", "0"],
        ] {
            let err = throughput(&parse(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn simulate_default_batch_shrinks_to_small_workloads() {
        // No --batch flag: the 512 default must not trip the new
        // batch_size > messages validation for small --messages.
        let out = simulate(&parse(&["simulate", "--messages", "100"])).unwrap();
        assert!(out.contains("batch 100"), "{out}");
        // An explicit oversized --batch is still a typed error.
        let err =
            simulate(&parse(&["simulate", "--messages", "100", "--batch", "512"])).unwrap_err();
        assert!(
            matches!(
                err,
                CliError::Engine(hero_sign::HeroError::InvalidOptions(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn simulate_rejects_zero_messages() {
        let err = simulate(&parse(&["simulate", "--messages", "0"])).unwrap_err();
        assert!(matches!(
            err,
            CliError::Engine(hero_sign::HeroError::InvalidOptions(_))
        ));
        assert!(err.to_string().contains("messages"));
    }

    #[test]
    fn number_options_given_without_a_value_are_usage_errors() {
        let dir = std::env::temp_dir().join(format!("hero-cli-bare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let key = dir.join("key.txt");
        let path = key.to_str().unwrap();
        // A bare `--seed` is not "no seed": it writes no random key.
        let bare_seed = parse(&["keygen", "--params", "128f", "--out", path, "--seed"]);
        let err = keygen(&bare_seed).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--seed requires a value"), "{err}");
        assert!(!key.exists());
        // Nor is a bare `--clients` the default client count.
        let bare_clients = parse(&["throughput", "--smoke", "--clients"]);
        let err = throughput(&bare_clients).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string().contains("--clients requires a value"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn string_options_given_without_a_value_are_usage_errors() {
        let dir = std::env::temp_dir().join(format!("hero-cli-bare-str-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let key = dir.join("key.txt");
        let path = key.to_str().unwrap();
        // A bare `--params` is not the default set: it writes no key.
        let bare_params = parse(&["keygen", "--out", path, "--params"]);
        let err = keygen(&bare_params).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string().contains("--params requires a value"),
            "{err}"
        );
        assert!(!key.exists());
        // Nor is a bare `--device` the default device.
        let err = simulate(&parse(&["simulate", "--device"])).unwrap_err();
        assert!(
            err.to_string().contains("--device requires a value"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_workflow_keygen_sign_verify() {
        let dir = std::env::temp_dir().join(format!("hero-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let key = dir.join("key.txt");
        let msg = dir.join("msg.bin");
        let sig = dir.join("sig.bin");
        std::fs::write(&msg, b"cli end to end").unwrap();

        // 128s keygen would take minutes on one CPU; 128f's top subtree is
        // 8 wots leaves — fast enough for a test.
        let out = keygen(&parse(&[
            "keygen",
            "--params",
            "128f",
            "--seed",
            "42",
            "--out",
            key.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("public root"));

        let out = sign(&parse(&[
            "sign",
            "--key",
            key.to_str().unwrap(),
            "--message",
            msg.to_str().unwrap(),
            "--out",
            sig.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("17088 byte"), "{out}");

        let out = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--message",
            msg.to_str().unwrap(),
            "--sig",
            sig.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out, "signature OK");

        // The scalar reference, a second implementation, signs the same
        // bytes.
        let (sk, _) = keyfile::decode(&std::fs::read_to_string(&key).unwrap()).unwrap();
        assert_eq!(
            std::fs::read(&sig).unwrap(),
            hero_sphincs::reference::sign(&sk, b"cli end to end").to_bytes(sk.params())
        );

        // Public-key-only verification path (no secrets on the verifier).
        let pubkey = dir.join("pub.txt");
        let out = export_pubkey(&parse(&[
            "export-pubkey",
            "--key",
            key.to_str().unwrap(),
            "--out",
            pubkey.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("public key"));
        let pub_text = std::fs::read_to_string(&pubkey).unwrap();
        assert!(
            !pub_text.contains("sk_seed"),
            "pubkey file must hold no secrets"
        );
        let out = verify(&parse(&[
            "verify",
            "--pubkey",
            pubkey.to_str().unwrap(),
            "--message",
            msg.to_str().unwrap(),
            "--sig",
            sig.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(out, "signature OK");

        // Tamper and re-verify.
        let mut bytes = std::fs::read(&sig).unwrap();
        bytes[100] ^= 1;
        std::fs::write(&sig, &bytes).unwrap();
        let err = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--message",
            msg.to_str().unwrap(),
            "--sig",
            sig.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Signature(_)));
        assert!(err.to_string().contains("INVALID"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_sigs_batch_reports_per_file_verdicts() {
        let dir = std::env::temp_dir().join(format!("hero-cli-vbatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = hero_sphincs::Params::sphincs_128f();
        let text = keyfile::encode(&p, HashAlg::Sha256, &[21; 16], &[22; 16], &[23; 16]);
        let key = dir.join("key.txt");
        std::fs::write(&key, &text).unwrap();
        let (sk, _) = keyfile::decode(&text).unwrap();

        let mut sig_paths = Vec::new();
        let mut msg_paths = Vec::new();
        for i in 0..2 {
            let msg = dir.join(format!("m{i}.bin"));
            let sig = dir.join(format!("s{i}.sig"));
            let body = format!("batched verify message {i}");
            std::fs::write(&msg, &body).unwrap();
            std::fs::write(&sig, sk.sign(body.as_bytes()).to_bytes(&p)).unwrap();
            msg_paths.push(msg.to_str().unwrap().to_string());
            sig_paths.push(sig.to_str().unwrap().to_string());
        }

        // All valid, paired messages, through the planned verifier.
        let out = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--sigs",
            &sig_paths.join(","),
            "--messages",
            &msg_paths.join(","),
            "--workers",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("all 2 signatures OK"), "{out}");
        assert!(
            out.contains("s0.sig: valid") && out.contains("s1.sig: valid"),
            "{out}"
        );

        // One shared --message over two identical signature files.
        let out = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--sigs",
            &format!("{},{}", sig_paths[0], sig_paths[0]),
            "--message",
            &msg_paths[0],
        ]))
        .unwrap();
        assert!(out.contains("all 2 signatures OK"), "{out}");

        // Tampered second signature: the command fails with the typed
        // verification error after reporting per-file verdicts.
        let mut bytes = std::fs::read(&sig_paths[1]).unwrap();
        bytes[64] ^= 1;
        std::fs::write(&sig_paths[1], &bytes).unwrap();
        // A truncated first file must come back malformed, not abort.
        std::fs::write(&sig_paths[0], &bytes[..10]).unwrap();
        let err = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--sigs",
            &sig_paths.join(","),
            "--messages",
            &msg_paths.join(","),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Signature(_)), "{err}");

        // Count mismatch is a usage error before any verification.
        let err = verify(&parse(&[
            "verify",
            "--key",
            key.to_str().unwrap(),
            "--sigs",
            &sig_paths.join(","),
            "--messages",
            &msg_paths[0],
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_and_remote_sign_round_trip() {
        let dir = std::env::temp_dir().join(format!("hero-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = hero_sphincs::Params::sphincs_128f();
        let text = keyfile::encode(&p, HashAlg::Sha256, &[11; 16], &[12; 16], &[13; 16]);
        std::fs::write(dir.join("validator-1.key"), &text).unwrap();
        let msg = dir.join("msg.bin");
        let sig = dir.join("sig.bin");
        std::fs::write(&msg, b"remote sign via cli").unwrap();

        let server = start_server(&parse(&[
            "serve",
            "--keys",
            dir.to_str().unwrap(),
            "--workers",
            "2",
        ]))
        .unwrap();
        assert_eq!(server.tenants(), vec!["validator-1".to_string()]);

        let out = remote_sign(&parse(&[
            "remote-sign",
            "--addr",
            &server.local_addr().to_string(),
            "--tenant",
            "validator-1",
            "--message",
            msg.to_str().unwrap(),
            "--out",
            sig.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("server-verified"), "{out}");

        // The bytes on disk verify locally under the same key file.
        let (_, vk) = keyfile::decode(&text).unwrap();
        let sig_bytes = std::fs::read(&sig).unwrap();
        let signature = Signature::from_bytes(vk.params(), &sig_bytes).unwrap();
        vk.verify(b"remote sign via cli", &signature).unwrap();

        // The robustness knobs compose on the same path: a generous
        // deadline, explicit socket timeout, and retry budget still sign.
        let out = remote_sign(&parse(&[
            "remote-sign",
            "--addr",
            &server.local_addr().to_string(),
            "--tenant",
            "validator-1",
            "--message",
            msg.to_str().unwrap(),
            "--out",
            sig.to_str().unwrap(),
            "--deadline-ms",
            "30000",
            "--timeout-ms",
            "30000",
            "--retries",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("server-verified"), "{out}");

        // Unknown tenants come back as typed remote errors.
        let err = remote_sign(&parse(&[
            "remote-sign",
            "--addr",
            &server.local_addr().to_string(),
            "--tenant",
            "nobody",
            "--message",
            msg.to_str().unwrap(),
            "--out",
            sig.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Remote(_)), "{err:?}");
        assert!(err.to_string().contains("nobody"), "{err}");

        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_requires_a_keys_dir() {
        let err = start_server(&parse(&["serve"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        let err = start_server(&parse(&["serve", "--keys", "/definitely/not/here"])).unwrap_err();
        assert!(matches!(err, CliError::Remote(_)), "{err:?}");
    }

    #[test]
    fn verify_without_any_key_rejected() {
        let err = verify(&parse(&["verify", "--message", "m", "--sig", "s"])).unwrap_err();
        assert!(err.to_string().contains("--pubkey"));
    }
}
