//! Server-level concurrency and robustness tests: parallel multi-tenant
//! correctness against the sequential oracle, hostile framing, typed
//! overload, and graceful shutdown under load.
//!
//! Engines run a reduced SPHINCS+ shape (the same one the service-layer
//! tests use) so each test finishes in seconds while still exercising
//! the full listener → keystore → SignService → Executor path.

use hero_server::client::{Client, ClientError};
use hero_server::keystore::KeyStore;
use hero_server::server::{hero_engine_factory, Server, ServerConfig};
use hero_server::wire::{self, Frame, Op, Request};
use hero_server::ErrorCode;

use hero_sign::service::ServiceConfig;
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::{SigningKey, VerifyingKey};

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

fn tenant_key(seed: u8) -> (SigningKey, VerifyingKey) {
    let p = tiny_params();
    hero_sphincs::keygen_from_seeds_with_alg(
        p,
        HashAlg::Sha256,
        vec![seed; p.n],
        vec![seed.wrapping_add(1); p.n],
        vec![seed.wrapping_add(2); p.n],
    )
}

/// A server over `tenants` reduced-shape keys, returning the key
/// material so tests can oracle-check signatures locally.
fn test_server(
    tenants: &[&str],
    config: ServerConfig,
) -> (Server, Vec<(String, SigningKey, VerifyingKey)>) {
    let keystore = KeyStore::new();
    let mut keys = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let (sk, vk) = tenant_key(10 + i as u8 * 3);
        keystore.insert(tenant, sk.clone(), vk.clone()).unwrap();
        keys.push((tenant.to_string(), sk, vk));
    }
    // `None` = the shared `HERO_WORKERS`-aware executor, so CI can pin
    // the whole suite to one worker and still exercise every invariant.
    let factory = hero_engine_factory(None).unwrap();
    let server = Server::start(factory, keystore, config).unwrap();
    (server, keys)
}

#[test]
fn parallel_tenants_byte_identical_to_sequential_oracle() {
    let (server, keys) = test_server(
        &["tenant-a", "tenant-b", "tenant-c", "tenant-d"],
        ServerConfig::default(),
    );
    let addr = server.local_addr();

    // Two connections per tenant, several requests each, all in flight
    // at once across tenants.
    let results: Vec<(String, Vec<u8>, Vec<u8>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (tenant, _, _) in &keys {
            for conn in 0..2u8 {
                let tenant = tenant.clone();
                handles.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut out = Vec::new();
                    for i in 0..4u8 {
                        let msg = format!("{tenant} conn {conn} msg {i}").into_bytes();
                        let sig = client.sign(&tenant, &msg).unwrap();
                        out.push((tenant.clone(), msg, sig));
                    }
                    out
                }));
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(results.len(), keys.len() * 2 * 4);
    for (tenant, msg, sig_bytes) in &results {
        let (_, sk, vk) = keys.iter().find(|(t, _, _)| t == tenant).unwrap();
        // SPHINCS+ signing is deterministic, so the network path must be
        // byte-identical to signing sequentially with the key itself.
        let oracle = sk.sign(msg).to_bytes(sk.params());
        assert_eq!(&oracle, sig_bytes, "{tenant}: {msg:?}");
        let sig = hero_sphincs::Signature::from_bytes(vk.params(), sig_bytes).unwrap();
        vk.verify(msg, &sig).unwrap();
    }

    // Batch signing matches per-message signing.
    let (tenant, sk, _) = &keys[0];
    let mut client = Client::connect(addr).unwrap();
    let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10]).collect();
    let msg_refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let sigs = client.sign_batch(tenant, &msg_refs).unwrap();
    for (msg, sig) in msgs.iter().zip(&sigs) {
        assert_eq!(&sk.sign(msg).to_bytes(sk.params()), sig);
    }
    server.shutdown();
}

#[test]
fn verify_batch_reports_per_item_verdicts_and_metrics() {
    let (server, keys) = test_server(&["tenant-a"], ServerConfig::default());
    let addr = server.local_addr();
    let (tenant, sk, _) = &keys[0];
    let mut client = Client::connect(addr).unwrap();

    // Sign locally (deterministic oracle), then verify over the wire:
    // one valid, one bit-flipped (invalid), one truncated (malformed),
    // one valid again.
    let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 12]).collect();
    let mut sigs: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| sk.sign(m).to_bytes(sk.params()))
        .collect();
    sigs[1][0] ^= 1;
    sigs[2].truncate(10);

    let items: Vec<(&[u8], &[u8])> = msgs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| (m.as_slice(), s.as_slice()))
        .collect();
    let verdicts = client.verify_batch(tenant, &items).unwrap();
    use hero_server::VerifyVerdict;
    assert_eq!(
        verdicts,
        vec![
            VerifyVerdict::Valid,
            VerifyVerdict::Invalid,
            VerifyVerdict::Malformed,
            VerifyVerdict::Valid,
        ]
    );

    // The single-verify op agrees, including under a generous deadline.
    assert!(client.verify(tenant, &msgs[0], &sigs[0]).unwrap());
    assert!(!client.verify(tenant, &msgs[1], &sigs[1]).unwrap());
    assert!(client
        .verify_with_deadline(tenant, &msgs[3], &sigs[3], 10_000)
        .unwrap());

    // A verify-batch count the payload cannot hold is rejected typed.
    let req = Request {
        id: 61,
        tenant: tenant.clone(),
        op: Op::VerifyBatch,
        deadline_ms: None,
        payload: u32::MAX.to_be_bytes().to_vec(),
    };
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_frame(&mut stream, &wire::encode_request(&req)).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::Malformed);

    // Per-tenant verify counters and the verify latency window are live.
    let page = client.stats().unwrap();
    assert!(
        page.contains("hero_verify_requests_total{tenant=\"tenant-a\"} 7"),
        "{page}"
    );
    assert!(
        page.contains("hero_verify_invalid_total{tenant=\"tenant-a\"} 2"),
        "{page}"
    );
    assert!(
        page.contains("hero_verify_malformed_total{tenant=\"tenant-a\"} 1"),
        "{page}"
    );
    assert!(!page.contains("hero_verify_latency_samples 0"), "{page}");
    server.shutdown();
}

#[test]
fn hostile_frames_answered_typed_without_killing_the_connection() {
    let (server, keys) = test_server(
        &["tenant-a"],
        ServerConfig {
            max_frame: 4096,
            ..ServerConfig::default()
        },
    );
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Raw frame writer: length prefix + body ([`wire::write_frame`]
    // expects frames already encoded by `encode_request`).
    fn send_body(stream: &mut TcpStream, body: &[u8]) {
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(body).unwrap();
    }

    // 1. Wrong protocol version; the id must still be echoed back.
    let mut body = vec![99u8];
    body.extend_from_slice(&7u64.to_be_bytes());
    body.extend_from_slice(&[1, 0, 0]);
    send_body(&mut stream, &body);
    let resp = read_response(&mut stream);
    assert_eq!(resp.id, 7);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::UnsupportedVersion);

    // 2. Unknown opcode.
    let mut body = vec![wire::WIRE_VERSION];
    body.extend_from_slice(&8u64.to_be_bytes());
    body.extend_from_slice(&[42, 0, 0]);
    send_body(&mut stream, &body);
    let resp = read_response(&mut stream);
    assert_eq!(resp.id, 8);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::UnknownOpcode);

    // 3. Truncated body: too short to even carry a request header.
    send_body(&mut stream, &[1, 2, 3]);
    let resp = read_response(&mut stream);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::Malformed);

    // 4. Oversized frame: declared 8 KiB against a 4 KiB cap. The server
    //    must discard the body in sync, answer typed, and still echo the
    //    request id from the discarded body's header.
    let mut big = vec![wire::WIRE_VERSION];
    big.extend_from_slice(&55u64.to_be_bytes());
    big.resize(8192, 0xab);
    stream.write_all(&(big.len() as u32).to_be_bytes()).unwrap();
    stream.write_all(&big).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.id, 55);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::OversizedFrame);

    // 5. A sign-batch whose declared count could never fit the payload
    //    must be rejected before the count sizes any allocation.
    let req = Request {
        id: 60,
        tenant: "tenant-a".to_string(),
        op: Op::SignBatch,
        deadline_ms: None,
        payload: u32::MAX.to_be_bytes().to_vec(),
    };
    wire::write_frame(&mut stream, &wire::encode_request(&req)).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.id, 60);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::Malformed);

    // 6. The same connection still serves a valid request afterwards.
    let msg = b"still alive".to_vec();
    let req = Request {
        id: 99,
        tenant: "tenant-a".to_string(),
        op: Op::Sign,
        deadline_ms: None,
        payload: msg.clone(),
    };
    wire::write_frame(&mut stream, &wire::encode_request(&req)).unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.id, 99);
    let sig = resp.result.unwrap();
    let (_, sk, _) = &keys[0];
    assert_eq!(sig, sk.sign(&msg).to_bytes(sk.params()));

    // 7. A connection dying mid-frame must not take the server with it.
    let mut dying = TcpStream::connect(server.local_addr()).unwrap();
    dying.write_all(&100u32.to_be_bytes()).unwrap();
    dying.write_all(&[1, 2, 3]).unwrap(); // 3 of 100 promised bytes
    drop(dying);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(client.stats().unwrap().contains("hero_server_up 1"));

    server.shutdown();
}

fn read_response(stream: &mut TcpStream) -> hero_server::Response {
    match wire::read_frame(stream, wire::DEFAULT_MAX_FRAME).unwrap() {
        Frame::Body(body) => wire::decode_response(&body).unwrap(),
        other => panic!("expected a response frame, got {other:?}"),
    }
}

#[test]
fn overload_rejected_typed_and_every_request_answered() {
    // A queue of depth 1 and an admission cap of 2 under 8 concurrent
    // connections: most requests must be turned away — as *typed*
    // backpressure errors, never stalls or dropped connections.
    let (server, keys) = test_server(
        &["tenant-a"],
        ServerConfig {
            service: ServiceConfig {
                queue_depth: 1,
                ..ServiceConfig::default()
            },
            per_tenant_inflight: 2,
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    let outcomes: Vec<Result<Vec<u8>, ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut outs = Vec::new();
                    for i in 0..4u8 {
                        outs.push(client.sign("tenant-a", &[t as u8, i]));
                    }
                    outs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    assert_eq!(outcomes.len(), 32, "every request got exactly one answer");
    let mut ok = 0;
    let mut backpressure = 0;
    for outcome in &outcomes {
        match outcome {
            Ok(sig) => {
                ok += 1;
                let (_, sk, _) = &keys[0];
                // Deterministic signing: even under overload, accepted
                // requests produce correct signatures.
                assert_eq!(sig.len(), sk.params().sig_bytes());
            }
            Err(ClientError::Wire(e)) => {
                assert!(
                    e.code.is_backpressure(),
                    "only typed backpressure expected, got {e}"
                );
                backpressure += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(ok >= 1, "some requests must get through");
    assert!(
        backpressure >= 1,
        "a depth-1 queue under 8 connections must shed load ({ok} ok)"
    );

    let page = Client::connect(addr).unwrap().stats().unwrap();
    assert!(
        page.contains("hero_server_tenant_rejected_total{tenant=\"tenant-a\"}"),
        "{page}"
    );
    server.shutdown();
}

#[test]
fn wire_batch_that_does_not_fit_is_refused_whole() {
    // Depth 2: a batch of 3 can never be queued. It must be refused
    // typed with *nothing* left behind — items queued before the refusal
    // would be signed / verified for nobody. The lanes are FIFO, so
    // leftovers would be served before the batches of 2 that follow and
    // show up in the per-lane completed counters.
    let (server, keys) = test_server(
        &["tenant-a"],
        ServerConfig {
            service: ServiceConfig {
                queue_depth: 2,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    );
    let (tenant, sk, _) = &keys[0];
    let mut client = Client::connect(server.local_addr()).unwrap();

    let msgs: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 12]).collect();
    let msg_refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    let sigs: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| sk.sign(m).to_bytes(sk.params()))
        .collect();
    let items: Vec<(&[u8], &[u8])> = msg_refs
        .iter()
        .zip(&sigs)
        .map(|(m, s)| (*m, s.as_slice()))
        .collect();

    for refused in [
        client.sign_batch(tenant, &msg_refs).map(|_| ()),
        client.verify_batch(tenant, &items).map(|_| ()),
    ] {
        match refused {
            Err(ClientError::Wire(e)) => assert!(e.code.is_backpressure(), "{e}"),
            other => panic!("expected typed backpressure, got {other:?}"),
        }
    }
    assert_eq!(
        client.sign_batch(tenant, &msg_refs[..2]).unwrap(),
        sigs[..2]
    );
    assert_eq!(client.verify_batch(tenant, &items[..2]).unwrap().len(), 2);

    // A lane books `completed` before it answers: a live scrape already
    // counts every answer the client holds.
    let page = server.metrics_page();
    for lane in ["sign", "verify"] {
        let line = format!("hero_service_completed_total{{tenant=\"tenant-a\",lane=\"{lane}\"}} 2");
        assert!(page.contains(&line), "{line}\n{page}");
    }
    server.shutdown();
}

#[test]
fn shutdown_under_load_never_drops_or_double_answers() {
    let (server, keys) = test_server(&["tenant-a", "tenant-b"], ServerConfig::default());
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));

    // Closed-loop clients hammer the server; main thread shuts it down
    // mid-flight. A dropped request would hang its client forever (the
    // test would time out); a double answer would desynchronize the
    // stream and surface as ClientError::Protocol on the next read.
    let (done_answers, protocol_errors) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stop = Arc::clone(&stop);
                let tenant = if t % 2 == 0 { "tenant-a" } else { "tenant-b" };
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut answers = 0u32;
                    let mut protocol = 0u32;
                    for i in 0..10_000u32 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        match client.sign(tenant, &i.to_be_bytes()) {
                            Ok(_) | Err(ClientError::Wire(_)) => answers += 1,
                            // EOF/reset: drain cut the connection before
                            // this request was accepted.
                            Err(ClientError::Io(_)) => break,
                            Err(ClientError::Protocol(_)) => {
                                protocol += 1;
                                break;
                            }
                        }
                    }
                    (answers, protocol)
                })
            })
            .collect();

        // Let the clients get some requests through, then drain.
        std::thread::sleep(std::time::Duration::from_millis(300));
        server.shutdown();
        stop.store(true, Ordering::Relaxed);

        let mut answers = 0;
        let mut protocol = 0;
        for h in handles {
            let (a, p) = h.join().unwrap();
            answers += a;
            protocol += p;
        }
        (answers, protocol)
    });

    assert!(done_answers > 0, "clients must make progress before drain");
    assert_eq!(
        protocol_errors, 0,
        "a double-answered request would desync some client's stream"
    );

    // After drain the listener is closed: connect fails outright or the
    // connection is dropped without serving.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut client) => assert!(client.sign("tenant-a", b"late").is_err()),
    }
    let _ = keys;
}

#[test]
fn keygen_registers_a_servable_tenant() {
    let (server, _) = test_server(&["tenant-a"], ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Remote keygen on a full-size shape label (keygen only computes the
    // top subtree; signing stays on existing reduced-shape tenants).
    let reply = client
        .keygen("fresh-tenant", "128f", None, Some(42))
        .unwrap();
    assert_eq!(reply.params, "SPHINCS+-128f");
    assert_eq!(reply.alg, "sha256");
    assert_eq!(reply.public_key.len(), 32);

    // Deterministic: the same seed on the same label collides as an
    // existing tenant, and a different name reproduces the public key.
    let err = client
        .keygen("fresh-tenant", "128f", None, Some(42))
        .unwrap_err();
    match err {
        ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::TenantExists),
        other => panic!("expected TenantExists, got {other}"),
    }
    let twin = client
        .keygen("twin-tenant", "128f", None, Some(42))
        .unwrap();
    assert_eq!(twin.public_key, reply.public_key);

    // Bad labels and hostile tenant names are BadRequest, not hangs.
    for (tenant, params) in [("x", "999f"), ("../escape", "128f"), ("", "128f")] {
        let err = client.keygen(tenant, params, None, Some(1)).unwrap_err();
        match err {
            ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::BadRequest, "{tenant}/{params}"),
            other => panic!("expected BadRequest, got {other}"),
        }
    }
    server.shutdown();
}

#[test]
fn concurrent_persistent_keygen_has_one_winner_and_disk_matches_memory() {
    let dir = std::env::temp_dir().join(format!("hero-server-keys-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (server, _) = test_server(
        &[],
        ServerConfig {
            keys_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let addr = server.local_addr();

    // Distinct seeds: the racing keygens would produce *different* keys,
    // so exactly one may win, the rest must lose typed, and the key on
    // disk must be the winner's (the one being served from memory).
    let outcomes: Vec<Result<hero_server::KeygenReply, ClientError>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        client.keygen("contended", "128f", None, Some(100 + i))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

    let winners: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    assert_eq!(winners.len(), 1, "exactly one concurrent keygen may win");
    for outcome in &outcomes {
        if let Err(e) = outcome {
            match e {
                ClientError::Wire(e) => assert_eq!(e.code, ErrorCode::TenantExists),
                other => panic!("losers must lose typed, got {other}"),
            }
        }
    }
    let text = std::fs::read_to_string(dir.join("contended.key")).unwrap();
    let (_, vk) = hero_server::keyfile::decode(&text).unwrap();
    assert_eq!(
        vk.to_bytes(),
        winners[0].public_key,
        "the persisted key must be the served key"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A value on the metrics page: `name` exactly, labels included.
fn page_value(page: &str, name: &str) -> u64 {
    let needle = format!("{name} ");
    page.lines()
        .find_map(|line| line.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("metric {name} missing from page:\n{page}"))
        .trim()
        .parse()
        .expect("metric value")
}

#[test]
fn a_verdict_is_counted_as_an_answer_by_verify_and_verify_batch_alike() {
    let (server, keys) = test_server(&["tenant-v"], ServerConfig::default());
    let (tenant, _, _) = &keys[0];
    let mut client = Client::connect(server.local_addr()).unwrap();
    let msg = b"one verdict, counted one way".to_vec();
    let mut tampered = client.sign(tenant, &msg).unwrap();
    tampered[7] ^= 0x10;

    let counters = [
        "hero_server_requests_rejected_total".to_string(),
        format!("hero_server_tenant_completed_total{{tenant=\"{tenant}\"}}"),
        format!("hero_server_tenant_rejected_total{{tenant=\"{tenant}\"}}"),
        format!("hero_verify_invalid_total{{tenant=\"{tenant}\"}}"),
    ];
    let read = |client: &mut Client| {
        let page = client.stats().unwrap();
        counters.each_ref().map(|name| page_value(&page, name))
    };
    let moved = |before: [u64; 4], after: [u64; 4]| -> [u64; 4] {
        std::array::from_fn(|i| after[i] - before[i])
    };

    let before = read(&mut client);
    assert!(!client.verify(tenant, &msg, &tampered).unwrap());
    let single = moved(before, read(&mut client));

    let before = read(&mut client);
    let verdicts = client
        .verify_batch(tenant, &[(msg.as_slice(), tampered.as_slice())])
        .unwrap();
    assert_eq!(verdicts, [hero_server::client::VerifyVerdict::Invalid]);
    let batch = moved(before, read(&mut client));

    // rejected, tenant completed, tenant rejected, verify_invalid.
    assert_eq!(single, [0, 1, 0, 1], "verify");
    assert_eq!(
        batch, single,
        "verify-batch moves the counters as verify does"
    );
    server.shutdown();
}

#[test]
fn shapes_that_share_a_name_get_an_engine_each() {
    // Two reduced SPHINCS+-128f shapes that differ only in `k`: one name,
    // two parameter sets. Each tenant must be served by an engine of its
    // own shape, not by whichever engine the name found first.
    let mut wide = tiny_params();
    wide.k = 9;
    assert_eq!(wide.name(), tiny_params().name());
    let keystore = KeyStore::new();
    let mut keys = Vec::new();
    for (tenant, params, seed) in [("narrow", tiny_params(), 61u8), ("wide", wide, 67)] {
        let (sk, vk) = hero_sphincs::keygen_from_seeds_with_alg(
            params,
            HashAlg::Sha256,
            vec![seed; params.n],
            vec![seed.wrapping_add(1); params.n],
            vec![seed.wrapping_add(2); params.n],
        );
        keystore.insert(tenant, sk.clone(), vk).unwrap();
        keys.push((tenant, sk));
    }
    let server = Server::start(
        hero_engine_factory(None).unwrap(),
        keystore,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (tenant, sk) in &keys {
        let msg = format!("{tenant} signs under its own shape").into_bytes();
        let sig = client.sign(tenant, &msg).unwrap();
        let oracle = hero_sphincs::reference::sign(sk, &msg).to_bytes(sk.params());
        assert_eq!(sig, oracle, "{tenant}");
    }
    let page = client.stats().unwrap();
    assert_eq!(page_value(&page, "hero_cache_resident_keys"), 2);
    server.shutdown();
}
