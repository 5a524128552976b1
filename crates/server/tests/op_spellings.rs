//! Each tenant op family has two spellings — `Sign` / `SignBatch` and
//! `Verify` / `VerifyBatch` — and the server runs both through one
//! handler, a single op being a batch of one. These tests hold the two
//! spellings to the same answers and the same bookkeeping, and the
//! verify latency window to one sample per pair that reached the lane.

use hero_server::keystore::KeyStore;
use hero_server::server::{hero_engine_factory, Server, ServerConfig};
use hero_server::wire::{self, Frame, Op, Request};
use hero_server::{ErrorCode, WireError};

use hero_sign::HeroError;
use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sign::SigningKey;

use std::net::TcpStream;

const TENANT: &str = "tenant-a";

fn tiny_params() -> Params {
    let mut p = Params::sphincs_128f();
    p.h = 6;
    p.d = 3;
    p.log_t = 4;
    p.k = 8;
    p
}

/// A server holding one reduced-shape tenant key, and that key.
fn test_server() -> (Server, SigningKey) {
    let p = tiny_params();
    let (sk, vk) = hero_sphincs::keygen_from_seeds_with_alg(
        p,
        HashAlg::Sha256,
        vec![7; p.n],
        vec![8; p.n],
        vec![9; p.n],
    );
    let keystore = KeyStore::new();
    keystore.insert(TENANT, sk.clone(), vk).unwrap();
    let factory = hero_engine_factory(None).unwrap();
    let server = Server::start(factory, keystore, ServerConfig::default()).unwrap();
    (server, sk)
}

/// One raw request/response round trip: what the op answered, body or
/// error frame.
fn call(stream: &mut TcpStream, op: Op, payload: Vec<u8>) -> Result<Vec<u8>, WireError> {
    let tenant = if op == Op::Stats { "" } else { TENANT };
    let req = Request {
        id: 1,
        tenant: tenant.to_string(),
        op,
        deadline_ms: None,
        payload,
    };
    wire::write_frame(stream, &wire::encode_request(&req)).unwrap();
    match wire::read_frame(stream, wire::DEFAULT_MAX_FRAME).unwrap() {
        Frame::Body(body) => wire::decode_response(&body).unwrap().result,
        other => panic!("expected a response frame, got {other:?}"),
    }
}

fn verify_payload(msg: &[u8], sig: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    wire::put_bytes(&mut payload, msg);
    wire::put_bytes(&mut payload, sig);
    payload
}

/// A batch op's payload: the count, then the items back to back.
fn counted(items: &[Vec<u8>]) -> Vec<u8> {
    let mut payload = (items.len() as u32).to_be_bytes().to_vec();
    for item in items {
        payload.extend_from_slice(item);
    }
    payload
}

/// The metrics page's counters that a tenant op moves.
const BOOKED: [&str; 7] = [
    "hero_server_tenant_requests_total{tenant=\"tenant-a\"}",
    "hero_server_tenant_completed_total{tenant=\"tenant-a\"}",
    "hero_verify_requests_total{tenant=\"tenant-a\"}",
    "hero_verify_invalid_total{tenant=\"tenant-a\"}",
    "hero_verify_malformed_total{tenant=\"tenant-a\"}",
    "hero_verify_latency_samples",
    "hero_server_sign_latency_samples",
];

/// The value of the page's `name` line (0 before the line exists: a
/// tenant's rows appear with its first request).
fn metric(page: &str, name: &str) -> u64 {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .map_or(0, |value| value.parse().unwrap())
}

fn booked(stream: &mut TcpStream) -> Vec<u64> {
    let page = String::from_utf8(call(stream, Op::Stats, Vec::new()).unwrap()).unwrap();
    BOOKED.iter().map(|name| metric(&page, name)).collect()
}

/// What `op` moved each of [`BOOKED`] by, and what it answered.
fn booked_by(
    stream: &mut TcpStream,
    op: Op,
    payload: Vec<u8>,
) -> (Vec<u64>, Result<Vec<u8>, WireError>) {
    let before = booked(stream);
    let answer = call(stream, op, payload);
    let after = booked(stream);
    let moved = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (moved, answer)
}

#[test]
fn single_ops_answer_and_book_what_their_batch_of_one_does() {
    let (server, sk) = test_server();
    let params = *sk.params();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Sign(m) is SignBatch([m])'s only item, byte for byte.
    let msg = b"one message, two spellings".to_vec();
    let (single_moved, single) = booked_by(&mut stream, Op::Sign, msg.clone());
    let mut item = Vec::new();
    wire::put_bytes(&mut item, &msg);
    let (batch_moved, batch) = booked_by(&mut stream, Op::SignBatch, counted(&[item]));
    let sig = single.unwrap();
    assert_eq!(sig, sk.sign(&msg).to_bytes(&params));
    let batch = batch.unwrap();
    let mut at = 0;
    assert_eq!(wire::take_u32(&batch, &mut at).unwrap(), 1);
    assert_eq!(wire::take_bytes(&batch, &mut at).unwrap(), sig);
    assert_eq!(at, batch.len());
    assert_eq!(single_moved, batch_moved, "sign bookkeeping");

    // Verify of a valid, a tampered and a wrong-length signature answers
    // what VerifyBatch of that one pair answers, and the single op keeps
    // its codes and messages.
    let mut tampered = sig.clone();
    tampered[0] ^= 1;
    let short = sig[..10].to_vec();
    let malformed = WireError::from(HeroError::from(
        hero_sphincs::Signature::from_bytes(&params, &short).unwrap_err(),
    ));
    let invalid = WireError::new(ErrorCode::VerificationFailed, "signature does not verify");
    for (sig, verdict, expected) in [
        (&sig, 1u8, Ok(Vec::new())),
        (&tampered, 0, Err(invalid)),
        (&short, 2, Err(malformed)),
    ] {
        let pair = verify_payload(&msg, sig);
        let (single_moved, single) = booked_by(&mut stream, Op::Verify, pair.clone());
        let (batch_moved, batch) = booked_by(&mut stream, Op::VerifyBatch, counted(&[pair]));
        assert_eq!(single, expected, "verdict {verdict}");
        let mut reply = 1u32.to_be_bytes().to_vec();
        reply.push(verdict);
        assert_eq!(batch.unwrap(), reply);
        assert_eq!(single_moved, batch_moved, "verdict {verdict} bookkeeping");
    }
    server.shutdown();
}

#[test]
fn verify_latency_counts_only_pairs_that_reached_the_lane() {
    let (server, sk) = test_server();
    let params = *sk.params();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let samples = |stream: &mut TcpStream| {
        let page = String::from_utf8(call(stream, Op::Stats, Vec::new()).unwrap()).unwrap();
        metric(&page, "hero_verify_latency_samples")
    };

    // Three valid pairs and two whose signatures are the wrong length.
    let mut pairs: Vec<Vec<u8>> = (0..3u8)
        .map(|i| {
            let msg = vec![i; 12];
            verify_payload(&msg, &sk.sign(&msg).to_bytes(&params))
        })
        .collect();
    let sig = sk.sign(&[3; 12]).to_bytes(&params);
    pairs.push(verify_payload(&[3; 12], &sig[1..]));
    pairs.push(verify_payload(&[3; 12], &[sig.as_slice(), &[0]].concat()));

    let before = samples(&mut stream);
    let reply = call(&mut stream, Op::VerifyBatch, counted(&pairs)).unwrap();
    assert_eq!(reply, [0, 0, 0, 5, 1, 1, 1, 2, 2]);
    assert_eq!(
        samples(&mut stream) - before,
        3,
        "one sample per queued pair"
    );

    // Nothing decodable: no sample, and nothing reaches the verify lane.
    let before = samples(&mut stream);
    let reply = call(&mut stream, Op::VerifyBatch, counted(&pairs[3..])).unwrap();
    assert_eq!(reply, [0, 0, 0, 2, 2, 2]);
    assert_eq!(samples(&mut stream), before);
    let page = String::from_utf8(call(&mut stream, Op::Stats, Vec::new()).unwrap()).unwrap();
    assert_eq!(
        metric(
            &page,
            "hero_service_completed_total{tenant=\"tenant-a\",lane=\"verify\"}"
        ),
        3
    );
    server.shutdown();
}
