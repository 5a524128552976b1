//! A blocking client for the hero-server wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests
//! synchronously (write frame, read frame). The server pipelines across
//! *connections*, not within one, so closed-loop load generators open
//! one client per concurrent stream — exactly what `perfbench`'s
//! `wire_mixed` workload and the CLI `remote-sign` command do.
//!
//! # Timeouts, reconnect, and retry
//!
//! Sockets carry a read/write timeout ([`DEFAULT_IO_TIMEOUT`], 5 s by
//! default) so a stalled or half-dead server surfaces as a typed
//! [`ClientError::Io`] instead of hanging the caller forever; tune it
//! with [`Client::set_io_timeout`].
//!
//! Retry is **opt-in** via [`Client::set_retry`]. When a policy is set,
//! transport failures and backpressure rejections ([`ErrorCode`]s where
//! [`is_backpressure`] holds) are retried with jittered exponential
//! backoff, reconnecting first on transport errors. This is safe for
//! this protocol specifically: SPHINCS+ signing is deterministic, so a
//! request that was secretly served before the connection died produces
//! byte-identical output when replayed. Two operations are *never*
//! retried regardless of policy:
//!
//! - **Keygen** — replaying it after an ambiguous failure would land on
//!   [`ErrorCode::TenantExists`] and mask the real outcome.
//! - Anything rejected with [`ErrorCode::DeadlineExceeded`] — the
//!   budget is already spent; retrying without extending it only adds
//!   load.
//!
//! [`ErrorCode`]: crate::error::ErrorCode
//! [`is_backpressure`]: crate::error::ErrorCode::is_backpressure
//! [`ErrorCode::TenantExists`]: crate::error::ErrorCode::TenantExists
//! [`ErrorCode::DeadlineExceeded`]: crate::error::ErrorCode::DeadlineExceeded

use crate::error::WireError;
use crate::wire::{self, Frame, Op, Request, DEFAULT_MAX_FRAME};

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default socket read/write timeout applied by [`Client::connect`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Failures issuing a request.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, write, timeout, or
    /// mid-frame EOF).
    Io(io::Error),
    /// The server answered with a typed wire error.
    Wire(WireError),
    /// The server answered with something structurally unexpected
    /// (mismatched request id, undecodable response, bad payload shape).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Wire(e) => write!(f, "server: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The result of a remote key generation.
#[derive(Clone, Debug)]
pub struct KeygenReply {
    /// Canonical name of the parameter set the key was generated under.
    pub params: String,
    /// Hash algorithm label.
    pub alg: String,
    /// Serialized public key (`pk_seed || pk_root`).
    pub public_key: Vec<u8>,
}

/// Per-item verdict from [`Client::verify_batch`] (the on-wire verdict
/// byte, decoded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyVerdict {
    /// The signature verified under the tenant's key.
    Valid,
    /// Structurally fine but cryptographically invalid.
    Invalid,
    /// Structurally malformed (wrong lengths/shape for the tenant's
    /// parameter set) — never reached the verifier.
    Malformed,
}

impl VerifyVerdict {
    /// Decodes an on-wire verdict byte (`1` valid, `0` invalid, `2`
    /// malformed).
    pub const fn from_wire(byte: u8) -> Option<Self> {
        Some(match byte {
            1 => VerifyVerdict::Valid,
            0 => VerifyVerdict::Invalid,
            2 => VerifyVerdict::Malformed,
            _ => return None,
        })
    }

    /// Whether the signature verified.
    pub const fn is_valid(self) -> bool {
        matches!(self, VerifyVerdict::Valid)
    }
}

/// Opt-in retry policy for transport failures and backpressure
/// rejections (see the module docs for the safety argument).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts including the first (`1` disables retrying).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base_backoff: Duration,
    /// Ceiling for the exponential backoff (jitter is applied below it).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (0-based), with a
    /// deterministic jitter of up to half the exponential step mixed in
    /// from `jitter_state` so synchronized clients do not stampede.
    fn backoff(&self, retry: u32, jitter_state: &mut u64) -> Duration {
        let step = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        // Deterministic LCG (MMIX constants): reproducible under test,
        // decorrelated across clients seeded differently.
        *jitter_state = jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let frac = (*jitter_state >> 33) as f64 / (1u64 << 31) as f64; // [0, 1)
        step + step.mul_f64(frac * 0.5)
    }
}

/// The retry-jitter stream's start for a connection bound to local
/// `port`: the golden-ratio constant with the port mixed in.
fn jitter_seed(port: u16) -> u64 {
    0x9e37_79b9_7f4a_7c15 ^ u64::from(port)
}

/// A blocking connection to a hero-server.
pub struct Client {
    stream: TcpStream,
    /// Resolved peer, kept so retry can reconnect after transport loss.
    addr: SocketAddr,
    next_id: u64,
    io_timeout: Option<Duration>,
    retry: Option<RetryPolicy>,
    jitter_state: u64,
    reconnects: u64,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.addr)
            .field("next_id", &self.next_id)
            .field("io_timeout", &self.io_timeout)
            .field("retry", &self.retry)
            .field("reconnects", &self.reconnects)
            .finish()
    }
}

impl Client {
    /// Connects to a server with the default 5-second socket timeout
    /// and no retry policy.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing")
        })?;
        let stream = Self::open(addr, Some(DEFAULT_IO_TIMEOUT))?;
        // Two connections to one listener never share a local port, so
        // clients that start together still back off apart.
        let jitter_state = jitter_seed(stream.local_addr()?.port());
        Ok(Self {
            stream,
            addr,
            next_id: 1,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            retry: None,
            jitter_state,
            reconnects: 0,
        })
    }

    fn open(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<TcpStream> {
        let stream = match timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(stream)
    }

    /// Overrides the socket read/write timeout (`None` blocks forever).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] if the socket rejects the option.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        self.io_timeout = timeout;
        Ok(())
    }

    /// Enables (or with `None`, disables) retry-with-reconnect for
    /// transport failures and backpressure rejections. Keygen and
    /// deadline-expired requests are never retried; see the module
    /// docs.
    pub fn set_retry(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// How many times this client has re-established its connection
    /// while retrying.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Drops the current connection and dials the same address again.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = Self::open(self.addr, self.io_timeout)?;
        self.reconnects += 1;
        Ok(())
    }

    /// One request/response round trip on the current connection.
    fn call_once(
        &mut self,
        tenant: &str,
        op: Op,
        payload: Vec<u8>,
        deadline_ms: Option<u32>,
    ) -> Result<Vec<u8>, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            tenant: tenant.to_string(),
            op,
            deadline_ms,
            payload,
        };
        wire::write_frame(&mut self.stream, &wire::encode_request(&req))?;
        let body = match wire::read_frame(&mut self.stream, DEFAULT_MAX_FRAME)? {
            Frame::Body(body) => body,
            Frame::Eof => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before answering",
                )))
            }
            Frame::Oversized { declared, .. } => {
                return Err(ClientError::Protocol(format!(
                "response frame of {declared} bytes exceeds client max_frame {DEFAULT_MAX_FRAME}"
            )))
            }
        };
        let resp = wire::decode_response(&body)
            .map_err(|e| ClientError::Protocol(format!("undecodable response: {e}")))?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id
            )));
        }
        resp.result.map_err(ClientError::Wire)
    }

    /// Round trip with the configured retry policy applied (if any).
    fn call(
        &mut self,
        tenant: &str,
        op: Op,
        payload: Vec<u8>,
        deadline_ms: Option<u32>,
    ) -> Result<Vec<u8>, ClientError> {
        let Some(policy) = self.retry.clone() else {
            return self.call_once(tenant, op, payload, deadline_ms);
        };
        if op == Op::Keygen {
            // Never replayed: an ambiguous failure followed by a replay
            // reports TenantExists and hides whether keygen happened.
            return self.call_once(tenant, op, payload, deadline_ms);
        }
        let mut retry = 0u32;
        loop {
            let reconnect_first = match self.call_once(tenant, op, payload.clone(), deadline_ms) {
                Ok(body) => return Ok(body),
                Err(e) if retry + 1 >= policy.max_attempts.max(1) => return Err(e),
                Err(ClientError::Io(_)) => true,
                Err(ClientError::Wire(ref e)) if e.code.is_backpressure() => false,
                Err(e) => return Err(e),
            };
            std::thread::sleep(policy.backoff(retry, &mut self.jitter_state));
            retry += 1;
            if reconnect_first {
                // Best effort: if the dial fails, the next call_once
                // reports the transport error and the loop decides
                // whether budget remains.
                let _ = self.reconnect();
            }
        }
    }

    /// Signs one message under `tenant`'s key; returns the signature
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] carries the server's typed rejection
    /// (unknown tenant, queue full, tenant busy, …).
    pub fn sign(&mut self, tenant: &str, msg: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.call(tenant, Op::Sign, msg.to_vec(), None)
    }

    /// Signs one message with a relative deadline: the server sheds the
    /// request with [`ErrorCode::DeadlineExceeded`] instead of signing
    /// if `deadline_ms` elapses (measured from frame receipt) before a
    /// batch picks it up.
    ///
    /// # Errors
    ///
    /// As [`Client::sign`], plus the typed deadline rejection.
    ///
    /// [`ErrorCode::DeadlineExceeded`]: crate::error::ErrorCode::DeadlineExceeded
    pub fn sign_with_deadline(
        &mut self,
        tenant: &str,
        msg: &[u8],
        deadline_ms: u32,
    ) -> Result<Vec<u8>, ClientError> {
        self.call(tenant, Op::Sign, msg.to_vec(), Some(deadline_ms))
    }

    /// Signs a batch of messages in one request; returns one signature
    /// per message, in order.
    ///
    /// # Errors
    ///
    /// As [`Client::sign`]; the whole batch shares one admission slot
    /// and fails as a unit.
    pub fn sign_batch(
        &mut self,
        tenant: &str,
        msgs: &[&[u8]],
    ) -> Result<Vec<Vec<u8>>, ClientError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(msgs.len() as u32).to_be_bytes());
        for msg in msgs {
            wire::put_bytes(&mut payload, msg);
        }
        let body = self.call(tenant, Op::SignBatch, payload, None)?;
        let mut at = 0;
        let count = wire::take_u32(&body, &mut at)
            .map_err(|e| ClientError::Protocol(e.to_string()))? as usize;
        if count != msgs.len() {
            return Err(ClientError::Protocol(format!(
                "batch reply has {count} signatures for {} messages",
                msgs.len()
            )));
        }
        let mut sigs = Vec::with_capacity(count);
        for _ in 0..count {
            sigs.push(
                wire::take_bytes(&body, &mut at)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?,
            );
        }
        Ok(sigs)
    }

    /// Verifies a signature under `tenant`'s public key.
    ///
    /// Returns `Ok(true)` on a valid signature, `Ok(false)` when the
    /// server rejects it as cryptographically invalid, and an error for
    /// anything else (unknown tenant, malformed bytes, transport).
    ///
    /// # Errors
    ///
    /// As [`Client::sign`] for non-verification failures.
    pub fn verify(&mut self, tenant: &str, msg: &[u8], sig: &[u8]) -> Result<bool, ClientError> {
        self.verify_inner(tenant, msg, sig, None)
    }

    /// [`Client::verify`] with a relative deadline: the server sheds the
    /// request with [`ErrorCode::DeadlineExceeded`] instead of verifying
    /// if `deadline_ms` elapses (measured from frame receipt) before the
    /// verify lane picks it up.
    ///
    /// # Errors
    ///
    /// As [`Client::verify`], plus the typed deadline rejection.
    ///
    /// [`ErrorCode::DeadlineExceeded`]: crate::error::ErrorCode::DeadlineExceeded
    pub fn verify_with_deadline(
        &mut self,
        tenant: &str,
        msg: &[u8],
        sig: &[u8],
        deadline_ms: u32,
    ) -> Result<bool, ClientError> {
        self.verify_inner(tenant, msg, sig, Some(deadline_ms))
    }

    fn verify_inner(
        &mut self,
        tenant: &str,
        msg: &[u8],
        sig: &[u8],
        deadline_ms: Option<u32>,
    ) -> Result<bool, ClientError> {
        let mut payload = Vec::new();
        wire::put_bytes(&mut payload, msg);
        wire::put_bytes(&mut payload, sig);
        match self.call(tenant, Op::Verify, payload, deadline_ms) {
            Ok(_) => Ok(true),
            Err(ClientError::Wire(e)) if e.code == crate::error::ErrorCode::VerificationFailed => {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Verifies a batch of `(message, signature)` pairs in one request;
    /// returns one [`VerifyVerdict`] per item, in order. A mixed batch
    /// is a *success* naming exactly which items failed — only
    /// tenancy/admission/framing failures are errors.
    ///
    /// # Errors
    ///
    /// As [`Client::sign`]; the whole batch shares one admission slot
    /// and fails as a unit.
    pub fn verify_batch(
        &mut self,
        tenant: &str,
        items: &[(&[u8], &[u8])],
    ) -> Result<Vec<VerifyVerdict>, ClientError> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(items.len() as u32).to_be_bytes());
        for (msg, sig) in items {
            wire::put_bytes(&mut payload, msg);
            wire::put_bytes(&mut payload, sig);
        }
        let body = self.call(tenant, Op::VerifyBatch, payload, None)?;
        let mut at = 0;
        let count = wire::take_u32(&body, &mut at)
            .map_err(|e| ClientError::Protocol(e.to_string()))? as usize;
        if count != items.len() {
            return Err(ClientError::Protocol(format!(
                "verify-batch reply has {count} verdicts for {} items",
                items.len()
            )));
        }
        let bytes = body.get(at..at + count).ok_or_else(|| {
            ClientError::Protocol("verify-batch reply shorter than its count".to_string())
        })?;
        bytes
            .iter()
            .map(|&b| {
                VerifyVerdict::from_wire(b)
                    .ok_or_else(|| ClientError::Protocol(format!("unknown verdict byte {b}")))
            })
            .collect()
    }

    /// Generates (and registers) a key pair for a new tenant on the
    /// server. `alg = None` uses the parameter set's preferred hash;
    /// `seed = Some(_)` makes generation deterministic (tests only).
    ///
    /// Keygen is exempt from the retry policy (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] with [`ErrorCode::TenantExists`] when the
    /// tenant already holds a key, or `BadRequest` for bad labels/names.
    ///
    /// [`ErrorCode::TenantExists`]: crate::error::ErrorCode::TenantExists
    pub fn keygen(
        &mut self,
        tenant: &str,
        params_label: &str,
        alg: Option<&str>,
        seed: Option<u64>,
    ) -> Result<KeygenReply, ClientError> {
        let mut payload = Vec::new();
        wire::put_str(&mut payload, params_label);
        wire::put_str(&mut payload, alg.unwrap_or(""));
        match seed {
            Some(s) => {
                payload.push(1);
                payload.extend_from_slice(&s.to_be_bytes());
            }
            None => payload.push(0),
        }
        let body = self.call(tenant, Op::Keygen, payload, None)?;
        let mut at = 0;
        let params =
            wire::take_str(&body, &mut at).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let alg =
            wire::take_str(&body, &mut at).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let public_key =
            wire::take_bytes(&body, &mut at).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok(KeygenReply {
            params,
            alg,
            public_key,
        })
    }

    /// Fetches the server's plaintext metrics page in-protocol.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`]/[`ClientError::Protocol`] on transport or
    /// framing failures.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let body = self.call("", Op::Stats, Vec::new(), None)?;
        String::from_utf8(body)
            .map_err(|_| ClientError::Protocol("stats page is not UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        };
        let mut state_a = 7u64;
        let mut state_b = 7u64;
        let a: Vec<Duration> = (0..6).map(|r| policy.backoff(r, &mut state_a)).collect();
        let b: Vec<Duration> = (0..6).map(|r| policy.backoff(r, &mut state_b)).collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        for (r, d) in a.iter().enumerate() {
            let step = Duration::from_millis(10)
                .saturating_mul(1 << r)
                .min(Duration::from_millis(200));
            assert!(
                *d >= step,
                "retry {r}: {d:?} below exponential floor {step:?}"
            );
            assert!(
                *d <= step + step.mul_f64(0.5),
                "retry {r}: {d:?} above jitter ceiling"
            );
        }
        // The cap binds: retries 5+ share the same exponential floor.
        assert!(a[5] <= Duration::from_millis(300));
    }

    #[test]
    fn clients_of_one_listener_draw_different_first_backoffs() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut a = Client::connect(addr).unwrap();
        let mut b = Client::connect(addr).unwrap();
        let policy = RetryPolicy::default();
        let first_a = policy.backoff(0, &mut a.jitter_state);
        let first_b = policy.backoff(0, &mut b.jitter_state);
        assert_ne!(
            first_a, first_b,
            "synchronized clients must not back off in lockstep"
        );
        // One client's schedule is still a pure function of its seed.
        let mut replay = jitter_seed(a.stream.local_addr().unwrap().port());
        assert_eq!(policy.backoff(0, &mut replay), first_a);
    }

    #[test]
    fn jitter_streams_decorrelate_across_seeds() {
        let policy = RetryPolicy::default();
        let mut s1 = 1u64;
        let mut s2 = 2u64;
        let d1: Vec<Duration> = (0..4).map(|r| policy.backoff(r, &mut s1)).collect();
        let d2: Vec<Duration> = (0..4).map(|r| policy.backoff(r, &mut s2)).collect();
        assert_ne!(d1, d2, "different seeds should jitter differently");
    }
}
