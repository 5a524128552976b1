//! Library backing the `hero-sign` command-line tool: argument parsing
//! and the subcommands (keygen, sign, verify, export-pubkey, tune,
//! simulate, throughput, serve, remote-sign, devices).
//!
//! Kept as a library so every code path is unit-testable without
//! spawning processes. All failures flow through the typed [`CliError`];
//! nothing in the command layer matches on strings.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use hero_sign::HeroError;
use hero_sphincs::sign::SignError;
use std::fmt;

/// Errors surfaced by the CLI.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line: unknown command/label, missing or malformed
    /// option. Exits with status 2.
    Usage(String),
    /// A file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A key or public-key file was structurally invalid.
    Keyfile(String),
    /// The HERO-Sign engine rejected the request.
    Engine(HeroError),
    /// The micro-batching sign service failed at runtime.
    Service(hero_sign::service::ServiceError),
    /// A signature failed to parse or verify.
    Signature(SignError),
    /// The network server could not start.
    Server(hero_server::ServerError),
    /// A remote request against a running server failed.
    Remote(hero_server::ClientError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(what) => f.write_str(what),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Keyfile(what) => write!(f, "key file: {what}"),
            CliError::Engine(e) => write!(f, "engine: {e}"),
            CliError::Service(e) => write!(f, "service: {e}"),
            CliError::Signature(SignError::VerificationFailed) => {
                f.write_str("signature INVALID: verification failed")
            }
            CliError::Signature(e) => write!(f, "signature: {e}"),
            CliError::Server(e) => write!(f, "{e}"),
            CliError::Remote(e) => write!(f, "remote: {e}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Io { source, .. } => Some(source),
            CliError::Engine(e) => Some(e),
            CliError::Service(e) => Some(e),
            CliError::Signature(e) => Some(e),
            CliError::Server(e) => Some(e),
            CliError::Remote(e) => Some(e),
            _ => None,
        }
    }
}

impl CliError {
    /// Wraps an I/O failure with the path it concerned.
    pub fn io(path: &str, source: std::io::Error) -> Self {
        CliError::Io {
            path: path.to_string(),
            source,
        }
    }

    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl From<HeroError> for CliError {
    fn from(e: HeroError) -> Self {
        CliError::Engine(e)
    }
}

impl From<hero_sign::service::ServiceError> for CliError {
    fn from(e: hero_sign::service::ServiceError) -> Self {
        CliError::Service(e)
    }
}

impl From<SignError> for CliError {
    fn from(e: SignError) -> Self {
        CliError::Signature(e)
    }
}

impl From<hero_server::keyfile::KeyfileError> for CliError {
    fn from(e: hero_server::keyfile::KeyfileError) -> Self {
        CliError::Keyfile(e.0)
    }
}

impl From<hero_server::ServerError> for CliError {
    fn from(e: hero_server::ServerError) -> Self {
        CliError::Server(e)
    }
}

impl From<hero_server::ClientError> for CliError {
    fn from(e: hero_server::ClientError) -> Self {
        CliError::Remote(e)
    }
}

/// Exit-status style result for command execution.
pub type CmdResult = Result<String, CliError>;

/// Top-level usage text.
pub const USAGE: &str = "\
hero-sign — SPHINCS+ signing with HERO-Sign GPU tuning (simulated substrate)

USAGE:
    hero-sign <COMMAND> [OPTIONS]

COMMANDS:
    keygen    --params <set> [--alg sha256|sha512|shake256] [--seed <u64>] --out <path>
              (shake-* sets default to --alg shake256)
    sign      --key <path> --message <file> --out <sig-file> [--workers <n>]
    verify    --key <path> | --pubkey <path>  --message <file> --sig <sig-file>
              or --sigs <a.sig,b.sig,...> --messages <a.msg,b.msg,...>
              [--workers <n>]
              (one --message may serve every --sigs entry); the batch
              runs through the planned cross-signature verifier and
              reports one verdict per file — valid, invalid, or
              malformed — failing if any is not valid
    export-pubkey --key <path> --out <path>
    tune      [--device <name>] [--params <set>] [--alg <hash>] [--dynamic-smem]
    simulate  [--device <name>] [--params <set>] [--messages <n>] [--batch <n>]
              [--streams <n>]
    throughput [--params <set>] [--clients <n>] [--requests <n>]
              [--workers <n>] [--max-batch <n>] [--seed <u64>] [--smoke]
              drive the micro-batching SignService from N client threads;
              reports latency percentiles and signs/sec vs looped sign
    serve     --keys <dir> [--addr <host:port>] [--metrics-addr <host:port>]
              [--workers <n>] [--max-batch <n>] [--queue-depth <n>]
              [--inflight <n>]
              serve sign/sign-batch/verify/keygen/stats over the
              length-prefixed TCP protocol (one tenant per key file);
              runs until stdin closes, then drains gracefully;
              HERO_FAULTS=seed:<u64>,spec:<point>@<p>[/<max>][*<ms>ms]
              enables deterministic fault injection (printed at start);
              HERO_WORKERS=<n> sizes the default worker pool
    remote-sign --addr <host:port> --tenant <name> --message <file>
              --out <sig-file> [--no-verify] [--deadline-ms <n>]
              [--timeout-ms <n>] [--retries <n>]
              sign over the network against a running `serve`;
              --deadline-ms sheds the request server-side if it cannot
              be signed in time, --retries replays transport failures
              and backpressure with jittered backoff (safe: signing is
              deterministic)
    devices   list the GPU catalog

Parameter sets: 128f 192f 256f 128s 192s 256s (SPHINCS+-<set>),
                shake-128f … shake-256s (SPHINCS+-SHAKE-<set>)
Devices:        \"GTX 1070\" \"V100\" \"RTX 2080 Ti\" \"A100\" \"RTX 4090\" \"H100\"
";

/// Parses a parameter-set label like `128f`, `shake-192s` or
/// `SPHINCS+-SHAKE-128f` (case-insensitive).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown labels.
pub fn parse_params(label: &str) -> Result<hero_sphincs::Params, CliError> {
    hero_sphincs::Params::from_label(label).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown parameter set '{}' \
             (try 128f/192f/256f/128s/192s/256s or shake-<same>)",
            label.trim().to_ascii_lowercase()
        ))
    })
}

/// The hash-algorithm labels [`parse_alg`] accepts, in display order.
pub const HASH_ALG_NAMES: [&str; 3] = hero_sphincs::HashAlg::NAMES;

/// Parses a hash-algorithm label (case-insensitive; an optional dash
/// before the width is accepted, e.g. `SHA-256`, `shake-256`).
///
/// # Errors
///
/// [`CliError::Usage`] naming every valid label on unknown input.
pub fn parse_alg(label: &str) -> Result<hero_sphincs::HashAlg, CliError> {
    hero_sphincs::HashAlg::from_label(label).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown hash algorithm '{}' (valid: {})",
            label.trim().to_ascii_lowercase(),
            HASH_ALG_NAMES.join(", ")
        ))
    })
}

/// The canonical label for a hash algorithm (inverse of [`parse_alg`]);
/// used by key files and CLI output.
pub fn alg_label(alg: hero_sphincs::HashAlg) -> &'static str {
    alg.label()
}

/// Looks a device up by name, defaulting to the RTX 4090.
///
/// # Errors
///
/// [`CliError::Usage`] on unknown devices.
pub fn parse_device(name: Option<&str>) -> Result<hero_gpu_sim::DeviceProps, CliError> {
    match name {
        None => Ok(hero_gpu_sim::device::rtx_4090()),
        Some(n) => hero_gpu_sim::device::by_name(n).ok_or_else(|| {
            CliError::Usage(format!("unknown device '{n}' (run `hero-sign devices`)"))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_files_map_to_cli_keyfile_errors() {
        fn decode(text: &str) -> Result<(), CliError> {
            hero_server::keyfile::decode(text)?;
            Ok(())
        }
        let err = decode("garbage").unwrap_err();
        assert!(matches!(err, CliError::Keyfile(_)), "{err:?}");
    }

    #[test]
    fn parses_param_labels() {
        assert_eq!(parse_params("128f").unwrap().name(), "SPHINCS+-128f");
        assert_eq!(
            parse_params("SPHINCS+-256s").unwrap().name(),
            "SPHINCS+-256s"
        );
        assert!(parse_params("512f").is_err());
    }

    #[test]
    fn parses_shake_param_labels() {
        for label in ["shake-128f", "SHAKE128F", "SPHINCS+-SHAKE-128f"] {
            assert_eq!(
                parse_params(label).unwrap().name(),
                "SPHINCS+-SHAKE-128f",
                "{label}"
            );
        }
        assert_eq!(
            parse_params("shake-256s").unwrap().name(),
            "SPHINCS+-SHAKE-256s"
        );
        assert!(parse_params("shake-512f").is_err());
    }

    #[test]
    fn parses_alg_labels_case_insensitively() {
        use hero_sphincs::HashAlg;
        assert_eq!(parse_alg("sha256").unwrap(), HashAlg::Sha256);
        assert_eq!(parse_alg("SHA-512").unwrap(), HashAlg::Sha512);
        for label in ["shake256", "SHAKE256", "Shake-256", "  shake256 "] {
            assert_eq!(parse_alg(label).unwrap(), HashAlg::Shake256, "{label}");
        }
        assert!(parse_alg("sha3").is_err());
    }

    #[test]
    fn unknown_alg_error_lists_all_valid_names() {
        let err = parse_alg("md5").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let msg = err.to_string();
        for name in HASH_ALG_NAMES {
            assert!(msg.contains(name), "error must list '{name}': {msg}");
        }
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn alg_labels_round_trip() {
        for name in HASH_ALG_NAMES {
            assert_eq!(alg_label(parse_alg(name).unwrap()), name);
        }
    }

    #[test]
    fn parses_devices() {
        assert_eq!(parse_device(None).unwrap().name, "RTX 4090");
        assert_eq!(parse_device(Some("h100")).unwrap().name, "H100");
        assert!(parse_device(Some("TPU")).is_err());
    }

    #[test]
    fn exit_codes_distinguish_usage_errors() {
        assert_eq!(CliError::Usage("bad".into()).exit_code(), 2);
        assert_eq!(CliError::from(SignError::VerificationFailed).exit_code(), 1);
    }

    #[test]
    fn errors_render_their_context() {
        let e = CliError::io(
            "sig.bin",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("sig.bin"));
        let v = CliError::from(SignError::VerificationFailed);
        assert!(v.to_string().contains("INVALID"));
    }
}
