//! The hex key-file format shared by the CLI and the server's tenant
//! keystore (moved here from the CLI crate so both load one format).
//!
//! A signing key is stored as a small self-describing text file:
//!
//! ```text
//! hero-sign-key v1
//! params: SPHINCS+-128f
//! alg: sha256
//! sk_seed: <hex>
//! sk_prf: <hex>
//! pk_seed: <hex>
//! ```
//!
//! SHA and SHAKE shapes alike: `params:` carries any label
//! [`Params::from_label`] accepts and `alg:` any label
//! [`HashAlg::from_label`] accepts. The public root is recomputed on
//! load (top-subtree keygen only, a few thousand hashes), which doubles
//! as an integrity check.

use hero_sphincs::hash::HashAlg;
use hero_sphincs::{keygen_from_seeds_with_alg, Params, SigningKey, VerifyingKey};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// A structurally invalid key or public-key file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyfileError(pub String);

impl fmt::Display for KeyfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key file: {}", self.0)
    }
}

impl std::error::Error for KeyfileError {}

/// Serializes bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses lowercase/uppercase hex: pairs of ASCII hex digits, nothing
/// else (no sign, no non-ASCII character).
///
/// # Errors
///
/// On odd length or non-hex characters.
pub fn from_hex(s: &str) -> Result<Vec<u8>, KeyfileError> {
    let s = s.trim().as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(KeyfileError("hex string has odd length".to_string()));
    }
    let digit = |i: usize| {
        (s[i] as char)
            .to_digit(16)
            .ok_or_else(|| KeyfileError(format!("bad hex at {}", i & !1)))
    };
    (0..s.len())
        .step_by(2)
        .map(|i| Ok((digit(i)? << 4 | digit(i + 1)?) as u8))
        .collect()
}

/// Renders a key file from its seed material.
pub fn encode(
    params: &Params,
    alg: HashAlg,
    sk_seed: &[u8],
    sk_prf: &[u8],
    pk_seed: &[u8],
) -> String {
    format!(
        "hero-sign-key v1\nparams: {}\nalg: {}\nsk_seed: {}\nsk_prf: {}\npk_seed: {}\n",
        params.name(),
        alg.label(),
        to_hex(sk_seed),
        to_hex(sk_prf),
        to_hex(pk_seed),
    )
}

fn field<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    label: &str,
) -> Result<String, KeyfileError> {
    let line = lines
        .next()
        .ok_or_else(|| KeyfileError(format!("missing field '{label}'")))?;
    line.strip_prefix(&format!("{label}: "))
        .map(str::to_string)
        .ok_or_else(|| KeyfileError(format!("expected '{label}: …', got '{line}'")))
}

fn parse_params(label: &str) -> Result<Params, KeyfileError> {
    Params::from_label(label)
        .ok_or_else(|| KeyfileError(format!("unknown parameter set '{label}'")))
}

fn parse_alg(label: &str) -> Result<HashAlg, KeyfileError> {
    HashAlg::from_label(label)
        .ok_or_else(|| KeyfileError(format!("unknown hash algorithm '{label}'")))
}

/// Parses a key file and reconstructs the key pair.
///
/// # Errors
///
/// On malformed structure, unknown labels, or wrong seed lengths.
pub fn decode(text: &str) -> Result<(SigningKey, VerifyingKey), KeyfileError> {
    let mut lines = text.lines();
    match lines.next() {
        Some("hero-sign-key v1") => {}
        _ => return Err(KeyfileError("not a hero-sign-key v1 file".to_string())),
    }
    let params = parse_params(&field(&mut lines, "params")?)?;
    let alg = parse_alg(&field(&mut lines, "alg")?)?;
    let sk_seed = from_hex(&field(&mut lines, "sk_seed")?)?;
    let sk_prf = from_hex(&field(&mut lines, "sk_prf")?)?;
    let pk_seed = from_hex(&field(&mut lines, "pk_seed")?)?;
    for (name, v) in [
        ("sk_seed", &sk_seed),
        ("sk_prf", &sk_prf),
        ("pk_seed", &pk_seed),
    ] {
        if v.len() != params.n {
            return Err(KeyfileError(format!(
                "{name} must be {} bytes, got {}",
                params.n,
                v.len()
            )));
        }
    }
    Ok(keygen_from_seeds_with_alg(
        params, alg, sk_seed, sk_prf, pk_seed,
    ))
}

/// A unique sibling temp path for staging an atomic write of `path`
/// (same directory, so the final rename/link never crosses filesystems).
fn staging_path(path: &Path) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("key");
    path.with_file_name(format!(
        ".{stem}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Stages `contents` in a sibling temp file, fsyncs it, then writes it
/// into the staging slot fully before it is published. Returns the temp
/// path; the caller finishes the publish (rename or link) and removes
/// the temp file on failure.
fn stage(path: &Path, contents: &str) -> io::Result<PathBuf> {
    let tmp = staging_path(path);
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&tmp)?;
    if let Err(e) =
        io::Write::write_all(&mut file, contents.as_bytes()).and_then(|()| file.sync_all())
    {
        drop(file);
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(tmp)
}

/// Crash-safe overwrite: `contents` lands at `path` completely or not at
/// all. The bytes are staged in a sibling temp file, fsynced, and
/// renamed into place — a crash at any step leaves either the old file
/// or the new one, never a truncated hybrid.
///
/// # Errors
///
/// Any underlying I/O failure; on rename failure the temp file is
/// removed, leaving `path` untouched.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = stage(path, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Crash-safe *exclusive* create: like [`write_atomic`], but fails with
/// [`io::ErrorKind::AlreadyExists`] when `path` is already present. The
/// staged temp file is published with a hard link, which is atomic and
/// refuses to clobber — so two concurrent writers race safely: exactly
/// one wins, the loser sees `AlreadyExists`, and `path` is never
/// observable half-written.
///
/// # Errors
///
/// [`io::ErrorKind::AlreadyExists`] when `path` exists, or any
/// underlying I/O failure; the temp file is removed either way.
pub fn write_new_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = stage(path, contents)?;
    let published = std::fs::hard_link(&tmp, path);
    let _ = std::fs::remove_file(&tmp);
    published
}

/// Renders a public-key file (`pk_seed || pk_root` in hex, no secrets).
pub fn encode_public(vk: &VerifyingKey) -> String {
    format!(
        "hero-sign-pubkey v1\nparams: {}\nalg: {}\npk: {}\n",
        vk.params().name(),
        vk.alg().label(),
        to_hex(&vk.to_bytes()),
    )
}

/// Parses a public-key file written by [`encode_public`].
///
/// # Errors
///
/// On malformed structure or a wrong-length key.
pub fn decode_public(text: &str) -> Result<VerifyingKey, KeyfileError> {
    let mut lines = text.lines();
    match lines.next() {
        Some("hero-sign-pubkey v1") => {}
        _ => return Err(KeyfileError("not a hero-sign-pubkey v1 file".to_string())),
    }
    let params = parse_params(&field(&mut lines, "params")?)?;
    let alg = parse_alg(&field(&mut lines, "alg")?)?;
    let pk = from_hex(&field(&mut lines, "pk")?)?;
    VerifyingKey::from_bytes(params, alg, &pk).map_err(|e| KeyfileError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0u8, 1, 0xab, 0xff];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn hex_is_ascii_digits_only() {
        // An even byte count that is not even characters, and the sign
        // `from_str_radix` would accept: errors, not a panic or a byte.
        assert!(from_hex("a\u{e9}b").is_err());
        assert!(from_hex("\u{e9}\u{e9}").is_err());
        assert!(from_hex("+f+f").is_err());
        assert!(from_hex("-1").is_err());
        assert_eq!(from_hex(" 0aF9 ").unwrap(), [0x0a, 0xf9]);
    }

    #[test]
    fn keyfile_roundtrip_preserves_keys() {
        let p = Params::sphincs_128f();
        let sk_seed = vec![1u8; 16];
        let sk_prf = vec![2u8; 16];
        let pk_seed = vec![3u8; 16];
        let text = encode(&p, HashAlg::Sha256, &sk_seed, &sk_prf, &pk_seed);
        let (sk, vk) = decode(&text).expect("decode");
        assert_eq!(sk.params().name(), "SPHINCS+-128f");
        assert_eq!(sk.sk_seed(), &sk_seed[..]);
        assert_eq!(vk.pk_seed(), &pk_seed[..]);
    }

    #[test]
    fn malformed_files_rejected() {
        assert!(decode("garbage").is_err());
        let p = Params::sphincs_128f();
        let good = encode(&p, HashAlg::Sha256, &[1; 16], &[2; 16], &[3; 16]);
        let truncated: String = good.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(decode(&truncated).is_err());
        let wrong_len = good.replace(&to_hex(&[1u8; 16]), &to_hex(&[1u8; 8]));
        assert!(decode(&wrong_len).is_err());
    }

    #[test]
    fn atomic_writers_publish_whole_files_and_respect_exclusivity() {
        let dir = std::env::temp_dir().join(format!("hero-keyfile-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tenant.key");

        write_new_atomic(&path, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");

        // Exclusive create refuses to clobber, typed as AlreadyExists.
        let err = write_new_atomic(&path, "usurper\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");

        // Overwrite replaces the whole file.
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");

        // No staging litter survives any of the above.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path() != path)
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sha512_keyfiles_roundtrip() {
        let p = Params::sphincs_128f();
        let text = encode(&p, HashAlg::Sha512, &[4; 16], &[5; 16], &[6; 16]);
        let (sk, _) = decode(&text).expect("decode");
        assert_eq!(sk.alg(), HashAlg::Sha512);
    }

    #[test]
    fn shake_keyfiles_roundtrip() {
        let p = Params::shake_128f();
        let text = encode(&p, HashAlg::Shake256, &[4; 16], &[5; 16], &[6; 16]);
        assert!(text.contains("params: SPHINCS+-SHAKE-128f"), "{text}");
        assert!(text.contains("alg: shake256"), "{text}");
        let (sk, vk) = decode(&text).expect("decode");
        assert_eq!(sk.alg(), HashAlg::Shake256);
        assert_eq!(sk.params().name(), "SPHINCS+-SHAKE-128f");
        assert_eq!(encode_public(&vk).lines().nth(2), text.lines().nth(2));
    }
}
