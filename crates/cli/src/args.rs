//! Minimal `--flag value` argument parser (no third-party dependency).

use crate::CliError;
use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed command line: subcommand, `--key value` options, bare flags.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses a token stream (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Rejects options missing values and unexpected positionals.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, CliError> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        match iter.next() {
            Some(cmd) if !cmd.starts_with('-') => out.command = cmd,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "expected a subcommand, got '{other}'"
                )))
            }
            None => return Err(CliError::Usage("missing subcommand".to_string())),
        }
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                // A flag if the next token is absent or another option.
                let takes_value = iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false);
                if takes_value {
                    let value = iter.next().expect("peeked");
                    out.options.insert(name.to_string(), value);
                } else {
                    out.flags.push(name.to_string());
                }
            } else {
                return Err(CliError::Usage(format!(
                    "unexpected positional argument '{token}'"
                )));
            }
        }
        Ok(out)
    }

    /// Value of `--name`, if it was given: the one getter every option
    /// goes through.
    ///
    /// # Errors
    ///
    /// When `--name` was given without a value: a bare option is never
    /// its default.
    pub fn get(&self, name: &str) -> Result<Option<&str>, CliError> {
        match self.options.get(name) {
            Some(value) => Ok(Some(value)),
            None if self.flag(name) => Err(CliError::Usage(format!("--{name} requires a value"))),
            None => Ok(None),
        }
    }

    /// Value of `--name` or an error mentioning the flag.
    ///
    /// # Errors
    ///
    /// When the option is absent or has no value.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)?
            .ok_or_else(|| CliError::Usage(format!("missing required option --{name}")))
    }

    /// Whether bare flag `--name` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--name` as a number, if it was given.
    ///
    /// # Errors
    ///
    /// When `--name` was given without a value, or its value does not
    /// parse.
    pub fn get_number<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name)?
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("--{name}: '{v}' is not a number")))
            })
            .transpose()
    }

    /// Parses `--name` as an integer with a default.
    ///
    /// # Errors
    ///
    /// As [`Args::get_number`].
    pub fn get_u32(&self, name: &str, default: u32) -> Result<u32, CliError> {
        Ok(self.get_number(name)?.unwrap_or(default))
    }

    /// Parses `--name` as a u64 with a default.
    ///
    /// # Errors
    ///
    /// As [`Args::get_number`].
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        Ok(self.get_number(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, crate::CliError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["sign", "--key", "sk.hex", "--out", "sig.bin", "--verbose"]).unwrap();
        assert_eq!(a.command, "sign");
        assert_eq!(a.get("key").unwrap(), Some("sk.hex"));
        assert_eq!(a.require("out").unwrap(), "sig.bin");
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn missing_subcommand_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--key", "x"]).is_err());
    }

    #[test]
    fn positional_after_command_rejected() {
        assert!(parse(&["sign", "stray"]).is_err());
    }

    #[test]
    fn numeric_options() {
        let a = parse(&["simulate", "--messages", "2048"]).unwrap();
        assert_eq!(a.get_u32("messages", 0).unwrap(), 2048);
        assert_eq!(a.get_u32("batch", 512).unwrap(), 512);
        let bad = parse(&["simulate", "--messages", "many"]).unwrap();
        assert!(bad.get_u32("messages", 0).is_err());
        // Given without a value, a number is an error, not the default.
        let bare = parse(&["simulate", "--messages", "--batch"]).unwrap();
        for err in [
            bare.get_u32("messages", 0).unwrap_err(),
            bare.get_u64("batch", 0).unwrap_err(),
            bare.get_number::<usize>("batch").unwrap_err(),
        ] {
            assert!(err.to_string().contains("requires a value"), "{err}");
        }
        assert_eq!(bare.get_number::<usize>("workers").unwrap(), None);
    }

    #[test]
    fn require_reports_flag_name() {
        let a = parse(&["keygen"]).unwrap();
        let err = a.require("out").unwrap_err();
        assert!(matches!(err, crate::CliError::Usage(_)));
        assert!(err.to_string().contains("--out"));
    }
}
