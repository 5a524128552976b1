//! `hero-sign` command-line entry point.

#![forbid(unsafe_code)]

use hero_sign_cli::args::Args;
use hero_sign_cli::commands;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.is_empty() {
        eprintln!("{}", hero_sign_cli::USAGE);
        std::process::exit(2);
    }
    match Args::parse(tokens).and_then(|args| commands::run(&args)) {
        Ok(output) => {
            // Ignore EPIPE so `hero-sign ... | head` exits quietly
            // instead of panicking on a closed stdout.
            use std::io::Write;
            let _ = writeln!(std::io::stdout(), "{output}");
        }
        Err(error) => {
            eprintln!("error: {error}");
            std::process::exit(error.exit_code());
        }
    }
}
