//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! paper --list             # every id with its caption
//! paper table05 fig12      # those tables, in that order
//! paper all                # every table, in list order
//! ```
//!
//! Exit codes: 0 ok, 1 a table failed (`trace_schedule` could not write
//! its trace files), 2 usage error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        print!("{}", hero_bench::list());
        return ExitCode::SUCCESS;
    }
    let tables = match hero_bench::select(&args) {
        Ok(tables) => tables,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    for table in tables {
        if let Err(e) = table.run() {
            eprintln!("paper {}: {e}", table.id);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
