//! The experiment harness: every table and figure of the paper's
//! evaluation as one function in a registry ([`TABLES`]), run by the
//! `paper` binary, beside the paper's published numbers ([`paper`]) that
//! each table prints next to its own.
//!
//! ```sh
//! cargo run --release --bin paper -- --list      # ids and captions
//! cargo run --release --bin paper -- table05 fig12
//! cargo run --release --bin paper -- all         # every table, in list order
//! ```

pub mod paper;
mod tables;

pub use tables::TABLES;

use std::io;

/// One table or figure of the evaluation.
pub struct Table {
    /// Command-line id: `table05`, `fig12`, `trace_schedule`, …
    pub id: &'static str,
    /// Heading printed above the table (`Table V`); empty for a table that
    /// prints no header.
    title: &'static str,
    /// One-line caption, printed beside the title and by `--list`.
    caption: &'static str,
    body: fn() -> io::Result<()>,
}

impl Table {
    /// Prints the table to stdout (`trace_schedule` also writes its two
    /// trace files into the working directory).
    pub fn run(&self) -> io::Result<()> {
        if !self.title.is_empty() {
            header(self.title, self.caption);
        }
        (self.body)()
    }
}

/// The tables `paper`'s arguments name (program name and a lone `--list`
/// excluded), in run order: `all` is every table. `Err` holds the usage
/// message, which names every valid id.
pub fn select(args: &[String]) -> Result<Vec<&'static Table>, String> {
    let mut run = Vec::new();
    for arg in args {
        if arg == "all" {
            run.extend(TABLES);
        } else {
            match TABLES.iter().find(|t| t.id == arg) {
                Some(t) => run.push(t),
                None => return Err(usage(&format!("unknown table `{arg}`"))),
            }
        }
    }
    if run.is_empty() {
        return Err(usage("no table given"));
    }
    Ok(run)
}

fn usage(problem: &str) -> String {
    let ids: Vec<&str> = TABLES.iter().map(|t| t.id).collect();
    format!(
        "paper: {problem}\nusage: paper --list | paper all | paper <id>...\nids: {}",
        ids.join(" ")
    )
}

/// `--list`'s output: one line per table, id then caption, in run order.
pub fn list() -> String {
    TABLES
        .iter()
        .map(|t| format!("{:<17} {}\n", t.id, t.caption))
        .collect()
}

/// The paper's primary evaluation platform.
fn primary_device() -> hero_gpu_sim::DeviceProps {
    hero_gpu_sim::device::rtx_4090()
}

/// Messages per run, matching the paper's Block = 1024 batches.
const EVAL_MESSAGES: u32 = 1024;

/// Renders a ratio as `x.xx×`.
fn fmt_x(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

/// Prints a horizontal rule `width` characters wide.
fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Prints a titled header for an experiment output.
fn header(title: &str, caption: &str) {
    println!();
    rule(78);
    println!("{title}: {caption}");
    rule(78);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_x(2.136), "2.14x");
    }

    #[test]
    fn eval_surface() {
        assert_eq!(primary_device().name, "RTX 4090");
    }

    #[test]
    fn registry_ids_are_unique_listed_once_and_parsed() {
        let mut ids: Vec<&str> = TABLES.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TABLES.len(), "duplicate table id");

        let listing = list();
        assert_eq!(listing.lines().count(), TABLES.len());
        for t in TABLES {
            let named = listing
                .lines()
                .filter(|line| line.split_whitespace().next() == Some(t.id))
                .count();
            assert_eq!(named, 1, "`--list` names {} {named} times", t.id);
        }

        let Err(message) = select(&args(&["table05", "table07"])) else {
            panic!("unknown id accepted");
        };
        assert!(message.contains("unknown table `table07`"), "{message}");
        for t in TABLES {
            assert!(message.contains(t.id), "usage omits {}", t.id);
        }
        assert!(select(&[]).is_err());

        let run = select(&args(&["fig12", "all"])).expect("valid ids");
        assert_eq!(run.len(), 1 + TABLES.len());
        assert_eq!(run[0].id, "fig12");
    }
}
