//! The paper's outputs as golden files: every table of the `paper`
//! binary but `table10` (which times this host) prints byte for byte what
//! `golden/<id>.txt` holds, and `trace_schedule`'s two trace files match
//! their golden copies. A change to the model or to the tables that
//! means to move them regenerates the files:
//!
//! ```sh
//! cargo build --release --bin paper
//! for id in $(target/release/paper --list | awk '{print $1}'); do
//!     [ "$id" = table10 ] || (cd crates/bench/golden && ../../../target/release/paper "$id" > "$id.txt")
//! done
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// A directory of its own under the system's temporary directory,
/// removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hero-golden-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temporary directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_deterministic_table_matches_its_golden_file() {
    let dir = TempDir::new("tables");
    let mut differ = Vec::new();
    for table in hero_bench::TABLES.iter().filter(|t| t.id != "table10") {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .arg(table.id)
            .current_dir(&dir.0)
            .output()
            .expect("the paper binary runs");
        assert!(
            out.status.success(),
            "paper {} exited {}",
            table.id,
            out.status
        );
        if out.stdout != golden(&format!("{}.txt", table.id)) {
            differ.push(table.id);
        }
    }
    for trace in ["hero_baseline_trace.json", "hero_graph_trace.json"] {
        let written = std::fs::read(dir.0.join(trace)).expect("trace_schedule wrote its trace");
        if written != golden(trace) {
            differ.push(trace);
        }
    }
    assert!(
        differ.is_empty(),
        "differ from their golden files: {differ:?}"
    );
}
