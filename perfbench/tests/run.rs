//! Runs the benchmark binary end to end and checks that a run against
//! the blessed table passes its output checks.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The shortest trace-export run: set-up plus its minimum passes. Its
/// set-up checks every workload's P8 / hints-off cell against both
/// blessed columns.
#[test]
fn blessed_table_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_hintm-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", "trace-export", "--seed", "42"])
        .args(["--seconds", "0.001", "--trace", "0"])
        .output()
        .expect("run the benchmark");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    assert!(line.contains("\"failed\":0,"), "{line}");
}
