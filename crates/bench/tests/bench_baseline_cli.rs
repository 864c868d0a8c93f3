//! `bench_baseline` checks its output path before it measures anything.

use std::process::Command;

/// An output path under a regular file cannot be created: the binary must
/// say so, naming the path, and exit with status 2 before the first
/// measured size (whose progress line starts with the node count).
#[test]
fn unwritable_output_path_fails_before_measuring() {
    let parent = std::env::temp_dir().join("epa-bench-baseline-not-a-dir");
    std::fs::write(&parent, b"a file, not a directory").expect("temp file");
    let path = parent.join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .arg(&path)
        .output()
        .expect("bench_baseline runs");
    let _ = std::fs::remove_file(&parent);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&*path.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("nodes:"), "measured first: {stderr}");
}
