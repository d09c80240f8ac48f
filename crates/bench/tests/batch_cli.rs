//! `oscar-batch` job-file errors: a bad line exits 2 with its
//! `PATH:LINE:` location, in-process and in connect mode alike, and in
//! connect mode before any connection is attempted.

use std::path::PathBuf;
use std::process::Command;

fn job_file(name: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("oscar-batch-cli-{name}-{}.txt", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

/// Runs `oscar-batch --file PATH` plus `extra`, returning the exit code
/// and stderr.
fn run_batch(path: &PathBuf, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oscar-batch"))
        .arg("--file")
        .arg(path)
        .args(extra)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_job_lines_exit_2_with_their_line_number_in_both_modes() {
    let cases = [
        ("malformed", "8 1 10 10 0.2\n8 1 ten 10 0.2\n"),
        ("odd-qubits", "8 1 10 10 0.2\n7 1 10 10 0.2\n"),
        ("one-row", "8 1 10 10 0.2\n8 1 1 10 0.2\n"),
    ];
    for (name, text) in cases {
        let path = job_file(name, text);
        for extra in [&[][..], &["--connect", "/nonexistent.sock"][..]] {
            let (code, stderr) = run_batch(&path, extra);
            assert_eq!(code, Some(2), "{name} {extra:?}: stderr {stderr}");
            assert!(
                stderr.contains(&format!("{}:2:", path.display())),
                "{name} {extra:?}: stderr {stderr}"
            );
            assert!(
                !stderr.contains("cannot connect"),
                "{name} {extra:?}: connected before parsing: {stderr}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
