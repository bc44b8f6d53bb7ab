//! Modeled outputs and every layer count repeat exactly for a seed, and
//! a second seed passes every correctness check.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Runs one traced workload into `dir` and returns the record's
/// `"modeled"` line (virtual-time outputs and layer counts).
fn modeled(workload: &str, seed: u64, dir: &Path) -> String {
    let status = Command::new(env!("CARGO_BIN_EXE_normbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1", "--out"])
        .arg(dir)
        .status()
        .expect("run the benchmark");
    assert!(
        status.success(),
        "{workload} seed {seed}: exited with {status}"
    );
    let record = fs::read_to_string(dir.join(format!("{workload}.seed{seed}.trace1.json")))
        .expect("record written");
    record
        .lines()
        .find(|l| l.starts_with("\"modeled\""))
        .expect("record has a modeled line")
        .to_string()
}

#[test]
fn modeled_outputs_repeat_for_a_seed() {
    let root =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("determinism-{}", std::process::id()));
    for workload in ["rx_small_policy", "rx_bulk_workers", "mixed_churn_traced"] {
        let a = modeled(workload, 3, &root.join("a"));
        let b = modeled(workload, 3, &root.join("b"));
        assert_eq!(a, b, "{workload}: modeled outputs differ between runs");
        let other = modeled(workload, 1_000_003, &root.join("c"));
        assert_ne!(a, other, "{workload}: the seed does not reach the inputs");
    }
    fs::remove_dir_all(&root).expect("clean up");
}
