//! The benchmark writes only into the directory named by `--out`: run a
//! copy of the binary from a temporary tree and check that nothing in the
//! source tree and nothing else in the temporary tree changed.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

type Listing = BTreeMap<PathBuf, (u64, SystemTime)>;

/// Every regular file under `root` with its size and mtime, skipping
/// build output directories.
fn listing(root: &Path) -> Listing {
    let mut out = Listing::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for e in fs::read_dir(&dir).expect("readable dir") {
            let e = e.expect("dir entry");
            let path = e.path();
            let name = e.file_name();
            let ft = e.file_type().expect("file type");
            if ft.is_dir() {
                if !matches!(name.to_str(), Some("target" | ".bench_build" | ".git")) {
                    stack.push(path);
                }
            } else if ft.is_file() {
                let md = e.metadata().expect("metadata");
                out.insert(path, (md.len(), md.modified().expect("mtime")));
            }
        }
    }
    out
}

#[test]
fn writes_only_into_the_output_directory() {
    let source = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let tree =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("copied-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tree);
    fs::create_dir_all(tree.join("bin")).expect("temporary tree");
    let bin = tree.join("bin").join("normbench");
    fs::copy(env!("CARGO_BIN_EXE_normbench"), &bin).expect("copy the binary");

    let source_before = listing(&source);
    let tree_before = listing(&tree);
    let status = Command::new(&bin)
        .current_dir(&tree)
        .args([
            "--workload",
            "rx_small_policy",
            "--seed",
            "7",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--out", "results"])
        .status()
        .expect("run the benchmark");
    assert!(status.success(), "benchmark exited with {status}");

    assert_eq!(listing(&source), source_before, "the source tree changed");
    let mut tree_after = listing(&tree);
    let record = tree
        .join("results")
        .join("rx_small_policy.seed7.trace0.json");
    assert!(
        tree_after.remove(&record).is_some(),
        "no record in the output directory"
    );
    assert_eq!(tree_after, tree_before, "files outside --out changed");
    fs::remove_dir_all(&tree).expect("clean up");
}
