//! Stamp the binary with its run identity: compiler version, build profile
//! and the source commit.  The commit is read straight from `.git` files
//! (no subprocess, no search above the repository); a tree exported without
//! `.git` reports `unknown`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=VISBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=VISBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string())
    );

    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let git = manifest.join("..").join(".git");
    println!(
        "cargo:rustc-env=VISBENCH_COMMIT={}",
        git_commit(&git).unwrap_or_else(|| "unknown".to_string())
    );
}

/// Resolve `HEAD` to a commit id from the loose ref or `packed-refs`,
/// registering every file consulted so a new commit re-stamps the build.
fn git_commit(git: &Path) -> Option<String> {
    let head_path = git.join("HEAD");
    let head = std::fs::read_to_string(&head_path).ok()?;
    println!("cargo:rerun-if-changed={}", head_path.display());
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose = git.join(reference);
    if let Ok(id) = std::fs::read_to_string(&loose) {
        println!("cargo:rerun-if-changed={}", loose.display());
        return Some(id.trim().to_string());
    }
    let packed_path = git.join("packed-refs");
    let packed = std::fs::read_to_string(&packed_path).ok()?;
    println!("cargo:rerun-if-changed={}", packed_path.display());
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
