//! Records the compiler version and a fingerprint of the measured
//! sources for the provenance stamp of every result (the benchmark may
//! run from a checkout that is not a git repository).

use std::path::Path;
use std::process::Command;

/// FNV-1a over the relative path and contents of `path` and, for a
/// directory, of every file under it in sorted order.
fn hash_path(root: &Path, path: &Path, h: &mut u64) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            hash_path(root, &p, h);
        }
    } else if let Ok(bytes) = std::fs::read(path) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(bytes) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in ["crates", "src", "Cargo.toml", "Cargo.lock"] {
        hash_path(&root, &root.join(part), &mut h);
        println!("cargo:rerun-if-changed=../{part}");
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE={h:016x}");
    println!("cargo:rerun-if-changed=build.rs");
}
