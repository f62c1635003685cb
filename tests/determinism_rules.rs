//! The determinism rules hold only while their configuration is in place.
//! Clippy enforces the hashed-state, ambient-input and panic bans from
//! `clippy.toml` and each library crate's `#![deny]` line; this suite checks
//! that both are still there. It also checks the one rule clippy cannot
//! state: no float ordering through `partial_cmp`, whose `unwrap_or(Equal)`
//! idiom makes a sort depend on input order once a NaN appears.
//! `tests/clippy_rejects/` shows clippy rejecting each clippy-held rule.

use std::fs;
use std::path::{Path, PathBuf};

/// Every crate under `crates/` except the bench harness: the code that runs
/// inside a replayed simulation.
const LIBRARY_CRATES: [&str; 9] = [
    "core", "coverage", "logic", "naming", "net", "netsim", "obs", "sched", "workload",
];

/// The lints each library crate denies.
const DENIED: &str = "clippy::disallowed_methods clippy::disallowed_types \
     clippy::unwrap_used clippy::expect_used";

/// The `std::` paths `clippy.toml` must ban.
const BANNED: &str = "collections::HashMap collections::HashSet time::Instant::now \
     time::SystemTime::now env::var env::var_os env::vars env::args env::current_dir \
     env::temp_dir";

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The sorted entries of `dir`.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let read = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = read.map(|entry| entry.unwrap().path()).collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in entries(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_library_crate_denies_the_four_lints() {
    let crates: Vec<PathBuf> = entries(&root().join("crates"));
    let names: Vec<_> = crates.iter().filter_map(|p| p.file_name()).collect();
    let libraries: Vec<_> = names.into_iter().filter(|n| *n != "bench").collect();
    assert_eq!(libraries, LIBRARY_CRATES, "a new crate needs the deny line");
    for krate in LIBRARY_CRATES {
        let path = root().join("crates").join(krate).join("src/lib.rs");
        let file = path.display();
        let text: String = read(&path).split_whitespace().collect();
        let start = text.find("#![deny(clippy::");
        let start = start.unwrap_or_else(|| panic!("{file} has no clippy #![deny]"));
        let deny = &text[start..start + text[start..].find(")]").unwrap()];
        for lint in DENIED.split_whitespace() {
            assert!(deny.contains(lint), "{file} does not deny {lint}");
        }
    }
}

#[test]
fn clippy_toml_bans_hashed_state_and_ambient_inputs() {
    let config = read(&root().join("clippy.toml"));
    for path in BANNED.split_whitespace() {
        let entry = format!("path = \"std::{path}\"");
        assert!(config.contains(&entry), "clippy.toml lost std::{path}");
    }
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests"] {
        let entry = format!("{key} = true");
        assert!(config.contains(&entry), "clippy.toml lost `{entry}`");
    }
}

#[test]
fn no_crate_source_orders_by_partial_cmp() {
    let mut files = Vec::new();
    for krate in entries(&root().join("crates")) {
        rust_files(&krate.join("src"), &mut files);
    }
    let offenders: Vec<String> = files
        .iter()
        .filter(|path| read(path).contains(".partial_cmp("))
        .map(|path| path.display().to_string())
        .collect();
    assert!(offenders.is_empty(), "use f64::total_cmp in {offenders:?}");
}
