//! The committed `baselines/BENCH_<name>.json` files are an exact contract:
//! every number in them is a deterministic function of the seed, so each
//! binary, run at `DDE_SCALE=small DDE_REPS=2`, must reproduce its baseline
//! byte for byte. A deliberate behaviour change regenerates the baseline
//! in the same PR (see `baselines/README.md`).
//!
//! `city` is `#[ignore]`d — seconds of CPU — and runs in CI with
//! `cargo test --release -p dde-bench --test baselines -- --include-ignored`.

use dde_obs::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one test (tests run in parallel
/// and each binary writes into its cwd).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("baselines_{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_in(dir: &Path, exe: &str) -> Output {
    Command::new(exe)
        .current_dir(dir)
        .env("DDE_SCALE", "small")
        .env("DDE_REPS", "2")
        .env_remove("DDE_SEED")
        .output()
        .expect("spawn bench binary")
}

/// Where two texts first part ways, as a 1-based line number with both
/// sides (`None` = that file ended).
fn first_difference(want: &str, got: &str) -> String {
    let (mut want, mut got) = (want.lines(), got.lines());
    let mut line = 1;
    loop {
        let (w, g) = (want.next(), got.next());
        if w != g || w.is_none() {
            return format!("line {line}: baseline {w:?}, regenerated {g:?}");
        }
        line += 1;
    }
}

/// Runs `exe` and asserts the `BENCH_<name>.json` it wrote equals the
/// committed baseline; returns the parsed document.
fn assert_matches_baseline(name: &str, exe: &str) -> JsonValue {
    let dir = scratch_dir(name);
    let out = run_in(&dir, exe);
    assert!(
        out.status.success(),
        "{name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let file = format!("BENCH_{name}.json");
    let got = std::fs::read_to_string(dir.join(&file)).expect("bench binary wrote its document");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines")
        .join(&file);
    let want = std::fs::read_to_string(&baseline).expect("committed baseline");
    assert!(
        want == got,
        "{file} differs from {} at {}",
        baseline.display(),
        first_difference(&want, &got)
    );
    parse(&got).expect("bench document is valid JSON")
}

/// Collects the path of every `{mean, stddev}` stat object under `value`.
fn stat_objects(path: &str, value: &JsonValue, found: &mut Vec<String>) {
    match value {
        JsonValue::Object(pairs) => {
            if pairs.iter().any(|(k, _)| k == "mean" || k == "stddev") {
                found.push(path.to_string());
            }
            for (key, child) in pairs {
                stat_objects(&format!("{path}.{key}"), child, found);
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                stat_objects(&format!("{path}[{i}]"), child, found);
            }
        }
        _ => {}
    }
}

/// `city` carries only exact invariants: a stat object in it would be a
/// sampled (wall-clock) number re-entering a gated file.
fn assert_no_stat_objects(name: &str, doc: &JsonValue) {
    let mut found = Vec::new();
    stat_objects("$", doc, &mut found);
    assert!(
        found.is_empty(),
        "BENCH_{name}.json holds stat objects at {found:?}"
    );
}

#[test]
fn fig2_reproduces_its_baseline() {
    assert_matches_baseline("fig2", env!("CARGO_BIN_EXE_fig2"));
}

#[test]
fn fig3_reproduces_its_baseline() {
    assert_matches_baseline("fig3", env!("CARGO_BIN_EXE_fig3"));
}

#[test]
fn resilience_reproduces_its_baseline() {
    assert_matches_baseline("resilience", env!("CARGO_BIN_EXE_resilience"));
}

#[test]
fn adaptive_reproduces_its_baseline() {
    assert_matches_baseline("adaptive", env!("CARGO_BIN_EXE_adaptive"));
}

#[test]
#[ignore = "seconds of CPU: one city-scale run; CI runs it with --include-ignored"]
fn city_reproduces_its_baseline_with_no_stat_objects() {
    let doc = assert_matches_baseline("city", env!("CARGO_BIN_EXE_city"));
    assert_no_stat_objects("city", &doc);
}

#[test]
fn stat_object_walk_names_nested_offenders() {
    let doc = parse(
        r#"{"points":[{"invariant":{"events":1},"wall":{"eps":{"mean":4.5,"stddev":0.1}}}]}"#,
    )
    .expect("valid JSON");
    let mut found = Vec::new();
    stat_objects("$", &doc, &mut found);
    assert_eq!(found, ["$.points[0].wall.eps"]);
}

#[test]
fn a_failed_write_is_a_failed_run() {
    // A directory squatting on the output path makes the write fail.
    let dir = scratch_dir("unwritable");
    std::fs::create_dir(dir.join("BENCH_fig3.json")).expect("block the output path");
    let out = run_in(&dir, env!("CARGO_BIN_EXE_fig3"));
    assert!(
        !out.status.success(),
        "fig3 exited 0 without writing its document"
    );
}
