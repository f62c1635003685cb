//! Workspace self-check: the shipped `lint.toml` applied to this repository
//! must report **zero unallowed violations**. This is the same gate CI runs
//! via `cargo run -p dde-lint`; keeping it as a test means `cargo test`
//! alone catches regressions (a new `HashMap` in a state crate, a stray
//! `unwrap()` in a library) without a separate tool invocation.

use dde_lint::{Config, LintReport};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_has_no_unallowed_violations() {
    let root = workspace_root();
    let cfg_path = root.join("lint.toml");
    let text = std::fs::read_to_string(&cfg_path).expect("lint.toml exists at workspace root");
    let cfg = Config::from_toml_str(&text).expect("lint.toml parses");

    let report: LintReport = dde_lint::run(&root, &cfg).expect("lint run succeeds");

    assert!(
        report.files_scanned > 50,
        "sanity: expected to scan the whole workspace, got {} files",
        report.files_scanned
    );

    let violations: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.is_violation())
        .map(|d| format!("{}:{}:{}: {}", d.path, d.line, d.col, d.message))
        .collect();
    assert!(
        violations.is_empty(),
        "workspace must be lint-clean under the shipped lint.toml:\n{}",
        violations.join("\n")
    );

    // The allowlist must also be live: every `lint.toml` entry and every
    // inline marker still suppresses at least one finding. Stale allows
    // are how suppressions outlive the code they excused.
    let stale: Vec<String> = report.stale_allows.iter().map(|s| s.to_string()).collect();
    assert!(
        stale.is_empty(),
        "stale allow entries must be pruned:\n{}",
        stale.join("\n")
    );
    assert!(report.is_clean(), "report must be clean end to end");

    // Structural passes R6-R8 actually ran over their scoped crates.
    for (rule, stats) in &report.stats {
        use dde_lint::RuleId::*;
        if matches!(rule, AttributionKey | StableEventKey | MergeOrder) {
            assert!(
                stats.files_checked > 0,
                "{rule:?} checked no files; structural scoping is broken"
            );
        }
    }
}

#[test]
fn allowlist_report_carries_reasons() {
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("lint.toml"))
        .expect("lint.toml exists at workspace root");
    let cfg = Config::from_toml_str(&text).expect("lint.toml parses");
    let report = dde_lint::run(&root, &cfg).expect("lint run succeeds");

    // Every allowed diagnostic must say *why* it is allowed — either an
    // inline marker reason or the config entry that matched.
    let allowed: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| !d.is_violation())
        .collect();
    assert!(
        !allowed.is_empty(),
        "the workspace documents its invariant-backed panics via allow markers"
    );
    for d in &allowed {
        let reason = match &d.allowed {
            Some(dde_lint::AllowSource::Marker { reason }) => reason.clone(),
            Some(dde_lint::AllowSource::Config { entry }) => entry.clone(),
            None => unreachable!("filtered to allowed"),
        };
        assert!(
            !reason.trim().is_empty(),
            "{}:{} allowed without a reason",
            d.path,
            d.line
        );
    }
}
