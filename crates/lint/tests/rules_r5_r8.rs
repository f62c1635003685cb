//! Fixture-based coverage for the structural passes R6–R8 (the file keeps
//! the name it had when R5 existed).
//!
//! Each rule is exercised with one failing and one passing fixture under
//! `tests/fixtures/`. The fixtures are real Rust source (they must lex
//! cleanly) but are never compiled; they are parsed with the vendored
//! lexer and checked exactly as the engine would check a workspace file.

use std::collections::BTreeMap;
use std::path::Path;

use dde_lint::rules::check_file;
use dde_lint::{Config, RuleId, SourceFile};

fn check_fixture(name: &str, crate_name: &str) -> Vec<dde_lint::Diagnostic> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    let file = SourceFile::parse(name, crate_name, false, &src)
        .unwrap_or_else(|e| panic!("lex fixture {name}: {e}"));
    let mut stats = BTreeMap::new();
    check_file(&file, &Config::default(), &mut stats).diagnostics
}

fn lines_for(diags: &[dde_lint::Diagnostic], rule: RuleId) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

fn assert_only_rule(diags: &[dde_lint::Diagnostic], rule: RuleId, fixture: &str) {
    let strays: Vec<_> = diags.iter().filter(|d| d.rule != rule).collect();
    assert!(
        strays.is_empty(),
        "{fixture}: expected only {rule:?} findings, got {strays:?}"
    );
}

#[test]
fn r6_fail_fixture_flags_unattributed_emits() {
    let diags = check_fixture("r6_fail.rs", "dde-netsim");
    assert_only_rule(&diags, RuleId::AttributionKey, "r6_fail.rs");
    let lines = lines_for(&diags, RuleId::AttributionKey);
    // Missing `query` on Transmit, literal `query: None` on Deliver, and
    // the use-imported bare `Loss` with no `query`.
    assert_eq!(lines.len(), 3, "r6_fail.rs findings: {diags:?}");
}

#[test]
fn r6_pass_fixture_is_clean() {
    let diags = check_fixture("r6_pass.rs", "dde-netsim");
    assert!(diags.is_empty(), "r6_pass.rs should be clean: {diags:?}");
}

#[test]
fn r7_fail_fixture_flags_raw_keys_and_tuple_push() {
    let diags = check_fixture("r7_fail.rs", "dde-netsim");
    assert_only_rule(&diags, RuleId::StableEventKey, "r7_fail.rs");
    let lines = lines_for(&diags, RuleId::StableEventKey);
    // Raw `EventKey { .. }` literal plus the `(at, node)` heap push.
    assert_eq!(lines.len(), 2, "r7_fail.rs findings: {diags:?}");
}

#[test]
fn r7_pass_fixture_is_clean() {
    let diags = check_fixture("r7_pass.rs", "dde-netsim");
    assert!(diags.is_empty(), "r7_pass.rs should be clean: {diags:?}");
}

#[test]
fn r8_fail_fixture_flags_unsorted_merge_points() {
    let diags = check_fixture("r8_fail.rs", "dde-bench");
    assert_only_rule(&diags, RuleId::MergeOrder, "r8_fail.rs");
    let lines = lines_for(&diags, RuleId::MergeOrder);
    // `results.drain`, `self.results.iter`, `results.into_iter`.
    assert_eq!(lines.len(), 3, "r8_fail.rs findings: {diags:?}");
}

#[test]
fn r8_pass_fixture_is_clean() {
    let diags = check_fixture("r8_pass.rs", "dde-bench");
    assert!(diags.is_empty(), "r8_pass.rs should be clean: {diags:?}");
}

#[test]
fn structural_rules_respect_crate_scoping() {
    // The same sources checked under a crate outside every structural
    // scope must produce nothing at all.
    for fixture in ["r6_fail.rs", "r7_fail.rs", "r8_fail.rs"] {
        let diags = check_fixture(fixture, "dde-cli");
        assert!(
            diags.is_empty(),
            "{fixture} under out-of-scope crate: {diags:?}"
        );
    }
}
