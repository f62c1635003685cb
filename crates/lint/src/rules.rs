//! The rule passes (R1–R4, R6–R8) over a parsed [`SourceFile`].
//!
//! R1–R4 are pure token-pattern scans. The structural passes R6–R8 also
//! consult the file's [`ItemIndex`] — `use` resolution, `impl` spans, and
//! enclosing-`fn` lookup — so they can tell an imported `EventKind` variant
//! from another enum's, a key constructor inside `impl EventKey` from a raw
//! literal outside it, and a sorted merge from an unsorted one.

use crate::config::Config;
use crate::engine::{significant, SourceFile};
use crate::items::ItemIndex;
use crate::report::{AllowSource, Diagnostic, RuleId, RuleStats};
use std::collections::{BTreeMap, BTreeSet};
use syn::{Token, TokenKind};

/// Ambient-nondeterminism method paths flagged by R2, as `TYPE::method`
/// pairs; `None` matches a bare identifier (free fn or import).
const NONDET_PATHS: &[(Option<&str>, &str)] = &[
    (Some("Instant"), "now"),
    (Some("SystemTime"), "now"),
    (None, "thread_rng"),
    (None, "from_entropy"),
    (Some("env"), "var"),
    (Some("env"), "var_os"),
    (Some("env"), "vars"),
    (Some("env"), "args"),
    (Some("env"), "current_dir"),
    (Some("env"), "temp_dir"),
];

struct Finding {
    rule: RuleId,
    tok_idx: usize,
    snippet: String,
    message: String,
}

/// One file's worth of resolved diagnostics, plus which allows earned
/// their keep — the raw material for stale-allow detection.
#[derive(Debug, Default)]
pub struct FileCheck {
    /// Diagnostics in rule-pass order (the engine re-sorts globally).
    pub diagnostics: Vec<Diagnostic>,
    /// Indices into [`SourceFile::markers`] that suppressed a finding.
    pub used_markers: Vec<usize>,
    /// `(rule, entry)` pairs of `lint.toml` allows that suppressed a
    /// finding in this file.
    pub used_config: Vec<(RuleId, String)>,
}

/// Times one rule pass and accumulates its footer stats.
///
/// The wall clock feeds only the (optional) report footer, never a lint
/// decision, so this is exempt from the workspace's own R2/clippy bans.
#[allow(clippy::disallowed_methods)]
fn timed(
    rule: RuleId,
    stats: &mut BTreeMap<RuleId, RuleStats>,
    out: &mut Vec<Finding>,
    pass: impl FnOnce(&mut Vec<Finding>),
) {
    let t0 = std::time::Instant::now();
    pass(out);
    let s = stats.entry(rule).or_default();
    s.files_checked += 1;
    s.micros += t0.elapsed().as_micros() as u64;
}

/// Runs every applicable rule over `file`, resolving inline markers and
/// `lint.toml` allowlist entries into [`Diagnostic::allowed`], and
/// accumulating per-rule footer stats into `stats`.
pub fn check_file(
    file: &SourceFile,
    cfg: &Config,
    stats: &mut BTreeMap<RuleId, RuleStats>,
) -> FileCheck {
    let mut findings = Vec::new();
    if cfg.state_crates.contains(&file.crate_name) {
        timed(RuleId::HashState, stats, &mut findings, |out| {
            rule_hash_state(file, out)
        });
    }
    if !cfg.nondet_exempt_crates.contains(&file.crate_name) {
        timed(RuleId::AmbientNondeterminism, stats, &mut findings, |out| {
            rule_ambient_nondeterminism(file, out)
        });
    }
    timed(RuleId::FloatOrder, stats, &mut findings, |out| {
        rule_float_order(file, out)
    });
    if cfg.library_crates.contains(&file.crate_name) {
        timed(RuleId::Panic, stats, &mut findings, |out| {
            rule_panic(file, out)
        });
    }
    let structural = [
        cfg.emit_crates.contains(&file.crate_name),
        cfg.event_key_crates.contains(&file.crate_name),
        cfg.merge_crates.contains(&file.crate_name),
    ];
    if structural.iter().any(|&b| b) {
        let index = ItemIndex::build(file.tokens());
        if structural[0] {
            timed(RuleId::AttributionKey, stats, &mut findings, |out| {
                rule_attribution_key(file, &index, out)
            });
        }
        if structural[1] {
            timed(RuleId::StableEventKey, stats, &mut findings, |out| {
                rule_stable_event_key(file, cfg, &index, out)
            });
        }
        if structural[2] {
            timed(RuleId::MergeOrder, stats, &mut findings, |out| {
                rule_merge_order(file, cfg, &index, out)
            });
        }
    }
    let mut check = FileCheck::default();
    check.diagnostics = findings
        .into_iter()
        .map(|f| {
            let tok = &file.tokens()[f.tok_idx];
            let allowed = match file.marker_lookup(f.rule, tok.line) {
                Some((idx, reason)) => {
                    check.used_markers.push(idx);
                    Some(AllowSource::Marker {
                        reason: reason.to_string(),
                    })
                }
                None => cfg.allows(f.rule, &file.path, tok.line).map(|entry| {
                    check.used_config.push((f.rule, entry.to_string()));
                    AllowSource::Config {
                        entry: entry.to_string(),
                    }
                }),
            };
            Diagnostic {
                rule: f.rule,
                path: file.path.clone(),
                line: tok.line,
                col: tok.col,
                snippet: f.snippet,
                message: f.message,
                allowed,
            }
        })
        .collect();
    check
}

/// R1: any `HashMap`/`HashSet` mention in non-test code of a state crate.
/// Flagging the *type name* (imports included) rather than iteration sites
/// is deliberate: hash-ordered state is a replay hazard the moment it
/// exists, not only once someone iterates it.
fn rule_hash_state(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, t) in file.tokens().iter().enumerate() {
        if t.kind == TokenKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !file.in_test(i)
        {
            out.push(Finding {
                rule: RuleId::HashState,
                tok_idx: i,
                snippet: t.text.clone(),
                message: format!(
                    "{} iteration order is seeded per instance and breaks \
                     bit-identical replay; simulator state must use \
                     BTreeMap/BTreeSet or an explicitly ordered wrapper",
                    t.text
                ),
            });
        }
    }
}

/// R2: `Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`,
/// `env::*` reads in non-test code outside the bench harness.
fn rule_ambient_nondeterminism(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    let sig = significant(toks);
    for (s, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test(i) {
            continue;
        }
        for (qualifier, method) in NONDET_PATHS {
            let hit = match qualifier {
                None => t.text == *method,
                Some(q) => {
                    t.text == *q
                        && sig.get(s + 1).is_some_and(|&j| toks[j].is_punct(":"))
                        && sig.get(s + 2).is_some_and(|&j| toks[j].is_punct(":"))
                        && sig.get(s + 3).is_some_and(|&j| toks[j].is_ident(method))
                }
            };
            if hit {
                let snippet = match qualifier {
                    None => t.text.clone(),
                    Some(q) => format!("{q}::{method}"),
                };
                out.push(Finding {
                    rule: RuleId::AmbientNondeterminism,
                    tok_idx: i,
                    snippet: snippet.clone(),
                    message: format!(
                        "`{snippet}` injects wall-clock/entropy/environment \
                         state into a simulation that must be a pure function \
                         of its seed; thread time through SimTime and \
                         randomness through the seeded SmallRng"
                    ),
                });
                break;
            }
        }
    }
}

/// R3: `.partial_cmp(..)` method calls in non-test code. The common
/// `sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal))` idiom silently maps
/// NaN to `Equal`, so the resulting order depends on input positions —
/// a replay hazard for float-keyed scheduling decisions.
fn rule_float_order(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    let sig = significant(toks);
    for (s, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && t.text == "partial_cmp"
            && s > 0
            && toks[sig[s - 1]].is_punct(".")
            && !file.in_test(i)
        {
            out.push(Finding {
                rule: RuleId::FloatOrder,
                tok_idx: i,
                snippet: ".partial_cmp(..)".to_string(),
                message: "partial_cmp is not a total order over floats (NaN \
                          collapses to Equal, making the result \
                          input-order-dependent); use f64::total_cmp or \
                          dde_lint::total_cmp_f64"
                    .to_string(),
            });
        }
    }
}

/// R4: `.unwrap()` / `.expect(..)` in library non-test code without a
/// `// lint: allow(panic) — <reason>` marker.
fn rule_panic(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    let sig = significant(toks);
    for (s, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident
            || (t.text != "unwrap" && t.text != "expect")
            || file.in_test(i)
        {
            continue;
        }
        let is_method_call = s > 0
            && toks[sig[s - 1]].is_punct(".")
            && sig
                .get(s + 1)
                .is_some_and(|&j| toks[j].kind == TokenKind::OpenDelim && toks[j].text == "(");
        if is_method_call {
            out.push(Finding {
                rule: RuleId::Panic,
                tok_idx: i,
                snippet: format!(".{}(..)", t.text),
                message: format!(
                    "`.{}()` can panic in library code; return a typed error, \
                     restructure to make the invariant explicit, or annotate \
                     with `// lint: allow(panic) — <reason>`",
                    t.text
                ),
            });
        }
    }
}

/// The wire-level record variants whose constructions R6 audits.
const WIRE_VARIANTS: &[&str] = &["Transmit", "Deliver", "Loss"];

/// Whether the depth-1 field list opening at significant-index `open`
/// contains a `..` rest (two adjacent `.` puncts), marking a match
/// *pattern* (or struct-update) rather than a plain construction.
fn brace_body_has_rest(toks: &[Token], sig: &[usize], open: usize) -> bool {
    let mut depth = 0i32;
    let mut k = open;
    while let Some(&i) = sig.get(k) {
        match toks[i].kind {
            TokenKind::OpenDelim => depth += 1,
            TokenKind::CloseDelim => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            TokenKind::Punct
                if depth == 1
                    && toks[i].text == "."
                    && sig.get(k + 1).is_some_and(|&j| toks[j].is_punct(".")) =>
            {
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// R6: every construction of a wire-level `EventKind::{Transmit, Deliver,
/// Loss}` record must thread an attribution key — a `query` field whose
/// value is not the literal `None`. `WireMessage::attribution()` may
/// *evaluate* to `None` for untagged traffic; writing `query: None` at the
/// emit site severs the ledger-conservation chain unconditionally, so that
/// is what gets flagged. Match patterns (`{ .., }` rests) are skipped.
fn rule_attribution_key(file: &SourceFile, index: &ItemIndex, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    let sig = significant(toks);
    for (s, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident
            || !WIRE_VARIANTS.contains(&t.text.as_str())
            || file.in_test(i)
        {
            continue;
        }
        let open = s + 1;
        if !sig
            .get(open)
            .is_some_and(|&j| toks[j].kind == TokenKind::OpenDelim && toks[j].text == "{")
        {
            continue;
        }
        // Only *wire-record* variants count: `EventKind::Transmit { .. }`
        // qualified in place, or the variant imported via `use ..EventKind::*`
        // paths. Other enums' same-named variants stay out of scope.
        let qualified = s >= 3
            && toks[sig[s - 1]].is_punct(":")
            && toks[sig[s - 2]].is_punct(":")
            && toks[sig[s - 3]].is_ident("EventKind");
        let imported = !qualified
            && (s == 0 || !toks[sig[s - 1]].is_punct(":"))
            && index
                .resolve(&t.text)
                .is_some_and(|p| p.contains("EventKind"));
        if !(qualified || imported) {
            continue;
        }
        if brace_body_has_rest(toks, &sig, open) {
            continue; // destructuring pattern, not an emit site
        }
        // Inspect the depth-1 field list for `query`.
        let mut depth = 0i32;
        let mut k = open;
        let mut query: Option<Option<usize>> = None; // Some(Some(v)) = value at sig[v]
        while let Some(&j) = sig.get(k) {
            match toks[j].kind {
                TokenKind::OpenDelim => depth += 1,
                TokenKind::CloseDelim => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident if depth == 1 && toks[j].text == "query" => {
                    let value = sig
                        .get(k + 1)
                        .filter(|&&c| toks[c].is_punct(":"))
                        .map(|_| k + 2);
                    query = Some(value);
                }
                _ => {}
            }
            k += 1;
        }
        match query {
            None => out.push(Finding {
                rule: RuleId::AttributionKey,
                tok_idx: i,
                snippet: format!("EventKind::{} {{ .. }}", t.text),
                message: format!(
                    "wire-level {} record constructed without a `query` \
                     attribution key; thread `WireMessage::attribution()` \
                     through this emit site so per-decision ledger \
                     conservation holds",
                    t.text
                ),
            }),
            Some(Some(v))
                if sig.get(v).is_some_and(|&j| toks[j].is_ident("None"))
                    && sig
                        .get(v + 1)
                        .is_some_and(|&j| toks[j].is_punct(",") || toks[j].text == "}") =>
            {
                out.push(Finding {
                    rule: RuleId::AttributionKey,
                    tok_idx: i,
                    snippet: format!("EventKind::{} {{ query: None }}", t.text),
                    message: format!(
                        "wire-level {} record hard-codes `query: None`, \
                         unconditionally dropping attribution; pass \
                         `msg.attribution()` (which is `None` only for \
                         genuinely untagged traffic)",
                        t.text
                    ),
                })
            }
            _ => {} // shorthand `query` or a real value: attributed
        }
    }
}

/// R7: event identity must come from the stable `EventKey` constructors.
/// Flags (a) raw `EventKey { .. }` struct literals outside `impl EventKey`
/// (the constructors' home — declarations and `..`-rest patterns are
/// skipped), and (b) raw tuple pushes into an event heap, which order
/// same-instant events by whatever the tuple happens to hold.
fn rule_stable_event_key(
    file: &SourceFile,
    cfg: &Config,
    index: &ItemIndex,
    out: &mut Vec<Finding>,
) {
    let toks = file.tokens();
    let sig = significant(toks);
    for (s, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || file.in_test(i) {
            continue;
        }
        if cfg.event_key_types.iter().any(|k| k == &t.text) {
            let open = s + 1;
            let is_literal = sig
                .get(open)
                .is_some_and(|&j| toks[j].kind == TokenKind::OpenDelim && toks[j].text == "{");
            let declared = s >= 1
                && (toks[sig[s - 1]].is_ident("struct") || toks[sig[s - 1]].is_ident("enum"));
            if is_literal
                && !declared
                && !index.in_impl_of(&t.text, i)
                && !brace_body_has_rest(toks, &sig, open)
            {
                out.push(Finding {
                    rule: RuleId::StableEventKey,
                    tok_idx: i,
                    snippet: format!("{} {{ .. }}", t.text),
                    message: format!(
                        "raw `{} {{ .. }}` literal outside `impl {}`; use the \
                         stable constructors so event identity derives from \
                         simulation state (a hand-rolled key is one typo away \
                         from an insertion-order-dependent trace)",
                        t.text, t.text
                    ),
                });
            }
        }
        let is_heap_tuple_push = t.text.to_ascii_lowercase().contains("heap")
            && sig.get(s + 1).is_some_and(|&j| toks[j].is_punct("."))
            && sig.get(s + 2).is_some_and(|&j| toks[j].is_ident("push"))
            && sig
                .get(s + 3)
                .is_some_and(|&j| toks[j].kind == TokenKind::OpenDelim && toks[j].text == "(")
            && sig
                .get(s + 4)
                .is_some_and(|&j| toks[j].kind == TokenKind::OpenDelim && toks[j].text == "(");
        if is_heap_tuple_push {
            out.push(Finding {
                rule: RuleId::StableEventKey,
                tok_idx: i,
                snippet: format!("{}.push((..))", t.text),
                message: "raw timestamp-tuple push into an event heap orders \
                          ties by tuple position, not by event identity; push \
                          an entry keyed by a stable `EventKey`"
                    .to_string(),
            });
        }
    }
}

/// R8: iteration over a worker pool's result collection (`results` in
/// `dde-bench`'s sweep pool by default) with no preceding `.sort*` on the
/// same collection in the same function. Workers finish in any order;
/// draining their results unsorted bakes that order into the output.
fn rule_merge_order(file: &SourceFile, cfg: &Config, index: &ItemIndex, out: &mut Vec<Finding>) {
    let toks = file.tokens();
    let sig = significant(toks);
    let is_collection = |j: usize| {
        toks[j].kind == TokenKind::Ident && cfg.merge_collections.iter().any(|c| c == &toks[j].text)
    };
    // All `X.sort*` call sites, by collection name.
    let mut sorts: Vec<(usize, &str)> = Vec::new();
    for (s, &i) in sig.iter().enumerate() {
        if is_collection(i)
            && sig.get(s + 1).is_some_and(|&j| toks[j].is_punct("."))
            && sig.get(s + 2).is_some_and(|&j| {
                toks[j].kind == TokenKind::Ident && toks[j].text.starts_with("sort")
            })
        {
            sorts.push((i, toks[i].text.as_str()));
        }
    }
    // Candidate iteration sites (token indices of the collection ident).
    let mut sites: BTreeSet<usize> = BTreeSet::new();
    for (s, &i) in sig.iter().enumerate() {
        if file.in_test(i) {
            continue;
        }
        // Method form: X.iter() / X.into_iter() / X.iter_mut() / X.drain(..)
        if is_collection(i)
            && sig.get(s + 1).is_some_and(|&j| toks[j].is_punct("."))
            && sig.get(s + 2).is_some_and(|&j| {
                matches!(
                    toks[j].text.as_str(),
                    "iter" | "into_iter" | "iter_mut" | "drain"
                )
            })
        {
            sites.insert(i);
        }
        // For-loop form: any collection ident between `in` and the body `{`.
        if toks[i].is_ident("for") {
            // Find `in` at delimiter depth 0 (the pattern may nest tuples).
            let mut depth = 0i32;
            let mut k = s + 1;
            while let Some(&j) = sig.get(k) {
                match toks[j].kind {
                    TokenKind::OpenDelim => depth += 1,
                    TokenKind::CloseDelim => depth -= 1,
                    TokenKind::Ident if depth == 0 && toks[j].text == "in" => break,
                    _ => {}
                }
                k += 1;
            }
            // Scan the iterated expression up to the body's `{` at depth 0.
            let mut depth = 0i32;
            let mut e = k + 1;
            while let Some(&j) = sig.get(e) {
                match toks[j].kind {
                    TokenKind::OpenDelim if toks[j].text == "{" && depth == 0 => break,
                    TokenKind::OpenDelim => depth += 1,
                    TokenKind::CloseDelim => depth -= 1,
                    TokenKind::Ident if is_collection(j) && !file.in_test(j) => {
                        sites.insert(j);
                    }
                    _ => {}
                }
                e += 1;
            }
        }
    }
    for i in sites {
        let name = toks[i].text.as_str();
        let span = index.enclosing_fn(i);
        let sorted_before = sorts.iter().any(|&(si, sn)| {
            sn == name && si < i && span.is_some_and(|f| si >= f.start && si < f.end)
        });
        if !sorted_before {
            out.push(Finding {
                rule: RuleId::MergeOrder,
                tok_idx: i,
                snippet: format!("{name} iterated unsorted"),
                message: format!(
                    "worker-result collection `{name}` is iterated without a \
                     preceding deterministic sort in {}; workers finish in \
                     any order, so sort by a stable key (or mark the site if \
                     order is provably position-deterministic)",
                    index
                        .enclosing_fn(i)
                        .map(|f| format!("`fn {}`", f.name))
                        .unwrap_or_else(|| "this scope".to_string())
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let cfg = Config::default();
        let sf = SourceFile::parse("crates/x/src/lib.rs", crate_name, false, src).unwrap();
        let mut stats = BTreeMap::new();
        check_file(&sf, &cfg, &mut stats).diagnostics
    }

    fn violations(diags: &[Diagnostic], rule: RuleId) -> usize {
        diags
            .iter()
            .filter(|d| d.rule == rule && d.is_violation())
            .count()
    }

    // R1 ---------------------------------------------------------------

    #[test]
    fn r1_fires_on_hashmap_state_in_sim_crate() {
        let diags = check(
            "dde-netsim",
            "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n",
        );
        assert_eq!(violations(&diags, RuleId::HashState), 2);
        assert!(diags[0].message.contains("BTreeMap"));
    }

    #[test]
    fn r1_silent_on_btreemap_and_non_state_crates() {
        let diags = check(
            "dde-netsim",
            "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u32, u32> }\n",
        );
        assert_eq!(violations(&diags, RuleId::HashState), 0);
        // dde-logic is not a simulator-state crate.
        let diags = check("dde-logic", "use std::collections::HashMap;\n");
        assert_eq!(violations(&diags, RuleId::HashState), 0);
    }

    #[test]
    fn r1_exempts_test_modules_and_honors_markers() {
        let diags = check(
            "dde-core",
            "#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n",
        );
        assert_eq!(violations(&diags, RuleId::HashState), 0);
        let diags = check(
            "dde-core",
            "// lint: allow(hash-state) — ordered wrapper below\nuse std::collections::HashMap;\n",
        );
        assert_eq!(violations(&diags, RuleId::HashState), 0);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == RuleId::HashState && !d.is_violation())
                .count(),
            1
        );
    }

    // R2 ---------------------------------------------------------------

    #[test]
    fn r2_fires_on_wall_clock_and_entropy() {
        let diags = check(
            "dde-core",
            "fn f() { let t = Instant::now(); let r = rand::thread_rng(); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AmbientNondeterminism), 2);
        let diags = check("dde-logic", "fn f() { let v = std::env::var(\"X\"); }\n");
        assert_eq!(violations(&diags, RuleId::AmbientNondeterminism), 1);
    }

    #[test]
    fn r2_exempts_bench_and_simulated_time() {
        let diags = check("dde-bench", "fn f() { let v = std::env::var(\"X\"); }\n");
        assert_eq!(violations(&diags, RuleId::AmbientNondeterminism), 0);
        // SimTime::now-like names don't match the TYPE::method patterns.
        let diags = check("dde-core", "fn f(c: &Ctx) { let t = c.now(); }\n");
        assert_eq!(violations(&diags, RuleId::AmbientNondeterminism), 0);
    }

    // R3 ---------------------------------------------------------------

    #[test]
    fn r3_fires_on_partial_cmp_calls_only() {
        let diags = check(
            "dde-sched",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Equal)); }\n",
        );
        assert_eq!(violations(&diags, RuleId::FloatOrder), 1);
        // A PartialOrd *impl* defines partial_cmp; it must not fire.
        let diags = check(
            "dde-netsim",
            "impl PartialOrd for S { fn partial_cmp(&self, o: &S) -> Option<Ordering> { Some(self.cmp(o)) } }\n",
        );
        assert_eq!(violations(&diags, RuleId::FloatOrder), 0);
    }

    #[test]
    fn r3_total_cmp_is_clean_and_marker_allows() {
        let diags = check(
            "dde-sched",
            "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n",
        );
        assert_eq!(violations(&diags, RuleId::FloatOrder), 0);
        let diags = check(
            "dde-sched",
            "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); } // lint: allow(float-order) — ordering unused\n",
        );
        assert_eq!(violations(&diags, RuleId::FloatOrder), 0);
    }

    // R4 ---------------------------------------------------------------

    #[test]
    fn r4_fires_on_unwrap_and_expect_in_library_code() {
        let diags = check("dde-core", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(violations(&diags, RuleId::Panic), 1);
        let diags = check(
            "dde-naming",
            "fn f(x: Option<u8>) -> u8 { x.expect(\"present\") }\n",
        );
        assert_eq!(violations(&diags, RuleId::Panic), 1);
    }

    #[test]
    fn r4_negative_cases() {
        // unwrap_or & friends are fine; so is test code; so is a marker.
        let diags = check("dde-core", "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n");
        assert_eq!(violations(&diags, RuleId::Panic), 0);
        let diags = check(
            "dde-core",
            "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }\n",
        );
        assert_eq!(violations(&diags, RuleId::Panic), 0);
        let diags = check(
            "dde-core",
            "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(panic) — caller guarantees Some\n    x.unwrap()\n}\n",
        );
        assert_eq!(violations(&diags, RuleId::Panic), 0);
        let allowed: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::Panic && !d.is_violation())
            .collect();
        assert_eq!(allowed.len(), 1);
        // The reason survives into the machine-readable report.
        assert!(matches!(
            &allowed[0].allowed,
            Some(AllowSource::Marker { reason }) if reason == "caller guarantees Some"
        ));
        // Strings mentioning unwrap don't fire.
        let diags = check("dde-core", "fn f() { let s = \"x.unwrap()\"; }\n");
        assert_eq!(violations(&diags, RuleId::Panic), 0);
        // Non-library crates (bench, examples) are out of scope.
        let diags = check("dde-bench", "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(violations(&diags, RuleId::Panic), 0);
    }

    // R6 ---------------------------------------------------------------

    #[test]
    fn r6_fires_on_missing_or_dropped_attribution() {
        let diags = check(
            "dde-netsim",
            "fn f(c: &mut Ctx) { c.emit(EventKind::Transmit { from: 0, to: 1, bytes: 8 }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 1);
        let diags = check(
            "dde-netsim",
            "fn f(c: &mut Ctx) { c.emit(EventKind::Loss { from: 0, to: 1, query: None }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 1);
        assert!(diags
            .iter()
            .any(|d| d.message.contains("hard-codes `query: None`")));
        // Imported variants resolve through the use table.
        let diags = check(
            "dde-core",
            "use dde_obs::EventKind::Deliver;\nfn f(c: &mut Ctx) { c.emit(Deliver { from: 0, to: 1 }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 1);
    }

    #[test]
    fn r6_negative_cases() {
        // Threaded attribution passes, shorthand passes, patterns skipped.
        let diags = check(
            "dde-netsim",
            "fn f(c: &mut Ctx, m: &Msg) { c.emit(EventKind::Deliver { from: 0, to: 1, query: m.attribution() }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 0);
        let diags = check(
            "dde-netsim",
            "fn f(c: &mut Ctx, query: Option<u64>) { c.emit(EventKind::Loss { from: 0, to: 1, query }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 0);
        let diags = check(
            "dde-netsim",
            "fn g(k: &EventKind) { if let EventKind::Transmit { from, .. } = k { let _ = from; } }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 0);
        // Same-named variants of other enums are out of scope.
        let diags = check(
            "dde-netsim",
            "fn f() { let e = REvent::Deliver { to: 1, from: 0, msg: () }; }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 0);
        // obs constructs its own view records freely (not an emit crate).
        let diags = check(
            "dde-obs",
            "fn f() { let e = EventKind::Loss { from: 0, to: 1 }; }\n",
        );
        assert_eq!(violations(&diags, RuleId::AttributionKey), 0);
    }

    // R7 ---------------------------------------------------------------

    #[test]
    fn r7_fires_on_raw_key_literals_and_tuple_pushes() {
        let diags = check(
            "dde-netsim",
            "fn f(h: &mut Heap) { h.push(EventKey { class: 5, a: 0, b: 1, c: 2 }); }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 1);
        let diags = check(
            "dde-netsim",
            "fn f(heap: &mut BinaryHeap<(u64, u64)>, at: u64) { heap.push((at, 7)); }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 1);
    }

    #[test]
    fn r7_negative_cases() {
        // Constructors live inside `impl EventKey` — exempt.
        let diags = check(
            "dde-netsim",
            "impl EventKey { fn start(n: u64) -> EventKey { EventKey { class: 0, a: n, b: 0, c: 0 } } }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 0);
        // The declaration, destructuring patterns, and keyed pushes pass.
        let diags = check(
            "dde-netsim",
            "pub struct EventKey { class: u64 }\nfn g(k: &EventKey) { let EventKey { class, .. } = k; let _ = class; }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 0);
        let diags = check(
            "dde-netsim",
            "fn f(heap: &mut Heap, e: Entry) { heap.push(e); }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 0);
        // Other crates are out of R7's scope.
        let diags = check(
            "dde-core",
            "fn f() { let k = EventKey { class: 0, a: 0, b: 0, c: 0 }; }\n",
        );
        assert_eq!(violations(&diags, RuleId::StableEventKey), 0);
    }

    // R8 ---------------------------------------------------------------

    #[test]
    fn r8_fires_on_unsorted_iteration_of_merge_collections() {
        let diags = check(
            "dde-bench",
            "fn f(results: Vec<R>, s: &mut Sink) { for r in results { s.put(r); } }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 1);
        let diags = check(
            "dde-bench",
            "fn f(&mut self) { for r in self.results.drain(..) { route(r); } }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 1);
        let diags = check(
            "dde-bench",
            "fn f(results: Vec<R>) -> Vec<R> { results.into_iter().collect() }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 1);
    }

    #[test]
    fn r8_sorted_iteration_passes() {
        let diags = check(
            "dde-bench",
            "fn f(&mut self, s: &mut Sink) {\n    self.results.sort_unstable_by_key(|e| e.0);\n    for (_, r) in self.results.drain(..) { s.record(r); }\n}\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 0);
        // A sort in a *different* fn does not cover the iteration.
        let diags = check(
            "dde-bench",
            "fn a(&mut self) { self.results.sort(); }\nfn b(&mut self) { for r in self.results.iter() { use_(r); } }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 1);
        // Unrelated collection names and out-of-scope crates pass.
        let diags = check(
            "dde-bench",
            "fn f(items: Vec<u32>) { for i in items { use_(i); } }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 0);
        let diags = check(
            "dde-sched",
            "fn f(results: Vec<u32>) { for r in results { use_(r); } }\n",
        );
        assert_eq!(violations(&diags, RuleId::MergeOrder), 0);
    }

    #[test]
    fn structural_rules_report_stats_and_marker_use() {
        let cfg = Config::default();
        let sf = SourceFile::parse(
            "crates/x/src/lib.rs",
            "dde-netsim",
            false,
            "// lint: allow(event-key) — a scratch heap, not the event queue\nfn f(heap: &mut Heap, at: u64) { heap.push((at, 7)); }\n",
        )
        .unwrap();
        let mut stats = BTreeMap::new();
        let checked = check_file(&sf, &cfg, &mut stats);
        assert_eq!(checked.used_markers, vec![0]);
        assert!(checked
            .diagnostics
            .iter()
            .all(|d| d.rule != RuleId::StableEventKey || !d.is_violation()));
        assert_eq!(stats[&RuleId::StableEventKey].files_checked, 1);
        assert_eq!(stats[&RuleId::AttributionKey].files_checked, 1);
    }

    #[test]
    fn config_allowlist_suppresses() {
        let mut cfg = Config::default();
        cfg.allow
            .insert(RuleId::Panic, vec!["src/lib.rs:1".to_string()]);
        let sf = SourceFile::parse(
            "crates/x/src/lib.rs",
            "dde-core",
            false,
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .unwrap();
        let mut stats = BTreeMap::new();
        let checked = check_file(&sf, &cfg, &mut stats);
        let diags = checked.diagnostics;
        assert_eq!(violations(&diags, RuleId::Panic), 0);
        assert_eq!(
            checked.used_config,
            vec![(RuleId::Panic, "src/lib.rs:1".to_string())]
        );
        assert!(matches!(
            &diags.iter().find(|d| d.rule == RuleId::Panic).unwrap().allowed,
            Some(AllowSource::Config { entry }) if entry == "src/lib.rs:1"
        ));
    }
}
