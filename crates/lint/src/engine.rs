//! Workspace scanning: file discovery, token-level test-region detection,
//! inline `// lint: allow(..)` markers, and the top-level [`run`] entry.

use crate::config::{Config, Toml};
use crate::report::{Diagnostic, RuleId, RuleStats, StaleAllow};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use syn::{Token, TokenKind};

/// A fatal analysis error (exit code 2 territory, unlike rule violations).
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem error while walking or reading.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A source file failed to lex/parse.
    Parse {
        /// The file that failed.
        path: PathBuf,
        /// The parse error with position.
        err: syn::Error,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            EngineError::Parse { path, err } => write!(f, "{}:{err}", path.display()),
        }
    }
}

impl std::error::Error for EngineError {}

/// One inline `// lint: allow(<token>) — <reason>` marker.
///
/// A standalone marker (the comment is the first token on its line) covers
/// the following line; a trailing marker covers only its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// 1-based line of the comment.
    pub line: u32,
    /// Whether the comment is the first token on its line.
    pub standalone: bool,
    /// The token inside `allow(..)` (a rule marker token, or a typo).
    pub token: String,
    /// The free-text reason after the closing paren.
    pub reason: String,
    /// Token index of the comment, used to decide whether the marker sits
    /// in test code (where rules never fire, so staleness is meaningless).
    pub tok_idx: usize,
}

/// A parsed source file with everything the rules need: tokens, test-region
/// spans, and the inline-marker index.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (stable across platforms).
    pub path: String,
    /// Name of the Cargo package the file belongs to.
    pub crate_name: String,
    /// Whether the whole file is test/bench context (under `tests/` or
    /// `benches/`, or part of a test-only package).
    pub file_test_context: bool,
    tokens: Vec<Token>,
    /// Half-open `[start, end)` token-index ranges of `#[cfg(test)]` /
    /// `#[test]` items.
    test_regions: Vec<(usize, usize)>,
    markers: Vec<Marker>,
}

impl SourceFile {
    /// Parses `src` and precomputes test regions and markers.
    pub fn parse(
        path: impl Into<String>,
        crate_name: impl Into<String>,
        file_test_context: bool,
        src: &str,
    ) -> syn::Result<SourceFile> {
        let file = syn::parse_file(src)?;
        let tokens = file.tokens().to_vec();
        let test_regions = find_test_regions(&tokens);
        let markers = find_markers(&tokens);
        Ok(SourceFile {
            path: path.into(),
            crate_name: crate_name.into(),
            file_test_context,
            tokens,
            test_regions,
            markers,
        })
    }

    /// All tokens (comments included), in source order.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Whether the token at `idx` sits inside test code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.file_test_context || self.test_regions.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// The reason string of an inline `// lint: allow(<rule>)` marker
    /// covering `line` (trailing on the same line, or on the line above).
    pub fn marker_for(&self, rule: RuleId, line: u32) -> Option<&str> {
        self.marker_lookup(rule, line).map(|(_, reason)| reason)
    }

    /// Like [`SourceFile::marker_for`], but also returns the marker's index
    /// into [`SourceFile::markers`], so callers can record which markers
    /// actually suppressed a finding (stale-allow detection).
    pub fn marker_lookup(&self, rule: RuleId, line: u32) -> Option<(usize, &str)> {
        self.markers
            .iter()
            .enumerate()
            .find(|(_, m)| {
                (m.line == line || (m.standalone && m.line + 1 == line))
                    && m.token == rule.marker_token()
            })
            .map(|(i, m)| (i, m.reason.as_str()))
    }

    /// All inline markers, in source order.
    pub fn markers(&self) -> &[Marker] {
        &self.markers
    }
}

/// Indices of non-comment tokens, for pattern scans that must not be fooled
/// by interleaved comments.
pub fn significant(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokenKind::Comment)
        .map(|(i, _)| i)
        .collect()
}

/// Whether an attribute body (the tokens between `[` and `]`) marks test
/// code: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]`, `#[tokio::test]`.
fn attr_is_test(tokens: &[Token]) -> bool {
    tokens.iter().any(|t| t.is_ident("test"))
}

/// Scans the token stream for `#[test]`-ish attributes and returns the
/// half-open token ranges of the items they annotate. An inner
/// `#![cfg(test)]` marks the whole file.
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let sig = significant(tokens);
    let mut regions = Vec::new();
    let mut s = 0usize; // index into `sig`
    while s < sig.len() {
        if !tokens[sig[s]].is_punct("#") {
            s += 1;
            continue;
        }
        let mut a = s + 1;
        let inner = a < sig.len() && tokens[sig[a]].is_punct("!");
        if inner {
            a += 1;
        }
        if a >= sig.len()
            || tokens[sig[a]].kind != TokenKind::OpenDelim
            || tokens[sig[a]].text != "["
        {
            s += 1;
            continue;
        }
        // Collect this attribute group plus any directly stacked ones.
        let mut is_test = false;
        let mut cursor = s;
        loop {
            let open = cursor + if inner { 2 } else { 1 };
            let mut depth = 0i32;
            let mut end = open;
            for (k, &ti) in sig.iter().enumerate().skip(open) {
                match tokens[ti].kind {
                    TokenKind::OpenDelim => depth += 1,
                    TokenKind::CloseDelim => {
                        depth -= 1;
                        if depth == 0 {
                            end = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let body: Vec<Token> = sig[open..=end].iter().map(|&i| tokens[i].clone()).collect();
            if attr_is_test(&body) {
                is_test = true;
            }
            cursor = end + 1;
            // Outer attributes stack (`#[test] #[ignore] fn ..`); an inner
            // attribute stands alone.
            if inner
                || cursor >= sig.len()
                || !tokens[sig[cursor]].is_punct("#")
                || cursor + 1 >= sig.len()
                || tokens[sig[cursor + 1]].kind != TokenKind::OpenDelim
            {
                break;
            }
        }
        if is_test {
            if inner {
                // `#![cfg(test)]`: everything from here on is test code.
                regions.push((sig[s], tokens.len()));
                return regions;
            }
            // Find the annotated item's extent: first `{..}` block at
            // delimiter depth 0, or a `;` before one (use decls, consts).
            let mut depth = 0i32;
            let mut end_tok = tokens.len();
            let mut k = cursor;
            while k < sig.len() {
                let t = &tokens[sig[k]];
                match t.kind {
                    TokenKind::OpenDelim => depth += 1,
                    TokenKind::CloseDelim => {
                        depth -= 1;
                        if depth == 0 && t.text == "}" {
                            end_tok = sig[k] + 1;
                            break;
                        }
                    }
                    TokenKind::Punct if t.text == ";" && depth == 0 => {
                        end_tok = sig[k] + 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            regions.push((sig[s], end_tok));
            s = k.max(s + 1);
        } else {
            s = cursor;
        }
    }
    regions
}

/// Extracts `// lint: allow(<token>) — <reason>` markers from comments.
///
/// Doc comments (`///`, `//!`, `/** .. */`, `/*! .. */`) are skipped: they
/// *describe* the marker syntax (rustdoc for the lint itself, rule
/// messages) rather than apply it, and treating them as markers would make
/// every such mention a stale allow.
fn find_markers(tokens: &[Token]) -> Vec<Marker> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Comment {
            continue;
        }
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| t.text.starts_with(p));
        if is_doc && !t.text.starts_with("/**/") {
            continue;
        }
        let standalone = !tokens[..i].iter().any(|p| p.line == t.line);
        let Some(at) = t.text.find("lint:") else {
            continue;
        };
        let rest = &t.text[at + "lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            continue;
        };
        let token = after[..close].trim().to_string();
        let reason = after[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':')
            .trim()
            .to_string();
        out.push(Marker {
            line: t.line,
            standalone,
            token,
            reason,
            tok_idx: i,
        });
    }
    out
}

/// The result of scanning a workspace.
#[derive(Debug)]
pub struct LintReport {
    /// All findings (violations and allowed), ordered by path/line/col.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files were parsed.
    pub files_scanned: usize,
    /// Allows (inline markers and `lint.toml` entries) that matched no
    /// finding, in sorted order. Gated on like violations.
    pub stale_allows: Vec<StaleAllow>,
    /// Per-rule footer stats, in rule-code order.
    pub stats: Vec<(RuleId, RuleStats)>,
}

impl LintReport {
    /// Findings not covered by a marker or allowlist entry.
    pub fn violations(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_violation())
    }

    /// Whether the report should gate (violations or stale allows).
    pub fn is_clean(&self) -> bool {
        self.violations().next().is_none() && self.stale_allows.is_empty()
    }

    /// Zeroes the per-rule timing figures so two runs over identical
    /// sources render byte-identical reports (`--no-timing`).
    pub fn strip_timing(&mut self) {
        for (_, s) in &mut self.stats {
            s.micros = 0;
        }
    }
}

fn read_to_string(path: &Path) -> Result<String, EngineError> {
    std::fs::read_to_string(path).map_err(|err| EngineError::Io {
        path: path.to_path_buf(),
        err,
    })
}

/// Recursively collects `.rs` files under `dir`, sorted by path.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    let rd = std::fs::read_dir(dir).map_err(|err| EngineError::Io {
        path: dir.to_path_buf(),
        err,
    })?;
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') {
            continue;
        }
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Finds package directories (containing a `Cargo.toml` with `[package]`)
/// directly under the workspace root and one level below (`crates/*`),
/// honoring `skip_dirs`.
fn find_packages(root: &Path, cfg: &Config) -> Result<Vec<(String, PathBuf)>, EngineError> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let rd = std::fs::read_dir(&dir).map_err(|err| EngineError::Io {
            path: dir.clone(),
            err,
        })?;
        for entry in rd.filter_map(|e| e.ok()) {
            let p = entry.path();
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !p.is_dir() || name.starts_with('.') || cfg.skip_dirs.iter().any(|s| s == name) {
                continue;
            }
            let manifest = p.join("Cargo.toml");
            if manifest.is_file() {
                let text = read_to_string(&manifest)?;
                if let Ok(doc) = Toml::parse(&text) {
                    if let Some(pkg) = doc.str_value("package", "name") {
                        found.push((pkg.to_string(), p.clone()));
                        continue; // don't descend into a package for more
                    }
                }
            }
            stack.push(p);
        }
    }
    found.sort();
    Ok(found)
}

/// Scans the workspace at `root` under configuration `cfg` and returns all
/// diagnostics. Fails (rather than reporting) on unreadable or unparsable
/// files — a file the analyzer cannot see is not a clean file.
pub fn run(root: &Path, cfg: &Config) -> Result<LintReport, EngineError> {
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;
    let mut stale_allows = Vec::new();
    let mut used_config: BTreeSet<(RuleId, String)> = BTreeSet::new();
    let mut stats: BTreeMap<RuleId, RuleStats> = BTreeMap::new();
    for (pkg, dir) in find_packages(root, cfg)? {
        let mut files = Vec::new();
        collect_rs(&dir, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let in_test_dir = {
                let rel_pkg = path.strip_prefix(&dir).unwrap_or(&path);
                rel_pkg
                    .components()
                    .any(|c| matches!(c.as_os_str().to_str(), Some("tests" | "benches")))
            };
            let file_test_context = in_test_dir || cfg.test_crates.contains(&pkg);
            let src = read_to_string(&path)?;
            let sf =
                SourceFile::parse(rel, pkg.clone(), file_test_context, &src).map_err(|err| {
                    EngineError::Parse {
                        path: path.clone(),
                        err,
                    }
                })?;
            files_scanned += 1;
            let checked = crate::rules::check_file(&sf, cfg, &mut stats);
            for (rule, entry) in checked.used_config {
                used_config.insert((rule, entry));
            }
            // A marker in test code can never match a finding (rules skip
            // test regions), so staleness only applies outside them.
            for (i, m) in sf.markers().iter().enumerate() {
                if !checked.used_markers.contains(&i) && !sf.in_test(m.tok_idx) {
                    stale_allows.push(StaleAllow::Marker {
                        path: sf.path.clone(),
                        line: m.line,
                        token: m.token.clone(),
                    });
                }
            }
            diagnostics.extend(checked.diagnostics);
        }
    }
    for (rule, entries) in &cfg.allow {
        for entry in entries {
            if !used_config.contains(&(*rule, entry.clone())) {
                stale_allows.push(StaleAllow::Config {
                    rule: *rule,
                    entry: entry.clone(),
                });
            }
        }
    }
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    stale_allows.sort();
    stale_allows.dedup();
    let stats = RuleId::ALL
        .iter()
        .map(|r| (*r, stats.get(r).copied().unwrap_or_default()))
        .collect();
    Ok(LintReport {
        diagnostics,
        files_scanned,
        stale_allows,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_is_a_region() {
        let sf = SourceFile::parse(
            "x.rs",
            "dde-core",
            false,
            r#"
fn prod() { let _ = 1; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = 2; }
}
fn also_prod() {}
"#,
        )
        .unwrap();
        let toks = sf.tokens();
        let in_test: Vec<bool> = (0..toks.len()).map(|i| sf.in_test(i)).collect();
        // `prod` tokens are outside, module-body tokens inside, trailing fn
        // outside again.
        let prod_idx = toks.iter().position(|t| t.is_ident("prod")).unwrap();
        let t_idx = toks.iter().position(|t| t.is_ident("t")).unwrap();
        let after_idx = toks.iter().position(|t| t.is_ident("also_prod")).unwrap();
        assert!(!in_test[prod_idx]);
        assert!(in_test[t_idx]);
        assert!(!in_test[after_idx]);
    }

    #[test]
    fn stacked_and_inner_attributes() {
        let sf = SourceFile::parse(
            "x.rs",
            "c",
            false,
            "#[test]\n#[ignore]\nfn t() { body(); }\nfn prod() {}\n",
        )
        .unwrap();
        let toks = sf.tokens();
        let body = toks.iter().position(|t| t.is_ident("body")).unwrap();
        let prod = toks.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(sf.in_test(body));
        assert!(!sf.in_test(prod));

        let sf =
            SourceFile::parse("x.rs", "c", false, "#![cfg(test)]\nfn anything() {}\n").unwrap();
        let any = sf
            .tokens()
            .iter()
            .position(|t| t.is_ident("anything"))
            .unwrap();
        assert!(sf.in_test(any));
    }

    #[test]
    fn attr_on_use_ends_at_semicolon() {
        let sf = SourceFile::parse(
            "x.rs",
            "c",
            false,
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}\n",
        )
        .unwrap();
        let toks = sf.tokens();
        let hm = toks.iter().position(|t| t.is_ident("HashMap")).unwrap();
        let prod = toks.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(sf.in_test(hm));
        assert!(!sf.in_test(prod));
    }

    #[test]
    fn markers_cover_same_and_next_line() {
        let sf = SourceFile::parse(
            "x.rs",
            "c",
            false,
            "// lint: allow(panic) — invariant: heap non-empty\nlet a = x.unwrap();\nlet b = y.unwrap(); // lint: allow(panic) — checked above\nlet c = z.unwrap();\n",
        )
        .unwrap();
        assert_eq!(
            sf.marker_for(RuleId::Panic, 2),
            Some("invariant: heap non-empty")
        );
        assert_eq!(sf.marker_for(RuleId::Panic, 3), Some("checked above"));
        assert_eq!(sf.marker_for(RuleId::Panic, 4), None);
        assert_eq!(sf.marker_for(RuleId::FloatOrder, 2), None);
    }
}
