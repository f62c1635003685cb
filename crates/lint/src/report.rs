//! Diagnostics and report rendering (`--format text|json`).

use std::fmt;

/// One of the enforced rules. `R5` (shared mutable state in worker-pinned
/// code) retired with the worker pool; the other codes keep their numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// R1: no `HashMap`/`HashSet` state in simulator-state crates.
    HashState,
    /// R2: no ambient nondeterminism outside the bench harness.
    AmbientNondeterminism,
    /// R3: no `partial_cmp`-based float ordering.
    FloatOrder,
    /// R4: no `unwrap`/`expect` in library non-test code without a marker.
    Panic,
    /// R6: `Transmit`/`Deliver`/`Loss` records must thread an attribution
    /// key.
    AttributionKey,
    /// R7: event enqueues go through the stable `EventKey` constructors.
    StableEventKey,
    /// R8: no iteration over a worker pool's result collection without a
    /// preceding deterministic sort.
    MergeOrder,
}

impl RuleId {
    /// All rules, in code order.
    pub const ALL: [RuleId; 7] = [
        RuleId::HashState,
        RuleId::AmbientNondeterminism,
        RuleId::FloatOrder,
        RuleId::Panic,
        RuleId::AttributionKey,
        RuleId::StableEventKey,
        RuleId::MergeOrder,
    ];

    /// Short code, `R1`..`R8` (no `R5`).
    pub fn code(self) -> &'static str {
        match self {
            RuleId::HashState => "R1",
            RuleId::AmbientNondeterminism => "R2",
            RuleId::FloatOrder => "R3",
            RuleId::Panic => "R4",
            RuleId::AttributionKey => "R6",
            RuleId::StableEventKey => "R7",
            RuleId::MergeOrder => "R8",
        }
    }

    /// Stable slug used in `lint.toml` tables and `// lint: allow(..)`
    /// markers.
    pub fn slug(self) -> &'static str {
        match self {
            RuleId::HashState => "no-hash-state",
            RuleId::AmbientNondeterminism => "no-ambient-nondeterminism",
            RuleId::FloatOrder => "float-order",
            RuleId::Panic => "no-panic",
            RuleId::AttributionKey => "attribution-key",
            RuleId::StableEventKey => "stable-event-key",
            RuleId::MergeOrder => "merge-order",
        }
    }

    /// The token accepted inside an inline `// lint: allow(<token>)` marker.
    pub fn marker_token(self) -> &'static str {
        match self {
            RuleId::HashState => "hash-state",
            RuleId::AmbientNondeterminism => "nondeterminism",
            RuleId::FloatOrder => "float-order",
            RuleId::Panic => "panic",
            RuleId::AttributionKey => "attribution",
            RuleId::StableEventKey => "event-key",
            RuleId::MergeOrder => "merge-order",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.code(), self.slug())
    }
}

/// Why a finding is tolerated rather than counted as a violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowSource {
    /// An inline `// lint: allow(<rule>) — <reason>` marker.
    Marker {
        /// The reason text after the marker, if any.
        reason: String,
    },
    /// A `lint.toml` allowlist entry.
    Config {
        /// The matching allowlist entry.
        entry: String,
    },
}

/// One finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending token or pattern, e.g. `.unwrap()`.
    pub snippet: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// `Some(..)` when the finding is tolerated (marker or allowlist);
    /// `None` when it is a violation.
    pub allowed: Option<AllowSource>,
}

impl Diagnostic {
    /// Whether this finding counts against the exit code.
    pub fn is_violation(&self) -> bool {
        self.allowed.is_none()
    }
}

/// An allow that no longer matches any finding. Stale allows are gated on
/// exactly like violations: a suppression without a matching finding is a
/// hole waiting for the next refactor to widen.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StaleAllow {
    /// An inline `// lint: allow(<token>)` marker that covered nothing.
    Marker {
        /// Workspace-relative path of the file holding the marker.
        path: String,
        /// 1-based line of the marker comment.
        line: u32,
        /// The token inside `allow(..)` — possibly an unknown rule name.
        token: String,
    },
    /// A `lint.toml` allowlist entry that matched no finding.
    Config {
        /// The rule whose table held the entry.
        rule: RuleId,
        /// The entry text (`path-suffix` or `path-suffix:line`).
        entry: String,
    },
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaleAllow::Marker { path, line, token } => write!(
                f,
                "{path}:{line}: stale inline marker `lint: allow({token})` — no finding matches"
            ),
            StaleAllow::Config { rule, entry } => write!(
                f,
                "lint.toml: stale allow entry `{entry}` under rules.{} — no finding matches",
                rule.slug()
            ),
        }
    }
}

/// Per-rule execution statistics for the report footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    /// Files the rule actually ran on (scope-filtered, so R1's count is
    /// the state-crate file count, not the workspace's).
    pub files_checked: usize,
    /// Wall-clock time spent in the rule pass, in microseconds. Zeroed by
    /// `--no-timing` so the report bytes are reproducible.
    pub micros: u64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn diag_json(d: &Diagnostic) -> String {
    let mut fields = vec![
        format!("\"rule\":\"{}\"", d.rule.code()),
        format!("\"name\":\"{}\"", d.rule.slug()),
        format!("\"path\":\"{}\"", json_escape(&d.path)),
        format!("\"line\":{}", d.line),
        format!("\"col\":{}", d.col),
        format!("\"snippet\":\"{}\"", json_escape(&d.snippet)),
        format!("\"message\":\"{}\"", json_escape(&d.message)),
    ];
    match &d.allowed {
        None => {}
        Some(AllowSource::Marker { reason }) => {
            fields.push("\"allowed_by\":\"marker\"".to_string());
            fields.push(format!("\"reason\":\"{}\"", json_escape(reason)));
        }
        Some(AllowSource::Config { entry }) => {
            fields.push("\"allowed_by\":\"config\"".to_string());
            fields.push(format!("\"entry\":\"{}\"", json_escape(entry)));
        }
    }
    format!("{{{}}}", fields.join(","))
}

fn stale_json(s: &StaleAllow) -> String {
    match s {
        StaleAllow::Marker { path, line, token } => format!(
            "{{\"kind\":\"marker\",\"path\":\"{}\",\"line\":{},\"token\":\"{}\"}}",
            json_escape(path),
            line,
            json_escape(token)
        ),
        StaleAllow::Config { rule, entry } => format!(
            "{{\"kind\":\"config\",\"rule\":\"{}\",\"entry\":\"{}\"}}",
            rule.code(),
            json_escape(entry)
        ),
    }
}

fn push_json_array(out: &mut String, key: &str, items: &[String], last: bool) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, item) in items.iter().enumerate() {
        let sep = if i + 1 < items.len() { "," } else { "" };
        out.push_str(&format!("    {item}{sep}\n"));
    }
    out.push_str(if last { "  ]\n" } else { "  ],\n" });
}

/// Renders the full report as deterministic, line-oriented JSON:
/// violations, the allowlist inventory (the machine-readable allow report
/// with per-site reasons), stale allows, per-rule summary counts, and the
/// per-rule timing/file-count footer. Everything except the `timing`
/// micros values is a pure function of the scanned sources, and those are
/// zeroed when the caller disables timing — so CI can byte-compare two
/// `--no-timing` reports.
pub fn render_json(
    diags: &[Diagnostic],
    files_scanned: usize,
    stale: &[StaleAllow],
    stats: &[(RuleId, RuleStats)],
) -> String {
    let violations: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_violation()).collect();
    let allowed: Vec<&Diagnostic> = diags.iter().filter(|d| !d.is_violation()).collect();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    let summary: Vec<String> = RuleId::ALL
        .iter()
        .map(|r| {
            let v = violations.iter().filter(|d| d.rule == *r).count();
            let a = allowed.iter().filter(|d| d.rule == *r).count();
            format!(
                "\"{}\":{{\"violations\":{},\"allowed\":{}}}",
                r.code(),
                v,
                a
            )
        })
        .collect();
    out.push_str(&format!("  \"summary\": {{{}}},\n", summary.join(",")));
    let timing: Vec<String> = stats
        .iter()
        .map(|(r, s)| {
            format!(
                "\"{}\":{{\"files_checked\":{},\"micros\":{}}}",
                r.code(),
                s.files_checked,
                s.micros
            )
        })
        .collect();
    out.push_str(&format!("  \"timing\": {{{}}},\n", timing.join(",")));
    let vio: Vec<String> = violations.iter().map(|d| diag_json(d)).collect();
    push_json_array(&mut out, "violations", &vio, false);
    let alw: Vec<String> = allowed.iter().map(|d| diag_json(d)).collect();
    push_json_array(&mut out, "allowed", &alw, false);
    let stl: Vec<String> = stale.iter().map(stale_json).collect();
    push_json_array(&mut out, "stale_allows", &stl, true);
    out.push_str("}\n");
    out
}

/// Renders the report as human-oriented text, ending with the per-rule
/// footer and the summary line.
pub fn render_text(
    diags: &[Diagnostic],
    files_scanned: usize,
    stale: &[StaleAllow],
    stats: &[(RuleId, RuleStats)],
) -> String {
    let mut out = String::new();
    let mut violations = 0usize;
    let mut allowed = 0usize;
    for d in diags {
        match &d.allowed {
            None => {
                violations += 1;
                out.push_str(&format!(
                    "{}:{}:{}: {}: {} [{}]\n",
                    d.path, d.line, d.col, d.rule, d.message, d.snippet
                ));
            }
            Some(AllowSource::Marker { reason }) => {
                allowed += 1;
                out.push_str(&format!(
                    "{}:{}:{}: {}: allowed by marker — {}\n",
                    d.path,
                    d.line,
                    d.col,
                    d.rule,
                    if reason.is_empty() {
                        "(no reason)"
                    } else {
                        reason
                    }
                ));
            }
            Some(AllowSource::Config { entry }) => {
                allowed += 1;
                out.push_str(&format!(
                    "{}:{}:{}: {}: allowed by lint.toml entry `{}`\n",
                    d.path, d.line, d.col, d.rule, entry
                ));
            }
        }
    }
    for s in stale {
        out.push_str(&format!("{s}\n"));
    }
    for (rule, s) in stats {
        out.push_str(&format!(
            "per-rule: {rule}: {} file(s) checked, {} µs\n",
            s.files_checked, s.micros
        ));
    }
    out.push_str(&format!(
        "dde-lint: {files_scanned} files scanned, {violations} violation(s), {allowed} allowed, {} stale allow(s)\n",
        stale.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, allowed: Option<AllowSource>) -> Diagnostic {
        Diagnostic {
            rule,
            path: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 9,
            snippet: ".unwrap()".into(),
            message: "no panics \"here\"".into(),
            allowed,
        }
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let diags = vec![
            diag(RuleId::Panic, None),
            diag(
                RuleId::Panic,
                Some(AllowSource::Marker {
                    reason: "checked above".into(),
                }),
            ),
        ];
        let stale = vec![StaleAllow::Config {
            rule: RuleId::Panic,
            entry: "src/gone.rs:9".into(),
        }];
        let stats = vec![(
            RuleId::Panic,
            RuleStats {
                files_checked: 2,
                micros: 0,
            },
        )];
        let json = render_json(&diags, 2, &stale, &stats);
        assert!(json.contains("\"files_scanned\": 2"));
        assert!(json.contains("no panics \\\"here\\\""));
        assert!(json.contains("\"allowed_by\":\"marker\""));
        assert!(json.contains("\"R4\":{\"violations\":1,\"allowed\":1}"));
        assert!(json.contains("\"kind\":\"config\""));
        assert!(json.contains("\"R4\":{\"files_checked\":2,\"micros\":0}"));
    }

    #[test]
    fn text_report_counts_and_footer() {
        let diags = vec![diag(RuleId::FloatOrder, None)];
        let stale = vec![StaleAllow::Marker {
            path: "crates/x/src/lib.rs".into(),
            line: 40,
            token: "panic".into(),
        }];
        let stats = vec![(
            RuleId::FloatOrder,
            RuleStats {
                files_checked: 1,
                micros: 7,
            },
        )];
        let text = render_text(&diags, 1, &stale, &stats);
        assert!(text.contains("R3/float-order"));
        assert!(text.contains("1 violation(s), 0 allowed, 1 stale allow(s)"));
        assert!(text.contains("stale inline marker `lint: allow(panic)`"));
        assert!(text.contains("per-rule: R3/float-order: 1 file(s) checked, 7 µs"));
    }
}
