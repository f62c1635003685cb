//! `lint.toml` configuration: rule scoping and per-rule path allowlists.
//!
//! The workspace is offline (no registry), so this module includes a
//! hand-rolled parser for the small TOML subset the configuration (and
//! `Cargo.toml` package-name extraction) actually uses: `[dotted.tables]`,
//! string / integer / boolean scalars, and (possibly multi-line) arrays of
//! strings.

use crate::report::RuleId;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed scalar or string-array value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An array of quoted strings.
    List(Vec<String>),
    /// Any other scalar (inline tables, floats, …), kept verbatim. The
    /// parser is also pointed at `Cargo.toml`s to read package names, so it
    /// must tolerate value forms it does not model.
    Other(String),
}

/// A parsed TOML-subset document: `table name → key → value`.
///
/// Top-level keys live under the empty table name `""`.
#[derive(Debug, Clone, Default)]
pub struct Toml {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A configuration or TOML syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line in the source document (0 for semantic errors).
    pub line: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: u32, msg: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        msg: msg.into(),
    }
}

/// Strips a trailing `# comment` from a line, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_scalar(raw: &str, line_no: u32) -> Result<Value, ConfigError> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(err(line_no, "unterminated string"));
        };
        return Ok(Value::Str(body.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    Ok(raw
        .replace('_', "")
        .parse::<i64>()
        .map(Value::Int)
        .unwrap_or_else(|_| Value::Other(raw.to_string())))
}

fn parse_list(raw: &str, line_no: u32) -> Result<Value, ConfigError> {
    let inner = raw
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| err(line_no, "malformed array"))?;
    let mut items = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let Some(tail) = rest.strip_prefix('"') else {
            return Err(err(line_no, "arrays may contain only strings"));
        };
        let Some(end) = tail.find('"') else {
            return Err(err(line_no, "unterminated string in array"));
        };
        items.push(tail[..end].to_string());
        rest = tail[end + 1..].trim().trim_start_matches(',').trim_start();
    }
    Ok(Value::List(items))
}

impl Toml {
    /// Parses a TOML-subset document.
    pub fn parse(src: &str) -> Result<Toml, ConfigError> {
        let mut doc = Toml::default();
        let mut table = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw_line)) = lines.next() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw_line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err(line_no, "malformed table header"))?;
                table = name.trim().trim_matches('"').to_string();
                doc.tables.entry(table.clone()).or_default();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(line_no, format!("expected `key = value`: `{line}`")));
            };
            let key = key.trim().trim_matches('"').to_string();
            let mut value = value.trim().to_string();
            if value.starts_with('[') {
                // Accumulate a multi-line array until brackets balance.
                while value.matches('[').count() > value.matches(']').count() {
                    let Some((_, next)) = lines.next() else {
                        return Err(err(line_no, "unterminated array"));
                    };
                    value.push(' ');
                    value.push_str(strip_comment(next).trim());
                }
                let parsed = parse_list(&value, line_no)?;
                doc.tables
                    .entry(table.clone())
                    .or_default()
                    .insert(key, parsed);
            } else {
                let parsed = parse_scalar(&value, line_no)?;
                doc.tables
                    .entry(table.clone())
                    .or_default()
                    .insert(key, parsed);
            }
        }
        Ok(doc)
    }

    /// The string value at `table` / `key`, if present.
    pub fn str_value(&self, table: &str, key: &str) -> Option<&str> {
        match self.tables.get(table)?.get(key)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The string-array value at `table` / `key`, if present.
    pub fn list_value(&self, table: &str, key: &str) -> Option<&[String]> {
        match self.tables.get(table)?.get(key)? {
            Value::List(v) => Some(v),
            _ => None,
        }
    }
}

/// Per-rule scoping and allowlists, loaded from `lint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory names (relative to the workspace root) never scanned.
    /// `vendor` holds offline stand-ins for *external* crates — third-party
    /// code by construction — and `target` is build output.
    pub skip_dirs: Vec<String>,
    /// Crates whose simulator state must use ordered collections (R1).
    pub state_crates: Vec<String>,
    /// Crates allowed ambient nondeterminism (R2) — the bench harness.
    pub nondet_exempt_crates: Vec<String>,
    /// Packages that are test code in their entirety (the workspace-level
    /// integration-test member), exempt from every rule.
    pub test_crates: Vec<String>,
    /// Crates whose non-test code must be panic-free (R4).
    pub library_crates: Vec<String>,
    /// Crates whose `Transmit`/`Deliver`/`Loss` constructions must thread
    /// an attribution key (R6).
    pub emit_crates: Vec<String>,
    /// Crates whose event enqueues must use stable key constructors (R7).
    pub event_key_crates: Vec<String>,
    /// The stable-key type names R7 protects (struct literals outside the
    /// type's own `impl` are flagged).
    pub event_key_types: Vec<String>,
    /// Crates whose worker-pool result collections must be sorted before
    /// iteration (R8).
    pub merge_crates: Vec<String>,
    /// Field/binding names treated as worker-pool result collections (R8).
    pub merge_collections: Vec<String>,
    /// Per-rule path allowlists: `path-suffix` or `path-suffix:line`.
    pub allow: BTreeMap<RuleId, Vec<String>>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            skip_dirs: vec!["vendor".into(), "target".into()],
            state_crates: [
                "dde-netsim",
                "dde-core",
                "dde-sched",
                "dde-naming",
                "dde-workload",
            ]
            .map(String::from)
            .to_vec(),
            nondet_exempt_crates: vec!["dde-bench".into()],
            test_crates: vec!["dde-integration-tests".into()],
            library_crates: [
                "dde-logic",
                "dde-coverage",
                "dde-naming",
                "dde-netsim",
                "dde-sched",
                "dde-workload",
                "dde-core",
            ]
            .map(String::from)
            .to_vec(),
            emit_crates: ["dde-netsim", "dde-core"].map(String::from).to_vec(),
            event_key_crates: vec!["dde-netsim".into()],
            event_key_types: vec!["EventKey".into()],
            merge_crates: vec!["dde-bench".into()],
            merge_collections: vec!["results".into()],
            allow: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Loads configuration from `lint.toml` text. Missing keys keep their
    /// defaults, so an empty file is a valid configuration.
    pub fn from_toml_str(src: &str) -> Result<Config, ConfigError> {
        let doc = Toml::parse(src)?;
        let mut cfg = Config::default();
        if let Some(v) = doc.list_value("workspace", "skip_dirs") {
            cfg.skip_dirs = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.no-hash-state", "state_crates") {
            cfg.state_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.no-ambient-nondeterminism", "exempt_crates") {
            cfg.nondet_exempt_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("workspace", "test_crates") {
            cfg.test_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.no-panic", "library_crates") {
            cfg.library_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.attribution-key", "emit_crates") {
            cfg.emit_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.stable-event-key", "crates") {
            cfg.event_key_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.stable-event-key", "key_types") {
            cfg.event_key_types = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.merge-order", "crates") {
            cfg.merge_crates = v.to_vec();
        }
        if let Some(v) = doc.list_value("rules.merge-order", "collections") {
            cfg.merge_collections = v.to_vec();
        }
        for rule in RuleId::ALL {
            let table = format!("rules.{}", rule.slug());
            if let Some(v) = doc.list_value(&table, "allow") {
                cfg.allow.insert(rule, v.to_vec());
            }
        }
        Ok(cfg)
    }

    /// Whether a config allowlist entry covers `path` (suffix match) at
    /// `line`. Entries are `path-suffix` or `path-suffix:line`.
    pub fn allows(&self, rule: RuleId, path: &str, line: u32) -> Option<&str> {
        let entries = self.allow.get(&rule)?;
        entries
            .iter()
            .find(|e| {
                let (p, l) = match e.rsplit_once(':') {
                    Some((p, l)) if l.chars().all(|c| c.is_ascii_digit()) => {
                        (p, l.parse::<u32>().ok())
                    }
                    _ => (e.as_str(), None),
                };
                path.ends_with(p) && l.is_none_or(|l| l == line)
            })
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_scalars_and_arrays() {
        let doc = Toml::parse(
            r#"
top = "level"
[package]
name = "dde-core" # trailing comment
count = 1_000
flag = true
[rules.no-panic]
allow = [
    "crates/core/src/node.rs:12", # why
    "crates/sched",
]
"#,
        )
        .unwrap();
        assert_eq!(doc.str_value("", "top"), Some("level"));
        assert_eq!(doc.str_value("package", "name"), Some("dde-core"));
        assert_eq!(doc.list_value("rules.no-panic", "allow").unwrap().len(), 2);
    }

    #[test]
    fn empty_config_keeps_defaults() {
        let cfg = Config::from_toml_str("").unwrap();
        assert!(cfg.state_crates.contains(&"dde-netsim".to_string()));
        assert!(cfg.nondet_exempt_crates.contains(&"dde-bench".to_string()));
        assert_eq!(cfg.skip_dirs, vec!["vendor", "target"]);
    }

    #[test]
    fn allowlist_matches_suffix_and_line() {
        let cfg = Config::from_toml_str(
            "[rules.no-panic]\nallow = [\"src/node.rs:7\", \"src/engine.rs\"]\n",
        )
        .unwrap();
        assert!(cfg
            .allows(RuleId::Panic, "crates/core/src/node.rs", 7)
            .is_some());
        assert!(cfg
            .allows(RuleId::Panic, "crates/core/src/node.rs", 8)
            .is_none());
        assert!(cfg
            .allows(RuleId::Panic, "crates/core/src/engine.rs", 99)
            .is_some());
        assert!(cfg
            .allows(RuleId::FloatOrder, "crates/core/src/engine.rs", 99)
            .is_none());
    }

    #[test]
    fn structural_rule_keys_override_the_defaults() {
        let cfg = Config::from_toml_str(
            "[rules.merge-order]\ncrates = [\"dde-net\"]\ncollections = [\"outbox\"]\n\
             allow = [\"src/pool.rs:10\"]\n\
             [rules.stable-event-key]\nkey_types = [\"EventKey\", \"TimerKey\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.merge_crates, vec!["dde-net"]);
        assert_eq!(cfg.merge_collections, vec!["outbox"]);
        assert_eq!(cfg.event_key_types, vec!["EventKey", "TimerKey"]);
        assert!(cfg
            .allows(RuleId::MergeOrder, "crates/net/src/pool.rs", 10)
            .is_some());
        assert!(cfg
            .allows(RuleId::MergeOrder, "crates/net/src/pool.rs", 11)
            .is_none());
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Toml::parse("[unclosed").is_err());
        assert!(Toml::parse("key value").is_err());
        assert!(Toml::parse("k = [1, 2]").is_err());
    }

    #[test]
    fn tolerates_cargo_toml_value_forms() {
        let doc = Toml::parse(
            "[package]\nname = \"x\"\nversion.workspace = true\n[dependencies]\nsyn = { workspace = true }\n",
        )
        .unwrap();
        assert_eq!(doc.str_value("package", "name"), Some("x"));
    }
}
