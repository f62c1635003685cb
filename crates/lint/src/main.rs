//! `dde-lint` — the workspace determinism gate.
//!
//! ```text
//! dde-lint [--root DIR] [--config FILE] [--format text|json] [--quiet] [--no-timing]
//! ```
//!
//! Exit codes: `0` clean, `1` violations or stale allows found,
//! `2` usage/IO/parse error.

// The lint CLI itself reads argv and the cwd; it is a tool, not sim code.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]
use dde_lint::{config::Config, engine, report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Args {
    root: Option<PathBuf>,
    config: Option<PathBuf>,
    format: Format,
    quiet: bool,
    no_timing: bool,
}

const USAGE: &str =
    "usage: dde-lint [--root DIR] [--config FILE] [--format text|json] [--quiet] [--no-timing]

Parses every workspace source file and enforces the determinism and
panic-safety rules (R1 no-hash-state, R2 no-ambient-nondeterminism,
R3 float-order, R4 no-panic, R6 attribution-key, R7 stable-event-key,
R8 merge-order). Configuration and per-rule allowlists are read from
lint.toml at the workspace root. Allowlist entries and inline markers
that no longer match any finding are reported as stale and gate the
exit code like violations. --no-timing zeroes the per-rule timing
footer so two runs over identical sources are byte-identical.

exit codes: 0 clean, 1 violations or stale allows, 2 error";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        config: None,
        format: Format::Text,
        quiet: false,
        no_timing: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root requires a value")?));
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config requires a value")?));
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        return Err(format!("--format must be `text` or `json`, got {other:?}"))
                    }
                };
            }
            "--quiet" | "-q" => args.quiet = true,
            "--no-timing" => args.no_timing = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn load_config(root: &Path, explicit: Option<&Path>) -> Result<Config, String> {
    let path = match explicit {
        Some(p) => p.to_path_buf(),
        None => {
            let p = root.join("lint.toml");
            if !p.is_file() {
                return Ok(Config::default());
            }
            p
        }
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::from_toml_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dde-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("dde-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };
    let cfg = match load_config(&root, args.config.as_deref()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dde-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match engine::run(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dde-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.no_timing {
        report.strip_timing();
    }
    let rendered = match args.format {
        Format::Text => report::render_text(
            &report.diagnostics,
            report.files_scanned,
            &report.stale_allows,
            &report.stats,
        ),
        Format::Json => report::render_json(
            &report.diagnostics,
            report.files_scanned,
            &report.stale_allows,
            &report.stats,
        ),
    };
    if !args.quiet || !report.is_clean() {
        print!("{rendered}");
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
