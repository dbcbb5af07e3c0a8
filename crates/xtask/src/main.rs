//! `cargo run -p xtask -- <task>` — workspace checks from the CLI.
//!
//! * `lint` — the line-lexer hygiene rules (R1–R6).
//! * `analyze [--json] [--baseline FILE]` — the concurrency analyzer
//!   (lock-order cycles, atomic-ordering audit, reactor-blocking
//!   reachability) and the test-only-pub surface rule. Exits non-zero on
//!   any finding; `--baseline` also diffs the JSON output against a
//!   committed baseline file.
//!
//! Both passes are wired into tier-1 `cargo test` via
//! `crates/xtask/tests/`; this binary exists for quick local runs and for
//! `scripts/check.sh`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze(args.collect()),
        Some(other) => {
            eprintln!("unknown task `{other}`; available tasks: lint, analyze");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint|analyze> [--json] [--baseline FILE]"
            );
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("xtask: could not locate the workspace root Cargo.toml");
            return ExitCode::FAILURE;
        }
    };
    match xtask::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn analyze(args: Vec<String>) -> ExitCode {
    let mut json = false;
    let mut baseline: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask analyze: --baseline needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("xtask analyze: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("xtask: could not locate the workspace root Cargo.toml");
            return ExitCode::FAILURE;
        }
    };
    let findings = match xtask::analyze::analyze_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json {
        print!("{}", xtask::analyze::render_json(&findings));
    } else if findings.is_empty() {
        println!("xtask analyze: clean");
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!("xtask analyze: {} finding(s)", findings.len());
    }
    let mut ok = findings.is_empty();
    if let Some(path) = baseline {
        let resolved = if path.is_absolute() { path } else { root.join(path) };
        match std::fs::read_to_string(&resolved) {
            Ok(content) => {
                if let Err(diff) = xtask::analyze::check_baseline(&findings, &content) {
                    eprintln!("{diff}");
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("xtask analyze: read baseline {}: {e}", resolved.display());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the manifest dir (under cargo) or cwd to the `[workspace]`
/// manifest.
fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir = start.as_path();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}
