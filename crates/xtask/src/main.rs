//! `cargo run -p xtask -- analyze` — the workspace checker from the CLI:
//! the line rules (R1–R6) and the graph rules (lock-order cycles,
//! atomic-ordering audit, reactor-blocking reachability, test-only `pub`
//! surface) under the one allowlist, `crates/xtask/analyze_allow.txt`.
//! Exits non-zero on any finding.
//!
//! `crates/xtask/tests/analyze_workspace.rs` wires the same pass into
//! tier-1 `cargo test`; this binary exists for quick local runs and for
//! `scripts/check.sh`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["analyze"] {
        eprintln!("usage: cargo run -p xtask -- analyze");
        return ExitCode::FAILURE;
    }
    let Some(root) = workspace_root() else {
        eprintln!("xtask: could not locate the workspace root Cargo.toml");
        return ExitCode::FAILURE;
    };
    match xtask::analyze::analyze_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("xtask analyze: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("xtask analyze: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            ExitCode::FAILURE
        }
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
