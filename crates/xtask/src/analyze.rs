//! Checker orchestration: walk → parse → rules → allowlist → output.
//!
//! `cargo run -p xtask -- analyze` runs the whole pipeline: the graph
//! rules over `crates/` (shims implement the primitives the rules reason
//! about, so they are out of scope; test code is skipped inside the rules),
//! with `benchmark/src` and `examples/` read as callers only, and the line
//! rules (R1–R6, see the crate docs) over `crates/`, `shims/` and `tests/`.
//! Any finding fails the run — vetted exceptions live in
//! `crates/xtask/analyze_allow.txt` as
//! `rule :: file :: function :: needle :: justification` lines, and an
//! entry that stops waiving anything becomes a finding itself.

use std::path::Path;

use crate::facts::{parse_file, FileFacts};
use crate::rules::{run_rules, AnalyzeConfig, Finding};

/// One `analyze_allow.txt` entry.
#[derive(Debug, Clone)]
pub struct AnalyzeAllowEntry {
    pub rule: String,
    pub file: String,
    pub function: String,
    /// Substring the finding's message must contain (usually the needle,
    /// e.g. `` `.lock(` ``).
    pub needle: String,
    pub justification: String,
    pub source_line: usize,
}

/// Parses `analyze_allow.txt`. Malformed lines become findings.
pub fn parse_analyze_allowlist(content: &str) -> (Vec<AnalyzeAllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(5, " :: ").collect();
        if parts.len() != 5 || parts.iter().any(|p| p.trim().is_empty()) {
            findings.push(Finding {
                rule: "analyze-allowlist-format",
                file: String::from("crates/xtask/analyze_allow.txt"),
                line: i + 1,
                function: String::new(),
                message: format!(
                    "expected `rule :: file :: function :: needle :: justification`, \
                     got `{line}`"
                ),
                chain: Vec::new(),
            });
            continue;
        }
        entries.push(AnalyzeAllowEntry {
            rule: parts[0].trim().to_string(),
            file: parts[1].trim().to_string(),
            function: parts[2].trim().to_string(),
            needle: parts[3].trim().to_string(),
            justification: parts[4].trim().to_string(),
            source_line: i + 1,
        });
    }
    (entries, findings)
}

/// Applies the allowlist: waives matching findings, then reports unused
/// (stale) entries so the list can only shrink, never rot.
pub fn apply_analyze_allowlist(
    findings: Vec<Finding>,
    entries: &[AnalyzeAllowEntry],
) -> Vec<Finding> {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    for f in findings {
        let mut waived = false;
        for (i, e) in entries.iter().enumerate() {
            if e.rule == f.rule
                && e.file == f.file
                && e.function == f.function
                && f.message.contains(&e.needle)
            {
                used[i] = true;
                waived = true;
            }
        }
        if !waived {
            kept.push(f);
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !used[i] {
            kept.push(Finding {
                rule: "analyze-allowlist-stale",
                file: String::from("crates/xtask/analyze_allow.txt"),
                line: e.source_line,
                function: String::new(),
                message: format!(
                    "entry `{} :: {} :: {} :: {}` no longer waives anything; remove it",
                    e.rule, e.file, e.function, e.needle
                ),
                chain: Vec::new(),
            });
        }
    }
    kept
}

/// Parses every source and runs the rules + allowlist: the pure core used
/// by both the workspace entry point and the fixture tests. The graph rules
/// read `sources`, the line rules `line_sources`; `callers` are parsed only
/// for the uses they make of the analyzed sources.
pub fn analyze_sources(
    sources: &[(String, String)],
    line_sources: &[(String, String)],
    callers: &[(String, String)],
    config: &AnalyzeConfig,
    allow: &[AnalyzeAllowEntry],
) -> Vec<Finding> {
    let mut files: Vec<FileFacts> = Vec::new();
    let mut findings = Vec::new();
    for (path, content) in sources {
        let facts = parse_file(path, content);
        for err in &facts.errors {
            findings.push(Finding {
                rule: "parse-error",
                file: path.clone(),
                line: 0,
                function: String::new(),
                message: err.clone(),
                chain: Vec::new(),
            });
        }
        files.push(facts);
    }
    for (path, content) in line_sources {
        findings.extend(crate::scan_file(path, content));
    }
    let callers: Vec<FileFacts> = callers.iter().map(|(p, c)| parse_file(p, c)).collect();
    findings.extend(run_rules(&files, &callers, config));
    let mut out = apply_analyze_allowlist(findings, allow);
    out.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    out
}

/// Parses the whole workspace's `crates/` tree into facts (no rules) —
/// exposed for the parser round-trip test.
pub fn parse_workspace(root: &Path) -> Result<Vec<FileFacts>, String> {
    Ok(workspace_sources(root)?
        .iter()
        .map(|(p, c)| parse_file(p, c))
        .collect())
}

/// Collects `(relpath, content)` for every analyzed source in the
/// workspace: `crates/` only (shims implement the primitives; top-level
/// `tests/` are integration-test code the rules skip anyway).
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    read_sources(root, &["crates"])
}

/// The sources the line rules read: `crates/`, the shims (whose `unsafe`
/// needs its SAFETY argument like any other) and the workspace-level
/// `tests/`.
pub fn line_rule_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    read_sources(root, &["crates", "shims", "tests"])
}

/// The sources that only call into the analyzed ones: the benchmark (read,
/// never audited: its surface is frozen) and the top-level examples.
pub fn caller_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    read_sources(root, &["benchmark/src", "examples"])
}

fn read_sources(root: &Path, dirs: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    for dir in dirs {
        crate::collect_rs(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let content =
            std::fs::read_to_string(f).map_err(|e| format!("read {}: {e}", f.display()))?;
        out.push((rel, content));
    }
    Ok(out)
}

/// Full workspace analysis with the committed allowlist.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allow_content =
        std::fs::read_to_string(root.join("crates/xtask/analyze_allow.txt")).unwrap_or_default();
    let (entries, mut findings) = parse_analyze_allowlist(&allow_content);
    findings.extend(analyze_sources(
        &workspace_sources(root)?,
        &line_rule_sources(root)?,
        &caller_sources(root)?,
        &AnalyzeConfig::default(),
        &entries,
    ));
    findings.extend(crate::shim_wiring(root)?);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, function: &str, message: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 1,
            function: function.to_string(),
            message: message.to_string(),
            chain: Vec::new(),
        }
    }

    #[test]
    fn allowlist_waives_matches_and_reports_stale_entries() {
        let (entries, format_findings) = parse_analyze_allowlist(
            "# comment\n\
             reactor-blocking :: a.rs :: Q::push :: `.lock(` :: fine\n\
             reactor-blocking :: b.rs :: Nope::f :: `.lock(` :: stale\n",
        );
        assert!(format_findings.is_empty());
        let findings = vec![finding(
            "reactor-blocking",
            "a.rs",
            "Q::push",
            "mutex lock `inner` (`.lock(`) reachable from the reactor event loop",
        )];
        let kept = apply_analyze_allowlist(findings, &entries);
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rule, "analyze-allowlist-stale");
        assert_eq!(kept[0].line, 3, "stale entry's own line number");
    }

    #[test]
    fn a_source_the_parser_rejects_is_a_parse_error() {
        let sources = [(String::from("crates/a/src/lib.rs"), String::from("fn open() {\n"))];
        let config = AnalyzeConfig { reactor_roots: Vec::new(), require_roots: false };
        let findings = analyze_sources(&sources, &[], &[], &config, &[]);
        assert!(
            findings.iter().any(|f| f.rule == "parse-error" && f.file == "crates/a/src/lib.rs"),
            "{findings:?}"
        );
    }

    #[test]
    fn malformed_allowlist_lines_are_findings() {
        let (entries, findings) = parse_analyze_allowlist("not a valid line\n");
        assert!(entries.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "analyze-allowlist-format");
    }

    #[test]
    fn allowlist_must_match_function_not_just_file() {
        let (entries, _) =
            parse_analyze_allowlist("reactor-blocking :: a.rs :: Q::push :: `.lock(` :: ok\n");
        let findings = vec![finding(
            "reactor-blocking",
            "a.rs",
            "Q::other",
            "mutex lock `inner` (`.lock(`) reachable from the reactor event loop",
        )];
        let kept = apply_analyze_allowlist(findings, &entries);
        assert!(kept.iter().any(|f| f.rule == "reactor-blocking"), "different fn not waived");
    }
}
