//! Analyzer orchestration: walk → parse → rules → allowlist → output.
//!
//! `cargo run -p xtask -- analyze [--json] [--baseline FILE]` runs the
//! whole pipeline over `crates/` (shims implement the primitives the rules
//! reason about, so they are out of scope; test code is skipped inside the
//! rules), with `benchmark/src` and `examples/` read as callers only. Any
//! finding fails the run — vetted exceptions live in
//! `crates/xtask/analyze_allow.txt` as
//! `rule :: file :: function :: needle :: justification` lines with the
//! same stale-entry detection as the lint allowlist: an entry that stops
//! waiving anything becomes a finding itself.

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
/// by both the workspace entry point and the fixture tests. `callers` are
/// parsed only for the uses they make of the analyzed sources.
pub fn analyze_sources(
    sources: &[(String, String)],
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
    let sources = workspace_sources(root)?;
    let callers = caller_sources(root)?;
    let allow_content =
        std::fs::read_to_string(root.join("crates/xtask/analyze_allow.txt")).unwrap_or_default();
    let (entries, mut findings) = parse_analyze_allowlist(&allow_content);
    findings.extend(analyze_sources(&sources, &callers, &AnalyzeConfig::default(), &entries));
    Ok(findings)
}

// ---------------------------------------------------------------------------
// JSON output + baseline
// ---------------------------------------------------------------------------

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

/// Renders findings as stable, diffable JSON (sorted; one finding per
/// entry; chains included) — the `--json` output and the baseline format.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", json_escape(f.rule)));
        out.push_str(&format!("\"file\": \"{}\", ", json_escape(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"function\": \"{}\", ", json_escape(&f.function)));
        out.push_str(&format!("\"message\": \"{}\", ", json_escape(&f.message)));
        out.push_str("\"chain\": [");
        for (j, hop) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", json_escape(hop)));
        }
        out.push_str("]}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Compares current findings against a committed baseline file (the JSON
/// rendered by [`render_json`]). Returns `Err` with a human-readable diff
/// when they disagree.
pub fn check_baseline(findings: &[Finding], baseline: &str) -> Result<(), String> {
    let current = render_json(findings);
    if current.trim() == baseline.trim() {
        return Ok(());
    }
    let cur_lines: Vec<&str> = current.lines().collect();
    let base_lines: Vec<&str> = baseline.lines().collect();
    let mut diff = String::from("analyzer findings differ from the committed baseline:\n");
    for l in &cur_lines {
        if !base_lines.contains(l) {
            diff.push_str(&format!("  + {l}\n"));
        }
    }
    for l in &base_lines {
        if !cur_lines.contains(l) {
            diff.push_str(&format!("  - {l}\n"));
        }
    }
    diff.push_str(
        "regenerate with `cargo run -p xtask -- analyze --json > \
         crates/xtask/analyze_baseline.json` if the change is intended",
    );
    Err(diff)
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

    #[test]
    fn render_json_is_stable_and_escaped() {
        let f = finding("parse-error", "a\\b.rs", "f", "quote \" and\nnewline");
        let json = render_json(&[f]);
        assert!(json.contains("\"a\\\\b.rs\""));
        assert!(json.contains("quote \\\" and\\nnewline"));
        assert!(json.starts_with("{\n  \"version\": 1"));
    }

    #[test]
    fn baseline_diff_names_both_directions() {
        let current = vec![finding("parse-error", "new.rs", "", "x")];
        let stale_baseline = render_json(&[finding("parse-error", "old.rs", "", "y")]);
        let err = check_baseline(&current, &stale_baseline).unwrap_err();
        assert!(err.contains("+") && err.contains("new.rs"));
        assert!(err.contains("-") && err.contains("old.rs"));
        assert!(check_baseline(&current, &render_json(&current)).is_ok());
    }
}
