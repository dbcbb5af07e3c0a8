//! Workspace lint pass: concurrency-hygiene rules the compiler cannot check.
//!
//! The serving core carries hand-rolled `unsafe` reclamation
//! (`serving::handle`), a model-checker shim (`shims/loom`), and a no-panic
//! request path — invariants that are easy to break silently in a later
//! change. This crate enforces them statically with a small line lexer (no
//! `syn`, no network): run `cargo run -p xtask -- lint`, or rely on
//! `tests/workspace_lint.rs`, which wires the same pass into tier-1
//! `cargo test`.
//!
//! Rules (each is documented in detail on its check below):
//!
//! * **R1 safety-comment** — every `unsafe` keyword needs a `// SAFETY:`
//!   comment (or a `# Safety` doc section) in the comment block immediately
//!   above it (blank lines break the association) or on the same line.
//! * **R2 no-panic-request-path** — request-path modules must not contain
//!   `unwrap()`/`expect()`/`panic!`-family calls outside test code; vetted
//!   exceptions live in `lint_allow.txt` with a one-line justification.
//! * **R3 facade-only-sync** — modules ported to the `sync` facade must not
//!   import `std::sync::atomic`, `std::thread`, or `parking_lot` directly
//!   (normal builds re-export them; `--features loom` swaps in the shim).
//! * **R4 no-sleep** — `thread::sleep` only in tests.
//! * **R5 shim-wiring** — every directory in `shims/` must be wired into
//!   the workspace by a `path` dependency, keyed by its package name, and
//!   documented in `shims/README.md`.
//! * **R6 record-no-alloc** — in telemetry hot-path modules, functions whose
//!   name starts with `record` run on every request per worker and must stay
//!   allocation- and lock-free: no `Vec::push`/`String`/`format!` and no
//!   mutex acquisition (snapshot/render functions are naturally exempt —
//!   the rule keys on the function name).

pub mod analyze;
pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{braces, find_token, Lexer};

/// One rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Stable rule identifier (`safety-comment`, `no-panic-request-path`, …).
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Serving/kvstore modules on the request hot path: a panic here unwinds an
/// HTTP worker's keep-alive loop and kills every connection multiplexed on
/// it, so failures must surface as typed errors instead (R2).
const REQUEST_PATH_MODULES: &[&str] = &[
    "crates/serving/src/engine.rs",
    "crates/serving/src/server/mod.rs",
    "crates/serving/src/server/parser.rs",
    "crates/serving/src/server/conn.rs",
    "crates/serving/src/server/lifecycle.rs",
    "crates/serving/src/server/reactor.rs",
    "crates/serving/src/server/dispatch.rs",
    "crates/serving/src/server/worker.rs",
    "crates/serving/src/server/metrics.rs",
    "crates/serving/src/cluster.rs",
    "crates/serving/src/handle.rs",
    "crates/serving/src/cache.rs",
    "crates/serving/src/json.rs",
    "crates/serving/src/rules.rs",
    "crates/serving/src/ingest/mod.rs",
    "crates/serving/src/ingest/pipeline.rs",
    "crates/serving/src/ingest/epoch.rs",
    "crates/serving/src/ingest/metrics.rs",
    "crates/serving/src/server/backend.rs",
    "crates/serving/src/transport.rs",
    "crates/serving/src/routerd.rs",
    "crates/serving/src/node.rs",
    "crates/kvstore/src/store.rs",
    "crates/kvstore/src/session.rs",
    "crates/kvstore/src/clock.rs",
    "crates/serving/src/stats.rs",
    "crates/serving/src/telemetry.rs",
    "crates/telemetry/src/histogram.rs",
    "crates/telemetry/src/registry.rs",
    "crates/telemetry/src/trace.rs",
];

/// Telemetry modules whose `record*` functions sit on the per-request hot
/// path (R6). Recording a latency sample must never allocate or take a lock:
/// an allocation stalls the worker under memory pressure and a mutex turns
/// the per-shard atomics back into a convoy. Snapshot/render code in the
/// same files is exempt — the rule keys on the `record` name prefix.
const RECORD_PATH_MODULES: &[&str] = &[
    "crates/serving/src/cache.rs",
    "crates/serving/src/cluster.rs",
    "crates/serving/src/context.rs",
    "crates/telemetry/src/histogram.rs",
    "crates/telemetry/src/registry.rs",
    "crates/telemetry/src/trace.rs",
    "crates/serving/src/stats.rs",
    "crates/serving/src/telemetry.rs",
    "crates/serving/src/server/metrics.rs",
    "crates/serving/src/routerd.rs",
    "crates/serving/src/ingest/metrics.rs",
    "crates/serving/src/ingest/epoch.rs",
];

/// Needles R6 treats as allocation or locking inside a `record*` function.
const RECORD_ALLOC_NEEDLES: &[&str] = &[
    ".push(",
    ".push_str(",
    "String::",
    ".to_string(",
    ".to_owned(",
    "format!(",
    "vec![",
    "Vec::new",
    "Box::new",
    ".lock(",
];

/// Modules ported to the `sync` facade (R3). Their concurrency primitives
/// must come from `crate::sync` so `--features loom` can swap in the model
/// checker; a direct `std::sync::atomic`/`std::thread`/`parking_lot` import
/// would silently escape the checker's instrumentation.
const FACADE_MODULES: &[&str] = &[
    "crates/serving/src/cache.rs",
    "crates/serving/src/handle.rs",
    "crates/serving/src/stats.rs",
    "crates/serving/src/server/lifecycle.rs",
    "crates/kvstore/src/store.rs",
    "crates/serving/src/ingest/epoch.rs",
];

const PANIC_NEEDLES: &[&str] =
    &[".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// One `lint_allow.txt` entry: `path :: needle :: justification`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub file: String,
    pub needle: String,
    pub justification: String,
    /// Line in `lint_allow.txt`, for stale-entry reporting.
    pub source_line: usize,
}

/// Parses `lint_allow.txt`. Lines are `path :: needle :: justification`;
/// blank lines and `#` comments are skipped. Malformed lines are reported
/// as violations rather than ignored.
pub fn parse_allowlist(content: &str) -> (Vec<AllowEntry>, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(3, " :: ").collect();
        if parts.len() != 3 || parts.iter().any(|p| p.trim().is_empty()) {
            violations.push(Violation {
                file: String::from("crates/xtask/lint_allow.txt"),
                line: i + 1,
                rule: "allowlist-format",
                message: format!("expected `path :: needle :: justification`, got `{line}`"),
            });
            continue;
        }
        entries.push(AllowEntry {
            file: parts[0].trim().to_string(),
            needle: parts[1].trim().to_string(),
            justification: parts[2].trim().to_string(),
            source_line: i + 1,
        });
    }
    (entries, violations)
}

/// Per-file lint over `content`. `relpath` is workspace-relative with `/`
/// separators; it selects which rules apply. Pure function of its inputs so
/// fixture tests can feed it synthetic files.
pub fn scan_file(relpath: &str, content: &str) -> Vec<Violation> {
    let is_test_file = relpath.contains("/tests/") || relpath.starts_with("tests/");
    let request_path = REQUEST_PATH_MODULES.contains(&relpath);
    let facade = FACADE_MODULES.contains(&relpath);
    let record_path = RECORD_PATH_MODULES.contains(&relpath);

    let mut lexer = Lexer::default();
    let mut violations = Vec::new();

    // Test-region tracking: a `#[cfg(test)]`-style attribute (any cfg
    // containing the `test` token) puts the lexer in "test code" until the
    // block it introduces closes. Attribute on a braceless item (e.g. a
    // `use`) covers just that statement.
    let mut depth: i32 = 0;
    let mut test_region_until: Option<i32> = None; // skip while depth > this
    let mut pending_test_attr = false;

    // R1: true while a `SAFETY:` comment block immediately above is still
    // "attached" — comment-only lines extend it, any code or blank line
    // consumes/breaks it.
    let mut safety_pending = false;

    // R6: region tracking for `fn record*` bodies, mirroring the test-region
    // machinery — the region opens at the function's `{` and closes when the
    // brace depth returns to the level outside it.
    let mut record_region_until: Option<i32> = None;
    let mut pending_record_fn = false;

    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        let lexed = lexer.lex(raw);
        let code = lexed.code.as_str();

        if lexed.comment.contains("SAFETY:") || lexed.comment.contains("# Safety") {
            safety_pending = true;
        }

        let trimmed = code.trim();
        if pending_test_attr {
            // The attribute's item starts here (attributes may stack).
            if trimmed.starts_with("#[") {
                // another attribute; keep waiting
            } else if code.contains('{') {
                test_region_until = Some(depth);
                pending_test_attr = false;
            } else if code.contains(';') {
                // Braceless item (use/static): only that line is test code.
                pending_test_attr = false;
                depth += braces(code);
                continue;
            }
        }
        if trimmed.starts_with("#[cfg(") && trimmed.contains("test") && test_region_until.is_none()
        {
            pending_test_attr = true;
        }
        if trimmed.starts_with("#[test]") && test_region_until.is_none() {
            pending_test_attr = true;
        }

        // R6 region transitions (before the depth update, like test regions).
        let mut record_scan_line = record_region_until.is_some();
        if record_path {
            if record_region_until.is_none() && !pending_record_fn {
                if let Some(pos) = find_token(code, "fn") {
                    if code[pos + 2..].trim_start().starts_with("record") {
                        pending_record_fn = true;
                    }
                }
            }
            if pending_record_fn {
                if code.contains('{') {
                    pending_record_fn = false;
                    record_region_until = Some(depth);
                    record_scan_line = true;
                } else if code.contains(';') {
                    // Bodyless declaration (trait method) — nothing to scan.
                    pending_record_fn = false;
                }
            }
        }

        let depth_before = depth;
        depth += braces(code);
        let in_test = is_test_file
            || match test_region_until {
                Some(limit) => {
                    if depth <= limit {
                        test_region_until = None;
                        // The closing-brace line itself still belongs to
                        // the test region.
                        true
                    } else {
                        true
                    }
                }
                None => pending_test_attr && depth > depth_before,
            };
        if let Some(limit) = record_region_until {
            // The closing-brace line itself was already marked for scanning.
            if depth <= limit {
                record_region_until = None;
            }
        }

        // R1: `unsafe` needs a SAFETY comment attached — in the comment
        // block directly above (blank lines break it) or on the same line.
        // Applies everywhere, tests included — an uncommented unsafe block
        // in a test is still a trap for the next reader. `unsafe fn(` is a
        // function-pointer *type*, not a block.
        if let Some(col) = find_token(code, "unsafe") {
            let after = code[col + "unsafe".len()..].trim_start();
            let is_fn_ptr_type = after.starts_with("fn(");
            if !is_fn_ptr_type && !safety_pending {
                violations.push(Violation {
                    file: relpath.to_string(),
                    line: lineno,
                    rule: "safety-comment",
                    message: String::from(
                        "`unsafe` without a `// SAFETY:` comment attached above it",
                    ),
                });
            }
        }

        // R2: no panicking calls on the request path (non-test code).
        if request_path && !in_test {
            for needle in PANIC_NEEDLES {
                if let Some(col) = code.find(needle) {
                    // `self.expect(` is this workspace's parser-combinator
                    // helper returning `Err`, not `Option::expect`.
                    if *needle == ".expect(" && code[..col].ends_with("self") {
                        continue;
                    }
                    violations.push(Violation {
                        file: relpath.to_string(),
                        line: lineno,
                        rule: "no-panic-request-path",
                        message: format!(
                            "`{needle}` on the request path (a panic kills the worker's \
                             keep-alive connection); return a typed error or allowlist it"
                        ),
                    });
                }
            }
        }

        // R6: no allocation or locking inside `record*` hot-path functions.
        if record_scan_line && !in_test {
            for needle in RECORD_ALLOC_NEEDLES {
                if code.contains(needle) {
                    violations.push(Violation {
                        file: relpath.to_string(),
                        line: lineno,
                        rule: "record-no-alloc",
                        message: format!(
                            "`{needle}` inside a `record*` function; the record path runs \
                             per request per worker and must not allocate or lock"
                        ),
                    });
                }
            }
        }

        // R3: facade-ported modules must go through `crate::sync`.
        if facade && !in_test {
            for needle in ["std::sync::atomic", "std::thread", "parking_lot"] {
                if code.contains(needle) {
                    violations.push(Violation {
                        file: relpath.to_string(),
                        line: lineno,
                        rule: "facade-only-sync",
                        message: format!(
                            "`{needle}` bypasses the `sync` facade; the loom build would \
                             not instrument it"
                        ),
                    });
                }
            }
        }

        // R4: no sleeping on worker threads.
        if !is_test_file && !in_test && code.contains("::sleep(") {
            violations.push(Violation {
                file: relpath.to_string(),
                line: lineno,
                rule: "no-sleep",
                message: String::from("`thread::sleep` outside tests; use channels or condvars"),
            });
        }

        // A code line consumes the attached SAFETY block; a blank line
        // breaks it; comment-only lines extend it.
        let is_comment_only = trimmed.is_empty() && !lexed.comment.trim().is_empty();
        if !is_comment_only {
            safety_pending = lexed.comment.contains("SAFETY:")
                || lexed.comment.contains("# Safety");
        }
    }
    violations
}

/// R5: every shim directory must be wired into the workspace under its
/// package name and documented in the shim README. Catches the classic
/// drift where a shim is edited or added but the workspace silently keeps
/// resolving the name elsewhere (or nowhere).
pub fn check_shim_wiring(
    shim_dirs: &[(String, String)], // (dir name, its Cargo.toml content)
    root_manifest: &str,
    shim_manifests_joined: &str,
    readme: &str,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (dir, manifest) in shim_dirs {
        let file = format!("shims/{dir}/Cargo.toml");
        let name = toml_value(manifest, "name");
        let version = toml_value(manifest, "version");
        let Some(name) = name else {
            violations.push(Violation {
                file,
                line: 0,
                rule: "shim-wiring",
                message: String::from("shim manifest has no `name` field"),
            });
            continue;
        };
        if version.is_none() {
            violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "shim-wiring",
                message: format!("shim `{name}` declares no `version`"),
            });
        }
        let root_ref = format!("path = \"shims/{dir}\"");
        let sibling_ref = format!("path = \"../{dir}\"");
        if !root_manifest.contains(&root_ref) && !shim_manifests_joined.contains(&sibling_ref) {
            violations.push(Violation {
                file: file.clone(),
                line: 0,
                rule: "shim-wiring",
                message: format!(
                    "shims/{dir} is not wired in: no `{root_ref}` in the root Cargo.toml \
                     and no shim depends on it"
                ),
            });
        } else if root_manifest.contains(&root_ref) {
            // The dependency key must equal the package name, or the crate
            // in the directory is not the one the name resolves to.
            let keyed = root_manifest.lines().any(|l| {
                l.trim_start().starts_with(&format!("{name} ")) && l.contains(&root_ref)
            });
            if !keyed {
                violations.push(Violation {
                    file: file.clone(),
                    line: 0,
                    rule: "shim-wiring",
                    message: format!(
                        "root Cargo.toml wires shims/{dir} under a key other than its \
                         package name `{name}`"
                    ),
                });
            }
        }
        if !readme.contains(&format!("`{name}`")) {
            violations.push(Violation {
                file,
                line: 0,
                rule: "shim-wiring",
                message: format!("shims/README.md has no row for `{name}`"),
            });
        }
    }
    violations
}

/// First `key = "value"` in a TOML chunk (enough for our manifests; no
/// TOML parser in an offline workspace).
fn toml_value<'a>(toml: &'a str, key: &str) -> Option<&'a str> {
    for line in toml.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix(key) {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return v.trim().strip_prefix('"').and_then(|v| v.split('"').next());
            }
        }
    }
    None
}

/// Applies the allowlist: waives matching violations, then reports unused
/// (stale) entries so the list can only shrink, never rot.
pub fn apply_allowlist(
    violations: Vec<Violation>,
    entries: &[AllowEntry],
    sources: &dyn Fn(&str) -> Option<String>,
) -> Vec<Violation> {
    let mut used = vec![false; entries.len()];
    let mut kept = Vec::new();
    for v in violations {
        let mut waived = false;
        for (i, e) in entries.iter().enumerate() {
            if e.file == v.file && v.line > 0 {
                let line_matches = sources(&v.file)
                    .and_then(|src| src.lines().nth(v.line - 1).map(|l| l.contains(&e.needle)))
                    .unwrap_or(false);
                if line_matches {
                    used[i] = true;
                    waived = true;
                }
            }
        }
        if !waived {
            kept.push(v);
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !used[i] {
            kept.push(Violation {
                file: String::from("crates/xtask/lint_allow.txt"),
                line: e.source_line,
                rule: "allowlist-stale",
                message: format!(
                    "entry for {} (`{}`) no longer waives anything; remove it",
                    e.file, e.needle
                ),
            });
        }
    }
    kept
}

/// Walks the workspace and runs every rule. `root` is the workspace root
/// (the directory holding the top-level `Cargo.toml`).
/// The workspace-relative paths the lint walks — exposed so tests can pin
/// coverage (e.g. that `shims/loom` and the reactor's raw-syscall module
/// are inside the SAFETY-comment rule's reach).
pub fn lint_targets(root: &Path) -> Result<Vec<String>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "shims", "tests"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    Ok(files
        .iter()
        .map(|p| {
            p.strip_prefix(root)
                .unwrap_or(p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect())
}

pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();

    // Rust sources under crates/, shims/, and the workspace-level tests/.
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "shims", "tests"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();

    let rel = |p: &Path| -> String {
        p.strip_prefix(root)
            .unwrap_or(p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/")
    };

    let mut raw: Vec<Violation> = Vec::new();
    for f in &files {
        let content = std::fs::read_to_string(f)
            .map_err(|e| format!("read {}: {e}", f.display()))?;
        raw.extend(scan_file(&rel(f), &content));
    }

    // R5 needs the manifests and README.
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("read root Cargo.toml: {e}"))?;
    let readme = std::fs::read_to_string(root.join("shims/README.md")).unwrap_or_default();
    let mut shim_dirs = Vec::new();
    let mut shim_manifests = String::new();
    let entries = std::fs::read_dir(root.join("shims"))
        .map_err(|e| format!("read shims/: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read shims/: {e}"))?;
        if entry.path().is_dir() {
            let dir = entry.file_name().to_string_lossy().into_owned();
            let manifest = std::fs::read_to_string(entry.path().join("Cargo.toml"))
                .unwrap_or_default();
            shim_manifests.push_str(&manifest);
            shim_manifests.push('\n');
            shim_dirs.push((dir, manifest));
        }
    }
    shim_dirs.sort();
    raw.extend(check_shim_wiring(&shim_dirs, &root_manifest, &shim_manifests, &readme));

    // Allowlist pass.
    let allow_path = root.join("crates/xtask/lint_allow.txt");
    let allow_content = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let (entries, mut format_violations) = parse_allowlist(&allow_content);
    violations.append(&mut format_violations);
    let root_owned = root.to_path_buf();
    let sources = move |relpath: &str| std::fs::read_to_string(root_owned.join(relpath)).ok();
    violations.extend(apply_allowlist(raw, &entries, &sources));

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // e.g. no workspace-level tests/ dir
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            // `fixtures/` holds deliberately-bad analyzer corpora; walking
            // them would fail the workspace on its own test data.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        scan_file(path, src)
    }

    #[test]
    fn uncommented_unsafe_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = lint("crates/serving/src/handle.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_within_five_lines_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid, see caller.\n    unsafe { *p }\n}\n";
        assert!(lint("crates/serving/src/handle.rs", src).is_empty());
    }

    #[test]
    fn safety_doc_section_covers_unsafe_fn() {
        let src = "/// # Safety\n/// `p` must be valid.\npub unsafe fn f(p: *const u8) -> u8 {\n    // SAFETY: contract forwarded to the caller.\n    unsafe { *p }\n}\n";
        assert!(lint("shims/loom/src/sync.rs", src).is_empty());
    }

    #[test]
    fn detached_safety_comment_does_not_cover() {
        // A blank line between the comment block and the unsafe site breaks
        // the association.
        let src = "// SAFETY: detached.\n\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let v = lint("crates/serving/src/handle.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn long_safety_block_still_covers() {
        let mut src = String::from("// SAFETY: a long argument\n");
        for _ in 0..8 {
            src.push_str("// spanning many comment lines\n");
        }
        src.push_str("fn f(p: *const u8) -> u8 { unsafe { *p } }\n");
        assert!(lint("crates/serving/src/handle.rs", &src).is_empty());
    }

    #[test]
    fn same_line_safety_comment_covers() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: caller contract.\n";
        assert!(lint("crates/serving/src/handle.rs", src).is_empty());
    }

    #[test]
    fn fn_pointer_type_is_not_an_unsafe_site() {
        let src = "pub struct D { pub dealloc: (unsafe fn(usize), usize) }\n";
        assert!(lint("shims/loom/src/rt.rs", src).is_empty());
    }

    #[test]
    fn request_path_unwrap_is_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let v = lint("crates/serving/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-panic-request-path");
    }

    #[test]
    fn non_request_path_unwrap_is_fine() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint("crates/bench/src/absim.rs", src).is_empty());
    }

    #[test]
    fn unwrap_inside_cfg_test_module_is_fine() {
        let src = "fn ok() {}\n\n#[cfg(all(test, not(feature = \"loom\")))]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(lint("crates/serving/src/engine.rs", src).is_empty());
    }

    #[test]
    fn unwrap_after_test_module_closes_is_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { Some(1).unwrap(); }\n}\n\nfn bad(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint("crates/serving/src/engine.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn panic_needles_in_strings_and_comments_are_ignored() {
        let src = "fn f() -> &'static str {\n    // .unwrap() would panic!( here\n    \"contains .unwrap() and panic!(\"\n}\n";
        assert!(lint("crates/serving/src/engine.rs", src).is_empty());
    }

    #[test]
    fn parser_internal_self_expect_is_structural() {
        let src = "impl P {\n    fn go(&mut self) -> Result<(), String> {\n        self.expect(b'{')\n    }\n}\n";
        assert!(lint("crates/serving/src/json.rs", src).is_empty());
    }

    #[test]
    fn facade_bypass_is_flagged() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        let v = lint("crates/serving/src/stats.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "facade-only-sync");
    }

    #[test]
    fn sleep_in_serving_is_flagged() {
        let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n";
        let v = lint("crates/serving/src/router.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-sleep");
        assert!(lint("crates/serving/tests/overload_drain.rs", src).is_empty());
    }

    #[test]
    fn record_fn_allocation_is_flagged() {
        let src = "impl H {\n    pub fn record_us(&self, us: u64) {\n        self.samples.lock().push(us);\n    }\n}\n";
        let v = lint("crates/telemetry/src/histogram.rs", src);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"record-no-alloc"), "{v:?}");
        // Both `.lock(` and `.push(` on the line are reported.
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn record_fn_single_line_body_is_scanned() {
        let src = "impl H {\n    fn record(&self) { self.tags.push(format!(\"x\")) }\n}\n";
        let v = lint("crates/telemetry/src/trace.rs", src);
        assert!(v.iter().any(|x| x.rule == "record-no-alloc"), "{v:?}");
    }

    #[test]
    fn allocation_outside_record_fns_is_fine() {
        // snapshot/render allocate by design; only `record*` is restricted.
        let src = "impl H {\n    pub fn record_us(&self, us: u64) {\n        self.count.fetch_add(1, Ordering::Relaxed);\n    }\n    pub fn snapshot(&self) -> Vec<u64> {\n        let mut out = Vec::new();\n        out.push(self.count.load(Ordering::Relaxed));\n        out\n    }\n    pub fn render(&self) -> String {\n        format!(\"{}\", self.count.load(Ordering::Relaxed))\n    }\n}\n";
        assert!(lint("crates/telemetry/src/histogram.rs", src).is_empty());
    }

    #[test]
    fn record_rule_only_applies_to_telemetry_hot_path_modules() {
        // The offline metrics recorder pushes to a Vec by design.
        let src = "impl R {\n    pub fn record_us(&mut self, us: u64) {\n        self.samples.push(us);\n    }\n}\n";
        assert!(lint("crates/metrics/src/latency.rs", src).is_empty());
    }

    #[test]
    fn record_fn_in_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn record_all(v: &mut Vec<u64>) { v.push(1); }\n}\n";
        assert!(lint("crates/telemetry/src/histogram.rs", src).is_empty());
    }

    #[test]
    fn server_tree_is_on_the_no_panic_request_path() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        for file in [
            "crates/serving/src/server/mod.rs",
            "crates/serving/src/server/parser.rs",
            "crates/serving/src/server/conn.rs",
            "crates/serving/src/server/lifecycle.rs",
            "crates/serving/src/server/reactor.rs",
            "crates/serving/src/server/dispatch.rs",
            "crates/serving/src/server/worker.rs",
            "crates/serving/src/server/metrics.rs",
        ] {
            let v = lint(file, src);
            assert!(
                v.iter().any(|x| x.rule == "no-panic-request-path"),
                "{file} must be on the request path: {v:?}"
            );
        }
    }

    #[test]
    fn lifecycle_gate_is_facade_only() {
        let src = "use std::sync::atomic::AtomicUsize;\n";
        let v = lint("crates/serving/src/server/lifecycle.rs", src);
        assert!(v.iter().any(|x| x.rule == "facade-only-sync"), "{v:?}");
    }

    #[test]
    fn server_metrics_record_path_must_not_allocate() {
        let src = "impl M {\n    pub fn record_state(&self) { self.tags.push(1); }\n}\n";
        let v = lint("crates/serving/src/server/metrics.rs", src);
        assert!(v.iter().any(|x| x.rule == "record-no-alloc"), "{v:?}");
    }

    #[test]
    fn telemetry_is_on_the_no_panic_request_path() {
        let src = "fn record_us(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint("crates/telemetry/src/histogram.rs", src);
        assert!(v.iter().any(|x| x.rule == "no-panic-request-path"), "{v:?}");
    }

    #[test]
    fn allowlist_waives_and_detects_stale() {
        let (entries, bad) = parse_allowlist(
            "# comment\n\
             crates/serving/src/engine.rs :: .unwrap() :: vetted\n\
             crates/serving/src/http.rs :: .unwrap() :: no longer present\n",
        );
        assert!(bad.is_empty());
        let engine_src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let raw = scan_file("crates/serving/src/engine.rs", engine_src);
        assert_eq!(raw.len(), 1);
        let sources = move |p: &str| {
            (p == "crates/serving/src/engine.rs").then(|| engine_src.to_string())
        };
        let kept = apply_allowlist(raw, &entries, &sources);
        // The engine violation is waived; the http entry is stale.
        assert_eq!(kept.len(), 1, "{kept:?}");
        assert_eq!(kept[0].rule, "allowlist-stale");
        assert_eq!(kept[0].line, 3);
    }

    #[test]
    fn malformed_allowlist_line_is_reported() {
        let (entries, bad) = parse_allowlist("not a valid entry\n");
        assert!(entries.is_empty());
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "allowlist-format");
    }

    #[test]
    fn shim_wiring_catches_unwired_and_undocumented() {
        let dirs = vec![
            (String::from("good"), String::from("[package]\nname = \"good\"\nversion = \"1.0.0\"\n")),
            (String::from("orphan"), String::from("[package]\nname = \"orphan\"\nversion = \"1.0.0\"\n")),
        ];
        let root = "[workspace.dependencies]\ngood = { path = \"shims/good\" }\n";
        let readme = "| `good` | good 1 | everything |\n";
        let v = check_shim_wiring(&dirs, root, "", readme);
        // orphan: not wired + not in README.
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "shim-wiring"));
        assert!(v.iter().all(|x| x.file.contains("orphan")));
    }

    #[test]
    fn shim_wiring_catches_key_name_mismatch() {
        let dirs = vec![(
            String::from("dir"),
            String::from("[package]\nname = \"realname\"\nversion = \"1.0.0\"\n"),
        )];
        let root = "othername = { path = \"shims/dir\" }\n";
        let readme = "| `realname` |\n";
        let v = check_shim_wiring(&dirs, root, "", readme);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("other than its package name"));
    }

    /// The prediction cache sits on the request hot path: a panic in a
    /// probe unwinds the HTTP worker exactly like one in the engine.
    #[test]
    fn cache_is_on_the_no_panic_request_path() {
        let src = "fn probe(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint("crates/serving/src/cache.rs", src);
        assert!(v.iter().any(|x| x.rule == "no-panic-request-path"), "{v:?}");
    }

    /// The cache's shard locks must come from `crate::sync` so the loom
    /// cache/generation model actually instruments them.
    #[test]
    fn cache_is_facade_only() {
        let src = "use parking_lot::Mutex;\n";
        let v = lint("crates/serving/src/cache.rs", src);
        assert!(v.iter().any(|x| x.rule == "facade-only-sync"), "{v:?}");
        // `std::sync::Arc` is not a facade bypass: the loom build keeps it
        // for the counter handles the registry shares.
        assert!(lint("crates/serving/src/cache.rs", "use std::sync::Arc;\n").is_empty());
    }

    /// `record_hit_duration` runs on every cache hit; it must stay
    /// allocation- and lock-free like every other `record*` hot path.
    #[test]
    fn cache_record_path_must_not_allocate() {
        let src = "impl C {\n    pub fn record_hit_duration(&self) { self.tags.push(1); }\n}\n";
        let v = lint("crates/serving/src/cache.rs", src);
        assert!(v.iter().any(|x| x.rule == "record-no-alloc"), "{v:?}");
    }

    /// The router's `record_forward` runs on the reactor thread, once per
    /// forwarded predict.
    #[test]
    fn router_record_path_must_not_allocate() {
        let src = "impl R {\n    fn record_forward(&self) { self.log.lock().push(1); }\n}\n";
        let v = lint("crates/serving/src/routerd.rs", src);
        assert!(v.iter().any(|x| x.rule == "record-no-alloc"), "{v:?}");
    }

    /// The reactor owns the workspace's raw syscall surface: every epoll
    /// wrapper is `unsafe` and must carry its SAFETY argument, and a poll
    /// loop that sleeps stalls every multiplexed connection at once (R4).
    #[test]
    fn reactor_requires_safety_comments_and_may_not_sleep() {
        let src = "fn wait() -> i64 {\n    unsafe { syscall4(SYS_EPOLL_WAIT, 0, 0, 0, 0) }\n}\n";
        let v = lint("crates/serving/src/server/reactor.rs", src);
        assert!(v.iter().any(|x| x.rule == "safety-comment"), "{v:?}");
        let src = "fn tick() { std::thread::sleep(std::time::Duration::from_millis(1)); }\n";
        let v = lint("crates/serving/src/server/reactor.rs", src);
        assert!(v.iter().any(|x| x.rule == "no-sleep"), "{v:?}");
    }

    /// The dispatch queue's waits must park on its condvar, never sleep
    /// (R4), and its lock recovery must not panic (R2): a
    /// worker that dies in `next_work` silently strands every queued
    /// request behind it.
    #[test]
    fn dispatch_queue_is_panic_free_and_sleepless() {
        let src = "fn next(q: &Q) -> W {\n    q.inner.lock().unwrap()\n}\n";
        let v = lint("crates/serving/src/server/dispatch.rs", src);
        assert!(v.iter().any(|x| x.rule == "no-panic-request-path"), "{v:?}");
        let src = "fn next_work() { std::thread::sleep(TICK); }\n";
        let v = lint("crates/serving/src/server/dispatch.rs", src);
        assert!(v.iter().any(|x| x.rule == "no-sleep"), "{v:?}");
    }

    /// The acceptance-criteria fixture: an uncommented `unsafe` block plus
    /// a request-path `unwrap()` must both fail the lint.
    #[test]
    fn acceptance_fixture_fails_both_rules() {
        let src = "pub fn read(p: *const u8, fallback: Option<u8>) -> u8 {\n    let v = unsafe { *p };\n    v + fallback.unwrap()\n}\n";
        let v = lint("crates/serving/src/engine.rs", src);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"safety-comment"), "{v:?}");
        assert!(rules.contains(&"no-panic-request-path"), "{v:?}");
    }
}
