//! Tier-1 wiring of the concurrency analyzer against the live workspace.
//!
//! * the fact parser must round-trip every workspace source with zero
//!   structural errors (a parse error means the analyzer is blind to that
//!   file, which is how rules rot);
//! * guard scopes must match hand-checked ground truth in the dispatch
//!   queue (the subtlest scoping in the tree: a condvar wait re-binding
//!   its own guard in a loop);
//! * the full analysis — line rules and graph rules under the one
//!   allowlist — must come back clean;
//! * the line-rule walk must keep `shims/loom` and the reactor's
//!   raw-syscall module inside the SAFETY-comment rule's reach.

use std::path::PathBuf;

use xtask::facts::BlockKind;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn parser_round_trips_every_workspace_file() {
    let files = xtask::analyze::parse_workspace(&workspace_root()).expect("parse workspace");
    assert!(files.len() > 30, "workspace walk found only {} files", files.len());
    let mut total_fns = 0;
    for f in &files {
        assert!(f.errors.is_empty(), "{} has parse errors: {:?}", f.path, f.errors);
        total_fns += f.fns.len();
    }
    assert!(total_fns > 300, "suspiciously few functions parsed: {total_fns}");
}

#[test]
fn dispatch_queue_guard_scopes_match_ground_truth() {
    let files = xtask::analyze::parse_workspace(&workspace_root()).expect("parse workspace");
    let dispatch = files
        .iter()
        .find(|f| f.path == "crates/serving/src/server/dispatch.rs")
        .expect("dispatch.rs parsed");
    let next_work = dispatch
        .fns
        .iter()
        .find(|f| f.qual == "DispatchQueue::next_work")
        .expect("DispatchQueue::next_work found");
    // It locks `inner` and parks on the queue's condvar...
    assert!(next_work.locks.iter().any(|l| l.class == "inner"), "lock site on `inner`");
    assert!(
        next_work.blocking.iter().any(|b| b.kind == BlockKind::CondvarWait),
        "condvar wait recorded"
    );
    // ...but the wait releases the mutex, so "guard held across blocking"
    // must NOT fire here: the only held_blocking entries allowed are
    // condvar waits, which the rule exempts.
    for hb in &next_work.held_blocking {
        assert_eq!(
            next_work.blocking[hb.site].kind,
            BlockKind::CondvarWait,
            "non-condvar blocking under the `inner` guard in next_work"
        );
    }

    // Ground truth for the struct table: the call graph types
    // `self.shared.*` chains through these fields.
    let shared = files
        .iter()
        .flat_map(|f| f.structs.iter())
        .find(|s| s.name == "DispatchQueue")
        .expect("DispatchQueue struct facts");
    assert!(
        shared.fields.iter().any(|(n, t)| n == "cond" && t == "Condvar"),
        "DispatchQueue.cond: Condvar in field table, got {:?}",
        shared.fields
    );
}

#[test]
fn workspace_analysis_is_clean() {
    let findings =
        xtask::analyze::analyze_workspace(&workspace_root()).expect("analyze workspace");
    assert!(
        findings.is_empty(),
        "concurrency analyzer findings:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

#[test]
fn reactor_root_exists_in_the_live_workspace() {
    // `require_roots` only protects us if the configured root matches a
    // real function — pin the (file, qual) pair the default config names.
    let files = xtask::analyze::parse_workspace(&workspace_root()).expect("parse workspace");
    let reactor = files
        .iter()
        .find(|f| f.path == "crates/serving/src/server/reactor.rs")
        .expect("reactor.rs parsed");
    assert!(
        reactor.fns.iter().any(|f| f.qual == "Reactor::run"),
        "Reactor::run missing — update AnalyzeConfig::default and the allowlist"
    );
}

#[test]
fn safety_rule_covers_shims_and_reactor_syscall_module() {
    // Coverage pin 1: the line-rule walk visits the loom shim and the
    // reactor (whose `sys` module is the only raw-syscall surface in the
    // tree).
    let sources =
        xtask::analyze::line_rule_sources(&workspace_root()).expect("line-rule sources");
    for must in [
        "shims/loom/src/lib.rs",
        "shims/loom/src/sync.rs",
        "crates/serving/src/server/reactor.rs",
    ] {
        assert!(sources.iter().any(|(p, _)| p == must), "line-rule walk skips {must}");
    }
    // Coverage pin 2: the SAFETY rule actually fires at those paths — it
    // is path-independent, so an uncommented `unsafe` anywhere is caught.
    for path in ["shims/loom/src/sync.rs", "crates/serving/src/server/reactor.rs"] {
        let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let findings = xtask::scan_file(path, bad);
        assert!(
            findings.iter().any(|f| f.rule == "safety-comment"),
            "safety-comment rule must apply to {path}"
        );
    }
}

#[test]
fn analyzer_skips_its_own_fixture_corpus() {
    // The fixtures are deliberately-bad code; if the walk ever picks them
    // up, the workspace fails on its own test data.
    let sources =
        xtask::analyze::workspace_sources(&workspace_root()).expect("workspace sources");
    assert!(
        sources.iter().all(|(p, _)| !p.contains("/fixtures/")),
        "fixtures leaked into the analysis walk"
    );
    // But the corpus itself must exist where the fixture suite expects it.
    assert!(
        workspace_root().join("crates/xtask/fixtures").is_dir(),
        "fixture corpus missing"
    );
}
