//! Fixture suite for the concurrency analyzer.
//!
//! Every file under `crates/xtask/fixtures/` is a self-describing corpus:
//! comment directives at the top declare the virtual path the source is
//! analyzed under, optional reactor roots and allowlist entries, and the
//! exact set of rules the analyzer must fire (or `expect: none`).
//!
//! * seeded-**bad** fixtures pin that each rule still detects its target
//!   defect (a deadlock cycle, a mis-ordered seqlock, a blocking call
//!   smuggled below the event loop, …);
//! * **good** fixtures pin that the legitimate patterns (consistent lock
//!   order, condvar waits, annotated weak orderings, allowlisted handoffs)
//!   stay clean — the false-positive budget is zero.

use std::collections::BTreeSet;
use std::path::PathBuf;

use xtask::analyze::{analyze_sources, parse_analyze_allowlist};
use xtask::rules::AnalyzeConfig;

struct Fixture {
    name: String,
    /// Virtual workspace-relative path the body is analyzed under.
    path: String,
    /// `(file, qualified fn)` reactor roots; non-empty enables the
    /// reactor-blocking rule with `require_roots`.
    roots: Vec<(String, String)>,
    /// Raw allowlist lines fed through the normal parser.
    allow: String,
    /// Rules that must fire (empty + `none` directive = must be clean).
    expect: BTreeSet<String>,
    expect_none: bool,
    body: String,
}

fn parse_fixture(name: &str, content: &str) -> Fixture {
    let mut f = Fixture {
        name: name.to_string(),
        path: String::new(),
        roots: Vec::new(),
        allow: String::new(),
        expect: BTreeSet::new(),
        expect_none: false,
        body: content.to_string(),
    };
    for line in content.lines() {
        let Some(rest) = line.trim().strip_prefix("// ") else { continue };
        if let Some(p) = rest.strip_prefix("path: ") {
            f.path = p.trim().to_string();
        } else if let Some(r) = rest.strip_prefix("root: ") {
            let mut parts = r.splitn(2, " :: ");
            let file = parts.next().unwrap_or("").trim().to_string();
            let qual = parts.next().unwrap_or("").trim().to_string();
            assert!(!file.is_empty() && !qual.is_empty(), "{name}: bad root directive `{r}`");
            f.roots.push((file, qual));
        } else if let Some(a) = rest.strip_prefix("allow: ") {
            f.allow.push_str(a.trim());
            f.allow.push('\n');
        } else if let Some(e) = rest.strip_prefix("expect: ") {
            let e = e.trim();
            if e == "none" {
                f.expect_none = true;
            } else {
                f.expect.insert(e.to_string());
            }
        }
    }
    assert!(!f.path.is_empty(), "{name}: missing `// path:` directive");
    assert!(
        f.expect_none != !f.expect.is_empty() || !f.expect.is_empty(),
        "{name}: needs `// expect: <rule>` lines or `// expect: none`"
    );
    f
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn load_fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("fixtures entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_stem().expect("stem").to_string_lossy().into_owned();
        let content = std::fs::read_to_string(&path).expect("read fixture");
        out.push(parse_fixture(&name, &content));
    }
    out
}

fn run_fixture(f: &Fixture) -> Vec<xtask::rules::Finding> {
    let config = AnalyzeConfig {
        reactor_roots: f.roots.clone(),
        require_roots: !f.roots.is_empty(),
    };
    let (entries, mut findings) = parse_analyze_allowlist(&f.allow);
    let sources = vec![(f.path.clone(), f.body.clone())];
    findings.extend(analyze_sources(&sources, &[], &[], &config, &entries));
    findings
}

#[test]
fn every_fixture_parses_without_errors() {
    for f in load_fixtures() {
        let facts = xtask::facts::parse_file(&f.path, &f.body);
        assert!(
            facts.errors.is_empty(),
            "fixture {} has parse errors: {:?}",
            f.name,
            facts.errors
        );
    }
}

#[test]
fn bad_fixtures_are_flagged_and_good_fixtures_are_clean() {
    let fixtures = load_fixtures();
    assert!(fixtures.len() >= 15, "fixture corpus shrank to {}", fixtures.len());
    for f in &fixtures {
        let findings = run_fixture(f);
        let fired: BTreeSet<String> =
            findings.iter().map(|x| x.rule.to_string()).collect();
        if f.expect_none {
            assert!(
                findings.is_empty(),
                "good fixture {} must be clean, got:\n{}",
                f.name,
                findings.iter().map(|x| format!("  {x}\n")).collect::<String>()
            );
        } else {
            assert_eq!(
                fired, f.expect,
                "fixture {} fired {:?}, expected {:?}:\n{}",
                f.name,
                fired,
                f.expect,
                findings.iter().map(|x| format!("  {x}\n")).collect::<String>()
            );
        }
    }
}

#[test]
fn fixture_corpus_covers_every_rule_family() {
    // Belt-and-braces: each rule family keeps >= 3 seeded-bad expectations
    // and >= 2 clean fixtures, per the correctness-tooling contract.
    let fixtures = load_fixtures();
    let bad = |rules: &[&str]| -> usize {
        fixtures
            .iter()
            .filter(|f| f.expect.iter().any(|r| rules.contains(&r.as_str())))
            .count()
    };
    let lock = bad(&["lock-order-cycle", "lock-held-across-blocking"]);
    let atomic = bad(&["atomic-ordering-comment", "atomic-acquire-partner"]);
    let reactor = bad(&["reactor-blocking"]);
    assert!(lock >= 3, "lock-order family has only {lock} bad fixtures");
    assert!(atomic >= 3, "atomic family has only {atomic} bad fixtures");
    assert!(reactor >= 3, "reactor family has only {reactor} bad fixtures");
    let good = fixtures.iter().filter(|f| f.expect_none).count();
    assert!(good >= 6, "only {good} clean fixtures (need >= 2 per family)");
}

#[test]
fn deadlock_cycle_finding_reports_both_chains() {
    // The direct-cycle fixture must explain itself: the cycle message and
    // an acquisition chain for each edge.
    let fixtures = load_fixtures();
    let f = fixtures
        .iter()
        .find(|f| f.name == "bad_lock_cycle_direct")
        .expect("bad_lock_cycle_direct fixture");
    let findings = run_fixture(f);
    let cycle = findings
        .iter()
        .find(|x| x.rule == "lock-order-cycle")
        .expect("cycle finding");
    assert!(cycle.message.contains("app/a") && cycle.message.contains("app/b"),
        "cycle message should name both lock classes: {}", cycle.message);
    assert!(
        cycle.chain.len() >= 2,
        "cycle must carry an acquisition chain per edge: {:?}",
        cycle.chain
    );
}

#[test]
fn two_hop_reactor_finding_carries_the_call_chain() {
    let fixtures = load_fixtures();
    let f = fixtures
        .iter()
        .find(|f| f.name == "bad_reactor_two_hops")
        .expect("bad_reactor_two_hops fixture");
    let findings = run_fixture(f);
    let lock_finding = findings
        .iter()
        .find(|x| x.rule == "reactor-blocking" && x.message.contains("`.lock(`"))
        .expect("lock reachability finding");
    let chain = lock_finding.chain.join("\n");
    assert!(
        chain.contains("EventLoop::run") && chain.contains("EventLoop::forward"),
        "chain must walk run -> forward -> push_blocking:\n{chain}"
    );
}
