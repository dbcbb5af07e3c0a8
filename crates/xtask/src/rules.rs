//! The analyzer's rule passes over function facts + call graph.
//!
//! * **lock-order-cycle** — builds the static lock-acquisition graph
//!   (node = crate-qualified lock class, edge = "acquired while holding",
//!   direct or through resolved calls) and reports every cycle with the
//!   acquisition chains of each edge. A cycle means two executions can
//!   interleave into a deadlock.
//! * **lock-held-across-blocking** — a live guard across a sleep, thread
//!   join, channel recv, or blocking I/O call (directly or transitively
//!   through resolved calls) convoys every other thread needing that lock.
//!   Condvar waits are exempt: they release the mutex while parked.
//! * **atomic-ordering-comment** — every non-SeqCst `Ordering::` use must
//!   carry an `// ORDERING:` comment naming its partner operation (the
//!   SeqCst-audit discipline from `serving::handle`, mechanised).
//! * **atomic-acquire-partner** — an `Acquire` load/RMW synchronises with
//!   nothing unless some `Release`-or-stronger store/RMW exists on the
//!   same atomic field in the same crate.
//! * **reactor-blocking** — no function reachable from the reactor event
//!   loop may block; the worker-pool handoff is allowlisted with a
//!   justification (see `analyze_allow.txt`).
//! * **test-only-pub** — a `pub`/`pub(crate)` fn in the non-test code of a
//!   product crate (`PRODUCT_CRATES`) whose name occurs in no non-test
//!   code but its own definition and `use` declarations: surface only
//!   tests reach. Callers are
//!   matched by name, not resolved, so an untyped receiver can never make
//!   a live function look dead; the caller-only sources (`benchmark/src`,
//!   `examples/`) count as callers and are never audited themselves.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::callgraph::{CallGraph, FnId};
use crate::facts::{AtomicOp, BlockKind, FileFacts};

/// One finding of any rule, line or graph: the function it sits in and,
/// for graph rules, the acquisition/call chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id.
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    /// Qualified function name (empty for module-level findings).
    pub function: String,
    pub message: String,
    /// Call/acquisition chain for graph-derived findings.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)?;
        for hop in &self.chain {
            write!(f, "\n    {hop}")?;
        }
        Ok(())
    }
}

/// Configuration for one analysis run (fixtures override the defaults).
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// `(file path, qualified fn)` roots of the reactor-blocking rule.
    pub reactor_roots: Vec<(String, String)>,
    /// Missing roots are an error in the live workspace (the event loop
    /// must exist) but fixtures without a reactor shouldn't fail.
    pub require_roots: bool,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        Self {
            reactor_roots: vec![
                // Everything the event loop calls, the tier behind its
                // `RequestBackend` parameter included (trait fan-out): the
                // engine under an inline predict, the router's routing and
                // failover policy under a forward.
                (
                    String::from("crates/serving/src/server/reactor.rs"),
                    String::from("Reactor::run"),
                ),
                // `POST /ingest` calls `submit` on the worker pool that runs
                // queued predicts: anything blocking reachable from it
                // stalls the read path.
                (
                    String::from("crates/serving/src/ingest/pipeline.rs"),
                    String::from("IngestPipeline::submit"),
                ),
            ],
            require_roots: true,
        }
    }
}

/// Runs every rule family over `files` and returns the raw findings
/// (allowlist is applied by the caller), sorted by (rule, file, line).
/// `callers` only supply uses to the test-only-pub rule.
pub fn run_rules(
    files: &[FileFacts],
    callers: &[FileFacts],
    config: &AnalyzeConfig,
) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let mut findings = Vec::new();
    findings.extend(atomic_rules(files));
    findings.extend(lock_order_rules(&graph));
    findings.extend(reactor_blocking_rule(&graph, config));
    findings.extend(test_only_pub_rule(files, callers));
    findings.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.message).cmp(&(b.rule, &b.file, b.line, &b.message))
    });
    findings.dedup();
    findings
}

// ---------------------------------------------------------------------------
// Atomic-ordering audit
// ---------------------------------------------------------------------------

fn atomic_rules(files: &[FileFacts]) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Per-crate: does `field` have a Release-or-stronger store/RMW?
    let mut release_stores: HashSet<(String, String)> = HashSet::new();
    for file in files {
        let sites = file
            .fns
            .iter()
            .filter(|f| !f.is_test)
            .flat_map(|f| f.atomics.iter())
            .chain(file.module_atomics.iter());
        for site in sites {
            let writes = matches!(site.op, AtomicOp::Store | AtomicOp::Rmw);
            let releases = matches!(site.ordering.as_str(), "Release" | "AcqRel" | "SeqCst");
            if writes && releases && !site.field.is_empty() {
                release_stores.insert((file.crate_name.clone(), site.field.clone()));
            }
        }
    }
    for file in files {
        let fn_sites = file
            .fns
            .iter()
            .filter(|f| !f.is_test)
            .flat_map(|f| f.atomics.iter().map(move |s| (f.qual.clone(), s)));
        let module_sites = file.module_atomics.iter().map(|s| (String::new(), s));
        for (function, site) in fn_sites.chain(module_sites) {
            if site.ordering != "SeqCst" && !site.has_ordering_comment {
                findings.push(Finding {
                    rule: "atomic-ordering-comment",
                    file: file.path.clone(),
                    line: site.line,
                    function: function.clone(),
                    message: format!(
                        "`Ordering::{}` without an `// ORDERING:` comment naming its \
                         partner operation (SeqCst needs no comment; everything weaker \
                         must justify itself)",
                        site.ordering
                    ),
                    chain: Vec::new(),
                });
            }
            let acquire_read = site.ordering == "Acquire"
                && matches!(site.op, AtomicOp::Load | AtomicOp::Rmw);
            if acquire_read
                && !site.field.is_empty()
                && !release_stores.contains(&(file.crate_name.clone(), site.field.clone()))
            {
                findings.push(Finding {
                    rule: "atomic-acquire-partner",
                    file: file.path.clone(),
                    line: site.line,
                    function,
                    message: format!(
                        "`Acquire` read of `{}` has no Release-or-stronger store/RMW \
                         partner on the same field in crate `{}`: it synchronises with \
                         nothing",
                        site.field, file.crate_name
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Lock-order rules
// ---------------------------------------------------------------------------

/// A lock class, qualified by crate so same-named fields in different
/// crates never merge.
fn qualify(crate_name: &str, class: &str) -> String {
    format!("{crate_name}/{class}")
}

/// Per-function transitive summaries: which lock classes a call to `f` may
/// acquire, and which blocking operations it may perform — each with one
/// representative chain.
struct Summaries<'a> {
    graph: &'a CallGraph<'a>,
    acquires: HashMap<FnId, Vec<(String, Vec<String>)>>,
    blocks: HashMap<FnId, Vec<(BlockKind, Vec<String>)>>,
}

impl<'a> Summaries<'a> {
    fn build(graph: &'a CallGraph<'a>) -> Self {
        let mut s = Summaries { graph, acquires: HashMap::new(), blocks: HashMap::new() };
        let ids: Vec<FnId> = graph.fn_ids.clone();
        for id in ids {
            let mut visiting = HashSet::new();
            s.summarise(id, &mut visiting);
        }
        s
    }

    fn summarise(&mut self, id: FnId, visiting: &mut HashSet<FnId>) {
        if self.acquires.contains_key(&id) || !visiting.insert(id) {
            return;
        }
        let facts = self.graph.fn_facts(id);
        let file = self.graph.file_of(id);
        let mut acq: Vec<(String, Vec<String>)> = facts
            .locks
            .iter()
            .map(|l| {
                (
                    qualify(&file.crate_name, &l.class),
                    vec![format!("{}:{} {} locks `{}`", file.path, l.line, facts.qual, l.class)],
                )
            })
            .collect();
        let mut blk: Vec<(BlockKind, Vec<String>)> = facts
            .blocking
            .iter()
            .filter(|b| !matches!(b.kind, BlockKind::CondvarWait))
            .map(|b| {
                (
                    b.kind,
                    vec![format!(
                        "{}:{} {} performs {} (`{}`)",
                        file.path,
                        b.line,
                        facts.qual,
                        b.kind.describe(),
                        b.needle
                    )],
                )
            })
            .collect();
        for call in &facts.calls {
            for target in self.graph.resolve(id, &call.callee) {
                if target == id || self.graph.fn_facts(target).is_test {
                    continue;
                }
                self.summarise(target, visiting);
                let hop = format!("{}:{} {} calls …", file.path, call.line, facts.qual);
                if let Some(child) = self.acquires.get(&target) {
                    for (class, chain) in child.clone() {
                        if !acq.iter().any(|(c, _)| *c == class) && chain.len() < 12 {
                            let mut full = vec![hop.clone()];
                            full.extend(chain);
                            acq.push((class, full));
                        }
                    }
                }
                if let Some(child) = self.blocks.get(&target) {
                    for (kind, chain) in child.clone() {
                        if !blk.iter().any(|(k, _)| *k == kind) && chain.len() < 12 {
                            let mut full = vec![hop.clone()];
                            full.extend(chain);
                            blk.push((kind, full));
                        }
                    }
                }
            }
        }
        visiting.remove(&id);
        self.acquires.insert(id, acq);
        self.blocks.insert(id, blk);
    }
}

fn lock_order_rules(graph: &CallGraph<'_>) -> Vec<Finding> {
    let summaries = Summaries::build(graph);
    let mut findings = Vec::new();

    // Edge map: held class → acquired class → (file, line, fn, chain).
    #[allow(clippy::type_complexity)]
    let mut edges: BTreeMap<String, BTreeMap<String, (String, usize, String, Vec<String>)>> =
        BTreeMap::new();

    for &id in &graph.fn_ids {
        let facts = graph.fn_facts(id);
        if facts.is_test {
            continue;
        }
        let file = graph.file_of(id);
        for e in &facts.held_edges {
            let held = qualify(&file.crate_name, &e.held);
            let acq = qualify(&file.crate_name, &e.acquired);
            edges.entry(held.clone()).or_default().entry(acq).or_insert_with(|| {
                (
                    file.path.clone(),
                    e.line,
                    facts.qual.clone(),
                    vec![
                        format!(
                            "{}:{} {} holds `{}` (acquired line {})",
                            file.path, e.line, facts.qual, e.held, e.held_line
                        ),
                        format!(
                            "{}:{} {} acquires `{}` while holding it",
                            file.path, e.line, facts.qual, e.acquired
                        ),
                    ],
                )
            });
        }
        for hc in &facts.held_calls {
            let call = &facts.calls[hc.call];
            for target in graph.resolve(id, &call.callee) {
                if graph.fn_facts(target).is_test {
                    continue;
                }
                // Transitive lock acquisitions under a held guard.
                if let Some(acqs) = summaries.acquires.get(&target) {
                    for (class, chain) in acqs {
                        for (held_class, held_line) in &hc.held {
                            let held = qualify(&file.crate_name, held_class);
                            if held == *class {
                                continue; // self-edge via passthrough call
                            }
                            edges
                                .entry(held)
                                .or_default()
                                .entry(class.clone())
                                .or_insert_with(|| {
                                    let mut full = vec![format!(
                                        "{}:{} {} holds `{}` (acquired line {})",
                                        file.path,
                                        call.line,
                                        facts.qual,
                                        held_class,
                                        held_line
                                    )];
                                    full.extend(chain.clone());
                                    (file.path.clone(), call.line, facts.qual.clone(), full)
                                });
                        }
                    }
                }
                // Transitive blocking under a held guard.
                if let Some(blks) = summaries.blocks.get(&target) {
                    if let Some((kind, chain)) = blks.first() {
                        for (held_class, held_line) in &hc.held {
                            let mut full = vec![format!(
                                "{}:{} {} holds `{}` (acquired line {})",
                                file.path, call.line, facts.qual, held_class, held_line
                            )];
                            full.extend(chain.clone());
                            findings.push(Finding {
                                rule: "lock-held-across-blocking",
                                file: file.path.clone(),
                                line: call.line,
                                function: facts.qual.clone(),
                                message: format!(
                                    "guard `{}` held across a call that performs {}",
                                    held_class,
                                    kind.describe()
                                ),
                                chain: full,
                            });
                        }
                    }
                }
            }
        }
        // Direct blocking under a held guard.
        for hb in &facts.held_blocking {
            let site = &facts.blocking[hb.site];
            findings.push(Finding {
                rule: "lock-held-across-blocking",
                file: file.path.clone(),
                line: site.line,
                function: facts.qual.clone(),
                message: format!(
                    "guard `{}` (acquired line {}) held across {} (`{}`)",
                    hb.held.0,
                    hb.held.1,
                    site.kind.describe(),
                    site.needle
                ),
                chain: Vec::new(),
            });
        }
    }

    // Cycle detection over the class graph (iterative DFS with an explicit
    // stack; back edge into the stack = cycle).
    let classes: Vec<&String> = edges.keys().collect();
    let mut reported: HashSet<Vec<String>> = HashSet::new();
    for start in classes {
        let mut stack: Vec<(String, Vec<String>)> = vec![(start.clone(), vec![start.clone()])];
        let mut visited: HashSet<String> = HashSet::new();
        while let Some((node, path)) = stack.pop() {
            let Some(nexts) = edges.get(&node) else {
                continue;
            };
            for next in nexts.keys() {
                if let Some(pos) = path.iter().position(|p| p == next) {
                    // Cycle: path[pos..] + next closes it.
                    let mut cycle: Vec<String> = path[pos..].to_vec();
                    // Normalise: rotate so the smallest class leads.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if !reported.insert(cycle.clone()) {
                        continue;
                    }
                    let mut chain = Vec::new();
                    let mut file = String::new();
                    let mut line = 0;
                    let mut function = String::new();
                    for i in 0..cycle.len() {
                        let from = &cycle[i];
                        let to = &cycle[(i + 1) % cycle.len()];
                        if let Some((f, l, func, c)) =
                            edges.get(from).and_then(|m| m.get(to))
                        {
                            if file.is_empty() {
                                file = f.clone();
                                line = *l;
                                function = func.clone();
                            }
                            chain.push(format!("edge `{from}` -> `{to}`:"));
                            chain.extend(c.iter().map(|h| format!("  {h}")));
                        }
                    }
                    let mut loop_desc = cycle.join("` -> `");
                    loop_desc.push_str("` -> `");
                    loop_desc.push_str(&cycle[0]);
                    findings.push(Finding {
                        rule: "lock-order-cycle",
                        file,
                        line,
                        function,
                        message: format!(
                            "lock-order cycle `{loop_desc}`: two threads taking these \
                             locks in different orders can deadlock"
                        ),
                        chain,
                    });
                } else if visited.insert(next.clone()) {
                    let mut p = path.clone();
                    p.push(next.clone());
                    stack.push((next.clone(), p));
                }
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Reactor-blocking rule
// ---------------------------------------------------------------------------

fn reactor_blocking_rule(graph: &CallGraph<'_>, config: &AnalyzeConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut roots = Vec::new();
    for (path, qual) in &config.reactor_roots {
        let found = graph.lookup(path, qual);
        if found.is_empty() && config.require_roots {
            findings.push(Finding {
                rule: "reactor-blocking",
                file: path.clone(),
                line: 0,
                function: qual.clone(),
                message: format!(
                    "configured reactor root `{qual}` not found in `{path}`: the \
                     reachability rule has nothing to protect (update the root if the \
                     event loop moved)"
                ),
                chain: Vec::new(),
            });
        }
        roots.extend(found);
    }
    let preds = graph.reachable(&roots);
    let mut reached: Vec<FnId> = preds.keys().copied().collect();
    reached.sort();
    for id in reached {
        let facts = graph.fn_facts(id);
        if facts.is_test {
            continue;
        }
        let file = graph.file_of(id);
        let chain = graph.chain_to(id, &preds);
        for l in &facts.locks {
            findings.push(Finding {
                rule: "reactor-blocking",
                file: file.path.clone(),
                line: l.line,
                function: facts.qual.clone(),
                message: format!(
                    "mutex lock `{}` (`.lock(`) reachable from the reactor event loop",
                    l.class
                ),
                chain: chain.clone(),
            });
        }
        for b in &facts.blocking {
            findings.push(Finding {
                rule: "reactor-blocking",
                file: file.path.clone(),
                line: b.line,
                function: facts.qual.clone(),
                message: format!(
                    "{} (`{}`) reachable from the reactor event loop",
                    b.kind.describe(),
                    b.needle
                ),
                chain: chain.clone(),
            });
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Test-only-pub rule
// ---------------------------------------------------------------------------

/// The crates the test-only-pub rule audits: the served system. The paper's
/// experiments (`bench`, `baselines`, `metrics`, `neural`) only call in.
const PRODUCT_CRATES: &[&str] =
    &["core", "dataset", "index", "kvstore", "serving", "telemetry"];

fn test_only_pub_rule(files: &[FileFacts], callers: &[FileFacts]) -> Vec<Finding> {
    let used: HashSet<&str> =
        files.iter().chain(callers).flat_map(|f| f.uses.iter().map(String::as_str)).collect();
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| PRODUCT_CRATES.contains(&f.crate_name.as_str())) {
        for f in &file.fns {
            if f.is_pub && !f.is_test && !used.contains(f.name.as_str()) {
                findings.push(Finding {
                    rule: "test-only-pub",
                    file: file.path.clone(),
                    line: f.line,
                    function: f.qual.clone(),
                    message: format!(
                        "`{}` is `pub` but no non-test code names it: delete it, make it \
                         private, or move it under `#[cfg(test)]`",
                        f.qual
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::parse_file;

    #[test]
    fn test_only_pub_counts_benchmark_and_example_callers_but_not_test_targets() {
        let files = [
            parse_file(
                "crates/serving/src/lib.rs",
                "pub use inner::reexported;\n\
                 pub fn frozen_surface() {}\n\
                 pub fn example_only() {}\n\
                 pub fn integration_test_only() {}\n\
                 pub(crate) fn reexported() {}\n",
            ),
            parse_file(
                "crates/serving/tests/it.rs",
                "fn it() { serenade_serving::integration_test_only(); }\n",
            ),
        ];
        let callers = [
            parse_file(
                "benchmark/src/surface.rs",
                "pub fn never_audited() { serenade_serving::frozen_surface(); }\n",
            ),
            parse_file(
                "examples/quickstart.rs",
                "fn main() { serenade_serving::example_only(); }\n",
            ),
        ];
        let found: Vec<String> =
            test_only_pub_rule(&files, &callers).into_iter().map(|f| f.function).collect();
        assert_eq!(found, ["integration_test_only", "reexported"], "a re-export calls nothing");
    }
}
