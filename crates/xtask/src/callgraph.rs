//! Workspace call graph over [`crate::facts`].
//!
//! Resolution is deliberately conservative: an edge is added only when the
//! callee can be named with reasonable confidence —
//!
//! 1. **Typed receiver chains**: `self.shared.gate.try_begin_request()`
//!    walks the struct field tables (`Reactor.shared: Arc<Shared>` →
//!    `Shared.gate: LifecycleGate`) to `LifecycleGate::try_begin_request`.
//! 2. **Path calls**: `Type::f(..)` via the impl-type table, `module::f(..)`
//!    via file stems in the same crate, `Self::f(..)` via the enclosing
//!    `impl`.
//! 3. **Unique-name fallback**: an untypeable receiver links only when
//!    exactly one workspace method has that name *and* the name is not a
//!    common std-container/std-sync method (the denylist below) — multiple
//!    candidates or a denylisted name mean no edge, with one exception:
//! 4. **Trait fan-out**: when every workspace method of that name is a
//!    method of one and the same trait (its impls, its default body, and
//!    same-named inherent methods of its implementors), the receiver is a
//!    generic or `dyn` of that trait and the call links to all of them —
//!    `self.cluster.route_predict(..)` on a
//!    `Reactor<B: RequestBackend>` reaches every backend's implementation.
//!
//! Missed edges weaken reachability (documented limitation); they never
//! create false positives in the blocking/lock rules.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::facts::{Callee, FileFacts};

/// Index of one function: `(file index, fn index within the file)`.
pub type FnId = (usize, usize);

/// Method names the unique-name fallback refuses to resolve: they are
/// overwhelmingly std-container/std-sync calls whose receiver we failed to
/// type, and a single same-named workspace method must not capture them.
const FALLBACK_DENYLIST: &[&str] = &[
    "push", "pop", "insert", "remove", "get", "get_mut", "get_or_init", "len", "is_empty",
    "clear", "iter", "iter_mut", "into_iter", "drain", "retain", "extend", "contains",
    "contains_key", "take", "clone", "next", "read", "write", "flush", "send", "recv",
    "recv_timeout", "join", "wait", "wait_timeout", "wait_while", "notify_all", "notify_one",
    "lock", "try_lock", "load", "store", "swap", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "fetch_min", "fetch_max", "compare_exchange", "unwrap", "expect",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "map", "and_then", "ok", "err", "min",
    "max", "sort", "sort_by", "split", "trim", "parse", "new", "default", "from", "into",
    "to_string", "to_owned", "to_vec", "as_ref", "as_mut", "as_str", "as_bytes", "fmt", "eq",
    "cmp", "hash", "drop", "write_all", "read_exact", "read_to_end", "sleep", "spawn",
    "with", "finish", "field", "count", "sum", "elapsed", "abs", "floor", "ceil", "shutdown",
];

/// A field typed by a generic parameter (`cluster: Arc<B>`) is a receiver
/// we cannot type, not a foreign type: by this workspace's convention a
/// single capital letter.
fn is_type_parameter(ty: &str) -> bool {
    ty.len() == 1 && ty.as_bytes()[0].is_ascii_uppercase()
}

pub struct CallGraph<'a> {
    pub files: &'a [FileFacts],
    /// Flat function list; `FnId` indexes through `files` directly.
    pub fn_ids: Vec<FnId>,
    by_typed: HashMap<(String, String), Vec<FnId>>, // (impl type, name)
    methods_by_name: HashMap<String, Vec<FnId>>,
    free_by_file: HashMap<(usize, String), Vec<FnId>>,
    free_by_crate: HashMap<(String, String), Vec<FnId>>,
    qual_by_file: HashMap<(usize, String), Vec<FnId>>,
    /// Workspace type name → field name → base type, merged across files.
    fields: HashMap<String, HashMap<String, String>>,
    /// File stems per crate: (crate, stem) → file indices.
    stems: HashMap<(String, String), Vec<usize>>,
    impl_types: HashSet<String>,
}

impl<'a> CallGraph<'a> {
    pub fn build(files: &'a [FileFacts]) -> Self {
        let mut g = CallGraph {
            files,
            fn_ids: Vec::new(),
            by_typed: HashMap::new(),
            methods_by_name: HashMap::new(),
            free_by_file: HashMap::new(),
            free_by_crate: HashMap::new(),
            qual_by_file: HashMap::new(),
            fields: HashMap::new(),
            stems: HashMap::new(),
            impl_types: HashSet::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            let stem = file
                .path
                .rsplit('/')
                .next()
                .and_then(|n| n.strip_suffix(".rs"))
                .unwrap_or("")
                .to_string();
            g.stems.entry((file.crate_name.clone(), stem)).or_default().push(fi);
            for s in &file.structs {
                let table = g.fields.entry(s.name.clone()).or_default();
                for (f, ty) in &s.fields {
                    table.entry(f.clone()).or_insert_with(|| ty.clone());
                }
            }
            for (ni, f) in file.fns.iter().enumerate() {
                let id = (fi, ni);
                g.fn_ids.push(id);
                g.qual_by_file.entry((fi, f.qual.clone())).or_default().push(id);
                match &f.impl_type {
                    Some(ty) => {
                        g.impl_types.insert(ty.clone());
                        g.by_typed.entry((ty.clone(), f.name.clone())).or_default().push(id);
                        g.methods_by_name.entry(f.name.clone()).or_default().push(id);
                    }
                    None => {
                        g.free_by_file.entry((fi, f.name.clone())).or_default().push(id);
                        g.free_by_crate
                            .entry((file.crate_name.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        g
    }

    pub fn fn_facts(&self, id: FnId) -> &crate::facts::FnFacts {
        &self.files[id.0].fns[id.1]
    }

    pub fn file_of(&self, id: FnId) -> &FileFacts {
        &self.files[id.0]
    }

    /// Looks up a function by `(file path, qualified name)` — the root
    /// specification used by the reactor-blocking rule.
    pub fn lookup(&self, path: &str, qual: &str) -> Vec<FnId> {
        self.files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.path == path)
            .flat_map(|(fi, _)| {
                self.qual_by_file.get(&(fi, qual.to_string())).cloned().unwrap_or_default()
            })
            .collect()
    }

    /// Walks a `self.a.b` receiver chain through the field tables starting
    /// from `impl_ty`; returns the final base type, or `None` if any hop is
    /// untypeable.
    fn walk_chain(&self, impl_ty: &str, chain: &[String]) -> Option<String> {
        let mut ty = impl_ty.to_string();
        for seg in chain {
            if seg == "()" {
                return None;
            }
            if seg == "[]" {
                // `[Engine]` (a `Vec` field) indexes to `Engine`; an array
                // field is recorded as its element type already.
                if let Some(elem) = ty.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
                    ty = elem.to_string();
                }
                continue;
            }
            ty = self.fields.get(&ty)?.get(seg)?.clone();
        }
        Some(ty)
    }

    /// Resolves one call site to zero or more workspace functions.
    pub fn resolve(&self, caller: FnId, callee: &Callee) -> Vec<FnId> {
        let file = self.file_of(caller);
        let impl_ty = self.fn_facts(caller).impl_type.clone();
        match callee {
            Callee::Bare(name) => {
                if let Some(v) = self.free_by_file.get(&(caller.0, name.clone())) {
                    return v.clone();
                }
                match self.free_by_crate.get(&(file.crate_name.clone(), name.clone())) {
                    Some(v) if v.len() == 1 => v.clone(),
                    _ => Vec::new(),
                }
            }
            Callee::Path(segs) => {
                if segs.len() < 2 {
                    return Vec::new();
                }
                let name = segs[segs.len() - 1].clone();
                let prev = segs[segs.len() - 2].as_str();
                if prev == "Self" {
                    if let Some(ty) = &impl_ty {
                        return self
                            .by_typed
                            .get(&(ty.clone(), name))
                            .cloned()
                            .unwrap_or_default();
                    }
                    return Vec::new();
                }
                if self.impl_types.contains(prev) {
                    return self
                        .by_typed
                        .get(&(prev.to_string(), name))
                        .cloned()
                        .unwrap_or_default();
                }
                // `module::f(..)` — file stem in the same crate.
                if let Some(fis) = self.stems.get(&(file.crate_name.clone(), prev.to_string())) {
                    let mut out = Vec::new();
                    for fi in fis {
                        if let Some(v) = self.free_by_file.get(&(*fi, name.clone())) {
                            out.extend(v.iter().copied());
                        }
                    }
                    return out;
                }
                Vec::new()
            }
            Callee::Method { chain, name } => {
                if chain.first().map(String::as_str) == Some("self") {
                    if let Some(ty) = &impl_ty {
                        if chain.len() == 1 {
                            if let Some(v) = self.by_typed.get(&(ty.clone(), name.clone())) {
                                return v.clone();
                            }
                            // `self.f()` with no such method (trait default,
                            // deref) — fall through to the name fallback.
                        } else if let Some(final_ty) =
                            self.walk_chain(ty, &chain[1..]).filter(|t| !is_type_parameter(t))
                        {
                            if self.fields.contains_key(&final_ty)
                                || self.impl_types.contains(&final_ty)
                            {
                                // Known workspace type: its method set is
                                // authoritative; absence means std/trait
                                // dispatch we cannot see. No fallback.
                                return self
                                    .by_typed
                                    .get(&(final_ty, name.clone()))
                                    .cloned()
                                    .unwrap_or_default();
                            }
                            // Typed to a non-workspace type (Vec, Mutex, …):
                            // not ours. No fallback either — the type is
                            // known, just foreign.
                            return Vec::new();
                        }
                    }
                }
                // Untypeable receiver: unique-name fallback with denylist.
                if FALLBACK_DENYLIST.contains(&name.as_str()) {
                    return Vec::new();
                }
                match self.methods_by_name.get(name) {
                    Some(v) if v.len() == 1 => v.clone(),
                    Some(v) if self.one_trait(v) => v.clone(),
                    _ => Vec::new(),
                }
            }
        }
    }

    /// Whether the (non-test) functions in `ids` are the methods of one
    /// trait: its impls and default body, plus any same-named inherent
    /// method of a type that implements it (the usual backing of the impl).
    fn one_trait(&self, ids: &[FnId]) -> bool {
        let live = || ids.iter().map(|id| self.fn_facts(*id)).filter(|f| !f.is_test);
        let mut the_trait = None;
        let mut implementors = HashSet::new();
        for f in live() {
            let Some(t) = f.trait_name.as_deref() else { continue };
            if *the_trait.get_or_insert(t) != t {
                return false;
            }
            implementors.insert(f.impl_type.as_deref());
        }
        the_trait.is_some()
            && live().all(|f| f.trait_name.is_some() || implementors.contains(&f.impl_type.as_deref()))
    }

    /// BFS from `roots`; returns every reachable function with its
    /// predecessor (for chain reconstruction): `fn → (pred fn, call line)`.
    pub fn reachable(&self, roots: &[FnId]) -> HashMap<FnId, Option<(FnId, usize)>> {
        let mut seen: HashMap<FnId, Option<(FnId, usize)>> = HashMap::new();
        let mut queue = VecDeque::new();
        for r in roots {
            if seen.insert(*r, None).is_none() {
                queue.push_back(*r);
            }
        }
        while let Some(id) = queue.pop_front() {
            let facts = self.fn_facts(id);
            for call in &facts.calls {
                for target in self.resolve(id, &call.callee) {
                    if self.fn_facts(target).is_test {
                        continue;
                    }
                    if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(target) {
                        e.insert(Some((id, call.line)));
                        queue.push_back(target);
                    }
                }
            }
        }
        seen
    }

    /// Reconstructs the call chain from a root to `id` as
    /// `file:line fn_qual` hops.
    pub fn chain_to(
        &self,
        id: FnId,
        preds: &HashMap<FnId, Option<(FnId, usize)>>,
    ) -> Vec<String> {
        let mut hops = Vec::new();
        let mut cur = id;
        let mut fuel = 64;
        while fuel > 0 {
            fuel -= 1;
            let facts = self.fn_facts(cur);
            let file = self.file_of(cur);
            match preds.get(&cur) {
                Some(Some((pred, line))) => {
                    let pfacts = self.fn_facts(*pred);
                    let pfile = self.file_of(*pred);
                    hops.push(format!(
                        "{}:{} {} -> {}",
                        pfile.path, line, pfacts.qual, facts.qual
                    ));
                    cur = *pred;
                }
                _ => {
                    hops.push(format!("{}:{} {} (root)", file.path, facts.line, facts.qual));
                    break;
                }
            }
        }
        hops.reverse();
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::parse_file;

    fn graph_of(files: &[FileFacts]) -> CallGraph<'_> {
        CallGraph::build(files)
    }

    fn id_of(g: &CallGraph<'_>, qual: &str) -> FnId {
        *g.fn_ids
            .iter()
            .find(|id| g.fn_facts(**id).qual == qual)
            .unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn typed_field_chains_resolve_across_structs() {
        let src = "struct A { b: Arc<B> }\nstruct B { c: C }\nimpl C {\n    fn hit(&self) {}\n}\nimpl A {\n    fn go(&self) { self.b.c.hit(); }\n}\n";
        let files = vec![parse_file("crates/x/src/a.rs", src)];
        let g = graph_of(&files);
        let go = id_of(&g, "A::go");
        let call = &g.fn_facts(go).calls[0];
        let targets = g.resolve(go, &call.callee);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fn_facts(targets[0]).qual, "C::hit");
    }

    #[test]
    fn denylisted_names_never_resolve_through_the_fallback() {
        // `q.push(..)` on an untypeable receiver must NOT link to the one
        // workspace method named `push`.
        let src = "impl Queue {\n    fn push(&self) {}\n}\nfn f(q: &X) { q.push(); }\n";
        let files = vec![parse_file("crates/x/src/q.rs", src)];
        let g = graph_of(&files);
        let f = id_of(&g, "f");
        let call = &g.fn_facts(f).calls[0];
        assert!(g.resolve(f, &call.callee).is_empty());
    }

    #[test]
    fn unique_unusual_names_do_resolve_through_the_fallback() {
        let src = "impl Queue {\n    fn push_blocking(&self) {}\n}\nfn f(q: &X) { q.push_blocking(); }\n";
        let files = vec![parse_file("crates/x/src/q.rs", src)];
        let g = graph_of(&files);
        let f = id_of(&g, "f");
        let call = &g.fn_facts(f).calls[0];
        let targets = g.resolve(f, &call.callee);
        assert_eq!(targets.len(), 1);
        assert_eq!(g.fn_facts(targets[0]).qual, "Queue::push_blocking");
    }

    #[test]
    fn reachability_skips_test_functions() {
        let src = "fn root() { helper(); }\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n";
        let files = vec![parse_file("crates/x/src/r.rs", src)];
        let g = graph_of(&files);
        let root = id_of(&g, "root");
        let seen = g.reachable(&[root]);
        assert!(seen.contains_key(&id_of(&g, "helper")));
        assert!(!seen.contains_key(&id_of(&g, "t")));
    }
}
