//! Per-function fact extraction: the analyzer's front end.
//!
//! Parses one Rust source file with the shared [`crate::lexer`] into
//! [`FileFacts`]: for every function, the lock acquisitions (with guard
//! scopes), atomic operations (with their `Ordering` and whether an
//! `// ORDERING:` comment is attached), outgoing calls, and blocking
//! operations. The parser is deliberately approximate — it tracks brace
//! depth, `impl` blocks, struct field types, and statement boundaries, not
//! full Rust grammar — but it is *conservative in the right direction* for
//! each rule (see `rules.rs` for how approximations map to missed-edge vs
//! false-positive behaviour).
//!
//! Guard-scope model:
//! * `let`-bound guards (`let g = m.lock();`) live until the enclosing
//!   block closes or an explicit `drop(g)`.
//! * temporary guards (`m.lock().push(x);`) live until the end of the
//!   statement.
//! * a condvar `wait`/`wait_timeout` releases the mutex while parked, so
//!   it is exempt from "guard held across blocking call".

use std::collections::HashSet;

use crate::lexer::{find_token, is_ident, Lexer};

/// Field table of one `struct` definition: `(field name, base type)`.
/// The base type has `Arc`/`Box`/`Rc`/`Option` wrappers, references,
/// slices, and generic arguments stripped (`Arc<DispatchQueue>` →
/// `DispatchQueue`), so the call graph can walk `self.field.method()`
/// chains through it; a `Vec`/`VecDeque` keeps its element's base type in
/// brackets (`Vec<Arc<Engine>>` → `[Engine]`) for `self.field[i].method()`.
#[derive(Debug, Clone)]
pub struct StructFacts {
    pub name: String,
    pub fields: Vec<(String, String)>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `a::b::f(...)` — path segments, last one is the function.
    Path(Vec<String>),
    /// `recv.chain.f(...)` — receiver chain (`"()"`/`"[]"` mark a call or
    /// index segment the walker cannot type) plus the method name.
    Method { chain: Vec<String>, name: String },
    /// `f(...)` with no qualifier.
    Bare(String),
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: Callee,
    pub line: usize,
}

/// One `.lock()` acquisition. `class` is the receiver identifier (the
/// field or local the mutex lives in), qualified by crate in the rules
/// layer — an approximation of "which mutex", precise enough for a
/// workspace that names its locks.
#[derive(Debug, Clone)]
pub struct LockSite {
    pub class: String,
    pub line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    Load,
    Store,
    /// swap / fetch_* / compare_exchange — reads and writes.
    Rmw,
    /// `const NAME: Ordering = Ordering::X` definition.
    ConstDef,
    /// A bare `Ordering::X` token with no adjacent atomic op (fence,
    /// argument passing).
    Other,
}

/// One `Ordering::X` use.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The atomic field/variable operated on (or the const name for
    /// [`AtomicOp::ConstDef`]); empty when undetermined.
    pub field: String,
    pub op: AtomicOp,
    /// `Relaxed` | `Acquire` | `Release` | `AcqRel` | `SeqCst`.
    pub ordering: String,
    pub line: usize,
    /// An `// ORDERING:` comment is attached to this statement (same line
    /// or in the comment block directly above; blank lines break the
    /// association, mirroring the SAFETY rule).
    pub has_ordering_comment: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    Sleep,
    ThreadJoin,
    ChannelRecv,
    CondvarWait,
    MutexLock,
    BlockingIo,
}

impl BlockKind {
    pub fn describe(self) -> &'static str {
        match self {
            BlockKind::Sleep => "sleep",
            BlockKind::ThreadJoin => "thread join",
            BlockKind::ChannelRecv => "channel recv",
            BlockKind::CondvarWait => "condvar wait",
            BlockKind::MutexLock => "mutex lock",
            BlockKind::BlockingIo => "blocking I/O",
        }
    }
}

/// One potentially-blocking operation (other than `.lock(`, which is
/// recorded as a [`LockSite`] and re-surfaced as `MutexLock` by the rules).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub kind: BlockKind,
    pub needle: &'static str,
    pub line: usize,
}

/// Lock acquired while another guard was live: one edge of the static
/// lock-order graph.
#[derive(Debug, Clone)]
pub struct HeldEdge {
    pub held: String,
    pub held_line: usize,
    pub acquired: String,
    pub line: usize,
}

/// A call made while ≥1 guard was live (for transitive lock-order edges
/// and transitive blocking-under-guard).
#[derive(Debug, Clone)]
pub struct HeldCall {
    /// `(class, acquisition line)` of every live guard.
    pub held: Vec<(String, usize)>,
    /// Index into [`FnFacts::calls`].
    pub call: usize,
}

/// A blocking operation executed while a guard was live.
#[derive(Debug, Clone)]
pub struct HeldBlocking {
    pub held: (String, usize),
    /// Index into [`FnFacts::blocking`].
    pub site: usize,
}

#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// `Type::name` for methods/associated fns, plain `name` for free fns.
    pub qual: String,
    pub name: String,
    pub impl_type: Option<String>,
    /// The trait this method belongs to: the `Trait` of an enclosing
    /// `impl Trait for Type`, or of the `trait Trait` holding a default body.
    pub trait_name: Option<String>,
    pub line: usize,
    pub end_line: usize,
    pub is_test: bool,
    /// Declared `pub` or `pub(…)`.
    pub is_pub: bool,
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockSite>,
    pub atomics: Vec<AtomicSite>,
    pub blocking: Vec<BlockingSite>,
    pub held_edges: Vec<HeldEdge>,
    pub held_calls: Vec<HeldCall>,
    pub held_blocking: Vec<HeldBlocking>,
}

#[derive(Debug, Default)]
pub struct FileFacts {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// `crates/<name>/…` → `<name>`; first path component otherwise.
    pub crate_name: String,
    pub structs: Vec<StructFacts>,
    pub fns: Vec<FnFacts>,
    /// `Ordering::` uses outside any function (module-level consts).
    pub module_atomics: Vec<AtomicSite>,
    /// Every identifier in the file's non-test code except the name each
    /// `fn` item defines: where the `test-only-pub` rule looks for callers.
    pub uses: HashSet<String>,
    /// Structural problems (unbalanced braces, unclosed items). A healthy
    /// workspace file must parse with none.
    pub errors: Vec<String>,
}

/// Blocking-operation needles. `.lock(` is handled separately (it is also
/// a lock acquisition). `.join()` is matched with the closing paren so
/// `str::join(sep)` never trips it.
const BLOCKING_NEEDLES: &[(&str, BlockKind)] = &[
    ("::sleep(", BlockKind::Sleep),
    (".join()", BlockKind::ThreadJoin),
    (".recv()", BlockKind::ChannelRecv),
    (".recv_timeout(", BlockKind::ChannelRecv),
    (".wait(", BlockKind::CondvarWait),
    (".wait_timeout(", BlockKind::CondvarWait),
    (".wait_while(", BlockKind::CondvarWait),
    (".write_all(", BlockKind::BlockingIo),
    (".read_exact(", BlockKind::BlockingIo),
    (".read_to_end(", BlockKind::BlockingIo),
    (".read_to_string(", BlockKind::BlockingIo),
    (".read_until(", BlockKind::BlockingIo),
    ("TcpStream::connect(", BlockKind::BlockingIo),
    ("TcpStream::connect_timeout(", BlockKind::BlockingIo),
];

const ATOMIC_OPS: &[(&str, AtomicOp)] = &[
    (".load(", AtomicOp::Load),
    (".store(", AtomicOp::Store),
    (".swap(", AtomicOp::Rmw),
    (".fetch_add(", AtomicOp::Rmw),
    (".fetch_sub(", AtomicOp::Rmw),
    (".fetch_and(", AtomicOp::Rmw),
    (".fetch_or(", AtomicOp::Rmw),
    (".fetch_xor(", AtomicOp::Rmw),
    (".fetch_min(", AtomicOp::Rmw),
    (".fetch_max(", AtomicOp::Rmw),
    (".fetch_update(", AtomicOp::Rmw),
    (".compare_exchange(", AtomicOp::Rmw),
    (".compare_exchange_weak(", AtomicOp::Rmw),
];

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "loop", "return", "fn", "struct", "enum", "union", "in"];

/// One entry of the parser's item-context stack.
#[derive(Debug)]
enum Ctx {
    /// Plain `{}` (mod bodies, control flow, struct literals, …).
    Block,
    /// `impl Type`/`trait Type` body; `ty` qualifies contained fns, and
    /// `of_trait` names the trait for `impl Trait for Type`/`trait Trait`.
    Impl { ty: String, of_trait: Option<String> },
    /// `struct Type { … }` body; fields append to `structs[idx]`.
    Struct { idx: usize },
    /// Function body; facts accumulate in the scratch `FnScratch`.
    Fn,
}

/// What an opening `{` is about to introduce, decided from the statement
/// text that precedes it.
#[derive(Debug)]
enum Pending {
    Impl { ty: String, of_trait: Option<String> },
    Struct { name: String },
    Fn { name: String, is_pub: bool },
}

struct Guard {
    class: String,
    line: usize,
    binding: Option<String>,
    /// Depth *inside* which the guard lives; released when depth drops
    /// below this.
    at_depth: i32,
    /// Temporary (not `let`-bound): released at end of statement.
    temp: bool,
}

struct FnScratch {
    facts: FnFacts,
    guards: Vec<Guard>,
}

/// Parses one file into [`FileFacts`]. Pure function of its inputs so
/// fixture tests can feed it synthetic sources.
pub fn parse_file(relpath: &str, content: &str) -> FileFacts {
    let crate_name = {
        let mut parts = relpath.split('/');
        match (parts.next(), parts.next()) {
            (Some("crates"), Some(c)) => c.to_string(),
            (Some(first), _) => first.to_string(),
            _ => String::new(),
        }
    };
    let mut out = FileFacts {
        path: relpath.to_string(),
        crate_name,
        ..FileFacts::default()
    };

    let mut lexer = Lexer::default();
    let mut depth: i32 = 0;
    // (ctx, depth outside the ctx's braces) — pop when depth returns there.
    let mut ctx: Vec<(Ctx, i32)> = Vec::new();
    let mut fn_stack: Vec<FnScratch> = Vec::new();
    let mut pending: Option<Pending> = None;

    // Test-region tracking (same model as the line rules).
    let mut test_region_until: Option<i32> = None;
    let mut pending_test_attr = false;

    // ORDERING-comment attachment (same model as the SAFETY rule).
    let mut ordering_pending = false;
    // Current statement: accumulated lexed code (lines joined by a space)
    // and whether an ORDERING comment covers it.
    let mut stmt = String::new();
    let mut stmt_has_ordering = false;

    let is_test_file = relpath.contains("/tests/") || relpath.starts_with("tests/");
    let mut in_use_decl = false;

    for (idx, raw) in content.lines().enumerate() {
        let lineno = idx + 1;
        let lexed = lexer.lex(raw);
        let code = lexed.code.as_str();
        let trimmed = code.trim();
        let line_has_ordering = lexed.comment.contains("ORDERING:");

        // Test-region attribute machinery.
        if pending_test_attr {
            if trimmed.starts_with("#[") {
                // stacked attribute; keep waiting
            } else if code.contains('{') {
                test_region_until = Some(depth);
                pending_test_attr = false;
            } else if code.contains(';') {
                pending_test_attr = false;
            }
        }
        if test_region_until.is_none()
            && ((trimmed.starts_with("#[cfg(") && trimmed.contains("test"))
                || trimmed.starts_with("#[test]"))
        {
            pending_test_attr = true;
        }
        let in_test = is_test_file || test_region_until.is_some() || pending_test_attr;
        // A `use` declaration imports or re-exports a name; it calls nothing.
        if in_use_decl || is_use_decl(trimmed) {
            in_use_decl = !code.contains(';');
        } else if !in_test {
            collect_uses(code, &mut out.uses);
        }

        // Split the line into statement fragments at top-level `;`/`{`/`}`.
        // Parens/brackets never nest braces-relevant statements in this
        // codebase's style, so splitting on the raw characters is safe for
        // everything the facts care about (semicolons inside `[T; N]` only
        // produce a harmless extra statement boundary).
        let bytes = code.as_bytes();
        let mut frag_start = 0;
        let mut i = 0;
        while i <= bytes.len() {
            let boundary = if i == bytes.len() {
                None
            } else {
                match bytes[i] {
                    b';' | b'{' | b'}' => Some(bytes[i]),
                    _ => None,
                }
            };
            if i == bytes.len() || boundary.is_some() {
                let text = &code[frag_start..i];
                if !text.trim().is_empty() {
                    if stmt.is_empty() {
                        // Statement starts here: it consumes any pending
                        // ORDERING comment block from above.
                        stmt_has_ordering = ordering_pending;
                    }
                    if line_has_ordering {
                        stmt_has_ordering = true;
                    }
                    let region_start = stmt.len() + 1; // +1 for the joiner
                    stmt.push(' ');
                    stmt.push_str(text);
                    scan_fragment(
                        &stmt,
                        region_start,
                        lineno,
                        stmt_has_ordering,
                        depth,
                        &mut fn_stack,
                        &mut out,
                        in_test,
                    );
                }
                frag_start = i + 1;
            }
            let Some(b) = boundary else {
                i += 1;
                continue;
            };
            // Struct fields must flush before `}` pops the struct context.
            flush_struct_field(&stmt, &ctx, &mut out);
            match b {
                b'{' => {
                    // Decide what this brace introduces from the statement.
                    let p = pending.take().or_else(|| classify_stmt(&stmt));
                    match p {
                        Some(Pending::Fn { name, is_pub }) => {
                            let (impl_type, trait_name) = ctx
                                .iter()
                                .rev()
                                .find_map(|(c, _)| match c {
                                    Ctx::Impl { ty, of_trait } => {
                                        Some((Some(ty.clone()), of_trait.clone()))
                                    }
                                    _ => None,
                                })
                                .unwrap_or((None, None));
                            let qual = match &impl_type {
                                Some(t) => format!("{t}::{name}"),
                                None => name.clone(),
                            };
                            fn_stack.push(FnScratch {
                                facts: FnFacts {
                                    qual,
                                    name,
                                    impl_type,
                                    trait_name,
                                    line: lineno,
                                    is_test: in_test,
                                    is_pub,
                                    ..FnFacts::default()
                                },
                                guards: Vec::new(),
                            });
                            ctx.push((Ctx::Fn, depth));
                        }
                        Some(Pending::Impl { ty, of_trait }) => {
                            ctx.push((Ctx::Impl { ty, of_trait }, depth))
                        }
                        Some(Pending::Struct { name }) => {
                            out.structs.push(StructFacts { name, fields: Vec::new() });
                            let idx = out.structs.len() - 1;
                            ctx.push((Ctx::Struct { idx }, depth));
                        }
                        None => ctx.push((Ctx::Block, depth)),
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    while let Some((_, open_depth)) = ctx.last() {
                        if depth <= *open_depth {
                            let (closed, _) = ctx.pop().expect("ctx checked non-empty");
                            if matches!(closed, Ctx::Fn) {
                                if let Some(mut scratch) = fn_stack.pop() {
                                    scratch.facts.end_line = lineno;
                                    out.fns.push(scratch.facts);
                                }
                            }
                        } else {
                            break;
                        }
                    }
                    if let Some(limit) = test_region_until {
                        if depth <= limit {
                            test_region_until = None;
                        }
                    }
                    // Release guards whose block closed.
                    if let Some(scratch) = fn_stack.last_mut() {
                        scratch.guards.retain(|g| g.at_depth <= depth);
                    }
                }
                b';' => {
                    // A `fn` signature ending in `;` is a bodyless trait
                    // method — discard the pending decl.
                    pending = None;
                }
                _ => unreachable!(),
            }
            // Statement boundary: temporaries die, the buffer resets.
            if let Some(scratch) = fn_stack.last_mut() {
                scratch.guards.retain(|g| !g.temp);
            }
            stmt.clear();
            stmt_has_ordering = false;
            i += 1;
        }
        // End of line: inside a struct body, a trailing `,` ends a field.
        // Anywhere else it is a parameter or argument list running on — a
        // `fn` signature spread over lines must reach its `{` whole.
        if matches!(ctx.last(), Some((Ctx::Struct { .. }, _))) && stmt.trim_end().ends_with(',') {
            flush_struct_field(&stmt, &ctx, &mut out);
            stmt.clear();
            stmt_has_ordering = false;
        }

        // ORDERING pending-comment update (mirrors the SAFETY rule): a
        // comment-only line extends the block, any code or blank line
        // consumes/breaks it.
        // A bare `//` (empty comment) still continues the block — only a
        // truly blank line breaks the attachment, mirroring the SAFETY rule.
        let is_comment_only = trimmed.is_empty() && !raw.trim().is_empty();
        if is_comment_only {
            if line_has_ordering {
                ordering_pending = true;
            }
        } else {
            ordering_pending = line_has_ordering;
        }
    }

    if depth != 0 {
        out.errors.push(format!("unbalanced braces: net depth {depth} at EOF"));
    }
    for (c, _) in &ctx {
        out.errors.push(format!("unclosed item context at EOF: {c:?}"));
    }
    for scratch in fn_stack {
        out.errors.push(format!("unclosed fn `{}` at EOF", scratch.facts.qual));
    }
    out
}

/// `use …` or `pub(…) use …` starts this line.
fn is_use_decl(trimmed: &str) -> bool {
    let rest = match trimmed.strip_prefix("pub") {
        Some(r) if r.starts_with('(') => r.find(')').map_or(r, |p| &r[p + 1..]),
        Some(r) => r,
        None => trimmed,
    };
    rest.trim_start().starts_with("use ")
}

/// Adds the identifiers of one lexed line to `uses`, skipping the one
/// right after a `fn` keyword (a definition, not a use).
fn collect_uses(code: &str, uses: &mut HashSet<String>) {
    let b = code.as_bytes();
    let mut i = 0;
    let mut after_fn = false;
    while i < b.len() {
        if !is_ident(b[i]) {
            after_fn &= b[i].is_ascii_whitespace();
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let word = &code[start..i];
        if !after_fn && !b[start].is_ascii_digit() {
            uses.insert(word.to_string());
        }
        after_fn = word == "fn";
    }
}

/// Classifies a statement that ends in `{`: which item (if any) is it
/// introducing? Order matters: `fn f(x: impl Trait) {` is a fn.
fn classify_stmt(stmt: &str) -> Option<Pending> {
    let positions: Vec<(usize, &str)> = ["fn", "impl", "trait", "struct"]
        .iter()
        .filter_map(|kw| find_token(stmt, kw).map(|p| (p, *kw)))
        .collect();
    let (pos, kw) = positions.into_iter().min_by_key(|(p, _)| *p)?;
    let rest = &stmt[pos + kw.len()..];
    match kw {
        "fn" => ident_after(rest).map(|name| Pending::Fn {
            name,
            is_pub: find_token(&stmt[..pos], "pub").is_some(),
        }),
        "struct" => ident_after(rest).map(|name| Pending::Struct { name }),
        "trait" => {
            ident_after(rest).map(|ty| Pending::Impl { of_trait: Some(ty.clone()), ty })
        }
        "impl" => {
            // `impl<T> Type`, `impl Trait for Type` — the implemented type
            // is after `for` when present.
            let rest = skip_generics(rest);
            let (ty_src, of_trait) = match find_token(rest, "for") {
                // `path::Trait<Args>` → `Trait`.
                Some(p) => {
                    let path = rest[..p].split('<').next().unwrap_or("").trim();
                    (&rest[p + 3..], path.rsplit("::").next().and_then(ident_after))
                }
                None => (rest, None),
            };
            ident_after(ty_src).map(|ty| Pending::Impl { ty, of_trait })
        }
        _ => None,
    }
}

/// First identifier in `s`, skipping whitespace and a leading `<…>`
/// generic-parameter list.
fn ident_after(s: &str) -> Option<String> {
    let s = skip_generics(s);
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() && !is_ident(b[i]) {
        // Identifiers must start before any brace/paren.
        if b[i] == b'{' || b[i] == b'(' {
            return None;
        }
        i += 1;
    }
    let start = i;
    while i < b.len() && is_ident(b[i]) {
        i += 1;
    }
    (i > start).then(|| s[start..i].to_string())
}

/// Skips a leading `<…>` (with nesting) after optional whitespace.
fn skip_generics(s: &str) -> &str {
    let t = s.trim_start();
    if !t.starts_with('<') {
        return t;
    }
    let mut angle = 0i32;
    for (i, c) in t.char_indices() {
        match c {
            '<' => angle += 1,
            '>' => {
                angle -= 1;
                if angle == 0 {
                    return &t[i + 1..];
                }
            }
            _ => {}
        }
    }
    t
}

/// Inside a `struct` body, parses `name: Type` fields from the finished
/// statement fragment (which may hold several comma-separated fields).
fn flush_struct_field(stmt: &str, ctx: &[(Ctx, i32)], out: &mut FileFacts) {
    let Some((Ctx::Struct { idx }, _)) = ctx.last() else {
        return;
    };
    // Split on commas outside `<>`/`()`/`[]`.
    let mut level = 0i32;
    let mut start = 0;
    let mut pieces = Vec::new();
    for (i, c) in stmt.char_indices() {
        match c {
            '<' | '(' | '[' => level += 1,
            '>' | ')' | ']' => level -= 1,
            ',' if level == 0 => {
                pieces.push(&stmt[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&stmt[start..]);
    for piece in pieces {
        let t = piece.trim();
        if t.is_empty() || t.starts_with("#[") {
            continue;
        }
        // Strip visibility.
        let t = t.strip_prefix("pub").map(str::trim_start).unwrap_or(t);
        let t = if t.starts_with('(') {
            // pub(crate) etc.
            match t.find(')') {
                Some(p) => t[p + 1..].trim_start(),
                None => continue,
            }
        } else {
            t
        };
        let Some(colon) = t.find(':') else {
            continue;
        };
        let name = t[..colon].trim();
        if name.is_empty() || !name.bytes().all(is_ident) {
            continue;
        }
        let ty = base_type(t[colon + 1..].trim());
        if !ty.is_empty() {
            out.structs[*idx].fields.push((name.to_string(), ty));
        }
    }
}

/// Reduces a field's type expression to the base type the call graph can
/// walk through: strips references, `Arc`/`Box`/`Rc`/`Option` wrappers,
/// slices/arrays, path prefixes, and generic arguments; brackets a
/// `Vec`/`VecDeque`'s element type.
pub fn base_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        if let Some(stripped) = t.strip_prefix('&') {
            t = stripped.trim_start().strip_prefix("mut ").unwrap_or(stripped.trim_start());
            continue;
        }
        if t.starts_with('[') && t.ends_with(']') {
            t = t[1..t.len() - 1].trim();
            if let Some(semi) = t.rfind(';') {
                t = t[..semi].trim();
            }
            continue;
        }
        if t.starts_with('(') {
            return String::new(); // tuple: no single base type
        }
        let head_end = t.find('<').unwrap_or(t.len());
        let head = t[..head_end].trim();
        let seg = head.rsplit("::").next().unwrap_or(head).trim();
        if ["Arc", "Box", "Rc", "Option"].contains(&seg) && head_end < t.len() {
            if let Some(close) = t.rfind('>') {
                t = t[head_end + 1..close].trim();
                continue;
            }
        }
        // A growable sequence keeps its element type in brackets
        // (`Vec<Arc<Engine>>` is `[Engine]`): a foreign type to a method
        // call on the field itself, typeable again once indexed.
        if ["Vec", "VecDeque"].contains(&seg) && head_end < t.len() {
            if let Some(close) = t.rfind('>') {
                return format!("[{}]", base_type(&t[head_end + 1..close]));
            }
        }
        return seg.to_string();
    }
}

/// Scans the newly-appended region of the current statement for lock,
/// blocking, call, and atomic sites. `stmt` is the full statement so far
/// (for `let`-binding and receiver-chain context); only matches starting
/// at `region_start` or later are recorded.
#[allow(clippy::too_many_arguments)]
fn scan_fragment(
    stmt: &str,
    region_start: usize,
    lineno: usize,
    has_ordering: bool,
    depth: i32,
    fn_stack: &mut Vec<FnScratch>,
    out: &mut FileFacts,
    in_test: bool,
) {
    // Atomics are collected even at module level (const defs); everything
    // else needs a function context.
    for site in scan_atomics(stmt, region_start, lineno, has_ordering) {
        match fn_stack.last_mut() {
            Some(s) => s.facts.atomics.push(site),
            None if !in_test => out.module_atomics.push(site),
            None => {}
        }
    }
    let Some(scratch) = fn_stack.last_mut() else {
        return;
    };

    // `drop(name)` releases a let-bound guard early.
    let mut from = region_start;
    while let Some(p) = stmt[from..].find("drop(") {
        let at = from + p;
        if at == 0 || !is_ident(stmt.as_bytes()[at - 1]) {
            let arg_start = at + "drop(".len();
            let arg: String = stmt[arg_start..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !arg.is_empty() {
                scratch.guards.retain(|g| g.binding.as_deref() != Some(arg.as_str()));
            }
        }
        from = at + "drop(".len();
    }

    // Lock acquisitions.
    let mut from = region_start;
    while let Some(p) = stmt[from..].find(".lock(") {
        let at = from + p;
        let class = receiver_ident(stmt, at);
        let class = if class.is_empty() { String::from("<unknown>") } else { class };
        // Edges: acquiring while any guard is live.
        for g in &scratch.guards {
            scratch.facts.held_edges.push(HeldEdge {
                held: g.class.clone(),
                held_line: g.line,
                acquired: class.clone(),
                line: lineno,
            });
        }
        // `let n = m.lock().len();` binds the method's result, not the
        // guard: that one is a temporary like any other.
        let binding =
            let_binding(stmt).filter(|_| guard_outlives_call(&stmt[at + ".lock(".len()..]));
        scratch.guards.push(Guard {
            class: class.clone(),
            line: lineno,
            temp: binding.is_none(),
            binding,
            at_depth: depth,
        });
        scratch.facts.locks.push(LockSite { class, line: lineno });
        from = at + ".lock(".len();
    }

    // Blocking operations.
    for (needle, kind) in BLOCKING_NEEDLES {
        let mut from = region_start;
        while let Some(p) = stmt[from..].find(needle) {
            let at = from + p;
            scratch.facts.blocking.push(BlockingSite { kind: *kind, needle, line: lineno });
            let site = scratch.facts.blocking.len() - 1;
            if *kind != BlockKind::CondvarWait {
                for g in &scratch.guards {
                    scratch.facts.held_blocking.push(HeldBlocking {
                        held: (g.class.clone(), g.line),
                        site,
                    });
                }
            }
            from = at + needle.len();
        }
    }

    // Calls.
    for callee in scan_calls(stmt, region_start) {
        scratch.facts.calls.push(CallSite { callee, line: lineno });
        if !scratch.guards.is_empty() {
            scratch.facts.held_calls.push(HeldCall {
                held: scratch.guards.iter().map(|g| (g.class.clone(), g.line)).collect(),
                call: scratch.facts.calls.len() - 1,
            });
        }
    }
}

/// Whether a `let`-bound `.lock(` yields the guard itself: true when
/// nothing follows the call (`after` starts inside its parentheses) but
/// the suffixes that hand the guard through — `.unwrap()`, `.expect(..)`,
/// `.unwrap_or_else(..)`, `?`. Any other method call consumes the guard
/// as a temporary. A chain continued on a later line is not visible yet
/// and counts as bound (the conservative reading).
fn guard_outlives_call(after: &str) -> bool {
    /// Skips one balanced `(...)` group whose `(` is already consumed.
    fn skip_group(s: &str) -> &str {
        let mut level = 1;
        for (i, c) in s.char_indices() {
            match c {
                '(' => level += 1,
                ')' => level -= 1,
                _ => {}
            }
            if level == 0 {
                return &s[i + 1..];
            }
        }
        ""
    }
    let mut rest = skip_group(after).trim_start();
    loop {
        rest = if let Some(r) = rest.strip_prefix('?') {
            r
        } else if let Some(r) = rest.strip_prefix(".unwrap()") {
            r
        } else if let Some(r) =
            rest.strip_prefix(".expect(").or_else(|| rest.strip_prefix(".unwrap_or_else("))
        {
            skip_group(r)
        } else {
            return rest.is_empty();
        }
        .trim_start();
    }
}

/// The binding name of the statement's `let`, if it is a simple
/// `let [mut] name =` pattern.
fn let_binding(stmt: &str) -> Option<String> {
    let p = find_token(stmt, "let")?;
    let rest = stmt[p + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").map(str::trim_start).unwrap_or(rest);
    let b = rest.as_bytes();
    let mut i = 0;
    while i < b.len() && is_ident(b[i]) {
        i += 1;
    }
    (i > 0).then(|| rest[..i].to_string())
}

/// The identifier immediately before `.x(` at `dot_pos` (the `.`'s index),
/// skipping one trailing call/index group: `self.shard(key).lock(` → `shard`.
fn receiver_ident(stmt: &str, dot_pos: usize) -> String {
    let b = stmt.as_bytes();
    let mut i = dot_pos;
    // Skip whitespace backwards.
    while i > 0 && b[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // Skip one balanced `(...)`/`[...]` group (a call or index whose
    // callee/base names the receiver).
    if i > 0 && (b[i - 1] == b')' || b[i - 1] == b']') {
        let (close, open) = if b[i - 1] == b')' { (b')', b'(') } else { (b']', b'[') };
        let mut level = 0;
        while i > 0 {
            i -= 1;
            if b[i] == close {
                level += 1;
            } else if b[i] == open {
                level -= 1;
                if level == 0 {
                    break;
                }
            }
        }
        while i > 0 && b[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
    }
    let end = i;
    while i > 0 && is_ident(b[i - 1]) {
        i -= 1;
    }
    stmt[i..end].to_string()
}

/// Extracts `Ordering::X` sites from the new region of a statement.
fn scan_atomics(
    stmt: &str,
    region_start: usize,
    lineno: usize,
    has_ordering: bool,
) -> Vec<AtomicSite> {
    let mut sites = Vec::new();
    let mut from = region_start;
    while let Some(p) = stmt[from..].find("Ordering::") {
        let at = from + p;
        let after = &stmt[at + "Ordering::".len()..];
        let ordering: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
        from = at + "Ordering::".len();
        if !["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&ordering.as_str()) {
            continue;
        }
        // Const definition? `const NAME: Ordering = Ordering::X`.
        if let Some(cp) = find_token(&stmt[..at], "const") {
            if stmt[cp..at].contains(": Ordering") && stmt[cp..at].contains('=') {
                let name = ident_after(&stmt[cp + "const".len()..]).unwrap_or_default();
                sites.push(AtomicSite {
                    field: name,
                    op: AtomicOp::ConstDef,
                    ordering,
                    line: lineno,
                    has_ordering_comment: has_ordering,
                });
                continue;
            }
        }
        // Nearest atomic op before the token decides the op and field.
        let mut best: Option<(usize, &str, AtomicOp)> = None;
        for (needle, op) in ATOMIC_OPS {
            if let Some(q) = stmt[..at].rfind(needle) {
                if best.map_or(true, |(bq, _, _)| q > bq) {
                    best = Some((q, needle, *op));
                }
            }
        }
        let (op, field) = match best {
            Some((q, _needle, op)) => (op, receiver_ident(stmt, q)),
            None => (AtomicOp::Other, String::new()),
        };
        sites.push(AtomicSite {
            field,
            op,
            ordering,
            line: lineno,
            has_ordering_comment: has_ordering,
        });
    }
    sites
}

/// Extracts call sites (`Callee`s) from the new region of a statement.
fn scan_calls(stmt: &str, region_start: usize) -> Vec<Callee> {
    let b = stmt.as_bytes();
    let mut out = Vec::new();
    for open in region_start..b.len() {
        if b[open] != b'(' {
            continue;
        }
        // Identifier directly before the paren (no whitespace in Rust call
        // syntax; tolerate none).
        let mut i = open;
        let end = i;
        while i > 0 && is_ident(b[i - 1]) {
            i -= 1;
        }
        if i == end {
            continue;
        }
        let name = &stmt[i..end];
        if name.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        if CALLISH_KEYWORDS.contains(&name) {
            continue;
        }
        // Macro (`name!(`)? The `!` sits between ident and paren — already
        // excluded since b[open-1] must be the ident's last byte; but check
        // `name !(` style too.
        if end < b.len() && b[end] == b'!' {
            continue;
        }
        // Declaration (`fn name(`), not a call.
        let before = stmt[..i].trim_end();
        if before.ends_with("fn") || before.ends_with("struct") || before.ends_with("enum") {
            continue;
        }
        if before.ends_with("::") {
            // Path call: collect segments backwards.
            let mut segs = vec![name.to_string()];
            let mut j = before.len() - 2; // before the `::`
            loop {
                let seg_end = j;
                while j > 0 && is_ident(b[j - 1]) {
                    j -= 1;
                }
                if j == seg_end {
                    break;
                }
                segs.push(stmt[j..seg_end].to_string());
                if j >= 2 && &stmt[j - 2..j] == "::" {
                    j -= 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            out.push(Callee::Path(segs));
        } else if before.ends_with('.') {
            // Method call: walk the receiver chain.
            let mut chain = Vec::new();
            let mut j = before.len() - 1; // index of the `.`
            loop {
                while j > 0 && b[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if j == 0 {
                    break;
                }
                if b[j - 1] == b')' || b[j - 1] == b']' {
                    let index = b[j - 1] == b']';
                    let (close, open_c) = if index { (b']', b'[') } else { (b')', b'(') };
                    let mut level = 0;
                    while j > 0 {
                        j -= 1;
                        if b[j] == close {
                            level += 1;
                        } else if b[j] == open_c {
                            level -= 1;
                            if level == 0 {
                                break;
                            }
                        }
                    }
                    if index {
                        // An index types as an element of what it indexes:
                        // the base is the next, ordinary, segment.
                        chain.push(String::from("[]"));
                        continue;
                    }
                    // A call in the chain: untypeable segment. Swallow the
                    // callee identifier too.
                    while j > 0 && b[j - 1].is_ascii_whitespace() {
                        j -= 1;
                    }
                    let seg_end = j;
                    while j > 0 && is_ident(b[j - 1]) {
                        j -= 1;
                    }
                    let _ = seg_end;
                    chain.push(String::from("()"));
                } else if is_ident(b[j - 1]) {
                    let seg_end = j;
                    while j > 0 && is_ident(b[j - 1]) {
                        j -= 1;
                    }
                    chain.push(stmt[j..seg_end].to_string());
                } else {
                    break;
                }
                // Continue the chain through another `.`.
                while j > 0 && b[j - 1].is_ascii_whitespace() {
                    j -= 1;
                }
                if j > 0 && b[j - 1] == b'.' {
                    j -= 1;
                } else {
                    break;
                }
            }
            chain.reverse();
            if chain.is_empty() {
                chain.push(String::from("()"));
            }
            out.push(Callee::Method { chain, name: name.to_string() });
        } else {
            out.push(Callee::Bare(name.to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_fn<'a>(facts: &'a FileFacts, qual: &str) -> &'a FnFacts {
        facts.fns.iter().find(|f| f.qual == qual).unwrap_or_else(|| {
            panic!("no fn {qual}; have {:?}", facts.fns.iter().map(|f| &f.qual).collect::<Vec<_>>())
        })
    }

    #[test]
    fn a_let_bound_method_result_does_not_bind_the_guard() {
        let src = "impl P {\n    fn f(&self) {\n        let conn = self.pool.lock().pop();\n        std::thread::sleep(D);\n        let g = self.pool.lock().unwrap_or_else(PoisonError::into_inner);\n        std::thread::sleep(D);\n    }\n}\n";
        let facts = parse_file("crates/app/src/p.rs", src);
        let f = &facts.fns[0];
        assert_eq!(f.held_blocking.len(), 1, "{:?}", f.held_blocking);
        assert_eq!(f.held_blocking[0].held.1, 5, "only the guard bound on line 5 is held");
    }

    #[test]
    fn let_guard_lives_to_block_end_and_temp_dies_at_statement_end() {
        let src = "impl Q {\n    fn a(&self) {\n        let g = self.m.lock().unwrap();\n        std::thread::sleep(d);\n    }\n    fn b(&self) {\n        self.m.lock().unwrap().push(1);\n        std::thread::sleep(d);\n    }\n}\n";
        let facts = parse_file("crates/x/src/l.rs", src);
        let a = one_fn(&facts, "Q::a");
        assert_eq!(a.held_blocking.len(), 1, "let-bound guard held across sleep");
        let b = one_fn(&facts, "Q::b");
        assert!(b.held_blocking.is_empty(), "temporary guard dies at the semicolon");
    }

    #[test]
    fn drop_releases_the_named_guard() {
        let src = "impl Q {\n    fn a(&self) {\n        let g = self.m.lock().unwrap();\n        drop(g);\n        std::thread::sleep(d);\n    }\n}\n";
        let facts = parse_file("crates/x/src/l.rs", src);
        assert!(one_fn(&facts, "Q::a").held_blocking.is_empty());
    }

    #[test]
    fn inner_block_releases_its_guards_on_close() {
        let src = "impl Q {\n    fn a(&self) {\n        {\n            let g = self.m.lock().unwrap();\n        }\n        std::thread::sleep(d);\n    }\n}\n";
        let facts = parse_file("crates/x/src/l.rs", src);
        assert!(one_fn(&facts, "Q::a").held_blocking.is_empty());
    }

    #[test]
    fn multi_line_statement_still_finds_the_lock() {
        // The reactor's own style: the receiver and `.lock()` split across
        // lines must still produce one lock site with the right class.
        let src = "impl R {\n    fn t(&self) {\n        let mut pending =\n            self.signal.lock\n            .lock()\n            .unwrap();\n        pending.clear();\n    }\n}\n";
        let facts = parse_file("crates/x/src/r.rs", src);
        let t = one_fn(&facts, "R::t");
        assert_eq!(t.locks.len(), 1);
        assert_eq!(t.locks[0].class, "lock");
    }

    #[test]
    fn condvar_wait_is_not_held_blocking() {
        let src = "impl Q {\n    fn next(&self) {\n        let g = self.inner.lock().unwrap();\n        let g = self.cond.wait(g).unwrap();\n        drop(g);\n    }\n}\n";
        let facts = parse_file("crates/x/src/q.rs", src);
        let f = one_fn(&facts, "Q::next");
        assert!(f.blocking.iter().any(|b| b.kind == BlockKind::CondvarWait));
        assert!(f.held_blocking.is_empty(), "condvar wait releases the mutex");
    }

    #[test]
    fn struct_fields_strip_wrappers_to_base_types() {
        let src = "struct S {\n    q: Arc<DispatchQueue>,\n    g: Option<Box<Gate>>,\n    n: u64,\n}\n";
        let facts = parse_file("crates/x/src/s.rs", src);
        let s = &facts.structs[0];
        assert_eq!(s.fields, vec![
            ("q".to_string(), "DispatchQueue".to_string()),
            ("g".to_string(), "Gate".to_string()),
            ("n".to_string(), "u64".to_string()),
        ]);
    }

    #[test]
    fn ordering_const_def_is_classified() {
        let src = "const HANDSHAKE: Ordering = Ordering::SeqCst;\n";
        let facts = parse_file("crates/x/src/c.rs", src);
        assert_eq!(facts.module_atomics.len(), 1);
        assert_eq!(facts.module_atomics[0].op, AtomicOp::ConstDef);
        assert_eq!(facts.module_atomics[0].ordering, "SeqCst");
    }

    #[test]
    fn test_code_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.lock(); }\n}\n";
        let facts = parse_file("crates/x/src/t.rs", src);
        assert!(!one_fn(&facts, "live").is_test);
        assert!(one_fn(&facts, "t").is_test);
    }
}
