//! The determinism/simulation-safety rule set.
//!
//! Every rule is a token-pattern match over [`crate::lexer`]'s output,
//! scoped by workspace path (see [`rule_in_scope`]) and — for the hot
//! rules — by the interprocedural hot-reachable set computed in
//! [`crate::callgraph`]. The rules encode the contract that every
//! committed `results/*.json` digest depends on:
//!
//! | rule | what it catches |
//! |------|-----------------|
//! | `nondet-time`      | `Instant::now` / `SystemTime::now` (wall-clock reads) |
//! | `nondet-rand`      | `thread_rng` / `from_entropy` (OS-seeded randomness) |
//! | `nondet-env`       | `std::env::var*` (ambient knobs instead of CLI flags) |
//! | `nondet-hasher`    | `HashMap`/`HashSet` with the default `RandomState` in digest crates |
//! | `unordered-iter`   | iterating a hash map/set without an ordered sink |
//! | `packing-cast`     | truncating `as` casts on id-like integers outside the packing modules |
//! | `hot-panic`        | `unwrap`/`expect`/indexing in hot-reachable functions |
//! | `hot-alloc`        | container/string construction in hot-reachable functions |
//! | `float-fold`       | f64 `sum`/`fold` over iteration whose order is not pinned |
//! | `unbounded-growth` | hot-path push/insert into a field with no shrink anywhere |
//! | `bad-suppression`  | malformed or reason-less `jade-audit:` directives |
//!
//! "Hot-reachable" means reachable in the workspace call graph from a
//! `#[jade_hot]` root (engine `step`/`run_until`, `System::handle`,
//! `on_db_dispatch`), with `#[cold]` functions acting as propagation
//! barriers — not merely textually annotated.
//!
//! Suppression grammar (same line, the line directly above the code, or
//! directly above an item's attributes/signature to cover the whole
//! item):
//!
//! ```text
//! // jade-audit: allow(hot-panic, packing-cast): reason the invariant holds
//! ```
//!
//! Hand-audited low-level modules (slab/heap internals, where raw
//! indexing under a structural invariant is the whole point) may instead
//! declare a file-scope escape once, near the top of the file:
//!
//! ```text
//! // jade-audit: allow-file(hot-panic): heap indices maintained by sift invariants
//! ```
//!
//! The reason string is mandatory: a suppression records *why* the code
//! is safe, not just that someone wanted the diagnostic gone. A
//! suppression without a reason is itself a `bad-suppression` violation.

use crate::callgraph::HotCause;
use crate::lexer::{Comment, Lexed, Tok, Token};
use crate::parse::FnItem;
use std::collections::BTreeSet;
use std::fmt;

/// One enforced rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`).
    NondetTime,
    /// OS-seeded randomness (`thread_rng`, `from_entropy`).
    NondetRand,
    /// Process-environment reads (`env::var`, `env::var_os`, …).
    NondetEnv,
    /// Default-`RandomState` hash collections in digest-feeding crates.
    NondetHasher,
    /// Iteration over a hash map/set whose order could leak into results.
    UnorderedIter,
    /// Truncating `as` casts on id-like integers outside packing modules.
    PackingCast,
    /// `unwrap`/`expect`/indexing in hot-reachable functions.
    HotPanic,
    /// Container/string construction in hot-reachable functions.
    HotAlloc,
    /// f64 accumulation over iteration whose order is not pinned.
    FloatFold,
    /// Hot-path growth of long-lived fields with no retention bound.
    UnboundedGrowth,
    /// Malformed `jade-audit:` suppression directives.
    BadSuppression,
}

/// All rules, in diagnostic-sort order.
pub const ALL_RULES: [Rule; 11] = [
    Rule::NondetTime,
    Rule::NondetRand,
    Rule::NondetEnv,
    Rule::NondetHasher,
    Rule::UnorderedIter,
    Rule::PackingCast,
    Rule::HotPanic,
    Rule::HotAlloc,
    Rule::FloatFold,
    Rule::UnboundedGrowth,
    Rule::BadSuppression,
];

impl Rule {
    /// Stable rule id used in diagnostics, CLI flags and suppressions.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NondetTime => "nondet-time",
            Rule::NondetRand => "nondet-rand",
            Rule::NondetEnv => "nondet-env",
            Rule::NondetHasher => "nondet-hasher",
            Rule::UnorderedIter => "unordered-iter",
            Rule::PackingCast => "packing-cast",
            Rule::HotPanic => "hot-panic",
            Rule::HotAlloc => "hot-alloc",
            Rule::FloatFold => "float-fold",
            Rule::UnboundedGrowth => "unbounded-growth",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    /// One-line description (for `list-rules`).
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NondetTime => "wall-clock reads; simulation code must use virtual time (SimTime)",
            Rule::NondetRand => "OS-seeded randomness; use the run's seeded SimRng",
            Rule::NondetEnv => "environment reads; configure runs through CLI flags",
            Rule::NondetHasher => {
                "HashMap/HashSet with the default RandomState hasher in digest-feeding crates"
            }
            Rule::UnorderedIter => "hash map/set iteration without an order-insensitive sink",
            Rule::PackingCast => {
                "truncating `as` cast on an id-like integer outside the audited packing modules"
            }
            Rule::HotPanic => "unwrap/expect/indexing in a function hot-reachable from #[jade_hot]",
            Rule::HotAlloc => {
                "Vec/Box/String/format!/collect construction in hot-reachable code; recycle \
                 through a pool or suppress with the pooling invariant"
            }
            Rule::FloatFold => {
                "f64 sum/fold over hash-order iteration; float addition is order-sensitive, \
                 pin the iteration order"
            }
            Rule::UnboundedGrowth => {
                "hot-path push/insert into a long-lived field with no shrink anywhere in the \
                 file; bound retention"
            }
            Rule::BadSuppression => "malformed or reason-less jade-audit suppression",
        }
    }

    /// Parses a rule id (as used in `allow(...)` and `--disable`).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.id() == s.trim())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// How path-based scoping is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeMode {
    /// Workspace layout scoping (digest crates, packing modules) — the CI
    /// configuration.
    Workspace,
    /// Every enabled rule applies to every file — used for explicit file
    /// arguments and the fixture tests.
    AllFiles,
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Rules switched off (`--disable <rule>`).
    pub disabled: BTreeSet<Rule>,
    /// Path scoping mode.
    pub scope: ScopeMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            disabled: BTreeSet::new(),
            scope: ScopeMode::AllFiles,
        }
    }
}

/// Crates whose computation feeds run digests: the strict scope.
const DIGEST_SCOPES: [&str; 7] = [
    "crates/sim/",
    "crates/cluster/",
    "crates/core/",
    "crates/tiers/",
    "crates/rubis/",
    "crates/fractal/",
    "src/",
];

/// Hand-audited packing modules allowed to use raw `as` truncation on
/// packed ids (`SlabKey` and heap-entry slot packing, `RequestId`).
const PACKING_MODULES: [&str; 3] = [
    "crates/sim/src/slab.rs",
    "crates/sim/src/heap.rs",
    "crates/tiers/src/request.rs",
];

fn in_digest_scope(path: &str) -> bool {
    DIGEST_SCOPES.iter().any(|p| path.starts_with(p))
}

/// Whether `rule` applies to the file at workspace-relative `path`.
pub fn rule_in_scope(rule: Rule, path: &str, mode: ScopeMode) -> bool {
    if mode == ScopeMode::AllFiles {
        return true;
    }
    match rule {
        // The clock, OS entropy and the environment are off limits in
        // every crate: a run is a function of its flags, scenario and seed.
        Rule::NondetTime | Rule::NondetRand | Rule::NondetEnv => true,
        Rule::NondetHasher | Rule::UnorderedIter | Rule::FloatFold => in_digest_scope(path),
        Rule::PackingCast => in_digest_scope(path) && !PACKING_MODULES.contains(&path),
        // The hot contract is a property of the simulation substrate;
        // test harnesses and the bench driver are off the event path
        // even when name resolution drags them into the call graph.
        Rule::HotPanic | Rule::HotAlloc | Rule::UnboundedGrowth => in_digest_scope(path),
        Rule::BadSuppression => true,
    }
}

/// Parsed `jade-audit:` directive.
enum Directive {
    Allow(Vec<Rule>),
    /// `allow-file(...)`: suppresses the listed rules for the whole file.
    /// Reserved for hand-audited low-level modules (slab/heap internals)
    /// where the flagged idiom *is* the design and a per-site comment
    /// would repeat the same structural invariant dozens of times.
    AllowFile(Vec<Rule>),
}

/// Parses the directive out of a comment body, if any. `Some(Err)` is a
/// malformed directive (a `bad-suppression` violation).
///
/// Only comments that *start* with `jade-audit:` (after doc-comment
/// decoration) are directives — prose that merely mentions the grammar,
/// like this sentence, is ignored.
fn parse_directive(text: &str) -> Option<Result<Directive, String>> {
    let t = text.trim_start_matches(|c: char| c == '!' || c == '/' || c.is_whitespace());
    let rest = t.strip_prefix("jade-audit:")?.trim();
    if let Some(args) = rest.strip_prefix("allow") {
        let file_scope = args.starts_with("-file");
        let args = args.strip_prefix("-file").unwrap_or(args).trim_start();
        let Some(inner) = args.strip_prefix('(') else {
            return Some(Err(
                "malformed allow; expected allow(<rule>): <reason>".into()
            ));
        };
        let Some(close) = inner.find(')') else {
            return Some(Err("malformed allow; missing ')'".into()));
        };
        let mut rules = Vec::new();
        for part in inner[..close].split(',') {
            match Rule::parse(part) {
                Some(r) => rules.push(r),
                None => return Some(Err(format!("unknown rule '{}' in allow(...)", part.trim()))),
            }
        }
        if rules.is_empty() {
            return Some(Err("allow(...) names no rule".into()));
        }
        let reason = inner[close + 1..]
            .trim()
            .trim_start_matches([':', '-'])
            .trim();
        if reason.is_empty() {
            return Some(Err(
                "suppression must carry a reason string: allow(<rule>): <why>".into(),
            ));
        }
        return Some(Ok(if file_scope {
            Directive::AllowFile(rules)
        } else {
            Directive::Allow(rules)
        }));
    }
    Some(Err(format!("unrecognized jade-audit directive '{rest}'")))
}

/// Identifiers (or snake_case segments) that mark an integer as id-like
/// for the `packing-cast` rule.
fn is_id_like(ident: &str) -> bool {
    if ident.len() >= 3 && ident.ends_with("Id") {
        return true;
    }
    ident.split('_').any(|seg| {
        matches!(
            seg.to_ascii_lowercase().as_str(),
            "id" | "ids"
                | "key"
                | "keys"
                | "slot"
                | "slots"
                | "seq"
                | "gen"
                | "generation"
                | "token"
                | "tokens"
                | "raw"
        )
    })
}

/// Type names treated as hash collections for `unordered-iter` receiver
/// tracking (the det aliases iterate in *reproducible* but still
/// hash-dependent order, so they are hazards too).
const HASHY_TYPES: [&str; 6] = [
    "HashMap",
    "HashSet",
    "DetHashMap",
    "DetHashSet",
    "FxHashMap",
    "FxHashSet",
];

/// Iterator sinks whose result is independent of visit order, accepted as
/// escapes for `unordered-iter` (plus explicit sorts / ordered collects).
/// `sum`/`min`/`max` are only order-insensitive for *integers* — the
/// `float-fold` rule closes the floating-point gap.
const ORDER_INSENSITIVE: [&str; 16] = [
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "count",
    "sum",
    "min",
    "max",
    "all",
    "any",
    "is_empty",
];

const ITER_METHODS: [&str; 6] = ["iter", "iter_mut", "keys", "values", "values_mut", "drain"];

/// Container constructors whose call allocates (for `hot-alloc`).
const ALLOC_TYPES: [&str; 8] = [
    "Vec", "VecDeque", "String", "Box", "Rc", "Arc", "BTreeMap", "BTreeSet",
];
const ALLOC_CTORS: [&str; 5] = ["new", "with_capacity", "from", "from_iter", "default"];
/// Method calls that allocate their result (for `hot-alloc`).
const ALLOC_METHODS: [&str; 5] = ["collect", "to_vec", "to_owned", "to_string", "into_owned"];
/// Allocating macros (for `hot-alloc`).
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Methods that grow a collection (for `unbounded-growth`).
const GROW_METHODS: [&str; 5] = ["push", "insert", "push_back", "push_front", "extend"];
/// Methods that shrink/recycle a collection — evidence of a retention
/// bound (for `unbounded-growth`).
const SHRINK_METHODS: [&str; 14] = [
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "swap_remove",
    "clear",
    "truncate",
    "drain",
    "retain",
    "retain_mut",
    "split_off",
    "take",
    "replace",
    "dedup",
];

/// One hot-reachable function's body inside a specific file, as computed
/// by [`crate::callgraph`]. Token indices refer to that file's lexed
/// token stream.
#[derive(Debug, Clone)]
pub struct HotRegion {
    /// Inclusive token-index range of the body (`{` … `}`).
    pub tok_range: (usize, usize),
    /// Qualified function name (`Type::name` or `name`).
    pub name: String,
    /// Root or transitive, with provenance.
    pub cause: HotCause,
}

impl HotRegion {
    /// How the hot contract applies here, for diagnostics.
    fn describe(&self) -> String {
        match &self.cause {
            HotCause::Root => format!("#[jade_hot] fn `{}`", self.name),
            HotCause::Via(parent) => {
                format!(
                    "hot-reachable fn `{}` (called from `{}`)",
                    self.name, parent
                )
            }
        }
    }
}

/// Analyzes one file's source in isolation: a single-file workspace is
/// built, so `#[jade_hot]` still propagates to functions the roots call
/// *within the file*, but no cross-file edges exist. `path` must be
/// workspace-relative with forward slashes; it is copied into each
/// diagnostic.
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = crate::lexer::lex(src);
    let items = crate::parse::parse_items(&lexed);
    let files = vec![(lexed.tokens.as_slice(), items.as_slice())];
    let cg = crate::callgraph::CallGraph::build(&files);
    let hot = cg.hot_reachability(&files);
    let regions = hot_regions_for_file(&cg, &hot, 0, &files);
    analyze_file(path, &lexed, &items, &regions, cfg)
}

/// Extracts the [`HotRegion`]s of one file from a workspace hot set.
pub fn hot_regions_for_file(
    cg: &crate::callgraph::CallGraph,
    hot: &crate::callgraph::HotSet,
    file_idx: usize,
    files: &[(&[Token], &[FnItem])],
) -> Vec<HotRegion> {
    let mut out = Vec::new();
    for (&id, cause) in &hot.hot {
        let sym = &cg.fns[id];
        if sym.file != file_idx {
            continue;
        }
        let it = &files[sym.file].1[sym.item];
        if let Some(body) = it.body {
            out.push(HotRegion {
                tok_range: body,
                name: it.qualified_name(),
                cause: cause.clone(),
            });
        }
    }
    // Sort by body start so nested (inner) regions override outer ones in
    // the per-token map.
    out.sort_by_key(|r| r.tok_range.0);
    out
}

/// The full per-file rule pass. `items` are the file's parsed fn items
/// (for item-bound suppressions); `hot_regions` the hot-reachable bodies.
pub fn analyze_file(
    path: &str,
    lexed: &Lexed,
    items: &[FnItem],
    hot_regions: &[HotRegion],
    cfg: &Config,
) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let mut raw: Vec<Diagnostic> = Vec::new();
    let enabled = |r: Rule| !cfg.disabled.contains(&r) && rule_in_scope(r, path, cfg.scope);
    let diag = |line: u32, rule: Rule, message: String| Diagnostic {
        file: path.to_owned(),
        line,
        rule,
        message,
    };

    // ------------------------------------------------------------------
    // Comments: suppressions and bad directives.
    // ------------------------------------------------------------------
    let mut suppressions: Vec<(u32, Vec<Rule>)> = Vec::new();
    let mut file_allows: BTreeSet<Rule> = BTreeSet::new();
    for Comment { line, text } in &lexed.comments {
        match parse_directive(text) {
            None => {}
            Some(Ok(Directive::Allow(rules))) => suppressions.push((*line, rules)),
            Some(Ok(Directive::AllowFile(rules))) => file_allows.extend(rules),
            Some(Err(msg)) if enabled(Rule::BadSuppression) => {
                raw.push(diag(*line, Rule::BadSuppression, msg));
            }
            Some(Err(_)) => {}
        }
    }

    // ------------------------------------------------------------------
    // Per-token hot-region map (inner regions win on overlap, so nested
    // fns report the innermost name).
    // ------------------------------------------------------------------
    let mut hot_at: Vec<Option<u32>> = vec![None; toks.len()];
    for (ri, r) in hot_regions.iter().enumerate() {
        let (a, b) = r.tok_range;
        for slot in hot_at
            .iter_mut()
            .take(b.min(toks.len().saturating_sub(1)) + 1)
            .skip(a)
        {
            *slot = Some(ri as u32);
        }
    }
    let hot_region = |i: usize| -> Option<&HotRegion> {
        hot_at
            .get(i)
            .copied()
            .flatten()
            .map(|ri| &hot_regions[ri as usize])
    };

    // ------------------------------------------------------------------
    // Pass A: hash-typed names (aliases, fields, lets) for unordered-iter.
    // ------------------------------------------------------------------
    let mut hashy_types: BTreeSet<String> = HASHY_TYPES.iter().map(|s| s.to_string()).collect();
    let mut hashy_vars: BTreeSet<String> = BTreeSet::new();
    let ident = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
    };
    let punct = |i: usize, c: char| matches!(toks.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);

    // Type aliases: `type X = ... Hashy ... ;`
    for i in 0..toks.len() {
        if ident(i) == Some("type") {
            if let Some(name) = ident(i + 1) {
                let mut j = i + 2;
                let mut rhs_hashy = false;
                while j < toks.len() && !punct(j, ';') {
                    if let Some(t) = ident(j) {
                        if hashy_types.contains(t) {
                            rhs_hashy = true;
                        }
                    }
                    j += 1;
                }
                if rhs_hashy {
                    hashy_types.insert(name.to_owned());
                }
            }
        }
    }
    // Declarations: `name: [&mut path::]Hashy<...>` (fields, args, typed
    // lets) and `let [mut] name = [path::]Hashy::...`.
    for i in 0..toks.len() {
        if let Some(name) = ident(i) {
            if punct(i + 1, ':') && !punct(i + 2, ':') && !punct(i, ':') {
                // Walk the type path after the colon.
                let mut j = i + 2;
                let mut steps = 0;
                while j < toks.len() && steps < 16 {
                    match &toks[j].tok {
                        Tok::Ident(t) if t == "mut" || t == "dyn" => j += 1,
                        Tok::Punct('&') | Tok::Lifetime => j += 1,
                        Tok::Ident(t) => {
                            if hashy_types.contains(t) {
                                hashy_vars.insert(name.to_owned());
                                break;
                            }
                            // Follow `path::` segments only.
                            if punct(j + 1, ':') && punct(j + 2, ':') {
                                j += 3;
                            } else {
                                break;
                            }
                        }
                        _ => break,
                    }
                    steps += 1;
                }
            }
            if name == "let" {
                let mut j = i + 1;
                if ident(j) == Some("mut") {
                    j += 1;
                }
                if let Some(var) = ident(j) {
                    if punct(j + 1, '=') && !punct(j + 2, '=') {
                        // First few rhs tokens decide (Hashy::new / default).
                        for k in (j + 2)..(j + 10).min(toks.len()) {
                            if punct(k, '(') || punct(k, ';') {
                                break;
                            }
                            if let Some(t) = ident(k) {
                                if hashy_types.contains(t) {
                                    hashy_vars.insert(var.to_owned());
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass A2 (unbounded-growth): fields with shrink/recycle evidence
    // anywhere in the file.
    // ------------------------------------------------------------------
    let mut shrunk_fields: BTreeSet<&str> = BTreeSet::new();
    if enabled(Rule::UnboundedGrowth) {
        for i in 0..toks.len() {
            if let Some(w) = ident(i) {
                // `<field>.shrink_method(`
                if SHRINK_METHODS.contains(&w) && punct(i + 1, '(') && punct(i.wrapping_sub(1), '.')
                {
                    if let Some(f) = ident(i.wrapping_sub(2)) {
                        shrunk_fields.insert(f);
                    }
                }
                // `mem::take(&mut self.field)` / `mem::replace(&mut self.field, …)`
                if (w == "take" || w == "replace") && punct(i + 1, '(') {
                    let mut j = i + 2;
                    let mut last = None;
                    while j < toks.len() && j < i + 10 && !punct(j, ')') && !punct(j, ',') {
                        if let Some(s) = ident(j) {
                            last = Some(s);
                        }
                        j += 1;
                    }
                    if let Some(f) = last {
                        shrunk_fields.insert(f);
                    }
                }
                // `self.field = …` reassignment (not `==`).
                if w == "self" && punct(i + 1, '.') {
                    if let Some(f) = ident(i + 2) {
                        if punct(i + 3, '=') && !punct(i + 4, '=') {
                            shrunk_fields.insert(f);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass B: the main token scan.
    // ------------------------------------------------------------------
    let mut in_use = false;
    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].tok {
            Tok::Punct(';') => in_use = false,
            Tok::Ident(w) => {
                let hot = hot_region(i);
                match w.as_str() {
                    "use" => in_use = true,
                    "Instant" | "SystemTime"
                        if enabled(Rule::NondetTime)
                            && punct(i + 1, ':')
                            && punct(i + 2, ':')
                            && ident(i + 3) == Some("now") =>
                    {
                        raw.push(diag(
                            line,
                            Rule::NondetTime,
                            format!(
                                "{w}::now() reads the wall clock; simulation code must use \
                                 virtual time (SimTime) so runs are reproducible"
                            ),
                        ));
                    }
                    "thread_rng" | "from_entropy" if enabled(Rule::NondetRand) => {
                        raw.push(diag(
                            line,
                            Rule::NondetRand,
                            format!(
                                "{w} draws OS entropy; use the run's seeded SimRng so results \
                                 replay byte-identically"
                            ),
                        ));
                    }
                    "env"
                        if enabled(Rule::NondetEnv)
                            && punct(i + 1, ':')
                            && punct(i + 2, ':')
                            && matches!(
                                ident(i + 3),
                                Some("var" | "var_os" | "vars" | "vars_os")
                            ) =>
                    {
                        raw.push(diag(
                            line,
                            Rule::NondetEnv,
                            format!(
                                "env::{} reads process environment; take the knob as a \
                                 CLI flag so runs are self-describing",
                                ident(i + 3).unwrap_or("var")
                            ),
                        ));
                    }
                    "HashMap" | "HashSet" if enabled(Rule::NondetHasher) && !in_use => {
                        if let Some(d) = check_default_hasher(toks, i, w, path) {
                            raw.push(d);
                        }
                    }
                    "as" if enabled(Rule::PackingCast) => {
                        if let Some(d) = check_packing_cast(toks, i, path) {
                            raw.push(d);
                        }
                    }
                    "unwrap" | "expect"
                        if hot.is_some()
                            && enabled(Rule::HotPanic)
                            && punct(i.wrapping_sub(1), '.') =>
                    {
                        let r = hot.expect("checked");
                        raw.push(diag(
                            line,
                            Rule::HotPanic,
                            format!(
                                ".{w}() in {} can panic per delivered event; handle the \
                                 None/Err arm or suppress with the invariant as reason",
                                r.describe()
                            ),
                        ));
                    }
                    _ => {}
                }
                // hot-alloc: container construction in hot-reachable code.
                if let Some(r) = hot {
                    if enabled(Rule::HotAlloc) && !in_use {
                        if let Some(what) = check_hot_alloc(toks, i, w) {
                            raw.push(diag(
                                line,
                                Rule::HotAlloc,
                                format!(
                                    "{what} allocates per event in {}; recycle through a \
                                     pooled/scratch buffer or suppress with the amortization \
                                     invariant as reason",
                                    r.describe()
                                ),
                            ));
                        }
                    }
                    // unbounded-growth: `self.<field>.push/insert(...)`
                    // with no shrink evidence for that field in the file.
                    if enabled(Rule::UnboundedGrowth)
                        && GROW_METHODS.contains(&w.as_str())
                        && punct(i + 1, '(')
                        && punct(i.wrapping_sub(1), '.')
                    {
                        if let Some(field) = self_field_receiver(toks, i) {
                            if !shrunk_fields.contains(field) {
                                let field = field.to_owned();
                                raw.push(diag(
                                    line,
                                    Rule::UnboundedGrowth,
                                    format!(
                                        "`self.{field}.{w}(…)` in {} grows a long-lived field \
                                         with no shrink (pop/remove/clear/truncate/drain/retain/\
                                         take) anywhere in this file; bound its retention or \
                                         suppress with the bound as reason",
                                        r.describe()
                                    ),
                                ));
                            }
                        }
                    }
                }
                // float-fold: f64 accumulation over hash-order iteration.
                if enabled(Rule::FloatFold)
                    && matches!(w.as_str(), "sum" | "product" | "fold")
                    && punct(i.wrapping_sub(1), '.')
                    && (punct(i + 1, '(') || (punct(i + 1, ':') && punct(i + 2, ':')))
                {
                    if let Some(d) = check_float_fold(toks, i, w, path, &hashy_vars) {
                        raw.push(d);
                    }
                }
                // unordered-iter: `<hashy>.iter()` (and friends).
                if enabled(Rule::UnorderedIter)
                    && ITER_METHODS.contains(&w.as_str())
                    && punct(i + 1, '(')
                    && punct(i.wrapping_sub(1), '.')
                {
                    if let Some(recv) = ident(i.wrapping_sub(2)) {
                        if hashy_vars.contains(recv) && !statement_is_order_insensitive(toks, i) {
                            raw.push(diag(
                                line,
                                Rule::UnorderedIter,
                                format!(
                                    "iterating hash collection `{recv}` — bucket order is not \
                                     a stable order; sort the result, collect into an ordered \
                                     form, or use an order-insensitive sink"
                                ),
                            ));
                        }
                    }
                }
                // unordered-iter: `for x in &hashy { ... }`.
                if enabled(Rule::UnorderedIter) && w == "in" {
                    let mut j = i + 1;
                    while punct(j, '&') || ident(j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(recv) = ident(j) {
                        if hashy_vars.contains(recv) && punct(j + 1, '{') {
                            raw.push(diag(
                                line,
                                Rule::UnorderedIter,
                                format!(
                                    "for-loop over hash collection `{recv}` visits entries in \
                                     bucket order; iterate a sorted copy or an ordered \
                                     collection instead"
                                ),
                            ));
                        }
                    }
                }
            }
            Tok::Punct('[')
                if enabled(Rule::HotPanic)
                    && hot_region(i).is_some()
                    && matches!(
                        toks.get(i.wrapping_sub(1)).map(|t| &t.tok),
                        Some(Tok::Ident(_)) | Some(Tok::Punct(')')) | Some(Tok::Punct(']'))
                    )
                    // `x[0]` — a lone integer-literal index addresses a
                    // fixed slot (typically a compile-time-sized array);
                    // flagging it is noise next to data-dependent indexes.
                    && !(matches!(
                        toks.get(i + 1).map(|t| &t.tok),
                        Some(Tok::Num { float: false })
                    ) && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Punct(']')))) =>
            {
                let r = hot_region(i).expect("checked");
                raw.push(diag(
                    line,
                    Rule::HotPanic,
                    format!(
                        "indexing in {} panics on out-of-bounds; use get()/get_mut() or \
                         suppress with the bounds invariant as reason",
                        r.describe()
                    ),
                ));
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Apply suppressions. Three attachment forms:
    //   * same line as the violation;
    //   * the line directly above the violating code;
    //   * directly above an item's first attribute or signature — binds
    //     to the whole item (attributes are transparent: a suppression
    //     above `#[jade_hot]` covers the function, not the attr line).
    // ------------------------------------------------------------------
    let next_code_line =
        |after: u32| -> Option<u32> { toks.iter().map(|t| t.line).find(|&l| l > after) };
    raw.retain(|d| {
        if d.rule == Rule::BadSuppression {
            return true;
        }
        if file_allows.contains(&d.rule) {
            return false;
        }
        !suppressions.iter().any(|(sline, rules)| {
            if !rules.contains(&d.rule) {
                return false;
            }
            if d.line == *sline {
                return true;
            }
            let ncl = next_code_line(*sline);
            if Some(d.line) == ncl {
                return true;
            }
            // Item binding: the next code line is an item's attribute or
            // signature line → the suppression covers the whole item.
            if let Some(ncl) = ncl {
                return items.iter().any(|it| {
                    (it.attr_line == ncl || it.sig_line == ncl)
                        && d.line >= it.attr_line
                        && d.line <= it.end_line
                });
            }
            false
        })
    });
    raw.sort();
    // Two `[` on one line (e.g. `m[a][b]`) would otherwise report twice.
    raw.dedup();
    raw
}

/// `self.a.b.<grow>(…)` receiver detection: returns the grown field (the
/// final segment before the grow method) when the chain is rooted at
/// `self`, i.e. the target is a long-lived struct field rather than a
/// local.
fn self_field_receiver(toks: &[Token], grow_idx: usize) -> Option<&str> {
    let ident = |k: usize| -> Option<&str> {
        toks.get(k).and_then(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
    };
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    // grow_idx-1 is the `.`; the field must be a plain ident (indexing or
    // call results in the chain end the field attribution).
    let field = ident(grow_idx.wrapping_sub(2))?;
    let mut k = grow_idx.wrapping_sub(2);
    loop {
        if !punct(k.wrapping_sub(1), '.') {
            return None;
        }
        let prev = ident(k.wrapping_sub(2))?;
        if prev == "self" && !punct(k.wrapping_sub(3), '.') {
            return Some(field);
        }
        k = k.wrapping_sub(2);
    }
}

/// `hot-alloc` detection at identifier token `i`. Returns a short
/// description of the allocating construct.
fn check_hot_alloc(toks: &[Token], i: usize, w: &str) -> Option<String> {
    let ident = |k: usize| -> Option<&str> {
        toks.get(k).and_then(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
    };
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    // `vec![…]` / `format!(…)`.
    if ALLOC_MACROS.contains(&w) && punct(i + 1, '!') {
        return Some(format!("`{w}!`"));
    }
    // `.collect()` / `.to_vec()` / `.to_owned()` / `.to_string()`.
    if ALLOC_METHODS.contains(&w) && punct(i + 1, '(') && punct(i.wrapping_sub(1), '.') {
        return Some(format!("`.{w}()`"));
    }
    // `Vec::new()` / `Box::new(…)` / `String::from(…)` /
    // `Vec::<T>::with_capacity(…)`.
    if ALLOC_TYPES.contains(&w) && punct(i + 1, ':') && punct(i + 2, ':') {
        let mut j = i + 3;
        if punct(j, '<') {
            // Skip the turbofish.
            let mut depth = 1i32;
            j += 1;
            while j < toks.len() && depth > 0 {
                match &toks[j].tok {
                    Tok::Punct('<') => depth += 1,
                    Tok::Punct('>') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            if !(punct(j, ':') && punct(j + 1, ':')) {
                return None;
            }
            j += 2;
        }
        if let Some(ctor) = ident(j) {
            if ALLOC_CTORS.contains(&ctor) && punct(j + 1, '(') {
                return Some(format!("`{w}::{ctor}(…)`"));
            }
        }
    }
    None
}

/// `float-fold` detection at the `.sum`/`.fold`/`.product` token `i`:
/// fires when the surrounding statement shows both floating-point
/// accumulation (an `f64`/`f32` mention or a float literal) and iteration
/// over a hash collection (whose order `sum`'s escape in
/// `unordered-iter` wrongly blesses for floats).
fn check_float_fold(
    toks: &[Token],
    i: usize,
    w: &str,
    path: &str,
    hashy_vars: &BTreeSet<String>,
) -> Option<Diagnostic> {
    let window = statement_window(toks, i, 64);
    let mut is_float = false;
    let mut hashy: Option<&str> = None;
    let mut iterates = false;
    for k in window.clone() {
        match &toks[k].tok {
            Tok::Num { float: true } => is_float = true,
            Tok::Ident(s) if s == "f64" || s == "f32" => is_float = true,
            Tok::Ident(s) if hashy_vars.contains(s) => hashy = hashy.or(Some(s)),
            Tok::Ident(s) if k < i && ITER_METHODS.contains(&s.as_str()) => iterates = true,
            _ => {}
        }
    }
    if is_float && iterates {
        if let Some(h) = hashy {
            return Some(Diagnostic {
                file: path.to_owned(),
                line: toks[i].line,
                rule: Rule::FloatFold,
                message: format!(
                    ".{w}() accumulates floats over iteration of hash collection `{h}`; \
                     float addition is order-sensitive, so bucket order leaks into the \
                     result — iterate in a pinned (dense-index/sorted) order instead"
                ),
            });
        }
    }
    None
}

/// The token-index window of the statement containing token `i`
/// (bounded scan both ways, stopping at `;`/`{`/`}`).
fn statement_window(toks: &[Token], i: usize, max: usize) -> std::ops::Range<usize> {
    let mut start = i;
    let mut steps = 0;
    while start > 0 && steps < max {
        match &toks[start - 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => {}
        }
        start -= 1;
        steps += 1;
    }
    let mut end = i;
    let mut steps = 0;
    while end + 1 < toks.len() && steps < max {
        match &toks[end + 1].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            _ => {}
        }
        end += 1;
        steps += 1;
    }
    start..end + 1
}

/// `HashMap`/`HashSet` default-hasher detection at token `i`.
fn check_default_hasher(toks: &[Token], i: usize, name: &str, path: &str) -> Option<Diagnostic> {
    let line = toks[i].line;
    let ident = |k: usize| -> Option<&str> {
        toks.get(k).and_then(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
    };
    let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
    let needed_args = if name == "HashMap" { 3 } else { 2 };
    let fix = if name == "HashMap" {
        "jade_sim::det::DetHashMap (or BTreeMap when iterated)"
    } else {
        "jade_sim::det::DetHashSet (or BTreeSet when iterated)"
    };
    // `HashMap::new(...)` / `HashMap::with_capacity(...)`: only defined
    // for RandomState, so these are always the default hasher.
    let mut j = i + 1;
    if punct(j, ':') && punct(j + 1, ':') {
        j += 2;
        if punct(j, '<') {
            // turbofish — fall through to the arity check below
        } else {
            return match ident(j) {
                Some("new") | Some("with_capacity") => Some(Diagnostic {
                    file: path.to_owned(),
                    line,
                    rule: Rule::NondetHasher,
                    message: format!(
                        "{name}::{}() builds a RandomState-hashed {name}; use {fix}",
                        ident(j).unwrap_or("new")
                    ),
                }),
                _ => None,
            };
        }
    }
    // Generic argument list: count top-level commas; fewer than
    // `needed_args` type arguments means the hasher defaulted.
    if punct(j, '<') {
        let mut depth = 1i32;
        let mut commas = 0usize;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            match &toks[k].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth -= 1,
                Tok::Punct('(') => {
                    // Skip parenthesized (tuple) groups wholesale.
                    let mut pd = 1i32;
                    while k + 1 < toks.len() && pd > 0 {
                        k += 1;
                        match &toks[k].tok {
                            Tok::Punct('(') => pd += 1,
                            Tok::Punct(')') => pd -= 1,
                            _ => {}
                        }
                    }
                }
                Tok::Punct(',') if depth == 1 => commas += 1,
                _ => {}
            }
            k += 1;
        }
        if commas + 1 < needed_args {
            return Some(Diagnostic {
                file: path.to_owned(),
                line,
                rule: Rule::NondetHasher,
                message: format!(
                    "{name} with the default RandomState hasher (no hasher type argument); \
                     use {fix}"
                ),
            });
        }
    }
    None
}

/// Truncating-cast detection at the `as` keyword (token `i`).
fn check_packing_cast(toks: &[Token], i: usize, path: &str) -> Option<Diagnostic> {
    let target = match toks.get(i + 1).map(|t| &t.tok) {
        Some(Tok::Ident(s)) if matches!(s.as_str(), "u8" | "u16" | "u32") => s.clone(),
        _ => return None,
    };
    let line = toks[i].line;
    // Back-scan the source expression, collecting identifiers.
    let mut idents: Vec<&str> = Vec::new();
    let mut j = i as isize - 1;
    let boundary;
    loop {
        if j < 0 {
            boundary = None;
            break;
        }
        let k = j as usize;
        match &toks[k].tok {
            Tok::Ident(s) => {
                // Keywords end the expression.
                if matches!(
                    s.as_str(),
                    "as" | "in" | "return" | "if" | "else" | "match" | "let"
                ) {
                    boundary = Some(k);
                    break;
                }
                idents.push(s);
                j -= 1;
            }
            Tok::Num { .. } | Tok::Str | Tok::Char | Tok::Lifetime => j -= 1,
            Tok::Punct('.') => j -= 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                // Skip the balanced group, still collecting identifiers.
                let open = if toks[k].tok == Tok::Punct(')') {
                    '('
                } else {
                    '['
                };
                let close = if open == '(' { ')' } else { ']' };
                let mut depth = 1i32;
                let mut m = j - 1;
                while m >= 0 && depth > 0 {
                    match &toks[m as usize].tok {
                        Tok::Punct(c) if *c == close => depth += 1,
                        Tok::Punct(c) if *c == open => depth -= 1,
                        Tok::Ident(s) => idents.push(s),
                        _ => {}
                    }
                    m -= 1;
                }
                j = m;
            }
            Tok::Punct(_) => {
                boundary = Some(k);
                break;
            }
        }
    }
    let flagged_source = idents.iter().any(|s| is_id_like(s));
    // `IdentEndingInId( <expr> as uN` — construction of an id type.
    let flagged_ctor = match boundary {
        Some(k) if matches!(toks[k].tok, Tok::Punct('(')) => {
            matches!(toks.get(k.wrapping_sub(1)).map(|t| &t.tok),
                     Some(Tok::Ident(s)) if s.len() >= 3 && s.ends_with("Id"))
        }
        _ => false,
    };
    // `let <id-like> = <expr> as uN` — assignment into an id binding.
    let flagged_dest = match boundary {
        Some(k) if matches!(toks[k].tok, Tok::Punct('=')) => {
            // Exclude comparisons (`== x as u32`).
            !matches!(
                toks.get(k.wrapping_sub(1)).map(|t| &t.tok),
                Some(Tok::Punct('='))
            ) && matches!(toks.get(k.wrapping_sub(1)).map(|t| &t.tok),
                            Some(Tok::Ident(s)) if is_id_like(s))
        }
        _ => false,
    };
    if flagged_source || flagged_ctor || flagged_dest {
        Some(Diagnostic {
            file: path.to_owned(),
            line,
            rule: Rule::PackingCast,
            message: format!(
                "truncating `as {target}` on an id-like integer silently wraps on overflow; \
                 use jade_sim::pack::id_{target} (checked) or move the packing into an \
                 audited packing module"
            ),
        })
    } else {
        None
    }
}

/// Whether the statement containing the iteration at token `i` mentions an
/// order-insensitive sink or an explicit ordering operation (e.g. a
/// `.sum()` at the end, or a `BTreeMap` annotation the result collects
/// into).
fn statement_is_order_insensitive(toks: &[Token], i: usize) -> bool {
    // Backward to the statement start.
    let mut j = i as isize - 1;
    let mut steps_back = 0;
    while j >= 0 && steps_back < 64 {
        match &toks[j as usize].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Ident(s) if ORDER_INSENSITIVE.contains(&s.as_str()) => return true,
            _ => {}
        }
        j -= 1;
        steps_back += 1;
    }
    // Forward to the statement end.
    let mut j = i;
    let mut depth = 0i32;
    let mut steps = 0;
    while j < toks.len() && steps < 64 {
        match &toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            Tok::Punct(';') | Tok::Punct('{') if depth == 0 => break,
            Tok::Ident(s) if ORDER_INSENSITIVE.contains(&s.as_str()) => return true,
            _ => {}
        }
        j += 1;
        steps += 1;
    }
    false
}
