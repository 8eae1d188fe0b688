//! `jade-audit`: the workspace determinism/simulation-safety analyzer.
//!
//! The reproduction's headline claim is that every experiment replays
//! byte-identically from `{scenario, seed}`. That property is easy to
//! state and easy to lose: one `Instant::now()` in a scheduler, one
//! default-hashed `HashMap` iterated into a digest, one `as u16` that
//! silently wraps at 65 536 requests, and the committed `results/*.json`
//! stop being reproducible evidence. `jade-audit` turns the contract into
//! a CI gate: it lexes every source file (see [`lexer`]), parses the
//! item structure (see [`parse`]), links a workspace call graph (see
//! [`callgraph`]) to propagate `#[jade_hot]` transitively, and checks
//! the rules in [`rules`].
//!
//! Run it as `cargo run -p jade-audit -- check` (exit 0 = clean), or
//! `fix-list` for machine-readable JSON. Per-site escapes use
//! `// jade-audit: allow(<rule>): <reason>` comments; a reason string is
//! mandatory.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod rules;

use callgraph::CallGraph;
use lexer::Lexed;
use parse::FnItem;
use rules::{Config, Diagnostic, Rule, ScopeMode};
use std::fs;
use std::path::{Path, PathBuf};

/// Fixture directory (test data full of deliberate violations) — never
/// scanned as part of the workspace.
const FIXTURES: &str = "crates/audit/tests/fixtures";

/// Walks the workspace rooted at `root` and returns all `.rs` files as
/// workspace-relative forward-slash paths, sorted. Skips `target/`,
/// hidden directories and the audit fixtures.
pub fn workspace_rs_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                if rel_path(root, &path).as_deref() == Some(FIXTURES) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Some(rel) = rel_path(root, &path) {
                    out.push(rel);
                }
            }
        }
    }
    out.sort();
    out
}

fn rel_path(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let s = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    Some(s)
}

/// One loaded, lexed and item-parsed source file.
pub struct SourceFile {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// Raw source (kept for line counting in the inventory).
    pub src: String,
    /// Token stream + comments.
    pub lexed: Lexed,
    /// Parsed fn items.
    pub items: Vec<FnItem>,
}

/// Lexes and parses one source file.
fn load_source(rel: String, src: String) -> SourceFile {
    let lexed = lexer::lex(&src);
    let items = parse::parse_items(&lexed);
    SourceFile {
        rel,
        src,
        lexed,
        items,
    }
}

/// Loads every workspace source file.
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for rel in workspace_rs_files(root) {
        if let Ok(src) = fs::read_to_string(root.join(&rel)) {
            files.push(load_source(rel, src));
        }
    }
    files
}

fn file_views(files: &[SourceFile]) -> Vec<(&[lexer::Token], &[FnItem])> {
    files
        .iter()
        .map(|f| (f.lexed.tokens.as_slice(), f.items.as_slice()))
        .collect()
}

/// Runs the rule passes over a set of loaded files that form one
/// analysis unit: the call graph (and therefore hot-reachability) links
/// across all of them.
fn analyze_loaded(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let views = file_views(files);
    let cg = CallGraph::build(&views);
    let hot = cg.hot_reachability(&views);
    let mut diags = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let regions = rules::hot_regions_for_file(&cg, &hot, fi, &views);
        diags.extend(rules::analyze_file(
            &f.rel, &f.lexed, &f.items, &regions, cfg,
        ));
    }
    diags.sort();
    diags
}

/// Runs the analyzer over the whole workspace (workspace scoping,
/// cross-file hot propagation).
pub fn check_workspace(root: &Path, cfg: &Config) -> Vec<Diagnostic> {
    analyze_loaded(&load_workspace(root), cfg)
}

/// Runs the analyzer over explicit files (all-files scoping: every
/// enabled rule applies regardless of path). The named files form their
/// own mini-workspace, so hotness propagates among them but not from the
/// real workspace.
pub fn check_files(paths: &[PathBuf], cfg: &Config) -> Vec<Diagnostic> {
    let cfg = Config {
        disabled: cfg.disabled.clone(),
        scope: ScopeMode::AllFiles,
    };
    let mut files = Vec::new();
    let mut diags = Vec::new();
    for p in paths {
        let rel = p.to_string_lossy().replace('\\', "/");
        match fs::read_to_string(p) {
            Ok(src) => files.push(load_source(rel, src)),
            Err(e) => diags.push(Diagnostic {
                file: rel,
                line: 0,
                rule: Rule::BadSuppression,
                message: format!("cannot read file: {e}"),
            }),
        }
    }
    diags.extend(analyze_loaded(&files, &cfg));
    diags.sort();
    diags
}

/// Minimal JSON string escape.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a machine-readable JSON array (the `fix-list`
/// output format).
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&d.file),
            d.line,
            d.rule.id(),
            json_escape(&d.message),
            if i + 1 < diags.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

/// Unit ("crates/<name>" or "root") a workspace-relative path belongs to.
fn unit_of(rel: &str) -> String {
    match rel.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", name, ..] => format!("crates/{name}"),
        _ => "root".to_owned(),
    }
}

/// Per-crate safety inventory (the `inventory` subcommand): proves which
/// units carry `#![forbid(unsafe_code)]` and counts audit surface.
#[derive(Debug, Default)]
pub struct UnitInventory {
    /// Unit name (`crates/<name>` or `root`).
    pub unit: String,
    /// Number of `.rs` files.
    pub files: usize,
    /// Total source lines.
    pub lines: usize,
    /// Occurrences of the `unsafe` keyword outside strings/comments.
    pub unsafe_tokens: usize,
    /// Whether any file declares `#![forbid(unsafe_code)]`.
    pub forbids_unsafe: bool,
    /// `#[jade_hot]` marked functions.
    pub hot_fns: usize,
    /// Functions hot-*reachable* through the workspace call graph
    /// (always ≥ the textually marked count for units with roots).
    pub hot_reachable: usize,
    /// `jade-audit: allow(...)` suppression comments.
    pub suppressions: usize,
}

/// A `#[jade_hot]` root as reported by [`hot_report`]. Roots are keyed
/// (and sorted) by file and name; the line is for the text inventory
/// only, so code moving above a root never changes the JSON snapshot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HotRoot {
    /// Workspace-relative file.
    pub file: String,
    /// Qualified name (`Type::name` or `name`).
    pub name: String,
    /// Line of the `fn` signature.
    pub line: u32,
}

/// The interprocedural hot-path report (the `inventory` extension).
#[derive(Debug, Default)]
pub struct HotReport {
    /// Textually marked roots, sorted by (file, name).
    pub roots: Vec<HotRoot>,
    /// Unit → number of hot-reachable functions, sorted by unit.
    pub reachable_by_unit: Vec<(String, usize)>,
    /// Total hot-reachable functions workspace-wide (roots included).
    pub total_reachable: usize,
}

/// Computes the hot roots and per-unit hot-reachable counts over already
/// loaded workspace files.
pub fn hot_report(files: &[SourceFile]) -> HotReport {
    let views = file_views(files);
    let cg = CallGraph::build(&views);
    let hot = cg.hot_reachability(&views);
    let mut report = HotReport::default();
    let mut by_unit: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for &id in hot.hot.keys() {
        let sym = &cg.fns[id];
        let f = &files[sym.file];
        let it = &f.items[sym.item];
        *by_unit.entry(unit_of(&f.rel)).or_insert(0) += 1;
        report.total_reachable += 1;
        if it.hot_marked {
            report.roots.push(HotRoot {
                file: f.rel.clone(),
                name: it.qualified_name(),
                line: it.sig_line,
            });
        }
    }
    report.roots.sort();
    report.reachable_by_unit = by_unit.into_iter().collect();
    report
}

/// Renders the hot report as deterministic JSON (consumed by the CI
/// hot-root snapshot diff; `crates/audit/hot_roots.json` pins `roots`).
pub fn hot_report_json(report: &HotReport) -> String {
    let mut out = String::from("{\n  \"roots\": [\n");
    for (i, r) in report.roots.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"name\": \"{}\"}}{}\n",
            json_escape(&r.file),
            json_escape(&r.name),
            if i + 1 < report.roots.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"hot_reachable\": {\n");
    for (i, (unit, n)) in report.reachable_by_unit.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            json_escape(unit),
            n,
            if i + 1 < report.reachable_by_unit.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str(&format!(
        "  }},\n  \"total_hot_reachable\": {}\n}}",
        report.total_reachable
    ));
    out
}

/// Builds the unsafe/hot/suppression inventory for the workspace.
pub fn inventory(root: &Path) -> Vec<UnitInventory> {
    let files = load_workspace(root);
    inventory_of(&files)
}

/// Inventory over already loaded files (so `inventory` and [`hot_report`]
/// can share one parse).
pub fn inventory_of(files: &[SourceFile]) -> Vec<UnitInventory> {
    use lexer::Tok;
    let mut units: std::collections::BTreeMap<String, UnitInventory> =
        std::collections::BTreeMap::new();
    for f in files {
        let inv = units
            .entry(unit_of(&f.rel))
            .or_insert_with(|| UnitInventory {
                unit: unit_of(&f.rel),
                ..UnitInventory::default()
            });
        inv.files += 1;
        inv.lines += f.src.lines().count();
        let toks = &f.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            match &t.tok {
                Tok::Ident(s) if s == "unsafe" => inv.unsafe_tokens += 1,
                Tok::Ident(s) if s == "forbid" => {
                    // `#![forbid(unsafe_code)]`
                    let next = |k: usize| toks.get(i + k).map(|t| &t.tok);
                    if next(1) == Some(&Tok::Punct('('))
                        && next(2) == Some(&Tok::Ident("unsafe_code".into()))
                    {
                        inv.forbids_unsafe = true;
                    }
                }
                // Count attribute uses (`#[jade_hot]` / `#[jade_hot::jade_hot]`,
                // where the ident is followed by `]`), not imports.
                Tok::Ident(s)
                    if s == "jade_hot"
                        && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(']')) =>
                {
                    inv.hot_fns += 1
                }
                _ => {}
            }
        }
        for c in &f.lexed.comments {
            let t = c
                .text
                .trim_start_matches(|c: char| c == '!' || c == '/' || c.is_whitespace());
            if t.strip_prefix("jade-audit:")
                .is_some_and(|rest| rest.trim().starts_with("allow"))
            {
                inv.suppressions += 1;
            }
        }
    }
    let report = hot_report(files);
    for (unit, n) in &report.reachable_by_unit {
        if let Some(inv) = units.get_mut(unit) {
            inv.hot_reachable = *n;
        }
    }
    units.into_values().collect()
}

/// Finds the workspace root: walks up from `start` looking for a
/// `Cargo.toml` containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn diagnostics_json_shape() {
        let diags = vec![Diagnostic {
            file: "x.rs".into(),
            line: 3,
            rule: Rule::NondetTime,
            message: "msg".into(),
        }];
        let j = diagnostics_json(&diags);
        assert!(j.contains("\"rule\": \"nondet-time\""));
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn hot_report_json_shape() {
        let files = vec![load_source(
            "crates/x/src/lib.rs".into(),
            "#[jade_hot]\nfn root() { helper(); }\nfn helper() {}\n".into(),
        )];
        let rep = hot_report(&files);
        assert_eq!(rep.roots.len(), 1);
        assert_eq!(rep.roots[0].name, "root");
        assert_eq!(rep.total_reachable, 2);
        let j = hot_report_json(&rep);
        assert!(j.contains("\"total_hot_reachable\": 2"));
        assert!(j.contains("\"crates/x\": 2"));
    }
}
