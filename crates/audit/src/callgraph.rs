//! Workspace symbol table, call graph and hot-path reachability.
//!
//! `#[jade_hot]` marks the event-loop entry points (engine
//! `step`/`run_until`, `System::handle`, `on_db_dispatch`), but those
//! roots execute through dozens of helpers per delivered event. The hot
//! contract (no panics, no steady-state allocation, no unbounded growth)
//! is a property of everything *reachable* from the roots, not of the
//! four annotated bodies — this module computes that closure.
//!
//! Resolution is name-based and tiered by precision:
//!
//! * `Type::method(...)` resolves to methods of `Type` (with `Self`
//!   substituted from the calling function's impl block);
//! * `path::func(...)` falls back to free functions named `func`;
//! * `self.method(...)` resolves through the calling function's impl
//!   type;
//! * `.method(...)` on any other receiver resolves only when the method
//!   name has a **unique** definition in the workspace — distinctive
//!   helper names link, std-shadowing names (`push`, `get`, `write`, …)
//!   deliberately resolve nowhere, because linking every same-named
//!   method would drown the hot rules in false fan-out;
//! * `func(...)` resolves to free functions named `func`.
//!
//! `#[cold]` functions are propagation barriers: they are by declaration
//! not on the steady-state path (grow fallbacks, error reporting), so
//! hotness neither enters nor flows through them.

use crate::lexer::{Tok, Token};
use crate::parse::{is_keyword, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// A function in the workspace-wide symbol table.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Index of the file (into the caller-supplied file list).
    pub file: usize,
    /// Index into that file's parsed items.
    pub item: usize,
}

/// Why a function is hot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HotCause {
    /// Textually annotated (`#[jade_hot]`).
    Root,
    /// Reachable from a root; the payload is the qualified name of the
    /// immediate caller that propagated hotness (for diagnostics).
    Via(String),
}

/// The computed hot-reachable set over a set of parsed files.
#[derive(Debug, Default)]
pub struct HotSet {
    /// fn id (global, see [`CallGraph::fn_id`]) → cause.
    pub hot: BTreeMap<usize, HotCause>,
}

/// Call graph over all files of one analysis run.
pub struct CallGraph {
    /// Per-file starting offset into the global fn-id space.
    offsets: Vec<usize>,
    /// All functions, globally indexed.
    pub fns: Vec<FnSym>,
    /// Adjacency: caller fn id → callee fn ids.
    edges: Vec<BTreeSet<usize>>,
}

impl CallGraph {
    /// Global id of `item_idx` within `file_idx`.
    pub fn fn_id(&self, file_idx: usize, item_idx: usize) -> usize {
        self.offsets[file_idx] + item_idx
    }

    /// Builds the symbol table and call edges. `files` pairs each file's
    /// token stream with its parsed items.
    pub fn build(files: &[(&[Token], &[FnItem])]) -> CallGraph {
        let mut offsets = Vec::with_capacity(files.len());
        let mut fns = Vec::new();
        for (fi, (_, items)) in files.iter().enumerate() {
            offsets.push(fns.len());
            for ii in 0..items.len() {
                fns.push(FnSym { file: fi, item: ii });
            }
        }
        // Name indexes. `free`: functions outside impl blocks; `method`:
        // functions inside one; `qual`: (self type, name).
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, sym) in fns.iter().enumerate() {
            let it = &files[sym.file].1[sym.item];
            match &it.self_ty {
                Some(ty) => {
                    method.entry(&it.name).or_default().push(id);
                    qual.entry((ty.as_str(), &it.name)).or_default().push(id);
                }
                None => free.entry(&it.name).or_default().push(id),
            }
        }

        let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); fns.len()];
        for (id, sym) in fns.iter().enumerate() {
            let (toks, items) = files[sym.file];
            let it = &items[sym.item];
            let Some((b0, b1)) = it.body else { continue };
            let self_ty = it.self_ty.as_deref();
            let ident = |k: usize| -> Option<&str> {
                toks.get(k).and_then(|t| match &t.tok {
                    Tok::Ident(s) => Some(s.as_str()),
                    _ => None,
                })
            };
            let punct = |k: usize, c: char| matches!(toks.get(k), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);
            for k in (b0 + 1)..b1 {
                let Some(name) = ident(k) else { continue };
                // `name!(...)` macros are excluded for free: the `!`
                // sits between the ident and the paren.
                if is_keyword(name) || !punct(k + 1, '(') {
                    continue;
                }
                let callees: &[usize] = if punct(k.wrapping_sub(1), '.') {
                    // `self.method(` — the caller's own impl type.
                    let on_self =
                        ident(k.wrapping_sub(2)) == Some("self") && !punct(k.wrapping_sub(3), '.');
                    let via_self = if on_self {
                        self_ty.and_then(|ty| qual.get(&(ty, name)))
                    } else {
                        None
                    };
                    match via_self {
                        Some(v) => v.as_slice(),
                        // `.method(` on another receiver — link only an
                        // unambiguous (workspace-unique) method name.
                        None => match method.get(name) {
                            Some(v) if v.len() == 1 => v.as_slice(),
                            _ => &[],
                        },
                    }
                } else if punct(k.wrapping_sub(1), ':') && punct(k.wrapping_sub(2), ':') {
                    // `Qualifier::name(` — use the segment before `::`.
                    let q = ident(k.wrapping_sub(3));
                    let q = match q {
                        Some("Self") => self_ty,
                        other => other,
                    };
                    match q.and_then(|q| qual.get(&(q, name))) {
                        Some(v) => v.as_slice(),
                        // `module::func(` — fall back to free functions.
                        None => free.get(name).map(Vec::as_slice).unwrap_or(&[]),
                    }
                } else {
                    free.get(name).map(Vec::as_slice).unwrap_or(&[])
                };
                for &c in callees {
                    if c != id {
                        edges[id].insert(c);
                    }
                }
            }
        }
        CallGraph {
            offsets,
            fns,
            edges,
        }
    }

    /// BFS from the textually marked roots, skipping `#[cold]` barriers.
    pub fn hot_reachability(&self, files: &[(&[Token], &[FnItem])]) -> HotSet {
        let item = |id: usize| -> &FnItem {
            let sym = &self.fns[id];
            &files[sym.file].1[sym.item]
        };
        let mut hot: BTreeMap<usize, HotCause> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for id in 0..self.fns.len() {
            if item(id).hot_marked {
                hot.insert(id, HotCause::Root);
                queue.push(id);
            }
        }
        while let Some(id) = queue.pop() {
            let via = item(id).qualified_name();
            for &callee in &self.edges[id] {
                if item(callee).cold || hot.contains_key(&callee) {
                    continue;
                }
                hot.insert(callee, HotCause::Via(via.clone()));
                queue.push(callee);
            }
        }
        HotSet { hot }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn hot_names(src: &str) -> Vec<(String, bool)> {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        let files = vec![(lexed.tokens.as_slice(), items.as_slice())];
        let cg = CallGraph::build(&files);
        let hs = cg.hot_reachability(&files);
        let mut names: Vec<(String, bool)> = hs
            .hot
            .iter()
            .map(|(&id, cause)| {
                let sym = &cg.fns[id];
                (
                    files[sym.file].1[sym.item].qualified_name(),
                    *cause == HotCause::Root,
                )
            })
            .collect();
        names.sort();
        names
    }

    #[test]
    fn transitive_free_calls_inherit_hotness() {
        let names = hot_names(
            "#[jade_hot]\n\
             fn root() { helper(1); }\n\
             fn helper(x: u32) -> u32 { leaf(x) }\n\
             fn leaf(x: u32) -> u32 { x }\n\
             fn unrelated() {}\n",
        );
        let flat: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(flat, vec!["helper", "leaf", "root"]);
        assert!(names.iter().find(|(n, _)| n == "root").unwrap().1);
        assert!(!names.iter().find(|(n, _)| n == "leaf").unwrap().1);
    }

    #[test]
    fn method_and_qualified_calls_resolve() {
        let names = hot_names(
            "struct S;\n\
             impl S {\n\
                 #[jade_hot]\n\
                 fn root(&self) { self.step(); S::assoc(); Self::also(); }\n\
                 fn step(&self) {}\n\
                 fn assoc() {}\n\
                 fn also() {}\n\
                 fn never(&self) {}\n\
             }\n",
        );
        let flat: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(flat, vec!["S::also", "S::assoc", "S::root", "S::step"]);
    }

    #[test]
    fn cold_is_a_propagation_barrier() {
        let names = hot_names(
            "#[jade_hot]\n\
             fn root() { grow(); }\n\
             #[cold]\n\
             fn grow() { deep(); }\n\
             fn deep() {}\n",
        );
        let flat: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(flat, vec!["root"]);
    }

    #[test]
    fn recursion_terminates() {
        let names = hot_names(
            "#[jade_hot]\n\
             fn a() { b(); }\n\
             fn b() { a(); b(); }\n",
        );
        assert_eq!(names.len(), 2);
    }
}
