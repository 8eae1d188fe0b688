//! Item-level parsing on top of [`crate::lexer`]: just enough syntax to
//! know *which function* a token belongs to.
//!
//! The original analyzer matched token patterns with no notion of items,
//! so `#[jade_hot]` protection stopped at the annotated function's own
//! braces. Interprocedural rules (hot-path reachability, allocation
//! tracking) need the next level up: every `fn` item with its name, the
//! `impl`/`trait` type it belongs to, its attribute set and the exact
//! token range of its body. This module recovers that structure with a
//! single linear pass plus a brace-matching pre-pass — it is still not a
//! full parser (no expressions, no generics resolution), which keeps it
//! dependency-free and fast enough to run on the whole workspace per
//! invocation.
//!
//! Known approximations, all conservative for the rules built on top:
//!
//! * nested `fn` items are recorded as their own items but their tokens
//!   also remain inside the enclosing body range;
//! * `impl` self types are reduced to the final path segment
//!   (`jade_sim::GenSlab<K>` → `GenSlab`), which is how call sites name
//!   them in practice;
//! * trait default methods are attributed to the trait's name.

use crate::lexer::{Lexed, Tok, Token};

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` self type (final path segment), if any.
    pub self_ty: Option<String>,
    /// Line of the first attribute on the item (== `sig_line` when the
    /// item carries no attributes). Suppressions above this line bind to
    /// the whole item.
    pub attr_line: u32,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Token-index range of the body, `(open_brace, close_brace)`
    /// inclusive. `None` for bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Last line of the item (closing brace, or the signature line for
    /// bodyless declarations).
    pub end_line: u32,
    /// Carries `#[jade_hot]`.
    pub hot_marked: bool,
    /// Carries `#[cold]` — excluded from hot-path propagation.
    pub cold: bool,
}

impl FnItem {
    /// Display name: `Type::name` for methods, `name` for free functions.
    pub fn qualified_name(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that can never be a call-site or item name.
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "self"
            | "Self"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "union"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

/// Computes, for every `{` token, the index of its matching `}`.
/// Unbalanced files (mid-edit sources) degrade gracefully: unmatched
/// opens map to the last token.
fn match_braces(toks: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; toks.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.tok {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                if let Some(open) = stack.pop() {
                    out[open] = Some(i);
                }
            }
            _ => {}
        }
    }
    for open in stack {
        out[open] = Some(toks.len().saturating_sub(1));
    }
    out
}

/// Pending attribute state while scanning toward the item the attributes
/// decorate.
#[derive(Default)]
struct PendingAttrs {
    first_line: Option<u32>,
    hot: bool,
    cold: bool,
}

/// Parses all `fn` items out of a lexed file.
pub fn parse_items(lexed: &Lexed) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let closes = match_braces(toks);
    let ident = |i: usize| -> Option<&str> {
        toks.get(i).and_then(|t| match &t.tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        })
    };
    let punct = |i: usize, c: char| matches!(toks.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c);

    let mut out = Vec::new();
    // (self type, token index of the scope's closing brace)
    let mut scope_stack: Vec<(String, usize)> = Vec::new();
    let mut pending = PendingAttrs::default();
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, close)) = scope_stack.last() {
            if i > close {
                scope_stack.pop();
            } else {
                break;
            }
        }
        match &toks[i].tok {
            // Outer attribute `#[...]` (inner `#![...]` is skipped the
            // same way but never decorates an item).
            Tok::Punct('#') if punct(i + 1, '[') || (punct(i + 1, '!') && punct(i + 2, '[')) => {
                let inner = punct(i + 1, '!');
                let open = if inner { i + 2 } else { i + 1 };
                let mut depth = 0i32;
                let mut j = open;
                let mut hot = false;
                let mut cold = false;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Ident(s) if s == "jade_hot" => hot = true,
                        Tok::Ident(s) if s == "cold" && depth == 1 => cold = true,
                        _ => {}
                    }
                    j += 1;
                }
                if !inner {
                    pending.first_line.get_or_insert(toks[i].line);
                    pending.hot |= hot;
                    pending.cold |= cold;
                }
                i = j + 1;
                continue;
            }
            Tok::Punct(';') | Tok::Punct('}') => {
                pending = PendingAttrs::default();
            }
            Tok::Ident(w) if w == "impl" || w == "trait" => {
                pending = PendingAttrs::default();
                // Collect the self type: idents at angle-depth 0 up to the
                // body `{`; `for` restarts collection (trait impls), and
                // `where` stops it.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut last_ident: Option<String> = None;
                let mut collecting = true;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle = (angle - 1).max(0),
                        Tok::Punct('{') if angle == 0 => break,
                        Tok::Punct(';') => break,
                        Tok::Ident(s) if angle == 0 => {
                            if s == "for" {
                                last_ident = None;
                            } else if s == "where" {
                                collecting = false;
                            } else if collecting && !is_keyword(s) {
                                last_ident = Some(s.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && punct(j, '{') {
                    if let (Some(ty), Some(close)) = (last_ident, closes[j]) {
                        scope_stack.push((ty, close));
                    }
                }
                i = j + 1;
                continue;
            }
            Tok::Ident(w) if w == "fn" => {
                let Some(name) = ident(i + 1) else {
                    // `fn(...)` pointer type, not an item.
                    i += 1;
                    continue;
                };
                let sig_line = toks[i].line;
                let attrs = std::mem::take(&mut pending);
                let attr_line = attrs.first_line.unwrap_or(sig_line).min(sig_line);
                // Find the body `{` (or a `;` ending a bodyless decl) at
                // paren/bracket/angle depth 0. Angle depth tracks `->`
                // return-type generics; `->` itself lexes as `-` `>`, so
                // treat a `>` directly after `-` as punctuation, not a
                // closing angle.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut body = None;
                while j < toks.len() {
                    match &toks[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                        Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                        Tok::Punct(';') if paren == 0 => break,
                        Tok::Punct('{') if paren == 0 => {
                            body = closes[j].map(|c| (j, c));
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end_line = body
                    .and_then(|(_, c)| toks.get(c).map(|t| t.line))
                    .unwrap_or(sig_line);
                out.push(FnItem {
                    name: name.to_owned(),
                    self_ty: scope_stack.last().map(|(t, _)| t.clone()),
                    attr_line,
                    sig_line,
                    body,
                    end_line,
                    hot_marked: attrs.hot,
                    cold: attrs.cold,
                });
                // Continue scanning *inside* the body too: nested items
                // and inner `impl` blocks are rare but legal.
                i += 2;
                continue;
            }
            Tok::Ident(w)
                if matches!(
                    w.as_str(),
                    "struct" | "enum" | "mod" | "union" | "type" | "static" | "use"
                ) =>
            {
                // Non-fn item keywords consume (and discard) pending
                // attributes so a `#[derive(...)]` never leaks onto the
                // next function.
                pending = PendingAttrs::default();
            }
            Tok::Ident(w)
                if w == "const" && !matches!(ident(i + 1), Some("fn" | "unsafe" | "extern")) =>
            {
                // `const NAME: T = ...` item (but `const fn` keeps its
                // attributes for the fn arm).
                pending = PendingAttrs::default();
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_items(&lex(src))
    }

    #[test]
    fn free_and_method_items() {
        let items = parse(
            "fn free(x: u32) -> u32 { x }\n\
             struct S;\n\
             impl S {\n\
                 pub fn method(&self) -> u32 { 1 }\n\
             }\n",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "free");
        assert_eq!(items[0].self_ty, None);
        assert_eq!(items[1].qualified_name(), "S::method");
    }

    #[test]
    fn trait_impls_use_the_self_type() {
        let items = parse(
            "impl<T: Clone> Display for Wrapper<T> where T: Send {\n\
                 fn fmt(&self) -> u32 { 0 }\n\
             }\n",
        );
        assert_eq!(items[0].self_ty.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn attributes_attach_to_the_following_fn() {
        let items = parse(
            "#[jade_hot]\n\
             pub fn hot_one() {}\n\
             #[cold]\n\
             #[inline(never)]\n\
             fn cold_one() {}\n\
             fn plain() {}\n",
        );
        assert!(items[0].hot_marked && !items[0].cold);
        assert!(items[1].cold && !items[1].hot_marked);
        assert_eq!(items[1].attr_line, 3);
        assert!(!items[2].hot_marked && !items[2].cold);
    }

    #[test]
    fn body_ranges_cover_nested_braces() {
        let src = "fn f() { if x { y(); } }\nfn g() {}\n";
        let items = parse(src);
        let (open, close) = items[0].body.expect("f has a body");
        assert!(open < close);
        assert_eq!(items[0].end_line, 1);
        assert_eq!(items[1].sig_line, 2);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = parse("fn takes(cb: fn(u32) -> u32) -> u32 { cb(1) }\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "takes");
    }

    #[test]
    fn bodyless_trait_methods_parse() {
        let items = parse("trait T { fn required(&self) -> u32; fn given(&self) -> u32 { 0 } }\n");
        assert_eq!(items.len(), 2);
        assert!(items[0].body.is_none());
        assert!(items[1].body.is_some());
        assert_eq!(items[0].self_ty.as_deref(), Some("T"));
    }
}
