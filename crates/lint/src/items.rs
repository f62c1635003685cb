//! Item-level structure over the token stream: module tree, `use`
//! resolution, `fn`/`impl` spans, and a per-file symbol table.
//!
//! The vendored `syn` stand-in lexes faithfully but stops at tokens; the
//! R1–R4 passes only ever needed pattern scans. The structural passes
//! (R6–R8) need more: *"is this `EventKey { .. }` literal inside
//! `impl EventKey`?"*, *"does `Deliver` here actually name
//! `dde_obs::EventKind::Deliver`?"*, *"is there a `.sort*` on this collection
//! earlier in the same function?"*. This module reconstructs exactly that much
//! structure — item spans and name bindings — without attempting a full
//! expression AST.
//!
//! # Soundness caveats (see DESIGN.md §5f)
//!
//! This is a *lint-grade* parser, deliberately approximate:
//!
//! - Items are recognized by keyword (`use`, `fn`, `impl`, `mod`, `static`)
//!   at any brace depth, so nested fns and impl methods are indexed, but
//!   macro-generated items are invisible (the macro body is just tokens).
//! - `use` resolution handles paths, `as` renames, nested `{..}` groups and
//!   records glob imports; it does not chase cross-file re-exports.
//! - Spans are half-open token-index ranges delimited by balanced braces;
//!   a `fn` signature that never opens a body (trait method declarations)
//!   spans to its `;`.

use syn::{Token, TokenKind};

/// A single `use` binding: the local name a path is visible under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseBinding {
    /// The name the item is bound to in this file (`Lock` for
    /// `use std::sync::Mutex as Lock`).
    pub local: String,
    /// The full `::`-joined path as written (`std::sync::Mutex`).
    pub path: String,
    /// Token index of the local name, for diagnostics.
    pub tok_idx: usize,
}

/// A named item span: half-open token range `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemSpan {
    /// Item name (`fn` name, or the self-type name of an `impl`).
    pub name: String,
    /// For impls, the trait being implemented, if any.
    pub trait_name: Option<String>,
    /// Token index of the introducing keyword.
    pub start: usize,
    /// One past the closing token of the item.
    pub end: usize,
    /// Module path the item lives under (inline `mod` nesting), joined
    /// with `::`; empty at file top level.
    pub module: String,
}

/// The structural index of one source file.
#[derive(Debug, Default)]
pub struct ItemIndex {
    /// Every `use` binding, in source order.
    pub uses: Vec<UseBinding>,
    /// Glob imports (`use foo::bar::*`), as the `::`-joined prefix path.
    pub globs: Vec<String>,
    /// Every `fn` item (free fns, impl methods, nested fns), in source
    /// order. Ranges of nested fns overlap their parents'.
    pub fns: Vec<ItemSpan>,
    /// Every `impl` block, with its self-type name.
    pub impls: Vec<ItemSpan>,
    /// Inline `mod` blocks, named with their full `::` path.
    pub modules: Vec<ItemSpan>,
}

impl ItemIndex {
    /// Builds the index from a full token stream (comments included).
    pub fn build(tokens: &[Token]) -> ItemIndex {
        Indexer::new(tokens).run()
    }

    /// Resolves a local identifier through the file's `use` bindings to
    /// its full path, if it was imported. `Lock` resolves to
    /// `std::sync::Mutex` after `use std::sync::Mutex as Lock;`.
    pub fn resolve(&self, local: &str) -> Option<&str> {
        self.uses
            .iter()
            .find(|u| u.local == local)
            .map(|u| u.path.as_str())
    }

    /// Whether token index `idx` falls inside an `impl` block for
    /// `self_ty` (e.g. inside `impl EventKey { .. }`).
    pub fn in_impl_of(&self, self_ty: &str, idx: usize) -> bool {
        self.impls
            .iter()
            .any(|i| i.name == self_ty && idx >= i.start && idx < i.end)
    }

    /// The innermost `fn` span containing token index `idx`, if any.
    /// "Innermost" = the latest-starting fn whose range covers `idx`, so a
    /// nested fn shadows its parent.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&ItemSpan> {
        self.fns
            .iter()
            .filter(|f| idx >= f.start && idx < f.end)
            .max_by_key(|f| f.start)
    }
}

struct Indexer<'a> {
    tokens: &'a [Token],
    /// Indices of significant (non-comment) tokens.
    sig: Vec<usize>,
}

impl<'a> Indexer<'a> {
    fn new(tokens: &'a [Token]) -> Indexer<'a> {
        let sig = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokenKind::Comment)
            .map(|(i, _)| i)
            .collect();
        Indexer { tokens, sig }
    }

    fn tok(&self, s: usize) -> Option<&Token> {
        self.sig.get(s).map(|&i| &self.tokens[i])
    }

    /// Position (in `sig`) one past the matching close delimiter for the
    /// open delimiter at `s`. Falls back to the end of input (the lexer
    /// already guarantees balance, so this is defensive only).
    fn skip_group(&self, s: usize) -> usize {
        let mut depth = 0i32;
        let mut k = s;
        while let Some(t) = self.tok(k) {
            match t.kind {
                TokenKind::OpenDelim => depth += 1,
                TokenKind::CloseDelim => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        self.sig.len()
    }

    /// One past the end of the item starting at `s`: the first `{..}`
    /// group at relative depth 0 (consumed whole), or the `;` before one.
    fn item_end(&self, mut s: usize) -> usize {
        while let Some(t) = self.tok(s) {
            match t.kind {
                TokenKind::OpenDelim if t.text == "{" => return self.skip_group(s),
                TokenKind::OpenDelim => s = self.skip_group(s),
                TokenKind::Punct if t.text == ";" => return s + 1,
                _ => s += 1,
            }
        }
        self.sig.len()
    }

    /// Collects one `use` declaration starting at the `use` keyword,
    /// expanding nested `{..}` groups and `as` renames into flat bindings.
    fn collect_use(&self, s: usize, out: &mut ItemIndex) -> usize {
        fn walk(ix: &Indexer<'_>, mut s: usize, prefix: &str, out: &mut ItemIndex) -> usize {
            let mut path = prefix.to_string();
            let mut last: Option<(String, usize)> = None;
            while let Some(t) = ix.tok(s) {
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Ident, "as") => {
                        // `path as Alias`
                        if let Some(alias) = ix.tok(s + 1) {
                            if alias.kind == TokenKind::Ident {
                                out.uses.push(UseBinding {
                                    local: alias.text.clone(),
                                    path: path.clone(),
                                    tok_idx: ix.sig[s + 1],
                                });
                                last = None;
                                s += 2;
                                continue;
                            }
                        }
                        s += 1;
                    }
                    (TokenKind::Ident, _) => {
                        if !path.is_empty() {
                            path.push_str("::");
                        }
                        path.push_str(&t.text);
                        last = Some((t.text.clone(), ix.sig[s]));
                        s += 1;
                    }
                    (TokenKind::Punct, ":") => s += 1,
                    (TokenKind::Punct, "*") => {
                        // Glob: record the prefix (drop the trailing `::*`).
                        out.globs.push(path.clone());
                        last = None;
                        s += 1;
                    }
                    (TokenKind::OpenDelim, "{") => {
                        // Group: each comma-separated element extends the
                        // current path independently.
                        let end = ix.skip_group(s);
                        let mut k = s + 1;
                        while k < end - 1 {
                            k = walk(ix, k, &path, out);
                            // walk stops at `,` or the closing brace.
                            if ix.tok(k).is_some_and(|t| t.is_punct(",")) {
                                k += 1;
                            } else {
                                break;
                            }
                        }
                        return end;
                    }
                    (TokenKind::Punct, ",") | (TokenKind::CloseDelim, _) => break,
                    (TokenKind::Punct, ";") => break,
                    _ => s += 1,
                }
            }
            if let Some((local, tok_idx)) = last {
                if local != "self" {
                    out.uses.push(UseBinding {
                        local,
                        path: path.clone(),
                        tok_idx,
                    });
                } else {
                    // `use foo::bar::{self}`: binds `bar` to the prefix
                    // path (which already ends in `bar::self` — strip it).
                    let trimmed = path.trim_end_matches("::self");
                    if let Some(seg) = trimmed.rsplit("::").next() {
                        out.uses.push(UseBinding {
                            local: seg.to_string(),
                            path: trimmed.to_string(),
                            tok_idx,
                        });
                    }
                }
            }
            s
        }
        // Skip `use` itself; tolerate a leading `::`.
        let mut k = s + 1;
        while self.tok(k).is_some_and(|t| t.is_punct(":")) {
            k += 1;
        }
        let stop = walk(self, k, "", out);
        // Advance to one past the terminating `;`.
        let mut e = stop;
        while let Some(t) = self.tok(e) {
            let done = t.is_punct(";");
            e += 1;
            if done {
                break;
            }
        }
        e
    }

    /// The name of an `impl` block's self type: the last path-segment
    /// identifier before the opening `{` (skipping generics and a
    /// `Trait for` prefix), plus the trait name if present.
    fn impl_names(&self, s: usize) -> (Option<String>, Option<String>) {
        let mut names: Vec<String> = Vec::new();
        let mut for_at: Option<usize> = None;
        let mut k = s + 1;
        let mut angle = 0i32;
        while let Some(t) = self.tok(k) {
            match (t.kind, t.text.as_str()) {
                (TokenKind::OpenDelim, "{") => break,
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") => angle = (angle - 1).max(0),
                (TokenKind::Ident, "for") if angle == 0 => for_at = Some(names.len()),
                (TokenKind::Ident, "where") if angle == 0 => break,
                (TokenKind::Ident, _) if angle == 0 => names.push(t.text.clone()),
                _ => {}
            }
            k += 1;
        }
        match for_at {
            // `impl Trait for Type`: trait is the last name before `for`,
            // type the last after.
            Some(split) => {
                let trait_name = names.get(split.wrapping_sub(1)).cloned();
                let type_name = names.last().filter(|_| names.len() > split).cloned();
                (type_name, trait_name)
            }
            None => (names.last().cloned(), None),
        }
    }

    fn run(self) -> ItemIndex {
        let mut out = ItemIndex::default();
        // Stack of (module name, sig-end) for inline mods.
        let mut mods: Vec<(String, usize)> = Vec::new();
        let mut s = 0usize;
        while let Some(t) = self.tok(s) {
            while mods.last().is_some_and(|&(_, end)| s >= end) {
                mods.pop();
            }
            let module = || {
                mods.iter()
                    .map(|(n, _)| n.as_str())
                    .collect::<Vec<_>>()
                    .join("::")
            };
            if t.kind != TokenKind::Ident {
                s += 1;
                continue;
            }
            match t.text.as_str() {
                "use" => {
                    s = self.collect_use(s, &mut out);
                }
                "fn" => {
                    let name = self
                        .tok(s + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    let end = self.item_end(s + 1);
                    out.fns.push(ItemSpan {
                        name,
                        trait_name: None,
                        start: self.sig[s],
                        end: self.sig.get(end - 1).map(|&i| i + 1).unwrap_or(usize::MAX),
                        module: module(),
                    });
                    s += 1; // descend into the body: nested fns get spans too
                }
                "impl" => {
                    let (self_ty, trait_name) = self.impl_names(s);
                    let end = self.item_end(s + 1);
                    out.impls.push(ItemSpan {
                        name: self_ty.unwrap_or_default(),
                        trait_name,
                        start: self.sig[s],
                        end: self.sig.get(end - 1).map(|&i| i + 1).unwrap_or(usize::MAX),
                        module: module(),
                    });
                    s += 1; // descend: methods are indexed as fns
                }
                "mod" => {
                    let name = self
                        .tok(s + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    let end = self.item_end(s + 1);
                    // Only inline mods (`mod x { .. }`) scope names;
                    // `mod x;` is another file.
                    if self
                        .tok(end.saturating_sub(1))
                        .is_some_and(|t| t.kind == TokenKind::CloseDelim)
                    {
                        let full = if mods.is_empty() {
                            name.clone()
                        } else {
                            format!("{}::{}", module(), name)
                        };
                        out.modules.push(ItemSpan {
                            name: full.clone(),
                            trait_name: None,
                            start: self.sig[s],
                            end: self.sig.get(end - 1).map(|&i| i + 1).unwrap_or(usize::MAX),
                            module: module(),
                        });
                        mods.push((name, end));
                        s += 2; // past `mod name`, into the block
                    } else {
                        s = end;
                    }
                }
                _ => s += 1,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> ItemIndex {
        ItemIndex::build(syn::parse_file(src).unwrap().tokens())
    }

    #[test]
    fn use_paths_renames_and_groups() {
        let ix = index(
            "use std::sync::Mutex as Lock;\n\
             use std::collections::{BTreeMap, BTreeSet as Set};\n\
             use std::sync::atomic::*;\n\
             use crate::shard::EventKey;\n",
        );
        assert_eq!(ix.resolve("Lock"), Some("std::sync::Mutex"));
        assert_eq!(ix.resolve("BTreeMap"), Some("std::collections::BTreeMap"));
        assert_eq!(ix.resolve("Set"), Some("std::collections::BTreeSet"));
        assert_eq!(ix.resolve("EventKey"), Some("crate::shard::EventKey"));
        assert_eq!(ix.resolve("Mutex"), None, "renamed import hides the name");
        assert_eq!(ix.globs, vec!["std::sync::atomic"]);
    }

    #[test]
    fn fn_and_impl_spans() {
        let src = "struct K { a: u64 }\n\
                   impl K {\n    fn make() -> K { K { a: 0 } }\n}\n\
                   fn outside() { let k = K { a: 1 }; }\n";
        let ix = index(src);
        assert_eq!(ix.impls.len(), 1);
        assert_eq!(ix.impls[0].name, "K");
        let names: Vec<&str> = ix.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["make", "outside"]);

        // The literal inside `make` is inside `impl K`; the one in
        // `outside` is not.
        let toks = syn::parse_file(src).unwrap();
        let lits: Vec<usize> = toks
            .tokens()
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("K") && toks.tokens().get(i + 1).is_some_and(|n| n.text == "{")
            })
            .map(|(i, _)| i)
            .collect();
        // struct decl, literal in make, literal in outside (the `impl K {`
        // head is followed by `{` too — that one is index 0 of impls).
        assert!(lits.len() >= 3);
        let in_impl: Vec<bool> = lits.iter().map(|&i| ix.in_impl_of("K", i)).collect();
        assert!(in_impl.iter().any(|b| *b));
        assert!(!in_impl.last().unwrap(), "literal in `outside` is free");
    }

    #[test]
    fn trait_impls_record_both_names() {
        let ix = index("impl PartialOrd for EventKey { fn partial_cmp(&self) {} }\n");
        assert_eq!(ix.impls[0].name, "EventKey");
        assert_eq!(ix.impls[0].trait_name.as_deref(), Some("PartialOrd"));
    }

    #[test]
    fn generic_impls_resolve_self_type() {
        let ix = index("impl<P: Protocol> Region<P> { fn step(&mut self) {} }\n");
        assert_eq!(ix.impls[0].name, "Region");
        assert_eq!(ix.fns[0].name, "step");
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() { fn inner() { mark(); } inner(); }\n";
        let ix = index(src);
        let toks = syn::parse_file(src).unwrap();
        let mark = toks
            .tokens()
            .iter()
            .position(|t| t.is_ident("mark"))
            .unwrap();
        assert_eq!(ix.enclosing_fn(mark).unwrap().name, "inner");
    }

    #[test]
    fn inline_mods_scope_items() {
        let ix = index("mod a { mod b { fn deep() {} } }\nmod c;\nfn top() {}\n");
        let deep = ix.fns.iter().find(|f| f.name == "deep").unwrap();
        assert_eq!(deep.module, "a::b");
        let top = ix.fns.iter().find(|f| f.name == "top").unwrap();
        assert_eq!(top.module, "");
        let mods: Vec<&str> = ix.modules.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(mods, vec!["a", "a::b"]);
    }

    #[test]
    fn trait_method_decl_spans_to_semicolon() {
        let ix = index("trait T { fn decl(&self) -> u8; fn with_body(&self) {} }\n");
        let names: Vec<&str> = ix.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["decl", "with_body"]);
    }
}
