//! R1 — panic-free serving path.
//!
//! The engine's serving files (`ingress`, `shard`, `wire`, `server`,
//! `tcp`, `wal`, `snapshot`, `session`, `storage`) run on shard-worker
//! and connection threads, and read and write every byte through the
//! shared codec (`pir_core::codec`), which is in scope with them. A panic there kills a worker: every session
//! on the shard stalls, queued commands are dropped, and the engine
//! degrades to `EngineError::Closed` for traffic that was perfectly
//! healthy. The contract is that these files report failures
//! through typed errors (`EngineError` / `WireError` / `WalError` /
//! `SnapshotError`) — never through the panic machinery.
//!
//! Flagged in non-test code:
//!
//! - `.unwrap()` / `.expect(…)` method calls;
//! - `panic!`, `unreachable!`, `todo!`, `unimplemented!` macro
//!   invocations;
//! - slice/array indexing (`buf[i]`, `buf[a..b]`) — every `Index` use
//!   can panic; panic-free code reaches for `.get(…)` / `.first_chunk()`
//!   and propagates the miss. Provably in-bounds sites (constant
//!   indices into fixed arrays, offsets re-validated a line above) are
//!   expected to be **baselined with a written reason**, not rewritten
//!   into noise.
//!
//! Doc comments, strings, and `#[cfg(test)]` / `#[test]` items never
//! produce findings (the lexer and the test-stripper see to it).

use super::{line_excerpt, strip_test_code, Finding};
use crate::lexer::{lex, TokenKind};

/// Macros whose expansion is a panic.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Run R1 over one file's source.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let tokens = strip_test_code(&tokens);
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let next_is = |c: char| tokens.get(i + 1).is_some_and(|n| n.is_punct(c));
        match t.kind {
            // Only method calls: `.unwrap()` — a free function named
            // `expect` would be the caller's own (fallible-signature)
            // code and is not this rule's business.
            TokenKind::Ident
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && next_is('(')
                    && i > 0
                    && tokens[i - 1].is_punct('.') =>
            {
                out.push(finding(
                    rel_path,
                    src,
                    t.line,
                    t.text,
                    format!(
                        ".{}() on the serving path can panic — propagate a typed error instead",
                        t.text
                    ),
                ));
            }
            TokenKind::Ident
                if PANIC_MACROS.contains(&t.text)
                    && next_is('!')
                    // `!` must start a macro invocation, not `!=`.
                    && !tokens.get(i + 2).is_some_and(|n| n.is_punct('=')) =>
            {
                out.push(finding(
                    rel_path,
                    src,
                    t.line,
                    t.text,
                    format!("{}! aborts the worker thread — return a typed error instead", t.text),
                ));
            }
            // Indexing: `[` immediately after an expression-ending token
            // is `Index::index`, which panics out of bounds. `[` after
            // `#` (attribute), `=`/`(`/`,`/`&` (array literal or type
            // position) is not indexing.
            TokenKind::Punct if t.is_punct('[') && i > 0 && is_expr_end(&tokens[i - 1]) => {
                out.push(finding(
                    rel_path,
                    src,
                    t.line,
                    "index",
                    "slice indexing can panic — use .get()/.first_chunk() and propagate, or baseline with an in-bounds proof".to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Whether a token can end an expression (making a following `[` an
/// indexing operation rather than an array literal / type).
fn is_expr_end(t: &crate::lexer::Token<'_>) -> bool {
    match t.kind {
        TokenKind::Ident => !matches!(
            t.text,
            // Keywords that *precede* an array literal or pattern.
            "return"
                | "break"
                | "in"
                | "as"
                | "mut"
                | "ref"
                | "box"
                | "move"
                | "else"
                | "match"
                | "let"
        ),
        TokenKind::Str => true,
        TokenKind::Punct => t.is_punct(')') || t.is_punct(']') || t.is_punct('?'),
        _ => false,
    }
}

fn finding(rel_path: &str, src: &str, line: u32, token: &str, message: String) -> Finding {
    Finding {
        rule: "R1",
        token: token.to_string(),
        file: rel_path.to_string(),
        line,
        message,
        excerpt: line_excerpt(src, line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_expect_and_panic_macros() {
        let src = r#"
fn serve(x: Option<u8>) -> u8 {
    let a = x.unwrap();
    let b = x.expect("present");
    if a == 0 { panic!("boom"); }
    match b { 0 => unreachable!(), _ => b }
}
"#;
        let f = check_file("f.rs", src);
        let tokens: Vec<_> = f.iter().map(|f| f.token.as_str()).collect();
        assert_eq!(tokens, ["unwrap", "expect", "panic", "unreachable"]);
    }

    #[test]
    fn flags_indexing_but_not_array_literals_attrs_or_types() {
        let src = r#"
#[derive(Debug)]
struct S { buf: [u8; 4] }
fn f(s: &S, xs: &[u8], i: usize) -> u8 {
    let lit = [0u8; 4];
    let a = xs[i];
    let b = s.buf[0];
    let c = &xs[1..3];
    let d = lit[3];
    a + b + c[0] + d
}
"#;
        let f = check_file("f.rs", src);
        assert_eq!(f.len(), 5, "{f:#?}");
        assert!(f.iter().all(|x| x.token == "index"));
    }

    #[test]
    fn ignores_comments_strings_and_test_code() {
        let src = r#"
//! Call `.unwrap()` as in `buf[0]`.
fn clean(x: Result<u8, ()>) -> Result<u8, ()> {
    // x.unwrap() would panic! here
    let msg = "don't unwrap() or panic! or index buf[0]";
    let _ = msg;
    x
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
"#;
        assert!(check_file("f.rs", src).is_empty());
    }

    #[test]
    fn not_equals_on_macro_names_is_not_a_macro_call() {
        // Contrived, but `panic != x` must not be read as `panic!`.
        let src = "fn f(panic: u8) -> bool { panic != 3 }";
        assert!(check_file("f.rs", src).is_empty());
    }
}
