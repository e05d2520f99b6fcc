//! R4 — protocol-constant drift detection.
//!
//! `docs/PROTOCOL.md` pins the on-disk/on-wire formats byte-for-byte:
//! magics (`PIRW`/`PIRL`/`PIRS`/`PIRC`), format versions, frame
//! opcodes, `MechanismSpec` tags, `EngineError` wire kinds, and
//! mechanism state-blob tags. The same constants live in
//! `crates/engine/src/{wire,wal,snapshot}.rs` and
//! `crates/core/src/codec.rs`.
//! Nothing previously cross-checked the two: a new opcode added in
//! source but not in the doc (or a doc table edited without touching
//! source) would drift silently — until an operator debugging a hex
//! dump trusts the wrong table. This rule extracts both sides and fails
//! on drift in **either** direction.
//!
//! Extracted from source (by token patterns, so comments and strings
//! never confuse it):
//!
//! - `pub const <NAME>MAGIC: [u8; 4] = *b"…";`
//! - `pub const <NAME>VERSION: u8 = <int>;` — paired with its magic by
//!   shared prefix (`WAL_MAGIC` ↔ `WAL_VERSION`, bare `MAGIC` ↔
//!   `VERSION`);
//! - `pub const <OPCODE>: u8 = 0x…;` inside `mod opcode { … }`;
//! - `<int> => EngineError::<Variant>` arms in `dec_engine_error` and
//!   `EngineError::<Variant> … => (<int>, …)` arms in
//!   `enc_engine_error` (the two must agree with each other too);
//! - `<int> => MechanismSpec::<Variant>` arms in `dec_spec`;
//! - `pub const TAG_<NAME>: u8 = <int>;` — mechanism state-blob tags.
//!
//! Extracted from the document: magic lines carrying a backticked hex
//! quad plus a quoted name (table cell or prose), `version` rows/prose
//! with a backticked hex byte, and the opcode / error-kind / spec-tag /
//! state-tag tables (recognized by their header rows). A state-tag row
//! whose `written` cell is `yes` or starts with `read only` (a tag the
//! previous build wrote, still converted on load) must have a source
//! constant; any other row is a retired tag and must have none.

use super::Finding;
use crate::lexer::{lex, Token, TokenKind};

/// Constants extracted from the engine source files.
#[derive(Debug, Default, PartialEq)]
pub struct SourceConstants {
    /// Magic-name prefix (`""`, `"WAL_"`, …) → (ascii magic, file, line).
    pub magics: Vec<(String, String, String, u32)>,
    /// Version-name prefix → (value, file, line).
    pub versions: Vec<(String, u64, String, u32)>,
    /// Opcode const name → value.
    pub opcodes: Vec<(String, u64)>,
    /// Wire kind → `EngineError` variant, from the decoder.
    pub err_kinds_dec: Vec<(u64, String)>,
    /// Wire kind → `EngineError` variant, from the encoder.
    pub err_kinds_enc: Vec<(u64, String)>,
    /// Spec tag → `MechanismSpec` variant, from the decoder.
    pub spec_tags: Vec<(u64, String)>,
    /// Mechanism state tag const name → (value, file, line).
    pub state_tags: Vec<(String, u64, String, u32)>,
}

/// Extract every protocol constant from `(rel_path, source)` pairs.
pub fn extract_source(files: &[(&str, &str)]) -> SourceConstants {
    let mut out = SourceConstants::default();
    for (path, src) in files {
        let tokens = lex(src);
        extract_consts(path, &tokens, &mut out);
        if let Some(range) = mod_body(&tokens, "opcode") {
            extract_opcodes(&tokens[range], &mut out);
        }
        if let Some(range) = fn_body_range(&tokens, "dec_engine_error") {
            extract_decode_arms(&tokens[range], "EngineError", &mut out.err_kinds_dec);
        }
        if let Some(range) = fn_body_range(&tokens, "enc_engine_error") {
            extract_encode_arms(&tokens[range], "EngineError", &mut out.err_kinds_enc);
        }
        if let Some(range) = fn_body_range(&tokens, "dec_spec") {
            extract_decode_arms(&tokens[range], "MechanismSpec", &mut out.spec_tags);
        }
    }
    out
}

fn extract_consts(path: &str, tokens: &[Token<'_>], out: &mut SourceConstants) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("const") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        // Find the `=` ending the type annotation (consts have no
        // generics, so the first top-level `=` is the initializer).
        let Some(eq) = tokens[i..].iter().position(|x| x.is_punct('=')).map(|p| p + i) else {
            continue;
        };
        if let Some(prefix) = name.text.strip_suffix("MAGIC") {
            // `= *b"PIRW"` or `= b"PIRW"`.
            let lit =
                tokens.get(eq + 1..eq + 3).into_iter().flatten().find(|x| x.kind == TokenKind::Str);
            if let Some(ascii) = lit.and_then(|l| l.str_content()) {
                out.magics.push((
                    prefix.to_string(),
                    ascii.to_string(),
                    path.to_string(),
                    name.line,
                ));
            }
        } else if let Some(prefix) = name.text.strip_suffix("VERSION") {
            if let Some(v) = tokens.get(eq + 1).and_then(|x| x.int_value()) {
                out.versions.push((prefix.to_string(), v, path.to_string(), name.line));
            }
        } else if name.text.starts_with("TAG_") {
            if let Some(v) = tokens.get(eq + 1).and_then(|x| x.int_value()) {
                out.state_tags.push((name.text.to_string(), v, path.to_string(), name.line));
            }
        }
    }
}

/// Token range of `mod <name> { … }` (exclusive of braces).
fn mod_body(tokens: &[Token<'_>], name: &str) -> Option<std::ops::Range<usize>> {
    let start = tokens.windows(2).position(|w| w[0].is_ident("mod") && w[1].is_ident(name))?;
    brace_body(tokens, start + 2)
}

/// Token range of `fn <name> … { … }` (exclusive of braces).
fn fn_body_range(tokens: &[Token<'_>], name: &str) -> Option<std::ops::Range<usize>> {
    let start = tokens.windows(2).position(|w| w[0].is_ident("fn") && w[1].is_ident(name))?;
    brace_body(tokens, start + 2)
}

/// The balanced `{…}` starting at the first `{` at or after `from`.
fn brace_body(tokens: &[Token<'_>], from: usize) -> Option<std::ops::Range<usize>> {
    let open = tokens[from..].iter().position(|t| t.is_punct('{'))? + from;
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(open + 1..j);
            }
        }
    }
    None
}

fn extract_opcodes(body: &[Token<'_>], out: &mut SourceConstants) {
    for (i, t) in body.iter().enumerate() {
        if t.is_ident("const") {
            if let (Some(name), Some(eq)) = (
                body.get(i + 1).filter(|n| n.kind == TokenKind::Ident),
                body[i..].iter().position(|x| x.is_punct('=')).map(|p| p + i),
            ) {
                if let Some(v) = body.get(eq + 1).and_then(|x| x.int_value()) {
                    out.opcodes.push((name.text.to_string(), v));
                }
            }
        }
    }
}

/// `<int> => <enum>::<Variant>` arms.
fn extract_decode_arms(body: &[Token<'_>], enum_name: &str, out: &mut Vec<(u64, String)>) {
    for i in 0..body.len() {
        if body[i].kind == TokenKind::Int
            && body.get(i + 1).is_some_and(|t| t.is_punct('='))
            && body.get(i + 2).is_some_and(|t| t.is_punct('>'))
            && body.get(i + 3).is_some_and(|t| t.is_ident(enum_name))
            && body.get(i + 4).is_some_and(|t| t.is_punct(':'))
            && body.get(i + 5).is_some_and(|t| t.is_punct(':'))
        {
            if let (Some(v), Some(name)) = (body[i].int_value(), body.get(i + 6)) {
                out.push((v, name.text.to_string()));
            }
        }
    }
}

/// `<enum>::<Variant> … => [{] (<int>, …` arms.
fn extract_encode_arms(body: &[Token<'_>], enum_name: &str, out: &mut Vec<(u64, String)>) {
    let mut current_variant: Option<String> = None;
    for i in 0..body.len() {
        if body[i].is_ident(enum_name)
            && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            current_variant = body.get(i + 3).map(|t| t.text.to_string());
        }
        if body[i].is_punct('=') && body.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            // Skip an optional `{` for block-bodied arms.
            let mut j = i + 2;
            if body.get(j).is_some_and(|t| t.is_punct('{')) {
                j += 1;
            }
            if body.get(j).is_some_and(|t| t.is_punct('(')) {
                if let Some(v) = body.get(j + 1).and_then(|t| t.int_value()) {
                    if let Some(variant) = current_variant.take() {
                        out.push((v, variant));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Document side
// ---------------------------------------------------------------------------

/// Constants extracted from `docs/PROTOCOL.md`.
#[derive(Debug, Default, PartialEq)]
pub struct DocConstants {
    /// Magic ascii name → (hex bytes, line).
    pub magics: Vec<(String, Vec<u8>, u32)>,
    /// Magic ascii name → (version, line).
    pub versions: Vec<(String, u64, u32)>,
    /// Opcode doc name → (value, line).
    pub opcodes: Vec<(String, u64, u32)>,
    /// Error kind → (doc phrase, line).
    pub err_kinds: Vec<(u64, String, u32)>,
    /// Spec tag → (variant name, line).
    pub spec_tags: Vec<(u64, String, u32)>,
    /// Mechanism state tag → (written or read by this build, line).
    pub state_tags: Vec<(u64, bool, u32)>,
}

/// Which table the parser is currently inside.
#[derive(PartialEq)]
enum TableMode {
    None,
    Opcodes,
    ErrKinds,
    SpecTags,
    StateTags,
}

/// Parse the protocol document.
pub fn extract_doc(doc: &str) -> DocConstants {
    let mut out = DocConstants::default();
    let mut mode = TableMode::None;
    let mut current_magic: Option<String> = None;
    for (idx, line) in doc.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let spans = backtick_spans(line);
        // Magic: a quoted 4-letter name plus a 4-byte hex group in
        // backticks, in a table cell or in prose.
        let name = spans.iter().find_map(|s| quoted_name(s));
        let hex = spans.iter().find_map(|s| hex_bytes(s));
        if let (Some(name), Some(hex)) = (&name, hex) {
            out.magics.push((name.clone(), hex, lineno));
            current_magic = Some(name.clone());
            // Prose form carries the version on the same line.
            if let Some(v) = version_on_line(line, &spans) {
                out.versions.push((name.clone(), v, lineno));
            }
            continue;
        }
        if !line.trim_start().starts_with('|') {
            if mode != TableMode::None {
                mode = TableMode::None;
            }
            continue;
        }
        let cells: Vec<String> =
            line.trim().trim_matches('|').split('|').map(|c| c.trim().to_string()).collect();
        let lower: Vec<String> = cells.iter().map(|c| c.to_lowercase()).collect();
        // Header rows switch table mode.
        if lower.iter().any(|c| c == "opcode")
            && lower.iter().any(|c| c == "command" || c == "reply")
        {
            mode = TableMode::Opcodes;
            continue;
        }
        if lower.first().is_some_and(|c| c == "kind") && lower.get(1).is_some_and(|c| c == "error")
        {
            mode = TableMode::ErrKinds;
            continue;
        }
        if lower.first().is_some_and(|c| c == "tag") && lower.get(1).is_some_and(|c| c == "variant")
        {
            mode = TableMode::SpecTags;
            continue;
        }
        if lower.first().is_some_and(|c| c == "tag") && lower.get(2).is_some_and(|c| c == "written")
        {
            mode = TableMode::StateTags;
            continue;
        }
        if cells.iter().all(|c| c.chars().all(|ch| ch == '-' || ch == ' ')) {
            continue; // separator row
        }
        // Version table row: `| 4 | 1 | version | `01` |`.
        if lower.iter().any(|c| c == "version") {
            if let (Some(magic), Some(v)) =
                (&current_magic, cells.iter().find_map(|c| bare_hex_byte(c)))
            {
                out.versions.push((magic.clone(), v, lineno));
            }
            continue;
        }
        match mode {
            TableMode::Opcodes => {
                if let (Some(v), Some(name)) = (
                    cells.first().and_then(|c| bare_hex_byte(c)),
                    cells.get(1).map(|c| c.trim_matches('`').to_string()),
                ) {
                    if !name.is_empty() {
                        out.opcodes.push((name, v, lineno));
                    }
                }
            }
            TableMode::ErrKinds => {
                if let (Some(v), Some(name)) = (
                    cells.first().and_then(|c| c.parse::<u64>().ok()),
                    cells.get(1).map(|c| c.to_string()),
                ) {
                    out.err_kinds.push((v, name, lineno));
                }
            }
            TableMode::SpecTags => {
                if let (Some(v), Some(name)) = (
                    cells.first().and_then(|c| c.parse::<u64>().ok()),
                    cells.get(1).map(|c| c.trim_matches('`').to_string()),
                ) {
                    out.spec_tags.push((v, name, lineno));
                }
            }
            TableMode::StateTags => {
                if let (Some(v), Some(written)) =
                    (cells.first().and_then(|c| bare_hex_byte(c)), lower.get(2))
                {
                    let live = written == "yes" || written.starts_with("read only");
                    out.state_tags.push((v, live, lineno));
                }
            }
            TableMode::None => {}
        }
    }
    out
}

/// All `` `…` `` spans in a line.
fn backtick_spans(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push(&after[..close]);
        rest = &after[close + 1..];
    }
    out
}

/// `"PIRW"` → `PIRW` for a span that is exactly a quoted 4-letter
/// uppercase name.
fn quoted_name(span: &str) -> Option<String> {
    let inner = span.strip_prefix('"')?.strip_suffix('"')?;
    (inner.len() == 4 && inner.chars().all(|c| c.is_ascii_uppercase())).then(|| inner.to_string())
}

/// `50 49 52 57` → bytes, for a span of exactly four hex pairs.
fn hex_bytes(span: &str) -> Option<Vec<u8>> {
    let parts: Vec<&str> = span.split_whitespace().collect();
    if parts.len() != 4 {
        return None;
    }
    parts
        .iter()
        .map(|p| (p.len() == 2).then_some(()).and_then(|()| u8::from_str_radix(p, 16).ok()))
        .collect()
}

/// A span that is exactly one hex byte (`01`) or a `0x…` literal.
fn bare_hex_byte(cell: &str) -> Option<u64> {
    let s = cell.trim_matches('`');
    if let Some(h) = s.strip_prefix("0x") {
        return u64::from_str_radix(h, 16).ok();
    }
    (s.len() == 2 && s.chars().all(|c| c.is_ascii_hexdigit()))
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// `… version `01` …` prose.
fn version_on_line(line: &str, spans: &[&str]) -> Option<u64> {
    line.contains("version").then(|| spans.iter().find_map(|s| bare_hex_byte(s))).flatten()
}

// ---------------------------------------------------------------------------
// Cross-check
// ---------------------------------------------------------------------------

/// How `EngineError` variants are phrased in the document's error-kind
/// table. A doc rewording is treated as drift on purpose: the table is
/// an operator-facing contract, and silent rewording deserves review.
const ERR_PHRASES: [(&str, &str); 9] = [
    ("UnknownSession", "unknown session"),
    ("DuplicateSession", "duplicate session"),
    ("InvalidConfig", "invalid config"),
    ("Mechanism", "mechanism error"),
    ("Budget", "budget error"),
    ("Backpressure", "backpressure (transient)"),
    ("Closed", "engine closed"),
    ("CommandTooLarge", "command too large (permanent)"),
    ("Wal", "write-ahead log failure"),
];

const DOC_FILE: &str = "docs/PROTOCOL.md";

/// Diff source constants against the document.
pub fn compare(src: &SourceConstants, doc: &DocConstants) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |file: &str, line: u32, token: &str, message: String| {
        out.push(Finding {
            rule: "R4",
            token: token.to_string(),
            file: file.to_string(),
            line,
            message,
            excerpt: String::new(),
        });
    };

    // Magics: names must match both ways, hex must equal ascii.
    for (prefix, ascii, file, line) in &src.magics {
        match doc.magics.iter().find(|(n, _, _)| n == ascii) {
            None => push(
                file,
                *line,
                "magic",
                format!("magic `{ascii}` ({prefix}MAGIC) is not documented in {DOC_FILE}"),
            ),
            Some((_, hex, doc_line)) => {
                if hex != ascii.as_bytes() {
                    push(
                        DOC_FILE,
                        *doc_line,
                        "magic",
                        format!("documented hex for `{ascii}` does not spell {ascii:?}"),
                    );
                }
            }
        }
    }
    for (name, _, line) in &doc.magics {
        if !src.magics.iter().any(|(_, ascii, _, _)| ascii == name) {
            push(
                DOC_FILE,
                *line,
                "magic",
                format!("documented magic `{name}` has no source constant"),
            );
        }
    }

    // Versions, paired via the magic that shares the const prefix.
    for (prefix, value, file, line) in &src.versions {
        let Some((_, ascii, _, _)) = src.magics.iter().find(|(p, _, _, _)| p == prefix) else {
            push(
                file,
                *line,
                "version",
                format!("version const `{prefix}VERSION` has no matching `{prefix}MAGIC`"),
            );
            continue;
        };
        match doc.versions.iter().find(|(n, _, _)| n == ascii) {
            None => push(
                file,
                *line,
                "version",
                format!("format `{ascii}` version is not documented in {DOC_FILE}"),
            ),
            Some((_, doc_v, doc_line)) if doc_v != value => push(
                DOC_FILE,
                *doc_line,
                "version",
                format!("`{ascii}` version drift: source says {value}, doc says {doc_v}"),
            ),
            Some(_) => {}
        }
    }

    // Opcodes: doc names are the source names with any `R_` prefix
    // stripped.
    for (name, value) in &src.opcodes {
        let doc_name = name.strip_prefix("R_").unwrap_or(name);
        match doc.opcodes.iter().find(|(n, _, _)| n == doc_name) {
            None => push(
                "crates/engine/src/wire.rs",
                0,
                "opcode",
                format!("opcode `{name}` (0x{value:02X}) is not documented in {DOC_FILE}"),
            ),
            Some((_, doc_v, doc_line)) if doc_v != value => push(
                DOC_FILE,
                *doc_line,
                "opcode",
                format!("opcode `{doc_name}` drift: source 0x{value:02X}, doc 0x{doc_v:02X}"),
            ),
            Some(_) => {}
        }
    }
    for (name, value, line) in &doc.opcodes {
        if !src.opcodes.iter().any(|(n, _)| n.strip_prefix("R_").unwrap_or(n) == name) {
            push(
                DOC_FILE,
                *line,
                "opcode",
                format!("documented opcode `{name}` (0x{value:02X}) has no source constant"),
            );
        }
    }

    // Error kinds: encoder and decoder must agree with each other, and
    // the decoder's set with the document's.
    let mut enc_sorted: Vec<_> = src.err_kinds_enc.clone();
    let mut dec_sorted: Vec<_> = src.err_kinds_dec.clone();
    enc_sorted.sort();
    dec_sorted.sort();
    if enc_sorted != dec_sorted && !enc_sorted.is_empty() && !dec_sorted.is_empty() {
        push(
            "crates/engine/src/wire.rs",
            0,
            "errkind",
            format!(
                "enc_engine_error and dec_engine_error disagree: enc {enc_sorted:?} vs dec {dec_sorted:?}"
            ),
        );
    }
    for (kind, variant) in &src.err_kinds_dec {
        let phrase = ERR_PHRASES.iter().find(|(v, _)| v == variant).map(|(_, p)| *p);
        match doc.err_kinds.iter().find(|(k, _, _)| k == kind) {
            None => push(
                "crates/engine/src/wire.rs",
                0,
                "errkind",
                format!("error kind {kind} ({variant}) is not documented in {DOC_FILE}"),
            ),
            Some((_, doc_phrase, doc_line)) => {
                if let Some(p) = phrase {
                    if doc_phrase != p {
                        push(
                            DOC_FILE,
                            *doc_line,
                            "errkind",
                            format!(
                                "error kind {kind} phrase drift: expected \"{p}\" for {variant}, doc says \"{doc_phrase}\""
                            ),
                        );
                    }
                } else {
                    push(
                        "crates/engine/src/wire.rs",
                        0,
                        "errkind",
                        format!(
                            "EngineError::{variant} (kind {kind}) has no documented phrase mapping — extend ERR_PHRASES in the linter and the doc table together"
                        ),
                    );
                }
            }
        }
    }
    for (kind, _, line) in &doc.err_kinds {
        if !src.err_kinds_dec.iter().any(|(k, _)| k == kind) && !src.err_kinds_dec.is_empty() {
            push(
                DOC_FILE,
                *line,
                "errkind",
                format!("documented error kind {kind} is not decoded by source"),
            );
        }
    }

    // Spec tags: names must match the enum variants exactly.
    for (tag, variant) in &src.spec_tags {
        match doc.spec_tags.iter().find(|(t, _, _)| t == tag) {
            None => push(
                "crates/engine/src/wire.rs",
                0,
                "spectag",
                format!("spec tag {tag} ({variant}) is not documented in {DOC_FILE}"),
            ),
            Some((_, doc_name, doc_line)) if doc_name != variant => push(
                DOC_FILE,
                *doc_line,
                "spectag",
                format!("spec tag {tag} drift: source variant `{variant}`, doc `{doc_name}`"),
            ),
            Some(_) => {}
        }
    }
    for (tag, _, line) in &doc.spec_tags {
        if !src.spec_tags.iter().any(|(t, _)| t == tag) && !src.spec_tags.is_empty() {
            push(
                DOC_FILE,
                *line,
                "spectag",
                format!("documented spec tag {tag} is not decoded by source"),
            );
        }
    }

    // State tags: the consts are exactly the rows marked as written or
    // read only; a retired row keeps its value from being reused.
    for (name, value, file, line) in &src.state_tags {
        match doc.state_tags.iter().find(|(t, _, _)| t == value) {
            None => push(
                file,
                *line,
                "statetag",
                format!("state tag `{name}` (0x{value:02X}) has no row in {DOC_FILE}"),
            ),
            Some((_, false, doc_line)) => push(
                DOC_FILE,
                *doc_line,
                "statetag",
                format!("state tag 0x{value:02X} is marked retired but `{name}` defines it"),
            ),
            Some(_) => {}
        }
    }
    for (value, written, line) in &doc.state_tags {
        if *written && !src.state_tags.iter().any(|(_, v, _, _)| v == value) {
            push(
                DOC_FILE,
                *line,
                "statetag",
                format!(
                    "documented state tag 0x{value:02X} is written or read but has no source constant"
                ),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
pub const MAGIC: [u8; 4] = *b"PIRW";
pub const VERSION: u8 = 1;
pub mod opcode {
    pub const OPEN: u8 = 0x01;
    pub const R_OPENED: u8 = 0x81;
}
fn enc_engine_error(e: &mut Enc<'_>, err: &EngineError) {
    let (kind, a): (u8, u64) = match err {
        EngineError::UnknownSession { id } => (1, *id),
        EngineError::Closed => (7, 0),
    };
}
fn dec_engine_error(d: &mut Dec) -> Result<EngineError, WireError> {
    Ok(match kind {
        1 => EngineError::UnknownSession { id: a },
        7 => EngineError::Closed,
        t => return Err(WireError::Malformed(format!("unknown kind {t}"))),
    })
}
fn dec_spec(d: &mut Dec) -> Result<MechanismSpec, WireError> {
    Ok(match tag {
        0 => MechanismSpec::Erm { set },
        3 => MechanismSpec::Trivial { set },
        t => return Err(WireError::Malformed(format!("bad tag {t}"))),
    })
}
pub const TAG_TRIVIAL: u8 = 3;
pub const TAG_REG1_LIVE: u8 = 5;
pub const TAG_REG1_PACKED: u8 = 8;
"#;

    const DOC: &str = r#"
| 0 | 4 | magic | `50 49 52 57` (`"PIRW"`) |
| 4 | 1 | version | `01` |

| opcode | command | payload |
|---|---|---|
| `0x01` | `OPEN` | stuff |

| opcode | reply | payload |
|---|---|---|
| `0x81` | `OPENED` | stuff |

| tag | variant | fields |
|---|---|---|
| 0 | `Erm` | stuff |
| 3 | `Trivial` | stuff |

| kind | error | details |
|---|---|---|
| 1 | unknown session | `a` = session id |
| 7 | engine closed | — |

| tag | mechanism | written | body after the tag |
|---|---|---|---|
| `01` | `PRIVINCREG1` | no — retired, refused | — |
| `03` | `Trivial` | yes | `t` |
| `05` | `PRIVINCREG1` | read only — converted on load | `t`, counted `θ`, two trees |
| `08` | `PRIVINCREG1` | yes | `t`, counted `θ`, two packed trees |
"#;

    #[test]
    fn clean_pair_has_no_findings() {
        let src = extract_source(&[("wire.rs", SRC)]);
        assert_eq!(src.magics.len(), 1);
        assert_eq!(src.opcodes.len(), 2);
        assert_eq!(src.err_kinds_dec.len(), 2);
        assert_eq!(src.err_kinds_enc.len(), 2);
        assert_eq!(src.spec_tags.len(), 2);
        assert_eq!(src.state_tags.len(), 3);
        let doc = extract_doc(DOC);
        assert_eq!(doc.versions, vec![("PIRW".to_string(), 1, 3)]);
        assert_eq!(
            doc.state_tags.iter().map(|&(t, w, _)| (t, w)).collect::<Vec<_>>(),
            [(1, false), (3, true), (5, true), (8, true)]
        );
        let findings = compare(&src, &doc);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn each_drift_direction_is_caught() {
        let src = extract_source(&[("wire.rs", SRC)]);
        // Doc claims version 02 and an extra opcode; drops a spec tag.
        let doc = extract_doc(
            &DOC.replace("| `01` |", "| `02` |").replace("| 3 | `Trivial` | stuff |", "").replace(
                "| `0x81` | `OPENED` | stuff |",
                "| `0x81` | `OPENED` | stuff |\n| `0x83` | `GHOST` | stuff |",
            ),
        );
        let findings = compare(&src, &doc);
        let tokens: Vec<_> = findings.iter().map(|f| f.token.as_str()).collect();
        assert!(tokens.contains(&"version"), "{findings:#?}");
        assert!(tokens.contains(&"opcode"), "{findings:#?}");
        assert!(tokens.contains(&"spectag"), "{findings:#?}");
    }

    #[test]
    fn missing_and_orphan_state_tag_rows_are_caught() {
        let src = extract_source(&[("codec.rs", SRC)]);
        let statetag = |doc: &str| -> Vec<String> {
            let findings = compare(&src, &extract_doc(doc));
            findings.into_iter().filter(|f| f.token == "statetag").map(|f| f.message).collect()
        };
        // A const with no row.
        let missing = statetag(&DOC.replace("| `03` | `Trivial` | yes | `t` |\n", ""));
        assert_eq!(missing.len(), 1, "{missing:#?}");
        assert!(missing[0].contains("TAG_TRIVIAL"), "{missing:#?}");
        // A row marked as written with no const.
        let orphan =
            statetag(&DOC.replace("| `05` |", "| `07` | `PRIVINCREG2` | yes | body |\n| `05` |"));
        assert_eq!(orphan.len(), 1, "{orphan:#?}");
        assert!(orphan[0].contains("0x07"), "{orphan:#?}");
        // A const whose row says the tag is retired.
        let retired = statetag(&DOC.replace("| `08` | `PRIVINCREG1` | yes |", "| `08` | x | no |"));
        assert_eq!(retired.len(), 1, "{retired:#?}");
        // A read-only row is live too: retiring its const is caught.
        let read_only =
            statetag(&DOC.replace("| `05` | `PRIVINCREG1` | read only", "| `05` | x | no"));
        assert_eq!(read_only.len(), 1, "{read_only:#?}");
        assert!(read_only[0].contains("0x05"), "{read_only:#?}");
    }

    #[test]
    fn enc_dec_disagreement_is_caught() {
        let src = extract_source(&[(
            "wire.rs",
            &SRC.replace("EngineError::Closed => (7, 0),", "EngineError::Closed => (8, 0),"),
        )]);
        let doc = extract_doc(DOC);
        let findings = compare(&src, &doc);
        assert!(findings.iter().any(|f| f.token == "errkind"), "{findings:#?}");
    }

    #[test]
    fn prose_magic_with_inline_version_parses() {
        let doc = extract_doc(
            "The framing mirrors the snapshot format — a 12-byte header (magic\n`50 49 52 43`, `\"PIRC\"`; version `01`; 3 reserved zero bytes).",
        );
        assert_eq!(doc.magics.len(), 1);
        assert_eq!(doc.magics[0].0, "PIRC");
        assert_eq!(doc.versions, vec![("PIRC".to_string(), 1, 2)]);
    }
}
