//! A minimal Rust lexer: just enough surface syntax to hand the lint passes
//! a comment- and string-free token stream with correct line attribution.
//!
//! This is deliberately not a grammar. The passes only pattern-match over
//! identifiers and punctuation, so the lexer's real job is getting the
//! *hard* parts of Rust's lexical layer right: nested block comments, raw
//! strings with `#` fences, byte/char literals, and the `'a` lifetime vs
//! `'a'` char-literal ambiguity. Everything it cannot classify becomes a
//! single-character punctuation token.

/// Token class. String and char literals become payload-free `Str` /
/// `Literal` tokens: no pass reads what is inside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Punct(char),
    /// Numeric or char literal; payload kept for numbers only.
    Literal,
    /// String literal of any flavour (plain, raw, byte); no payload.
    Str,
    Lifetime,
}

/// One token with the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: usize,
}

impl Tok {
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct(ch)
    }

    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// A comment with its starting line; the `//` / `/* */` fences are stripped
/// but inner doc-comment markers (`/`, `!`) are kept.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: usize,
}

/// Token stream plus the comment sidecar the annotation parser reads.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start_line = line;
            let start = i + 2;
            let mut depth = 1usize;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            let end = i.saturating_sub(2).max(start);
            out.comments.push(Comment {
                text: chars[start..end.min(chars.len())].iter().collect(),
                line: start_line,
            });
        } else if c == '"' {
            let start_line = line;
            i = skip_string(&chars, i, &mut line);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
            });
        } else if c == '\'' {
            i = lex_quote(&chars, i, line, &mut out.toks);
        } else if let Some(next) = raw_string_start(&chars, i) {
            let start_line = line;
            i = skip_raw_string(&chars, next, &mut line);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: start_line,
            });
        } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
            i = skip_string(&chars, i + 1, &mut line);
            out.toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            i = skip_number(&chars, i);
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else {
            out.toks.push(Tok {
                kind: TokKind::Punct(c),
                text: String::new(),
                line,
            });
            i += 1;
        }
    }
    out
}

/// Detects `r"`, `r#…#"`, `br"`, `br#…#"` at `i`; returns the index of the
/// first `#`-or-quote character of the raw string when it is one.
fn raw_string_start(chars: &[char], i: usize) -> Option<usize> {
    let body = match chars.get(i)? {
        'r' => i + 1,
        'b' if chars.get(i + 1) == Some(&'r') => i + 2,
        _ => return None,
    };
    let mut j = body;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(body)
}

/// Skips a raw string whose fence starts at `start` (at the hashes or the
/// opening quote); returns the index just past the closing fence.
fn skip_raw_string(chars: &[char], start: usize, line: &mut usize) -> usize {
    let mut i = start;
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < chars.len() {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a normal (escape-aware, possibly multi-line) string starting at the
/// opening quote `i`; returns the index just past the closing quote.
fn skip_string(chars: &[char], i: usize, line: &mut usize) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal) at the
/// quote index `i`; pushes the token and returns the index past it.
fn lex_quote(chars: &[char], i: usize, line: usize, toks: &mut Vec<Tok>) -> usize {
    if chars.get(i + 1) == Some(&'\\') {
        // Escaped char literal: skip the escape head, then run to the quote
        // (covers `'\u{…}'` too).
        let mut j = i + 3;
        while j < chars.len() && chars[j] != '\'' {
            j += 1;
        }
        toks.push(Tok {
            kind: TokKind::Literal,
            text: String::new(),
            line,
        });
        return j + 1;
    }
    if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1).is_some_and(|c| *c != '\'') {
        toks.push(Tok {
            kind: TokKind::Literal,
            text: String::new(),
            line,
        });
        return i + 3;
    }
    // Lifetime: `'` followed by an identifier, no closing quote.
    let start = i + 1;
    let mut j = start;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    toks.push(Tok {
        kind: TokKind::Lifetime,
        text: chars[start..j].iter().collect(),
        line,
    });
    j
}

/// Skips a numeric literal; consumes a decimal point only when a digit
/// follows, so `0..10` lexes as `0` `.` `.` `10`.
fn skip_number(chars: &[char], i: usize) -> usize {
    let mut j = i;
    let mut seen_dot = false;
    while j < chars.len() {
        let c = chars[j];
        if c.is_alphanumeric() || c == '_' {
            j += 1;
        } else if c == '.' && !seen_dot && chars.get(j + 1).is_some_and(|d| d.is_ascii_digit()) {
            seen_dot = true;
            j += 1;
        } else {
            break;
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
            // let fake = m.lock(); /* also fake */
            /* nested /* block */ still comment */
            let real = r#"string with .lock() inside"#;
            let s = "escaped \" quote .lock()";
        "##;
        let names = idents(src);
        assert_eq!(names.iter().filter(|n| *n == "lock").count(), 0);
        assert_eq!(names.iter().filter(|n| *n == "let").count(), 2);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text.is_empty()));
    }

    #[test]
    fn strings_are_str_tokens_without_payload() {
        let lexed = lex("let a = r#\"raw\"#; let b = b\"bytes\"; let c = \"s\"; let n = 42;");
        let kinds: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Str | TokKind::Literal))
            .map(|t| (t.kind, t.text.clone()))
            .collect();
        assert_eq!(
            kinds,
            [
                (TokKind::Str, String::new()),
                (TokKind::Str, String::new()),
                (TokKind::Str, String::new()),
                (TokKind::Literal, "42".to_string()),
            ]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"one\nlong\nstring\";\nlet b = 1;";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn ranges_do_not_swallow_dots() {
        let lexed = lex("for i in 0..10 {}");
        let dots = lexed.toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
