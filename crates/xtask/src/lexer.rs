//! Line lexer shared by the line rules and the fact parser.
//!
//! Strips comments and string/char literal bodies from source lines so the
//! passes above it can substring-match code without being fooled by text in
//! literals, while preserving the comment text (the SAFETY/ORDERING rules
//! need to read it). A hand-rolled scanner beats regexes here: it has to
//! survive nested block comments, raw strings spanning lines, and
//! lifetimes-vs-char-literals (`'a` vs `'a'`).

/// A source line with comments and string/char literal bodies blanked out,
/// plus what was inside the comments.
pub struct LexedLine {
    /// Code with literals/comments replaced by spaces — safe to
    /// substring-match. Columns line up with the raw line.
    pub code: String,
    /// Concatenated comment text on this line.
    pub comment: String,
}

/// Persistent lexer state across lines of one file.
#[derive(Default)]
pub struct Lexer {
    /// Depth of nested `/* */` block comments.
    block_comment: usize,
    /// Inside a raw string literal: number of `#`s in its delimiter.
    raw_string: Option<usize>,
    /// Inside an ordinary `"…"` string that did not close on its line
    /// (multi-line literals, common in test fixtures).
    string: bool,
}

impl Lexer {
    /// Strips one line.
    pub fn lex(&mut self, line: &str) -> LexedLine {
        let b = line.as_bytes();
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            if self.block_comment > 0 {
                if b[i..].starts_with(b"*/") {
                    self.block_comment -= 1;
                    i += 2;
                } else if b[i..].starts_with(b"/*") {
                    self.block_comment += 1;
                    i += 2;
                } else {
                    comment.push(b[i] as char);
                    i += 1;
                }
                code.push(' ');
                continue;
            }
            if self.string {
                if b[i] == b'\\' {
                    code.push_str("  ");
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    self.string = false;
                }
                code.push(' ');
                i += 1;
                continue;
            }
            if let Some(hashes) = self.raw_string {
                let mut closer = String::from("\"");
                closer.push_str(&"#".repeat(hashes));
                if b[i..].starts_with(closer.as_bytes()) {
                    self.raw_string = None;
                    i += closer.len();
                } else {
                    i += 1;
                }
                code.push(' ');
                continue;
            }
            if b[i..].starts_with(b"//") {
                comment.push_str(&line[i + 2..]);
                // Pad so column numbers stay meaningful.
                code.push_str(&" ".repeat(b.len() - i));
                break;
            }
            if b[i..].starts_with(b"/*") {
                self.block_comment += 1;
                code.push_str("  ");
                i += 2;
                continue;
            }
            // Raw strings: r"..." / r#"..."# / br#"..."#.
            if b[i] == b'r' || (b[i] == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
                let start = if b[i] == b'b' { i + 2 } else { i + 1 };
                let mut j = start;
                while j < b.len() && b[j] == b'#' {
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    self.raw_string = Some(j - start);
                    code.push_str(&" ".repeat(j + 1 - i));
                    i = j + 1;
                    continue;
                }
            }
            if b[i] == b'"' {
                // Ordinary string literal; honours backslash escapes and
                // carries over to the next line when unterminated
                // (multi-line literals).
                code.push(' ');
                i += 1;
                self.string = true;
                while i < b.len() {
                    if b[i] == b'\\' {
                        code.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if b[i] == b'"' {
                        code.push(' ');
                        i += 1;
                        self.string = false;
                        break;
                    }
                    code.push(' ');
                    i += 1;
                }
                continue;
            }
            // Char literal, distinguished from a lifetime by the closing
            // quote one-or-two bytes later.
            if b[i] == b'\'' {
                let escaped = i + 1 < b.len() && b[i + 1] == b'\\';
                let close = if escaped { i + 3 } else { i + 2 };
                if close < b.len() && b[close] == b'\'' {
                    code.push_str(&" ".repeat(close + 1 - i));
                    i = close + 1;
                    continue;
                }
            }
            code.push(b[i] as char);
            i += 1;
        }
        LexedLine { code, comment }
    }

    /// `true` while inside a multi-line block comment, raw string, or
    /// ordinary string literal.
    pub fn mid_literal(&self) -> bool {
        self.block_comment > 0 || self.raw_string.is_some() || self.string
    }
}

/// Finds `token` in `code` at a word boundary.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(code.as_bytes()[at - 1]);
        let end = at + token.len();
        let after_ok = end >= code.len() || !is_ident(code.as_bytes()[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = end;
    }
    None
}

/// `true` for bytes that can appear in a Rust identifier.
pub fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(src: &str) -> Vec<String> {
        let mut lx = Lexer::default();
        src.lines().map(|l| lx.lex(l).code).collect()
    }

    #[test]
    fn multi_line_string_is_blanked_until_its_close() {
        let src = "let s = \"first {\nsecond }\nthird\";\nlet t = 1 { }";
        let code = lex_all(src);
        assert!(!code[0].contains('{'), "open brace inside string: {:?}", code[0]);
        assert!(!code[1].contains('}'), "close brace inside string: {:?}", code[1]);
        assert!(code[3].contains('{') && code[3].contains('}'), "code after close survives");
    }

    #[test]
    fn escaped_quote_does_not_close_a_multi_line_string() {
        let src = "let s = \"a \\\" {\nstill <- in string }\n\"; let x = 2;";
        let code = lex_all(src);
        assert!(!code[0].contains('{'), "open brace inside string: {:?}", code[0]);
        assert!(!code[1].contains('}'), "close brace inside string: {:?}", code[1]);
        assert!(code[2].contains("let x = 2"), "string closed on line 3: {:?}", code[2]);
    }

    #[test]
    fn brace_char_literals_do_not_count() {
        let mut lx = Lexer::default();
        let code = lx.lex("match c { '{' => a('}'), _ => {} }").code;
        assert_eq!(code.matches('{').count(), 2, "only the match and arm braces open: {code:?}");
        assert_eq!(code.matches('}').count(), 2, "only the arm and match braces close: {code:?}");
    }

    #[test]
    fn comment_text_is_preserved_through_block_comments() {
        let mut lx = Lexer::default();
        assert!(lx.lex("/* ORDERING: pairs with x */ y.load(o)").comment.contains("ORDERING:"));
        assert!(lx.lex("x // ORDERING: tail").comment.contains("ORDERING: tail"));
    }
}
