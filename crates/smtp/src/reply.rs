//! SMTP replies (RFC 5321 §4.2): three-digit codes with one or more text
//! lines.

use std::fmt::{self, Write as _};

/// A complete (possibly multiline) SMTP reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Three-digit reply code.
    pub code: u16,
    /// Text lines (at least one, possibly empty).
    pub lines: Vec<String>,
}

impl Reply {
    /// Single-line reply.
    pub fn new(code: u16, text: &str) -> Reply {
        Reply {
            code,
            lines: vec![text.to_string()],
        }
    }

    /// Multiline reply.
    pub fn multiline(code: u16, lines: Vec<String>) -> Reply {
        assert!(!lines.is_empty());
        Reply { code, lines }
    }

    /// 2xx success.
    pub fn is_positive(&self) -> bool {
        (200..300).contains(&self.code)
    }

    /// 3xx intermediate (e.g. 354 after DATA).
    pub fn is_intermediate(&self) -> bool {
        (300..400).contains(&self.code)
    }

    /// 4xx transient failure.
    pub fn is_transient_failure(&self) -> bool {
        (400..500).contains(&self.code)
    }

    /// 5xx permanent failure.
    pub fn is_permanent_failure(&self) -> bool {
        (500..600).contains(&self.code)
    }

    /// All text joined with spaces (for substring matching, e.g. the
    /// paper's grep for "spam"/"blacklist" in rejection messages, §6.2).
    pub fn text(&self) -> String {
        self.lines.join(" ")
    }

    /// Serialize to wire lines including CRLFs.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (i, line) in self.lines.iter().enumerate() {
            let sep = if i + 1 == self.lines.len() { ' ' } else { '-' };
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{}{sep}{line}\r\n", self.code);
        }
        out
    }

    // Common canned replies -------------------------------------------------

    /// 220 service ready greeting.
    pub fn greeting(host: &str) -> Reply {
        Reply::new(220, &format!("{host} ESMTP ready"))
    }

    /// 250 OK.
    pub fn ok() -> Reply {
        Reply::new(250, "OK")
    }

    /// 354 start mail input.
    pub fn start_mail_input() -> Reply {
        Reply::new(354, "Start mail input; end with <CRLF>.<CRLF>")
    }

    /// 221 closing.
    pub fn closing() -> Reply {
        Reply::new(221, "Bye")
    }

    /// 500 syntax error.
    pub fn syntax_error() -> Reply {
        Reply::new(500, "Syntax error, command unrecognized")
    }

    /// 501 bad arguments.
    pub fn bad_arguments() -> Reply {
        Reply::new(501, "Syntax error in parameters or arguments")
    }

    /// 503 bad sequence.
    pub fn bad_sequence() -> Reply {
        Reply::new(503, "Bad sequence of commands")
    }

    /// 550 mailbox unavailable (the "invalid recipient" rejection the
    /// paper encountered for 6.4% of TwoWeekMX MTAs).
    pub fn no_such_user(who: &str) -> Reply {
        Reply::new(550, &format!("No such user: {who}"))
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.text())
    }
}

/// Maximum accepted reply-line length, bytes, excluding CRLF (RFC 5321
/// §4.5.3.1.5 sets the reply-line limit at 512 octets *including* CRLF;
/// we allow the full 512 after stripping it, a hair permissive).
pub const MAX_REPLY_LINE_LEN: usize = 512;
/// Maximum continuation lines accepted in one multiline reply. The RFC
/// sets no bound; real EHLO responses stay in the tens, and without a
/// cap a hostile server can grow the parser's buffer without limit.
pub const MAX_REPLY_LINES: usize = 64;

/// Incremental parser assembling (possibly multiline) replies from lines.
#[derive(Debug, Default)]
pub struct ReplyParser {
    code: Option<u16>,
    lines: Vec<String>,
}

/// Errors from [`ReplyParser::push_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyParseError {
    /// Line shorter than 3 characters or non-digit code.
    BadFormat,
    /// Continuation line code differs from the first line's code.
    CodeMismatch,
    /// Line longer than [`MAX_REPLY_LINE_LEN`] bytes.
    LineTooLong,
    /// More than [`MAX_REPLY_LINES`] lines in one multiline reply.
    TooManyLines,
    /// Line containing an embedded NUL or a bare CR (a CR not part of
    /// the stripped line terminator).
    BadChar,
}

impl fmt::Display for ReplyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplyParseError::BadFormat => write!(f, "malformed reply line"),
            ReplyParseError::CodeMismatch => write!(f, "continuation code mismatch"),
            ReplyParseError::LineTooLong => {
                write!(f, "reply line over {MAX_REPLY_LINE_LEN} bytes")
            }
            ReplyParseError::TooManyLines => {
                write!(f, "multiline reply over {MAX_REPLY_LINES} lines")
            }
            ReplyParseError::BadChar => {
                write!(f, "reply line contains NUL or bare CR")
            }
        }
    }
}

impl std::error::Error for ReplyParseError {}

impl ReplyParser {
    /// New empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one line (without CRLF). Returns `Some(reply)` when a complete
    /// reply has been assembled.
    ///
    /// Any error discards the partially-assembled reply and resets the
    /// parser — in particular the [`ReplyParseError::LineTooLong`] and
    /// [`ReplyParseError::TooManyLines`] limits, which exist so a
    /// hostile peer cannot grow this buffer without bound.
    pub fn push_line(&mut self, line: &str) -> Result<Option<Reply>, ReplyParseError> {
        let line = line.trim_end_matches(['\r', '\n']);
        // Embedded NULs and bare CRs survive the terminator strip above;
        // both are hostile framing games (header smuggling, log
        // injection) and the reply is refused outright.
        if line.bytes().any(|b| b == 0 || b == b'\r') {
            return Err(self.fail(ReplyParseError::BadChar));
        }
        if line.len() < 3 {
            return Err(self.fail(ReplyParseError::BadFormat));
        }
        if line.len() > MAX_REPLY_LINE_LEN {
            return Err(self.fail(ReplyParseError::LineTooLong));
        }
        // Byte-sliced (`line.len()` counts bytes), so index with `get`:
        // a multibyte char straddling byte 3 must be a parse error, not
        // a char-boundary panic.
        let Some(code) = line.get(..3).and_then(|c| c.parse::<u16>().ok()) else {
            return Err(self.fail(ReplyParseError::BadFormat));
        };
        if !(200..=599).contains(&code) && !(100..200).contains(&code) {
            return Err(self.fail(ReplyParseError::BadFormat));
        }
        if let Some(expected) = self.code {
            if code != expected {
                return Err(self.fail(ReplyParseError::CodeMismatch));
            }
        } else {
            self.code = Some(code);
        }
        if self.lines.len() >= MAX_REPLY_LINES {
            return Err(self.fail(ReplyParseError::TooManyLines));
        }
        let (is_final, text) = match line.as_bytes().get(3) {
            None => (true, ""),
            Some(b' ') => (true, &line[4..]),
            Some(b'-') => (false, &line[4..]),
            Some(_) => return Err(self.fail(ReplyParseError::BadFormat)),
        };
        self.lines.push(text.to_string());
        if is_final {
            let reply = Reply {
                code,
                lines: std::mem::take(&mut self.lines),
            };
            self.code = None;
            Ok(Some(reply))
        } else {
            Ok(None)
        }
    }

    /// Reset the in-progress reply and pass the error through (frees any
    /// buffered lines so errors cannot be used to pin memory).
    fn fail(&mut self, err: ReplyParseError) -> ReplyParseError {
        self.code = None;
        self.lines = Vec::new();
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_line_roundtrip() {
        let r = Reply::new(250, "OK");
        assert_eq!(r.to_wire(), "250 OK\r\n");
        let mut p = ReplyParser::new();
        assert_eq!(p.push_line("250 OK").unwrap(), Some(r));
    }

    #[test]
    fn multiline_roundtrip() {
        let r = Reply::multiline(
            250,
            vec![
                "mx.test greets you".into(),
                "SIZE 1000000".into(),
                "8BITMIME".into(),
            ],
        );
        let wire = r.to_wire();
        assert_eq!(
            wire,
            "250-mx.test greets you\r\n250-SIZE 1000000\r\n250 8BITMIME\r\n"
        );
        let mut p = ReplyParser::new();
        let mut result = None;
        for line in wire.lines() {
            result = p.push_line(line).unwrap();
        }
        assert_eq!(result, Some(r));
    }

    #[test]
    fn multibyte_code_prefix_is_bad_format_not_a_panic() {
        // `len()` counts bytes, so a multibyte char straddling byte 3
        // used to panic the code slice; it must be a clean BadFormat.
        let mut p = ReplyParser::new();
        assert_eq!(
            p.push_line("2\u{fffd} hostile"),
            Err(ReplyParseError::BadFormat)
        );
        assert_eq!(
            p.push_line("\u{fffd}\u{fffd}"),
            Err(ReplyParseError::BadFormat)
        );
        assert_eq!(p.push_line("250 OK").unwrap(), Some(Reply::new(250, "OK")));
    }

    #[test]
    fn code_classes() {
        assert!(Reply::new(250, "").is_positive());
        assert!(Reply::new(354, "").is_intermediate());
        assert!(Reply::new(451, "").is_transient_failure());
        assert!(Reply::new(550, "").is_permanent_failure());
    }

    #[test]
    fn parser_rejects_garbage() {
        let mut p = ReplyParser::new();
        assert!(p.push_line("hi").is_err());
        assert!(p.push_line("abc hello").is_err());
        assert!(p.push_line("250#x").is_err());
    }

    #[test]
    fn parser_rejects_code_mismatch() {
        let mut p = ReplyParser::new();
        assert_eq!(p.push_line("250-first").unwrap(), None);
        assert_eq!(
            p.push_line("251 second"),
            Err(ReplyParseError::CodeMismatch)
        );
    }

    #[test]
    fn bare_code_line() {
        let mut p = ReplyParser::new();
        let r = p.push_line("354").unwrap().unwrap();
        assert_eq!(r.code, 354);
        assert_eq!(r.lines, vec![String::new()]);
    }

    #[test]
    fn text_join_for_matching() {
        let r = Reply::multiline(554, vec!["rejected:".into(), "listed on spam RBL".into()]);
        assert!(r.text().to_ascii_lowercase().contains("spam"));
    }

    #[test]
    fn parser_rejects_nul_and_bare_cr() {
        let mut p = ReplyParser::new();
        assert_eq!(p.push_line("250 O\0K"), Err(ReplyParseError::BadChar));
        assert_eq!(p.push_line("250 O\rK"), Err(ReplyParseError::BadChar));
        assert_eq!(p.push_line("2\x005 OK"), Err(ReplyParseError::BadChar));
        // A trailing CR is the stripped line terminator, not hostile.
        assert_eq!(p.push_line("250 OK\r").unwrap(), Some(Reply::ok()));
        // A bad char mid-multiline discards the buffered reply.
        assert_eq!(p.push_line("250-first").unwrap(), None);
        assert_eq!(p.push_line("250-b\0d"), Err(ReplyParseError::BadChar));
        assert_eq!(p.push_line("220 fresh").unwrap().unwrap().code, 220);
    }

    #[test]
    fn parser_rejects_garbage_bytes_exhaustively() {
        // Every single-byte splice into the code position of a valid
        // line must yield a clean error or a (different) valid reply —
        // never a panic. Sweeps the full byte range.
        for b in 0u8..=255 {
            let mut line = b"250 hello".to_vec();
            line[1] = b;
            let mut p = ReplyParser::new();
            if let Ok(s) = std::str::from_utf8(&line) {
                let _ = p.push_line(s); // must not panic
            }
            // And spliced into the text region.
            let mut line = b"250 hello".to_vec();
            line[6] = b;
            if let Ok(s) = std::str::from_utf8(&line) {
                let _ = p.push_line(s);
            }
        }
    }

    #[test]
    fn parser_rejects_mixed_code_multiline() {
        // A mid-dialogue code switch inside one multiline reply must
        // drop the whole reply, whatever direction the switch goes.
        for (first, second) in [
            ("250-greeting", "550 switched"),
            ("550-rejected", "250 switched"),
            ("250-a", "251-b"),
        ] {
            let mut p = ReplyParser::new();
            assert_eq!(p.push_line(first).unwrap(), None);
            assert_eq!(
                p.push_line(second),
                Err(ReplyParseError::CodeMismatch),
                "{first} then {second}"
            );
            // Parser must have recovered.
            assert_eq!(p.push_line("250 OK").unwrap(), Some(Reply::ok()));
        }
    }

    #[test]
    fn parser_caps_line_length() {
        let mut p = ReplyParser::new();
        // Exactly at the limit: accepted.
        let max_text = "x".repeat(MAX_REPLY_LINE_LEN - 4);
        let ok = p.push_line(&format!("250 {max_text}")).unwrap().unwrap();
        assert_eq!(ok.lines[0].len(), MAX_REPLY_LINE_LEN - 4);
        // One byte over: rejected, not truncated.
        let over = format!("250 {}x", max_text);
        assert_eq!(p.push_line(&over), Err(ReplyParseError::LineTooLong));
        // The parser recovered and accepts a fresh reply.
        assert_eq!(p.push_line("250 OK").unwrap(), Some(Reply::ok()));
    }

    #[test]
    fn parser_caps_continuation_lines() {
        // A hostile server streaming endless `250-` continuations must
        // hit the cap instead of growing memory without bound.
        let mut p = ReplyParser::new();
        for i in 0..MAX_REPLY_LINES {
            assert_eq!(p.push_line(&format!("250-line {i}")).unwrap(), None);
        }
        assert_eq!(
            p.push_line("250-one too many"),
            Err(ReplyParseError::TooManyLines)
        );
        // Error path resets the parser: the buffered lines are gone and a
        // complete reply parses from scratch.
        assert_eq!(p.push_line("220 fresh").unwrap().unwrap().code, 220);
    }

    #[test]
    fn parser_accepts_full_multiline_at_cap() {
        let mut p = ReplyParser::new();
        for i in 0..MAX_REPLY_LINES - 1 {
            assert_eq!(p.push_line(&format!("250-line {i}")).unwrap(), None);
        }
        let r = p.push_line("250 final").unwrap().unwrap();
        assert_eq!(r.lines.len(), MAX_REPLY_LINES);
    }
}
