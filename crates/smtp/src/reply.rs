//! SMTP replies (RFC 5321 §4.2): three-digit codes with one or more text
//! lines.

use std::fmt;

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
        self.view().is_positive()
    }

    /// 3xx intermediate (e.g. 354 after DATA).
    pub fn is_intermediate(&self) -> bool {
        self.view().is_intermediate()
    }

    /// 4xx transient failure.
    pub fn is_transient_failure(&self) -> bool {
        self.view().is_transient_failure()
    }

    /// 5xx permanent failure.
    pub fn is_permanent_failure(&self) -> bool {
        self.view().is_permanent_failure()
    }

    /// All text joined with spaces (for substring matching, e.g. the
    /// paper's grep for "spam"/"blacklist" in rejection messages, §6.2).
    pub fn text(&self) -> String {
        self.lines.join(" ")
    }

    /// The reply, borrowed.
    pub fn view(&self) -> ReplyView<'_> {
        ReplyView {
            code: self.code,
            lines: LineSource::Owned(&self.lines),
        }
    }

    /// Serialize to wire lines including CRLFs (see [`push_wire_line`]),
    /// in one buffer sized up front.
    pub fn to_wire(&self) -> String {
        let mut digits = [0u8; 5];
        let code = decimal(self.code, &mut digits);
        let len = self
            .lines
            .iter()
            .map(|line| code.len() + line.len() + 3)
            .sum();
        let mut out = String::with_capacity(len);
        for (i, line) in self.lines.iter().enumerate() {
            push_wire_line(&mut out, self.code, i + 1 == self.lines.len(), &[line]);
        }
        out
    }

    // Common canned replies, owned (see [`Canned`] for the borrowed
    // forms the server writes) -------------------------------------------

    /// 220 service ready greeting.
    pub fn greeting(host: &str) -> Reply {
        Canned::greeting(host).to_reply()
    }

    /// 250 OK.
    pub fn ok() -> Reply {
        Canned::OK.to_reply()
    }

    /// 354 start mail input.
    pub fn start_mail_input() -> Reply {
        Canned::START_MAIL_INPUT.to_reply()
    }

    /// 221 closing.
    pub fn closing() -> Reply {
        Canned::CLOSING.to_reply()
    }

    /// 500 syntax error.
    pub fn syntax_error() -> Reply {
        Canned::SYNTAX_ERROR.to_reply()
    }

    /// 501 bad arguments.
    pub fn bad_arguments() -> Reply {
        Canned::BAD_ARGUMENTS.to_reply()
    }

    /// 503 bad sequence.
    pub fn bad_sequence() -> Reply {
        Canned::BAD_SEQUENCE.to_reply()
    }

    /// 550 mailbox unavailable (the "invalid recipient" rejection the
    /// paper encountered for 6.4% of TwoWeekMX MTAs).
    pub fn no_such_user(who: &str) -> Reply {
        Canned::no_such_user(who).to_reply()
    }
}

/// Append one reply line to `out` as wire text: the code's decimal
/// digits, `-` for a continuation or ` ` for the last line, the pieces
/// of `text` in order, and CRLF.
pub fn push_wire_line(out: &mut String, code: u16, last: bool, text: &[&str]) {
    let mut digits = [0u8; 5];
    out.push_str(decimal(code, &mut digits));
    out.push(if last { ' ' } else { '-' });
    for piece in text {
        out.push_str(piece);
    }
    out.push_str("\r\n");
}

/// A one-line reply whose text is two borrowed pieces, written straight
/// to wire text: the server's canned replies need no owned [`Reply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canned<'a> {
    /// Three-digit reply code.
    pub code: u16,
    /// The line's text, in two pieces.
    pub text: [&'a str; 2],
}

impl<'a> Canned<'a> {
    /// 250 OK.
    pub const OK: Canned<'static> = Canned::new(250, "OK");
    /// 354 start mail input.
    pub const START_MAIL_INPUT: Canned<'static> =
        Canned::new(354, "Start mail input; end with <CRLF>.<CRLF>");
    /// 221 closing.
    pub const CLOSING: Canned<'static> = Canned::new(221, "Bye");
    /// 500 syntax error.
    pub const SYNTAX_ERROR: Canned<'static> =
        Canned::new(500, "Syntax error, command unrecognized");
    /// 501 bad arguments.
    pub const BAD_ARGUMENTS: Canned<'static> =
        Canned::new(501, "Syntax error in parameters or arguments");
    /// 503 bad sequence.
    pub const BAD_SEQUENCE: Canned<'static> = Canned::new(503, "Bad sequence of commands");

    /// A reply of one piece of text.
    pub const fn new(code: u16, text: &'a str) -> Canned<'a> {
        Canned {
            code,
            text: [text, ""],
        }
    }

    /// 220 service ready greeting.
    pub fn greeting(host: &'a str) -> Canned<'a> {
        Canned {
            code: 220,
            text: [host, " ESMTP ready"],
        }
    }

    /// 550 mailbox unavailable.
    pub fn no_such_user(who: &'a str) -> Canned<'a> {
        Canned {
            code: 550,
            text: ["No such user: ", who],
        }
    }

    /// Append the reply's wire line to `out`.
    pub fn write_wire(&self, out: &mut String) {
        push_wire_line(out, self.code, true, &self.text);
    }

    /// The same reply, owned.
    pub fn to_reply(&self) -> Reply {
        Reply {
            code: self.code,
            lines: vec![self.text.concat()],
        }
    }
}

/// A reply borrowed from where it was assembled: a [`ReplyParser`]'s
/// buffer, or an owned [`Reply`] ([`Reply::view`]).
#[derive(Clone, Copy)]
pub struct ReplyView<'a> {
    /// Three-digit reply code.
    pub code: u16,
    lines: LineSource<'a>,
}

#[derive(Clone, Copy)]
enum LineSource<'a> {
    /// The lines' text back to back, and where each line ends in it.
    Packed {
        text: &'a str,
        ends: &'a [usize],
    },
    Owned(&'a [String]),
}

impl<'a> ReplyView<'a> {
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

    /// The text lines, in order.
    pub fn lines(&self) -> ViewLines<'a> {
        ViewLines {
            source: self.lines,
            next: 0,
            start: 0,
        }
    }

    /// The same reply, owned.
    pub fn to_reply(&self) -> Reply {
        Reply {
            code: self.code,
            lines: self.lines().map(str::to_string).collect(),
        }
    }
}

impl fmt::Debug for ReplyView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplyView")
            .field("code", &self.code)
            .field("lines", &self.lines().collect::<Vec<_>>())
            .finish()
    }
}

/// Iterator over a [`ReplyView`]'s lines.
#[derive(Clone)]
pub struct ViewLines<'a> {
    source: LineSource<'a>,
    next: usize,
    start: usize,
}

impl<'a> Iterator for ViewLines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let line = match self.source {
            LineSource::Packed { text, ends } => {
                let end = *ends.get(self.next)?;
                let line = &text[self.start..end];
                self.start = end;
                line
            }
            LineSource::Owned(lines) => lines.get(self.next)?,
        };
        self.next += 1;
        Some(line)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let total = match self.source {
            LineSource::Packed { ends, .. } => ends.len(),
            LineSource::Owned(lines) => lines.len(),
        };
        (total - self.next, Some(total - self.next))
    }
}

impl ExactSizeIterator for ViewLines<'_> {}

/// `n` in decimal without leading zeros (`"0"` for zero), written to
/// the end of `buf`.
fn decimal(mut n: u16, buf: &mut [u8; 5]) -> &str {
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Every byte from `start` on was written above as an ASCII digit,
    // whatever the code: no input reaches the panic.
    std::str::from_utf8(&buf[start..]).expect("decimal digits are ASCII")
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

/// Incremental parser assembling (possibly multiline) replies from
/// lines, in one buffer it reuses from reply to reply.
///
/// The buffer never holds more than one reply, and the limits above
/// bound a reply, so a hostile peer can pin at most
/// [`MAX_REPLY_LINES`] × [`MAX_REPLY_LINE_LEN`] bytes of it.
#[derive(Debug, Default)]
pub struct ReplyParser {
    /// The code of the reply being assembled; `None` between replies.
    code: Option<u16>,
    /// The text of the reply's lines so far, back to back.
    text: String,
    /// Where each line so far ends in `text`.
    ends: Vec<usize>,
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

    /// Feed one line (without CRLF). Returns the reply, borrowed from
    /// the parser's buffer, when the line completes one.
    ///
    /// Any error discards the partially-assembled reply and resets the
    /// parser — in particular the [`ReplyParseError::LineTooLong`] and
    /// [`ReplyParseError::TooManyLines`] limits, which exist so a
    /// hostile peer cannot grow this buffer without bound.
    pub fn push_line(&mut self, line: &str) -> Result<Option<ReplyView<'_>>, ReplyParseError> {
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
            // A new reply: the last one's text is no longer borrowed.
            self.code = Some(code);
            self.text.clear();
            self.ends.clear();
        }
        if self.ends.len() >= MAX_REPLY_LINES {
            return Err(self.fail(ReplyParseError::TooManyLines));
        }
        let (is_final, text) = match line.as_bytes().get(3) {
            None => (true, ""),
            Some(b' ') => (true, &line[4..]),
            Some(b'-') => (false, &line[4..]),
            Some(_) => return Err(self.fail(ReplyParseError::BadFormat)),
        };
        self.text.push_str(text);
        self.ends.push(self.text.len());
        if !is_final {
            return Ok(None);
        }
        self.code = None;
        Ok(Some(ReplyView {
            code,
            lines: LineSource::Packed {
                text: &self.text,
                ends: &self.ends,
            },
        }))
    }

    /// Drop any reply in progress, keeping the buffer: the parser is as
    /// new.
    pub fn clear(&mut self) {
        self.code = None;
        self.text.clear();
        self.ends.clear();
    }

    /// Reset the in-progress reply and pass the error through.
    fn fail(&mut self, err: ReplyParseError) -> ReplyParseError {
        self.clear();
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `push_line`, with a completed reply copied out.
    fn push(p: &mut ReplyParser, line: &str) -> Result<Option<Reply>, ReplyParseError> {
        p.push_line(line).map(|r| r.map(|v| v.to_reply()))
    }

    #[test]
    fn canned_lines_are_the_formatted_lines() {
        for text in ["mx.test", "", "\u{e9}t\u{e9} \u{672a}"] {
            let greeting = Reply::greeting(text);
            let no_such_user = Reply::no_such_user(text);
            assert_eq!(greeting, Reply::new(220, &format!("{text} ESMTP ready")));
            assert_eq!(
                no_such_user,
                Reply::new(550, &format!("No such user: {text}"))
            );
            for line in [&greeting.lines[0], &no_such_user.lines[0]] {
                assert_eq!(line.capacity(), line.len());
            }
        }
    }

    #[test]
    fn single_line_roundtrip() {
        let r = Reply::new(250, "OK");
        assert_eq!(r.to_wire(), "250 OK\r\n");
        let mut p = ReplyParser::new();
        assert_eq!(push(&mut p, "250 OK").unwrap(), Some(r));
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
            result = push(&mut p, line).unwrap();
        }
        assert_eq!(result, Some(r));
    }

    /// The `write!` form `to_wire` replaced.
    fn reference_wire(r: &Reply) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, line) in r.lines.iter().enumerate() {
            let sep = if i + 1 == r.lines.len() { ' ' } else { '-' };
            write!(out, "{}{sep}{line}\r\n", r.code).unwrap();
        }
        out
    }

    #[test]
    fn to_wire_matches_the_formatted_form() {
        let texts = [
            "OK",
            "",
            "h\u{e9}llo w\u{f6}rld \u{1f4e7}",
            "spaced  out ",
            "-",
        ];
        for code in 0..=u16::MAX {
            let text = texts[code as usize % texts.len()];
            let one = Reply::new(code, text);
            let wire = one.to_wire();
            assert_eq!(wire, reference_wire(&one), "code {code}");
            assert_eq!(wire.len(), wire.capacity(), "code {code} sized exactly");
        }
        for code in [0, 7, 42, 250, 554, 9999, 10000, u16::MAX] {
            let lines: Vec<String> = texts.iter().map(|t| t.to_string()).collect();
            let many = Reply::multiline(code, lines);
            assert_eq!(many.to_wire(), reference_wire(&many), "code {code}");
            let empty = Reply::multiline(code, vec![String::new(); 3]);
            assert_eq!(empty.to_wire(), reference_wire(&empty), "code {code}");
        }
    }

    #[test]
    fn multibyte_code_prefix_is_bad_format_not_a_panic() {
        // `len()` counts bytes, so a multibyte char straddling byte 3
        // used to panic the code slice; it must be a clean BadFormat.
        let mut p = ReplyParser::new();
        assert_eq!(
            push(&mut p, "2\u{fffd} hostile"),
            Err(ReplyParseError::BadFormat)
        );
        assert_eq!(
            push(&mut p, "\u{fffd}\u{fffd}"),
            Err(ReplyParseError::BadFormat)
        );
        assert_eq!(push(&mut p, "250 OK").unwrap(), Some(Reply::new(250, "OK")));
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
        assert!(push(&mut p, "hi").is_err());
        assert!(push(&mut p, "abc hello").is_err());
        assert!(push(&mut p, "250#x").is_err());
    }

    #[test]
    fn parser_rejects_code_mismatch() {
        let mut p = ReplyParser::new();
        assert_eq!(push(&mut p, "250-first").unwrap(), None);
        assert_eq!(
            push(&mut p, "251 second"),
            Err(ReplyParseError::CodeMismatch)
        );
    }

    #[test]
    fn bare_code_line() {
        let mut p = ReplyParser::new();
        let r = push(&mut p, "354").unwrap().unwrap();
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
        assert_eq!(push(&mut p, "250 O\0K"), Err(ReplyParseError::BadChar));
        assert_eq!(push(&mut p, "250 O\rK"), Err(ReplyParseError::BadChar));
        assert_eq!(push(&mut p, "2\x005 OK"), Err(ReplyParseError::BadChar));
        // A trailing CR is the stripped line terminator, not hostile.
        assert_eq!(push(&mut p, "250 OK\r").unwrap(), Some(Reply::ok()));
        // A bad char mid-multiline discards the buffered reply.
        assert_eq!(push(&mut p, "250-first").unwrap(), None);
        assert_eq!(push(&mut p, "250-b\0d"), Err(ReplyParseError::BadChar));
        assert_eq!(push(&mut p, "220 fresh").unwrap().unwrap().code, 220);
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
                let _ = push(&mut p, s); // must not panic
            }
            // And spliced into the text region.
            let mut line = b"250 hello".to_vec();
            line[6] = b;
            if let Ok(s) = std::str::from_utf8(&line) {
                let _ = push(&mut p, s);
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
            assert_eq!(push(&mut p, first).unwrap(), None);
            assert_eq!(
                push(&mut p, second),
                Err(ReplyParseError::CodeMismatch),
                "{first} then {second}"
            );
            // Parser must have recovered.
            assert_eq!(push(&mut p, "250 OK").unwrap(), Some(Reply::ok()));
        }
    }

    #[test]
    fn parser_caps_line_length() {
        let mut p = ReplyParser::new();
        // Exactly at the limit: accepted.
        let max_text = "x".repeat(MAX_REPLY_LINE_LEN - 4);
        let ok = push(&mut p, &format!("250 {max_text}")).unwrap().unwrap();
        assert_eq!(ok.lines[0].len(), MAX_REPLY_LINE_LEN - 4);
        // One byte over: rejected, not truncated.
        let over = format!("250 {}x", max_text);
        assert_eq!(push(&mut p, &over), Err(ReplyParseError::LineTooLong));
        // The parser recovered and accepts a fresh reply.
        assert_eq!(push(&mut p, "250 OK").unwrap(), Some(Reply::ok()));
    }

    #[test]
    fn parser_caps_continuation_lines() {
        // A hostile server streaming endless `250-` continuations must
        // hit the cap instead of growing memory without bound.
        let mut p = ReplyParser::new();
        for i in 0..MAX_REPLY_LINES {
            assert_eq!(push(&mut p, &format!("250-line {i}")).unwrap(), None);
        }
        assert_eq!(
            push(&mut p, "250-one too many"),
            Err(ReplyParseError::TooManyLines)
        );
        // Error path resets the parser: the buffered lines are gone and a
        // complete reply parses from scratch.
        assert_eq!(push(&mut p, "220 fresh").unwrap().unwrap().code, 220);
    }

    #[test]
    fn parser_accepts_full_multiline_at_cap() {
        let mut p = ReplyParser::new();
        for i in 0..MAX_REPLY_LINES - 1 {
            assert_eq!(push(&mut p, &format!("250-line {i}")).unwrap(), None);
        }
        let r = push(&mut p, "250 final").unwrap().unwrap();
        assert_eq!(r.lines.len(), MAX_REPLY_LINES);
    }
}
