//! Internet Message Format (RFC 5322) model.
//!
//! Headers preserve their *raw* on-the-wire value bytes (including folding
//! whitespace) because DKIM canonicalization (RFC 6376 §3.4) is defined
//! over the original header octets — re-serializing from a parsed model
//! would break signatures.

use std::fmt;

/// One header field. The original line is `"{name}:{raw_value}"` — the
/// raw value keeps its leading whitespace and any folded continuation
/// lines (joined with CRLF + WSP, exactly as received).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderField {
    /// Field name as received (case preserved; matching is
    /// case-insensitive).
    pub name: String,
    /// Everything after the colon, unmodified.
    pub raw_value: String,
}

impl HeaderField {
    /// Build a field from a name and a logical value (a single space is
    /// inserted after the colon).
    pub fn new(name: &str, value: &str) -> Self {
        HeaderField {
            name: name.to_string(),
            raw_value: format!(" {value}"),
        }
    }

    /// The unfolded, trimmed logical value.
    pub fn value(&self) -> String {
        unfold(&self.raw_value).trim().to_string()
    }

    /// The original wire line (without trailing CRLF).
    pub fn to_line(&self) -> String {
        format!("{}:{}", self.name, self.raw_value)
    }
}

/// Replace folding (CRLF followed by WSP) with the WSP alone.
pub fn unfold(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\r'
            && i + 2 < bytes.len()
            && bytes[i + 1] == b'\n'
            && (bytes[i + 2] == b' ' || bytes[i + 2] == b'\t')
        {
            i += 2; // drop CRLF, keep the WSP
        } else if bytes[i] == b'\n'
            && i + 1 < bytes.len()
            && (bytes[i + 1] == b' ' || bytes[i + 1] == b'\t')
        {
            i += 1; // tolerate bare LF folding
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MailParseError {
    /// A header line had no colon and was not a continuation.
    MalformedHeader(usize),
    /// Message is not ASCII-compatible enough to process.
    NotText,
}

impl fmt::Display for MailParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MailParseError::MalformedHeader(i) => write!(f, "malformed header at line {i}"),
            MailParseError::NotText => write!(f, "message is not text"),
        }
    }
}

impl std::error::Error for MailParseError {}

/// A parsed (or composed) message: ordered headers plus raw body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MailMessage {
    /// Header fields in order of appearance.
    pub headers: Vec<HeaderField>,
    /// Raw body bytes (CRLF line endings).
    pub body: Vec<u8>,
}

impl MailMessage {
    /// Empty message.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parse from raw bytes. Accepts CRLF or bare-LF line endings; the
    /// header/body boundary is the first empty line.
    pub fn parse(raw: &[u8]) -> Result<MailMessage, MailParseError> {
        let text = std::str::from_utf8(raw).map_err(|_| MailParseError::NotText)?;
        let mut headers: Vec<HeaderField> = Vec::new();
        let mut pos = 0usize;
        let mut line_no = 0usize;
        let bytes = text.as_bytes();
        loop {
            let line_end = match text[pos..].find('\n') {
                Some(off) => pos + off,
                None => text.len(),
            };
            let mut line = &text[pos..line_end];
            if line.ends_with('\r') {
                line = &line[..line.len() - 1];
            }
            line_no += 1;
            if line.is_empty() {
                // End of headers; the body starts after this line.
                pos = (line_end + 1).min(text.len());
                break;
            }
            if line.starts_with(' ') || line.starts_with('\t') {
                // Folded continuation of the previous header.
                match headers.last_mut() {
                    Some(prev) => {
                        prev.raw_value.push_str("\r\n");
                        prev.raw_value.push_str(line);
                    }
                    None => return Err(MailParseError::MalformedHeader(line_no)),
                }
            } else {
                let colon = line
                    .find(':')
                    .ok_or(MailParseError::MalformedHeader(line_no))?;
                headers.push(HeaderField {
                    name: line[..colon].to_string(),
                    raw_value: line[colon + 1..].to_string(),
                });
            }
            if line_end == text.len() {
                // Headers ran to EOF with no body separator.
                pos = text.len();
                break;
            }
            pos = line_end + 1;
        }
        Ok(MailMessage {
            headers,
            body: bytes[pos..].to_vec(),
        })
    }

    /// Serialize to wire bytes (headers, blank line, body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let headers_len: usize = self
            .headers
            .iter()
            .map(|h| h.name.len() + h.raw_value.len() + 3)
            .sum();
        let mut out = Vec::with_capacity(headers_len + 2 + self.body.len());
        for h in &self.headers {
            out.extend_from_slice(h.name.as_bytes());
            out.push(b':');
            out.extend_from_slice(h.raw_value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// First header with this name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&HeaderField> {
        self.headers
            .iter()
            .find(|h| h.name.eq_ignore_ascii_case(name))
    }

    /// All headers with this name, in order.
    pub fn headers_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a HeaderField> {
        self.headers
            .iter()
            .filter(move |h| h.name.eq_ignore_ascii_case(name))
    }

    /// Append a header (composition).
    pub fn add_header(&mut self, name: &str, value: &str) {
        self.headers.push(HeaderField::new(name, value));
    }

    /// Prepend a header (trace fields like Received / DKIM-Signature are
    /// prepended, RFC 5321 §4.1.1.4).
    pub fn prepend_header(&mut self, name: &str, value: &str) {
        self.headers.insert(0, HeaderField::new(name, value));
    }

    /// Set the body from a string, normalizing line endings to CRLF.
    pub fn set_body_text(&mut self, text: &str) {
        let normalized = text.replace("\r\n", "\n").replace('\n', "\r\n");
        self.body = normalized.into_bytes();
    }
}

/// Dot-stuff a body for DATA transmission (RFC 5321 §4.5.2): a leading
/// '.' on a line gets doubled. The terminating `CRLF.CRLF` is *not*
/// appended here.
pub fn dot_stuff(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    let mut at_line_start = true;
    for &b in body {
        if at_line_start && b == b'.' {
            out.push(b'.');
        }
        out.push(b);
        at_line_start = b == b'\n';
    }
    out
}

/// [`dot_stuff`] for text, appended to `out`.
pub fn dot_stuff_into(body: &str, out: &mut String) {
    out.reserve(body.len() + 8);
    let mut rest = body;
    if rest.starts_with('.') {
        out.push('.');
    }
    // Each line after a LF that starts with a dot gets one more.
    while let Some(lf) = rest.find('\n') {
        let (line, after) = rest.split_at(lf + 1);
        out.push_str(line);
        if after.starts_with('.') {
            out.push('.');
        }
        rest = after;
    }
    out.push_str(rest);
}

/// Reverse of [`dot_stuff`].
pub fn dot_unstuff(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut at_line_start = true;
    let mut iter = data.iter().peekable();
    while let Some(&b) = iter.next() {
        if at_line_start && b == b'.' {
            if let Some(&&next) = iter.peek() {
                if next != b'\r' && next != b'\n' {
                    // Stuffed dot: skip it, emit the rest of the line.
                    at_line_start = false;
                    continue;
                }
            }
        }
        out.push(b);
        at_line_start = b == b'\n';
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &[u8] = b"From: Notifier <spf-test@d1.dsav-mail.dns-lab.org>\r\n\
Reply-To: research@dns-lab.org\r\n\
Subject: Network notification\r\n\
X-Folded: first part\r\n\tsecond part\r\n\
\r\n\
Dear operator,\r\nYour network has an issue.\r\n";

    #[test]
    fn parse_headers_and_body() {
        let msg = MailMessage::parse(SAMPLE).unwrap();
        assert_eq!(msg.headers.len(), 4);
        assert_eq!(
            msg.header("subject").unwrap().value(),
            "Network notification"
        );
        assert_eq!(
            msg.header("X-FOLDED").unwrap().value(),
            "first part\tsecond part"
        );
        assert!(msg.body.starts_with(b"Dear operator,"));
    }

    #[test]
    fn roundtrip_preserves_bytes() {
        let msg = MailMessage::parse(SAMPLE).unwrap();
        assert_eq!(msg.to_bytes(), SAMPLE);
    }

    #[test]
    fn parse_tolerates_bare_lf() {
        let msg = MailMessage::parse(b"A: 1\nB: 2\n\nbody\n").unwrap();
        assert_eq!(msg.headers.len(), 2);
        assert_eq!(msg.header("b").unwrap().value(), "2");
        assert_eq!(msg.body, b"body\n");
    }

    #[test]
    fn parse_headers_only() {
        let msg = MailMessage::parse(b"A: 1\r\n").unwrap();
        assert_eq!(msg.headers.len(), 1);
        assert!(msg.body.is_empty());
    }

    #[test]
    fn malformed_header_rejected() {
        assert!(MailMessage::parse(b"not a header\r\n\r\n").is_err());
        assert!(MailMessage::parse(b" leading continuation\r\n\r\n").is_err());
    }

    #[test]
    fn header_ordering_and_duplicates() {
        let mut msg = MailMessage::new();
        msg.add_header("Received", "hop2");
        msg.prepend_header("Received", "hop1");
        let values: Vec<String> = msg.headers_named("received").map(|h| h.value()).collect();
        assert_eq!(values, vec!["hop1", "hop2"]);
    }

    #[test]
    fn dot_stuffing_roundtrip() {
        let body = b".leading dot\r\nnormal\r\n..double\r\n.\r\n";
        let stuffed = dot_stuff(body);
        assert_eq!(
            stuffed,
            b"..leading dot\r\nnormal\r\n...double\r\n..\r\n".to_vec()
        );
        assert_eq!(dot_unstuff(&stuffed), body.to_vec());
    }

    #[test]
    fn text_stuffing_matches_byte_stuffing() {
        for body in [
            "",
            ".",
            "..",
            "\n.",
            ".a\r\n.b\n\n.\r\n",
            "x.\r\n.\u{e9}\n\u{e9}.\n",
            "no dots at all\r\n",
        ] {
            let mut out = String::from("prefix.");
            dot_stuff_into(body, &mut out);
            let expected = [b"prefix.".as_slice(), &dot_stuff(body.as_bytes())].concat();
            assert_eq!(out.as_bytes(), expected, "{body:?}");
        }
    }

    #[test]
    fn set_body_normalizes_newlines() {
        let mut msg = MailMessage::new();
        msg.set_body_text("line1\nline2\r\nline3");
        assert_eq!(msg.body, b"line1\r\nline2\r\nline3");
    }

    #[test]
    fn unfold_variants() {
        assert_eq!(unfold("a\r\n b"), "a b");
        assert_eq!(unfold("a\r\n\tb"), "a\tb");
        assert_eq!(unfold("a\n b"), "a b");
        assert_eq!(unfold("a\r\nb"), "a\r\nb"); // not folding: no WSP
    }
}
