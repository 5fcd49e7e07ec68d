//! DKIM canonicalization (RFC 6376 §3.4).

use mailval_smtp::mail::HeaderField;

/// The two canonicalization algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Canonicalization {
    /// `simple`: tolerate almost no modification.
    Simple,
    /// `relaxed`: tolerate whitespace and header-case churn.
    Relaxed,
}

impl Canonicalization {
    /// Parse one side of the `c=` tag.
    pub fn parse(s: &str) -> Option<Canonicalization> {
        if s.eq_ignore_ascii_case("simple") {
            Some(Canonicalization::Simple)
        } else if s.eq_ignore_ascii_case("relaxed") {
            Some(Canonicalization::Relaxed)
        } else {
            None
        }
    }

    /// The algorithm's name as the `c=` tag spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Canonicalization::Simple => "simple",
            Canonicalization::Relaxed => "relaxed",
        }
    }
}

impl std::fmt::Display for Canonicalization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Append the canonical form of the header field `name:raw_value`
/// (§3.4.1 / §3.4.2) to `out`, without its trailing CRLF. `raw_value`
/// is everything after the colon, leading whitespace and folding
/// included.
///
/// `relaxed` lowercases the name, unfolds the value, trims it and
/// collapses each run of WSP to one SP. It works on octets: bytes
/// outside ASCII are copied as they are.
pub fn append_header(canon: Canonicalization, name: &str, raw_value: &str, out: &mut Vec<u8>) {
    append_header_with(canon, name, out, |out| {
        out.extend_from_slice(raw_value.as_bytes())
    });
}

/// [`append_header`] with the raw value written into `out` by
/// `write_value`, and canonicalized where it was written.
pub(crate) fn append_header_with(
    canon: Canonicalization,
    name: &str,
    out: &mut Vec<u8>,
    write_value: impl FnOnce(&mut Vec<u8>),
) {
    match canon {
        Canonicalization::Simple => out.extend_from_slice(name.as_bytes()),
        Canonicalization::Relaxed => {
            out.extend(name.bytes().map(|b| b.to_ascii_lowercase()));
        }
    }
    out.push(b':');
    let start = out.len();
    write_value(out);
    if canon == Canonicalization::Relaxed {
        let len = relax_value_in_place(&mut out[start..]);
        out.truncate(start + len);
    }
}

/// Canonicalize one header field (§3.4.1 / §3.4.2), trailing CRLF
/// included; [`append_header`] into a fresh buffer.
pub fn canonicalize_header(canon: Canonicalization, field: &HeaderField) -> Vec<u8> {
    let mut out = Vec::with_capacity(field.name.len() + field.raw_value.len() + 3);
    append_header(canon, &field.name, &field.raw_value, &mut out);
    out.extend_from_slice(b"\r\n");
    out
}

/// The ASCII bytes `str::trim` removes, which the value trim has always
/// removed: SP, HTAB, LF, VT, FF and CR.
fn is_trimmed(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x0b
}

fn is_wsp(b: u8) -> bool {
    b == b' ' || b == b'\t'
}

/// Relax a header value in place: unfold (drop a CRLF, or a bare LF,
/// before WSP), trim surrounding whitespace, and collapse WSP runs to
/// one SP. Returns the relaxed length; every output byte stands for at
/// least one input byte, so writing never overtakes reading.
fn relax_value_in_place(v: &mut [u8]) -> usize {
    // Unfolding only deletes CR and LF, which trimming deletes too, so
    // trimming the raw value first gives the same bytes.
    let Some(first) = v.iter().position(|&b| !is_trimmed(b)) else {
        return 0;
    };
    let last = v
        .iter()
        .rposition(|&b| !is_trimmed(b))
        .expect("found above");
    let mut w = 0;
    let mut in_wsp = false;
    let mut r = first;
    while r <= last {
        let b = v[r];
        // CR and LF are trimmed bytes, so one is never at `last` and a
        // CRLF ends before it: the look-ahead stays inside the value.
        let folds = match b {
            b'\r' => v[r + 1] == b'\n' && is_wsp(v[r + 2]),
            b'\n' => is_wsp(v[r + 1]),
            _ => false,
        };
        if folds {
            // Drop the line break; the WSP after it stays.
            r += if b == b'\r' { 2 } else { 1 };
        } else if is_wsp(b) {
            in_wsp = true;
            r += 1;
        } else {
            if in_wsp {
                v[w] = b' ';
                w += 1;
                in_wsp = false;
            }
            v[w] = b;
            w += 1;
            r += 1;
        }
    }
    w
}

/// Canonicalize a body (§3.4.3 / §3.4.4) in one pass over its octets.
///
/// Lines are CRLF-delimited; a final fragment without CRLF counts as a
/// line. `relaxed` drops trailing WSP and collapses WSP runs to one SP.
/// Trailing empty lines are dropped under both algorithms, and an empty
/// `simple` body is one CRLF.
pub fn canonicalize_body(canon: Canonicalization, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 2);
    // `out`'s length after the last non-empty line: what is left once
    // the trailing empty lines are dropped.
    let mut kept = 0;
    let mut line_start = 0;
    let mut scan = 0;
    loop {
        let line_end = match body[scan..].iter().position(|&b| b == b'\n') {
            Some(off) => {
                let lf = scan + off;
                scan = lf + 1;
                if lf == line_start || body[lf - 1] != b'\r' {
                    continue; // a bare LF is part of the line
                }
                lf - 1
            }
            None if line_start < body.len() => body.len(),
            None => break,
        };
        let line = &body[line_start..line_end];
        let before = out.len();
        match canon {
            Canonicalization::Simple => out.extend_from_slice(line),
            Canonicalization::Relaxed => append_relaxed_line(line, &mut out),
        }
        let empty = out.len() == before;
        out.extend_from_slice(b"\r\n");
        if !empty {
            kept = out.len();
        }
        line_start = (line_end + 2).min(body.len());
        if line_end == body.len() {
            break;
        }
    }
    out.truncate(kept);
    if out.is_empty() && canon == Canonicalization::Simple {
        out.extend_from_slice(b"\r\n");
    }
    out
}

/// Append one body line relaxed: trailing WSP dropped, each WSP run
/// (leading runs included) one SP.
fn append_relaxed_line(line: &[u8], out: &mut Vec<u8>) {
    let end = line.iter().rposition(|&b| !is_wsp(b)).map_or(0, |i| i + 1);
    let mut rest = &line[..end];
    while let Some(ws) = rest.iter().position(|&b| is_wsp(b)) {
        out.extend_from_slice(&rest[..ws]);
        out.push(b' ');
        let run = rest[ws..].iter().take_while(|&&b| is_wsp(b)).count();
        rest = &rest[ws + run..];
    }
    out.extend_from_slice(rest);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str, raw: &str) -> HeaderField {
        HeaderField {
            name: name.into(),
            raw_value: raw.into(),
        }
    }

    // RFC 6376 §3.4.5 examples.
    #[test]
    fn rfc_example_relaxed() {
        let a = field("A", " X\r\n");
        // The RFC example input "A: X\r\n" -> relaxed "a:X\r\n".
        let a = HeaderField {
            name: a.name,
            raw_value: " X".into(),
        };
        assert_eq!(
            canonicalize_header(Canonicalization::Relaxed, &a),
            b"a:X\r\n"
        );
        let b = field("B ", " Y\t\r\n\tZ  ");
        assert_eq!(
            canonicalize_header(Canonicalization::Relaxed, &b),
            b"b :Y Z\r\n"
        );
    }

    #[test]
    fn rfc_example_relaxed_body() {
        let body = b" C \r\nD \t E\r\n\r\n\r\n";
        assert_eq!(
            canonicalize_body(Canonicalization::Relaxed, body),
            b" C\r\nD E\r\n".to_vec()
        );
    }

    #[test]
    fn rfc_example_simple_body() {
        let body = b" C \r\nD \t E\r\n\r\n\r\n";
        assert_eq!(
            canonicalize_body(Canonicalization::Simple, body),
            b" C \r\nD \t E\r\n".to_vec()
        );
    }

    #[test]
    fn simple_header_is_verbatim() {
        let h = field("From", " Alice <a@example.com>");
        assert_eq!(
            canonicalize_header(Canonicalization::Simple, &h),
            b"From: Alice <a@example.com>\r\n"
        );
    }

    #[test]
    fn relaxed_header_unfolds() {
        let h = field("Subject", " folded\r\n  across\r\n\tlines ");
        assert_eq!(
            canonicalize_header(Canonicalization::Relaxed, &h),
            b"subject:folded across lines\r\n"
        );
    }

    #[test]
    fn empty_body() {
        assert_eq!(canonicalize_body(Canonicalization::Simple, b""), b"\r\n");
        assert_eq!(
            canonicalize_body(Canonicalization::Relaxed, b""),
            Vec::<u8>::new()
        );
        // Only empty lines is equivalent to empty.
        assert_eq!(
            canonicalize_body(Canonicalization::Simple, b"\r\n\r\n"),
            b"\r\n".to_vec()
        );
    }

    #[test]
    fn body_without_trailing_crlf() {
        assert_eq!(
            canonicalize_body(Canonicalization::Simple, b"line"),
            b"line\r\n".to_vec()
        );
    }

    #[test]
    fn relaxed_body_keeps_its_octets() {
        // §3.4.4 works on octets: 0xE9 (Latin-1 é, not UTF-8) stays
        // itself, trailing WSP goes and inner WSP collapses around it.
        assert_eq!(
            canonicalize_body(Canonicalization::Relaxed, b"caf\xe9 \t\r\n\xe9\t \xff \r\n"),
            b"caf\xe9\r\n\xe9 \xff\r\n".to_vec()
        );
        assert_eq!(
            canonicalize_body(Canonicalization::Simple, b"caf\xe9 \t\r\n"),
            b"caf\xe9 \t\r\n".to_vec()
        );
    }

    #[test]
    fn relaxed_header_keeps_non_ascii_octets() {
        // UTF-8 in a header value is copied byte for byte; a trailing
        // U+00A0 is not WSP, so it stays.
        let h = field("Subject", " caf\u{e9}  \u{434}\u{a0}\t");
        assert_eq!(
            canonicalize_header(Canonicalization::Relaxed, &h),
            "subject:caf\u{e9} \u{434}\u{a0}\r\n".as_bytes()
        );
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(
            Canonicalization::parse("RELAXED"),
            Some(Canonicalization::Relaxed)
        );
        assert_eq!(Canonicalization::parse("nope"), None);
        assert_eq!(Canonicalization::Simple.to_string(), "simple");
    }
}
