//! SPF macro-string expansion (RFC 7208 §7).
//!
//! Domain specifications in mechanisms may contain macros like
//! `%{ir}.%{v}._spf.%{d}`. Expansion needs the evaluation context (sender,
//! IP, domain, HELO identity).

use std::fmt;
use std::net::IpAddr;

/// Context needed for macro expansion.
#[derive(Debug, Clone)]
pub struct MacroContext {
    /// `<s>`: the full sender (local@domain). When MAIL FROM is null, RFC
    /// 7208 §4.3 substitutes `postmaster@<HELO domain>`.
    pub sender: String,
    /// `<l>`: sender local part.
    pub local_part: String,
    /// `<o>`: sender domain.
    pub sender_domain: String,
    /// `<d>`: the domain currently being evaluated.
    pub domain: String,
    /// `<i>`: client IP.
    pub ip: IpAddr,
    /// `<h>`: HELO/EHLO identity.
    pub helo: String,
}

/// Expansion errors (map to `permerror` in evaluation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroError {
    /// `%` not followed by `{`, `%`, `_` or `-`.
    BadPercent,
    /// Unterminated `%{...}`.
    Unterminated,
    /// Unknown macro letter or malformed transformer.
    BadMacro(String),
}

impl fmt::Display for MacroError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacroError::BadPercent => write!(f, "bad %-escape"),
            MacroError::Unterminated => write!(f, "unterminated macro"),
            MacroError::BadMacro(m) => write!(f, "bad macro {m:?}"),
        }
    }
}

impl std::error::Error for MacroError {}

/// `<i>` expansion: dotted quad for IPv4; dot-separated lowercase nibbles
/// for IPv6 (RFC 7208 §7.3).
pub fn ip_macro_form(ip: IpAddr) -> String {
    match ip {
        IpAddr::V4(v4) => v4.to_string(),
        IpAddr::V6(v6) => {
            let octets = v6.octets();
            let mut parts = Vec::with_capacity(32);
            for b in octets {
                parts.push(format!("{:x}", b >> 4));
                parts.push(format!("{:x}", b & 0xf));
            }
            parts.join(".")
        }
    }
}

/// Expand a macro-string. `is_exp` enables the exp-only macros (c/r/t are
/// accepted but expanded to fixed placeholders, since the evaluator does
/// not carry them).
///
/// `ctx` is called for the context at each `%{...}` macro and at no
/// other time, so a caller can build it on first use: most domain-specs
/// hold no macro.
pub fn expand<'c>(
    spec: &str,
    mut ctx: impl FnMut() -> &'c MacroContext,
    is_exp: bool,
) -> Result<String, MacroError> {
    let mut out = String::with_capacity(spec.len());
    let bytes = spec.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'%' {
            // Copy the run up to the next escape as it is: a byte-by-byte
            // `as char` would re-encode every non-ASCII byte.
            let run = spec[i..].find('%').map_or(bytes.len(), |off| i + off);
            out.push_str(&spec[i..run]);
            i = run;
            continue;
        }
        match bytes.get(i + 1) {
            Some(b'%') => {
                out.push('%');
                i += 2;
            }
            Some(b'_') => {
                out.push(' ');
                i += 2;
            }
            Some(b'-') => {
                out.push_str("%20");
                i += 2;
            }
            Some(b'{') => {
                let end = spec[i + 2..].find('}').ok_or(MacroError::Unterminated)? + i + 2;
                let inner = &spec[i + 2..end];
                out.push_str(&expand_one(inner, ctx(), is_exp)?);
                i = end + 1;
            }
            _ => return Err(MacroError::BadPercent),
        }
    }
    Ok(out)
}

fn expand_one(inner: &str, ctx: &MacroContext, is_exp: bool) -> Result<String, MacroError> {
    let mut chars = inner.chars();
    let letter = chars
        .next()
        .ok_or_else(|| MacroError::BadMacro(inner.into()))?;
    let rest: String = chars.collect();

    let uppercase = letter.is_ascii_uppercase();
    let letter = letter.to_ascii_lowercase();

    let base = match letter {
        's' => ctx.sender.clone(),
        'l' => ctx.local_part.clone(),
        'o' => ctx.sender_domain.clone(),
        'd' => ctx.domain.clone(),
        'i' => ip_macro_form(ctx.ip),
        'h' => ctx.helo.clone(),
        'v' => match ctx.ip {
            IpAddr::V4(_) => "in-addr".to_string(),
            IpAddr::V6(_) => "ip6".to_string(),
        },
        'p' => {
            // Validated domain of the client IP. RFC 7208 §7.3 says use
            // "unknown" when not available; we never compute it (and §5.5
            // discourages its use).
            "unknown".to_string()
        }
        'c' | 'r' | 't' if is_exp => match letter {
            'c' => ip_macro_form(ctx.ip),
            'r' => "unknown".to_string(),
            _ => "0".to_string(),
        },
        _ => return Err(MacroError::BadMacro(inner.into())),
    };

    // Transformers: optional digits (keep N rightmost parts), optional 'r'
    // (reverse), then delimiter characters.
    let mut digits = String::new();
    let mut rest_chars = rest.chars().peekable();
    while let Some(&c) = rest_chars.peek() {
        if c.is_ascii_digit() {
            digits.push(c);
            rest_chars.next();
        } else {
            break;
        }
    }
    let reverse = matches!(rest_chars.peek(), Some('r') | Some('R'));
    if reverse {
        rest_chars.next();
    }
    let delims: Vec<char> = rest_chars.collect();
    for &d in &delims {
        if !matches!(d, '.' | '-' | '+' | ',' | '/' | '_' | '=') {
            return Err(MacroError::BadMacro(inner.into()));
        }
    }
    let delims: &[char] = if delims.is_empty() {
        &['.']
    } else {
        &delims[..]
    };

    let mut parts: Vec<&str> = base.split(|c| delims.contains(&c)).collect();
    if reverse {
        parts.reverse();
    }
    if !digits.is_empty() {
        let n: usize = digits
            .parse()
            .map_err(|_| MacroError::BadMacro(inner.into()))?;
        if n == 0 {
            return Err(MacroError::BadMacro(inner.into()));
        }
        let start = parts.len().saturating_sub(n);
        parts = parts[start..].to_vec();
    }
    let joined = parts.join(".");

    Ok(if uppercase {
        // URL-escape (RFC 7208 §7.3 "URL encoding").
        let mut escaped = String::with_capacity(joined.len());
        for b in joined.bytes() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
                escaped.push(b as char);
            } else {
                escaped.push_str(&format!("%{b:02X}"));
            }
        }
        escaped
    } else {
        joined
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn ctx() -> MacroContext {
        MacroContext {
            sender: "strong-bad@email.example.com".into(),
            local_part: "strong-bad".into(),
            sender_domain: "email.example.com".into(),
            domain: "email.example.com".into(),
            ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 3)),
            helo: "mail.example.com".into(),
        }
    }

    // RFC 7208 §7.4 examples.
    #[test]
    fn rfc_examples() {
        let c = ctx();
        assert_eq!(
            expand("%{s}", || &c, false).unwrap(),
            "strong-bad@email.example.com"
        );
        assert_eq!(expand("%{o}", || &c, false).unwrap(), "email.example.com");
        assert_eq!(expand("%{d}", || &c, false).unwrap(), "email.example.com");
        assert_eq!(expand("%{d4}", || &c, false).unwrap(), "email.example.com");
        assert_eq!(expand("%{d3}", || &c, false).unwrap(), "email.example.com");
        assert_eq!(expand("%{d2}", || &c, false).unwrap(), "example.com");
        assert_eq!(expand("%{d1}", || &c, false).unwrap(), "com");
        assert_eq!(expand("%{dr}", || &c, false).unwrap(), "com.example.email");
        assert_eq!(expand("%{d2r}", || &c, false).unwrap(), "example.email");
        assert_eq!(expand("%{l}", || &c, false).unwrap(), "strong-bad");
        assert_eq!(expand("%{l-}", || &c, false).unwrap(), "strong.bad");
        assert_eq!(expand("%{lr}", || &c, false).unwrap(), "strong-bad");
        assert_eq!(expand("%{lr-}", || &c, false).unwrap(), "bad.strong");
        assert_eq!(expand("%{l1r-}", || &c, false).unwrap(), "strong");
    }

    #[test]
    fn rfc_composite_examples() {
        let c = ctx();
        assert_eq!(
            expand("%{ir}.%{v}._spf.%{d2}", || &c, false).unwrap(),
            "3.2.0.192.in-addr._spf.example.com"
        );
        assert_eq!(
            expand("%{lr-}.lp._spf.%{d2}", || &c, false).unwrap(),
            "bad.strong.lp._spf.example.com"
        );
        assert_eq!(
            expand("%{ir}.%{v}.%{l1r-}.lp._spf.%{d2}", || &c, false).unwrap(),
            "3.2.0.192.in-addr.strong.lp._spf.example.com"
        );
        assert_eq!(
            expand("%{d2}.trusted-domains.example.net", || &c, false).unwrap(),
            "example.com.trusted-domains.example.net"
        );
    }

    #[test]
    fn ipv6_form() {
        let mut c = ctx();
        c.ip = IpAddr::V6("2001:db8::cb01".parse::<Ipv6Addr>().unwrap());
        let expanded = expand("%{ir}.%{v}._spf.%{d2}", || &c, false).unwrap();
        assert_eq!(
            expanded,
            "1.0.b.c.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0.1.0.0.2.ip6._spf.example.com"
        );
    }

    #[test]
    fn literal_escapes() {
        let c = ctx();
        assert_eq!(expand("a%%b", || &c, false).unwrap(), "a%b");
        assert_eq!(expand("a%_b", || &c, false).unwrap(), "a b");
        assert_eq!(expand("a%-b", || &c, false).unwrap(), "a%20b");
    }

    #[test]
    fn errors() {
        let c = ctx();
        assert_eq!(expand("%x", || &c, false), Err(MacroError::BadPercent));
        assert_eq!(expand("%{d", || &c, false), Err(MacroError::Unterminated));
        assert!(matches!(
            expand("%{q}", || &c, false),
            Err(MacroError::BadMacro(_))
        ));
        assert!(matches!(
            expand("%{d0}", || &c, false),
            Err(MacroError::BadMacro(_))
        ));
        // exp-only macros outside exp:
        assert!(matches!(
            expand("%{c}", || &c, false),
            Err(MacroError::BadMacro(_))
        ));
        assert!(expand("%{c}", || &c, true).is_ok());
    }

    #[test]
    fn uppercase_url_escapes() {
        let c = ctx();
        assert_eq!(
            expand("%{S}", || &c, false).unwrap(),
            "strong-bad%40email.example.com"
        );
    }

    #[test]
    fn no_macros_passthrough() {
        let c = ctx();
        assert_eq!(
            expand("plain.example.org", || &c, false).unwrap(),
            "plain.example.org"
        );
        // Only a `%{...}` macro asks for the context, once per macro.
        let mut asked = 0;
        let mut counted = || {
            asked += 1;
            &c
        };
        assert_eq!(
            expand("a%%b%_c%-d", &mut counted, false).unwrap(),
            "a%b c%20d"
        );
        assert_eq!(
            expand("%{d2}.%{l}", &mut counted, false).unwrap(),
            "example.com.strong-bad"
        );
        assert_eq!(asked, 2);
    }

    #[test]
    fn non_ascii_text_passes_through_byte_identical() {
        let c = ctx();
        for spec in [
            "\u{e9}.example",
            "\u{434}\u{43e}\u{43c}.example",
            "a.\u{2603}",
        ] {
            let expanded = expand(spec, || &c, false).unwrap();
            assert_eq!(expanded.as_bytes(), spec.as_bytes(), "{spec:?}");
        }
        assert_eq!(
            expand("%{d1}.\u{e9}%%", || &c, false).unwrap(),
            "com.\u{e9}%"
        );
        // The name error names the record's own byte: 0xd0, the lead
        // byte of U+0434, not the 0xc3 of a Latin-1 re-encoding.
        let expanded = expand("\u{434}.example", || &c, false).unwrap();
        assert_eq!(
            mailval_dns::Name::parse(&expanded),
            Err(mailval_dns::NameError::BadCharacter(0xd0))
        );
    }
}
