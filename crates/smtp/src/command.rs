//! SMTP command grammar (RFC 5321 §4.1) and mailbox parsing.
//!
//! A [`Command`] borrows its arguments from the line it was parsed from;
//! the server reads them there, and builds an owned [`EmailAddress`]
//! (a DNS [`Name`]) only for an address it keeps.

use mailval_dns::Name;
use std::borrow::Cow;
use std::fmt;

/// An email address: local-part @ domain.
///
/// The domain is a DNS [`Name`] because everything the measurement does
/// with addresses is DNS-shaped (the From-domain *is* the SPF identity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmailAddress {
    /// The local part, case-preserved (RFC 5321 §2.4: local parts are
    /// case-sensitive in principle). A fixed local part (the probe
    /// usernames, `spf-test`) is shared, not copied.
    pub local: Cow<'static, str>,
    /// The domain.
    pub domain: Name,
}

impl EmailAddress {
    /// Construct from parts.
    pub fn new(local: impl Into<Cow<'static, str>>, domain: Name) -> Self {
        EmailAddress {
            local: local.into(),
            domain,
        }
    }

    /// Parse `local@domain`. Quoted local parts are not supported (the
    /// measurement only generates dot-atom locals).
    pub fn parse(s: &str) -> Option<EmailAddress> {
        Mailbox::parse(s).map(|m| m.to_address())
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.local, self.domain)
    }
}

/// A checked `local@domain` borrowed from the text it was parsed from:
/// what [`EmailAddress::parse`] accepts, before any of it is copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mailbox<'a> {
    local: &'a str,
    domain: &'a str,
}

impl<'a> Mailbox<'a> {
    /// Check `local@domain` as [`EmailAddress::parse`] does: a non-empty
    /// local part of dot-atom characters, and a domain that parses as a
    /// name other than the root.
    pub fn parse(s: &'a str) -> Option<Mailbox<'a>> {
        let (local, domain) = s.rsplit_once('@')?;
        if local.is_empty() {
            return None;
        }
        for b in local.bytes() {
            // dot-atom characters (RFC 5322 §3.2.3), pragmatically chosen.
            let ok = b.is_ascii_alphanumeric()
                || matches!(
                    b,
                    b'.' | b'-'
                        | b'_'
                        | b'+'
                        | b'='
                        | b'!'
                        | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'/'
                        | b'?'
                        | b'^'
                        | b'`'
                        | b'{'
                        | b'|'
                        | b'}'
                        | b'~'
                );
            if !ok {
                return None;
            }
        }
        match Name::check(domain) {
            Ok(false) => Some(Mailbox { local, domain }),
            Ok(true) | Err(_) => None,
        }
    }

    /// The local part, as written.
    pub fn local(&self) -> &'a str {
        self.local
    }

    /// The domain, as written (any case, maybe with a trailing dot).
    pub fn domain(&self) -> &'a str {
        self.domain
    }

    /// The domain as a [`Name`].
    pub fn domain_name(&self) -> Name {
        // `parse` let only a domain through that `Name::check` passed,
        // and `Name::parse` accepts exactly that text.
        Name::parse(self.domain).expect("a mailbox's domain was checked")
    }

    /// The address, owned.
    pub fn to_address(&self) -> EmailAddress {
        EmailAddress::new(self.local.to_string(), self.domain_name())
    }
}

/// A parsed SMTP command, borrowing its arguments from its line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'a> {
    /// EHLO with the client's identity (domain or address literal).
    Ehlo(&'a str),
    /// HELO (legacy) with the client's identity.
    Helo(&'a str),
    /// MAIL FROM:<reverse-path>; `None` is the null reverse path `<>`.
    Mail(Option<Mailbox<'a>>),
    /// RCPT TO:<forward-path>.
    Rcpt(Mailbox<'a>),
    /// DATA.
    Data,
    /// RSET.
    Rset,
    /// NOOP.
    Noop,
    /// QUIT.
    Quit,
    /// VRFY (we parse it; servers mostly refuse it).
    Vrfy(&'a str),
}

/// Why a command line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// Verb not recognized.
    UnknownCommand(String),
    /// Verb recognized, arguments malformed.
    BadArguments(&'static str),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::UnknownCommand(verb) => write!(f, "unknown command {verb:?}"),
            CommandError::BadArguments(what) => write!(f, "bad arguments: {what}"),
        }
    }
}

impl std::error::Error for CommandError {}

/// Parse an angle-bracketed path, e.g. `<user@example.com>` or `<>`.
/// Source routes (`<@relay:user@dom>`) are accepted and the route ignored,
/// per RFC 5321 §C.
fn parse_path(s: &str) -> Result<Option<Mailbox<'_>>, CommandError> {
    let s = s.trim();
    let inner = s
        .strip_prefix('<')
        .and_then(|rest| rest.strip_suffix('>'))
        .ok_or(CommandError::BadArguments("path must be angle-bracketed"))?;
    if inner.is_empty() {
        return Ok(None);
    }
    // Strip an optional source route "@a,@b:".
    let inner = match inner.rfind(':') {
        Some(pos) if inner.starts_with('@') => &inner[pos + 1..],
        _ => inner,
    };
    Mailbox::parse(inner)
        .map(Some)
        .ok_or(CommandError::BadArguments("malformed mailbox"))
}

impl<'a> Command<'a> {
    /// Parse one command line (without the trailing CRLF).
    /// ESMTP MAIL/RCPT parameters (e.g. `SIZE=123`, `BODY=8BITMIME`) are
    /// accepted and ignored.
    pub fn parse(line: &'a str) -> Result<Command<'a>, CommandError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, args) = match line.find(' ') {
            Some(pos) => (&line[..pos], line[pos + 1..].trim()),
            None => (line, ""),
        };
        // Every verb is four ASCII letters: uppercase a copy on the stack.
        let mut key = [0u8; 4];
        if verb.len() == key.len() {
            key.copy_from_slice(verb.as_bytes());
            key.make_ascii_uppercase();
        }
        match &key {
            b"EHLO" => {
                if args.is_empty() {
                    return Err(CommandError::BadArguments("EHLO requires a domain"));
                }
                Ok(Command::Ehlo(args))
            }
            b"HELO" => {
                if args.is_empty() {
                    return Err(CommandError::BadArguments("HELO requires a domain"));
                }
                Ok(Command::Helo(args))
            }
            b"MAIL" => {
                let rest = strip_keyword(args, "FROM:")
                    .ok_or(CommandError::BadArguments("expected FROM:"))?;
                let (path, _params) = split_params(rest);
                Ok(Command::Mail(parse_path(path)?))
            }
            b"RCPT" => {
                let rest =
                    strip_keyword(args, "TO:").ok_or(CommandError::BadArguments("expected TO:"))?;
                let (path, _params) = split_params(rest);
                match parse_path(path)? {
                    Some(addr) => Ok(Command::Rcpt(addr)),
                    None => Err(CommandError::BadArguments("RCPT path cannot be null")),
                }
            }
            b"DATA" => Ok(Command::Data),
            b"RSET" => Ok(Command::Rset),
            b"NOOP" => Ok(Command::Noop),
            b"QUIT" => Ok(Command::Quit),
            b"VRFY" => Ok(Command::Vrfy(args)),
            _ => Err(CommandError::UnknownCommand(verb.to_ascii_uppercase())),
        }
    }

    /// Serialize to a wire line (without CRLF).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Append the wire line (without CRLF) to `out`.
    pub fn write_line(&self, out: &mut String) {
        match self {
            Command::Ehlo(d) => out.extend(["EHLO ", d]),
            Command::Helo(d) => out.extend(["HELO ", d]),
            Command::Mail(None) => out.push_str("MAIL FROM:<>"),
            Command::Mail(Some(m)) => push_path(out, "MAIL FROM:", m.local, m.domain),
            Command::Rcpt(m) => push_path(out, "RCPT TO:", m.local, m.domain),
            Command::Data => out.push_str("DATA"),
            Command::Rset => out.push_str("RSET"),
            Command::Noop => out.push_str("NOOP"),
            Command::Quit => out.push_str("QUIT"),
            Command::Vrfy(who) => out.extend(["VRFY ", who]),
        }
    }
}

/// Append `prefix`, then `<local@domain>`.
fn push_path(out: &mut String, prefix: &str, local: &str, domain: &str) {
    out.extend([prefix, "<", local, "@", domain, ">"]);
}

/// Append the `MAIL FROM` line (without CRLF) for a borrowed reverse
/// path, as [`EmailAddress`]'s `Display` writes it; `None` is the null
/// reverse path `<>`.
pub(crate) fn push_mail_line(out: &mut String, from: Option<&EmailAddress>) {
    match from {
        Some(a) => push_path(out, "MAIL FROM:", &a.local, display_domain(&a.domain)),
        None => out.push_str("MAIL FROM:<>"),
    }
}

/// Append the `RCPT TO` line (without CRLF) for a borrowed forward path.
pub(crate) fn push_rcpt_line(out: &mut String, to: &EmailAddress) {
    push_path(out, "RCPT TO:", &to.local, display_domain(&to.domain));
}

/// A domain's text as `Display` writes it: the root domain is ".".
fn display_domain(domain: &Name) -> &str {
    if domain.is_root() {
        "."
    } else {
        domain.as_str()
    }
}

/// Case-insensitively strip a leading keyword (e.g. `FROM:`); tolerate
/// optional whitespace after the colon (seen in the wild).
fn strip_keyword<'a>(s: &'a str, keyword: &str) -> Option<&'a str> {
    // `get`, not `split_at`: the keyword is ASCII, so text whose byte
    // at the keyword's length is inside a multibyte char cannot start
    // with it, and must not panic the split.
    let head = s.get(..keyword.len())?;
    if head.eq_ignore_ascii_case(keyword) {
        Some(s[keyword.len()..].trim_start())
    } else {
        None
    }
}

/// Split `<path> param1 param2 ...` into the path and parameter tail.
fn split_params(s: &str) -> (&str, &str) {
    // The path ends at the first '>' (or at the first space for robustness).
    if let Some(pos) = s.find('>') {
        (&s[..=pos], s[pos + 1..].trim())
    } else {
        match s.find(' ') {
            Some(pos) => (&s[..pos], s[pos + 1..].trim()),
            None => (s, ""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> EmailAddress {
        EmailAddress::parse(s).unwrap()
    }

    fn mbox(s: &str) -> Mailbox<'_> {
        Mailbox::parse(s).unwrap()
    }

    fn line(write: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        write(&mut out);
        out
    }

    #[test]
    fn parse_addresses() {
        let a = addr("spf-test@t01.m5.spf-test.dns-lab.org");
        assert_eq!(a.local, "spf-test");
        assert_eq!(
            a.domain,
            Name::parse("t01.m5.spf-test.dns-lab.org").unwrap()
        );
        assert!(EmailAddress::parse("no-at-sign").is_none());
        assert!(EmailAddress::parse("@nodomain").is_none());
        assert!(EmailAddress::parse("a@").is_none());
        assert!(EmailAddress::parse("sp ace@x.test").is_none());
        assert_eq!(addr("john.smith+tag@x.test").local, "john.smith+tag");
    }

    #[test]
    fn parse_basic_commands() {
        assert_eq!(
            Command::parse("EHLO probe.dns-lab.org").unwrap(),
            Command::Ehlo("probe.dns-lab.org")
        );
        assert_eq!(
            Command::parse("helo legacy.test").unwrap(),
            Command::Helo("legacy.test")
        );
        assert_eq!(Command::parse("DATA").unwrap(), Command::Data);
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        assert_eq!(Command::parse("RSET").unwrap(), Command::Rset);
        assert_eq!(Command::parse("NOOP").unwrap(), Command::Noop);
    }

    #[test]
    fn parse_mail_variants() {
        assert_eq!(
            Command::parse("MAIL FROM:<a@b.test>").unwrap(),
            Command::Mail(Some(mbox("a@b.test")))
        );
        assert_eq!(Command::parse("MAIL FROM:<>").unwrap(), Command::Mail(None));
        // Case-insensitive verb/keyword and space after colon.
        assert_eq!(
            Command::parse("mail from: <a@b.test>").unwrap(),
            Command::Mail(Some(mbox("a@b.test")))
        );
        // ESMTP parameters ignored.
        assert_eq!(
            Command::parse("MAIL FROM:<a@b.test> SIZE=1024 BODY=8BITMIME").unwrap(),
            Command::Mail(Some(mbox("a@b.test")))
        );
        // Source route stripped.
        assert_eq!(
            Command::parse("MAIL FROM:<@relay.test:a@b.test>").unwrap(),
            Command::Mail(Some(mbox("a@b.test")))
        );
    }

    #[test]
    fn parse_rcpt() {
        assert_eq!(
            Command::parse("RCPT TO:<postmaster@b.test>").unwrap(),
            Command::Rcpt(mbox("postmaster@b.test"))
        );
        assert!(Command::parse("RCPT TO:<>").is_err());
        assert!(Command::parse("RCPT <a@b.test>").is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Command::parse("FROB x"),
            Err(CommandError::UnknownCommand(_))
        ));
        assert!(Command::parse("EHLO").is_err());
        assert!(Command::parse("MAIL FROM:a@b.test").is_err()); // no brackets
    }

    #[test]
    fn lines_match_the_formatted_form() {
        let root = EmailAddress {
            local: "postmaster".into(),
            domain: Name::root(),
        };
        let plain = addr("john.smith+tag@t01.m00042.spf-test.dns-lab.org");
        for a in [&root, &plain] {
            assert_eq!(
                line(|o| push_mail_line(o, Some(a))),
                format!("MAIL FROM:<{a}>")
            );
            assert_eq!(line(|o| push_rcpt_line(o, a)), format!("RCPT TO:<{a}>"));
        }
        let text = plain.to_string();
        assert_eq!(
            Command::Rcpt(mbox(&text)).to_line(),
            format!("RCPT TO:<{plain}>")
        );
        assert_eq!(line(|o| push_rcpt_line(o, &root)), "RCPT TO:<postmaster@.>");
        assert_eq!(line(|o| push_mail_line(o, None)), "MAIL FROM:<>");
        assert_eq!(Command::Mail(None).to_line(), "MAIL FROM:<>");
        for id in ["probe.dns-lab.org", "[192.0.2.1]", ""] {
            assert_eq!(Command::Ehlo(id).to_line(), format!("EHLO {id}"));
            assert_eq!(Command::Helo(id).to_line(), format!("HELO {id}"));
            assert_eq!(Command::Vrfy(id).to_line(), format!("VRFY {id}"));
        }
    }

    #[test]
    fn multibyte_text_at_a_keyword_boundary_is_bad_arguments() {
        // The keyword's length falls inside the two-byte char: the
        // keyword check must refuse it, not split it.
        for line in ["MAIL FROM\u{e9}<a@b.test>", "RCPT TO\u{e9}<a@b.test>"] {
            assert!(
                matches!(Command::parse(line), Err(CommandError::BadArguments(_))),
                "{line:?}"
            );
        }
    }

    #[test]
    fn a_mailbox_is_the_text_around_its_last_at() {
        for s in ["a@b.test", "A.b+c@B.Test.", "x_y@z.test"] {
            let m = mbox(s);
            assert_eq!(format!("{}@{}", m.local(), m.domain()), s);
            assert_eq!(m.to_address(), addr(s));
            assert_eq!(m.domain_name(), Name::parse(m.domain()).unwrap());
        }
        for s in [
            "@b.test",
            "a@",
            "a@.",
            "a b@c.test",
            "a@b..test",
            "x@y@z.test",
            "\u{e9}@b.test",
        ] {
            assert_eq!(Mailbox::parse(s), None, "{s:?}");
        }
    }

    #[test]
    fn verbs_match_case_insensitively_and_unknown_ones_are_uppercased() {
        for line in ["eHlO x.test", "Quit", "dAtA", "rset", "NoOp"] {
            assert!(Command::parse(line).is_ok(), "{line}");
        }
        for (line, verb) in [
            ("frob x", "FROB"),
            ("quits", "QUITS"),
            ("qui", "QUI"),
            ("", ""),
            ("h\u{e9}lo x", "H\u{e9}LO"),
            ("\u{e9}hlo", "\u{e9}HLO"),
        ] {
            assert_eq!(
                Command::parse(line),
                Err(CommandError::UnknownCommand(verb.into())),
                "{line:?}"
            );
        }
    }

    #[test]
    fn roundtrip_lines() {
        for line in [
            "EHLO probe.test",
            "HELO probe.test",
            "MAIL FROM:<a@b.test>",
            "MAIL FROM:<>",
            "RCPT TO:<c@d.test>",
            "DATA",
            "RSET",
            "NOOP",
            "QUIT",
        ] {
            let cmd = Command::parse(line).unwrap();
            assert_eq!(Command::parse(&cmd.to_line()).unwrap(), cmd);
        }
    }
}
