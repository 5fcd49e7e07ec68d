//! SMTP command grammar (RFC 5321 §4.1) and mailbox parsing.

use mailval_dns::Name;
use std::fmt;

/// An email address: local-part @ domain.
///
/// The domain is a DNS [`Name`] because everything the measurement does
/// with addresses is DNS-shaped (the From-domain *is* the SPF identity).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmailAddress {
    /// The local part, case-preserved (RFC 5321 §2.4: local parts are
    /// case-sensitive in principle).
    pub local: String,
    /// The domain.
    pub domain: Name,
}

impl EmailAddress {
    /// Construct from parts.
    pub fn new(local: &str, domain: Name) -> Self {
        EmailAddress {
            local: local.to_string(),
            domain,
        }
    }

    /// Parse `local@domain`. Quoted local parts are not supported (the
    /// measurement only generates dot-atom locals).
    pub fn parse(s: &str) -> Option<EmailAddress> {
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
        let domain = Name::parse(domain).ok()?;
        if domain.is_root() {
            return None;
        }
        Some(EmailAddress {
            local: local.to_string(),
            domain,
        })
    }
}

impl fmt::Display for EmailAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.local, self.domain)
    }
}

/// A parsed SMTP command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// EHLO with the client's identity (domain or address literal).
    Ehlo(String),
    /// HELO (legacy) with the client's identity.
    Helo(String),
    /// MAIL FROM:<reverse-path>; `None` is the null reverse path `<>`.
    Mail(Option<EmailAddress>),
    /// RCPT TO:<forward-path>.
    Rcpt(EmailAddress),
    /// DATA.
    Data,
    /// RSET.
    Rset,
    /// NOOP.
    Noop,
    /// QUIT.
    Quit,
    /// VRFY (we parse it; servers mostly refuse it).
    Vrfy(String),
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
fn parse_path(s: &str) -> Result<Option<EmailAddress>, CommandError> {
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
    EmailAddress::parse(inner)
        .map(Some)
        .ok_or(CommandError::BadArguments("malformed mailbox"))
}

impl Command {
    /// Parse one command line (without the trailing CRLF).
    /// ESMTP MAIL/RCPT parameters (e.g. `SIZE=123`, `BODY=8BITMIME`) are
    /// accepted and ignored.
    pub fn parse(line: &str) -> Result<Command, CommandError> {
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
                Ok(Command::Ehlo(args.to_string()))
            }
            b"HELO" => {
                if args.is_empty() {
                    return Err(CommandError::BadArguments("HELO requires a domain"));
                }
                Ok(Command::Helo(args.to_string()))
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
            b"VRFY" => Ok(Command::Vrfy(args.to_string())),
            _ => Err(CommandError::UnknownCommand(verb.to_ascii_uppercase())),
        }
    }

    /// Serialize to a wire line (without CRLF).
    pub fn to_line(&self) -> String {
        match self {
            Command::Ehlo(d) => verb_line("EHLO ", d),
            Command::Helo(d) => verb_line("HELO ", d),
            Command::Mail(from) => mail_line(from.as_ref()),
            Command::Rcpt(to) => rcpt_line(to),
            Command::Data => verb_line("DATA", ""),
            Command::Rset => verb_line("RSET", ""),
            Command::Noop => verb_line("NOOP", ""),
            Command::Quit => verb_line("QUIT", ""),
            Command::Vrfy(who) => verb_line("VRFY ", who),
        }
    }
}

/// `verb` then `arg`, with room for the CRLF a sender appends.
fn verb_line(verb: &str, arg: &str) -> String {
    let mut line = String::with_capacity(verb.len() + arg.len() + 2);
    line.push_str(verb);
    line.push_str(arg);
    line
}

/// `prefix`, then `<local@domain>` as [`EmailAddress`]'s `Display`
/// writes it, with room for the CRLF a sender appends.
fn path_line(prefix: &str, addr: &EmailAddress) -> String {
    // The root domain displays as ".".
    let domain = if addr.domain.is_root() {
        "."
    } else {
        addr.domain.as_str()
    };
    let len = prefix.len() + addr.local.len() + domain.len() + 5;
    let mut line = String::with_capacity(len);
    line.push_str(prefix);
    line.push('<');
    line.push_str(&addr.local);
    line.push('@');
    line.push_str(domain);
    line.push('>');
    line
}

/// The `MAIL FROM` line (without CRLF) for a borrowed reverse path;
/// `None` is the null reverse path `<>`.
pub(crate) fn mail_line(from: Option<&EmailAddress>) -> String {
    match from {
        Some(a) => path_line("MAIL FROM:", a),
        None => verb_line("MAIL FROM:<>", ""),
    }
}

/// The `RCPT TO` line (without CRLF) for a borrowed forward path.
pub(crate) fn rcpt_line(to: &EmailAddress) -> String {
    path_line("RCPT TO:", to)
}

/// Case-insensitively strip a leading keyword (e.g. `FROM:`); tolerate
/// optional whitespace after the colon (seen in the wild).
fn strip_keyword<'a>(s: &'a str, keyword: &str) -> Option<&'a str> {
    if s.len() < keyword.len() {
        return None;
    }
    let (head, tail) = s.split_at(keyword.len());
    if head.eq_ignore_ascii_case(keyword) {
        Some(tail.trim_start())
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
            Command::Ehlo("probe.dns-lab.org".into())
        );
        assert_eq!(
            Command::parse("helo legacy.test").unwrap(),
            Command::Helo("legacy.test".into())
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
            Command::Mail(Some(addr("a@b.test")))
        );
        assert_eq!(Command::parse("MAIL FROM:<>").unwrap(), Command::Mail(None));
        // Case-insensitive verb/keyword and space after colon.
        assert_eq!(
            Command::parse("mail from: <a@b.test>").unwrap(),
            Command::Mail(Some(addr("a@b.test")))
        );
        // ESMTP parameters ignored.
        assert_eq!(
            Command::parse("MAIL FROM:<a@b.test> SIZE=1024 BODY=8BITMIME").unwrap(),
            Command::Mail(Some(addr("a@b.test")))
        );
        // Source route stripped.
        assert_eq!(
            Command::parse("MAIL FROM:<@relay.test:a@b.test>").unwrap(),
            Command::Mail(Some(addr("a@b.test")))
        );
    }

    #[test]
    fn parse_rcpt() {
        assert_eq!(
            Command::parse("RCPT TO:<postmaster@b.test>").unwrap(),
            Command::Rcpt(addr("postmaster@b.test"))
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
            assert_eq!(mail_line(Some(a)), format!("MAIL FROM:<{a}>"));
            assert_eq!(rcpt_line(a), format!("RCPT TO:<{a}>"));
            assert_eq!(Command::Rcpt(a.clone()).to_line(), format!("RCPT TO:<{a}>"));
        }
        assert_eq!(rcpt_line(&root), "RCPT TO:<postmaster@.>");
        assert_eq!(mail_line(None), "MAIL FROM:<>");
        assert_eq!(Command::Mail(None).to_line(), "MAIL FROM:<>");
        for id in ["probe.dns-lab.org", "[192.0.2.1]", ""] {
            assert_eq!(Command::Ehlo(id.into()).to_line(), format!("EHLO {id}"));
            assert_eq!(Command::Helo(id.into()).to_line(), format!("HELO {id}"));
            assert_eq!(Command::Vrfy(id.into()).to_line(), format!("VRFY {id}"));
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
