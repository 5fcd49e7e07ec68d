//! Domain names (RFC 1035 §2.3, §3.1).
//!
//! A [`Name`] is one immutable, shared allocation: an `Arc<str>` holding
//! the lowercase dotted text without the trailing root dot (`""` is the
//! root). DNS names are case-insensitive (RFC 1035 §2.3.3) and every name
//! produced or consumed by the measurement apparatus is lowercase, so
//! normalizing at the edge makes equality and hashing plain text
//! comparisons. Cloning bumps a reference count, so the query log, the
//! resolver cache and the probe blueprints share a name's bytes instead
//! of copying them label by label.
//!
//! Ordering stays label by label (see [`Name`]'s `Ord`), so sorted maps
//! keyed by names iterate as they always have.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Maximum length of a single label in bytes.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`foo..bar`) in a position where that is invalid.
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong,
    /// The whole name exceeded 255 wire bytes.
    NameTooLong,
    /// A label contained a byte outside printable ASCII.
    BadCharacter(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong => write!(f, "label exceeds 63 bytes"),
            NameError::NameTooLong => write!(f, "name exceeds 255 bytes"),
            NameError::BadCharacter(b) => write!(f, "invalid character 0x{b:02x} in label"),
        }
    }
}

impl std::error::Error for NameError {}

/// Longest dotted text of a valid name: its wire form adds one length
/// octet more than it has dots, plus the terminating zero.
const MAX_TEXT_LEN: usize = MAX_NAME_LEN - 2;

/// A fully-qualified domain name: its labels, lowercase, joined by `.`
/// without the trailing root dot.
///
/// The root name is the empty text and displays as `.`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    /// Labels of 1–63 bytes of lowercase printable ASCII other than `.`,
    /// joined by `.`, at most [`MAX_TEXT_LEN`] bytes in all.
    text: Arc<str>,
}

// A fat pointer and nothing else: a name must not regrow per label.
const _: () = assert!(std::mem::size_of::<Name>() == 16);

impl Name {
    /// The root name.
    pub fn root() -> Self {
        Name::from_canonical("")
    }

    /// Wrap text that already satisfies the field's invariant (the wire
    /// decoder validates as it copies).
    pub(crate) fn from_canonical(text: &str) -> Self {
        Name { text: text.into() }
    }

    /// Parse from presentation format (`mail.example.com`, optional
    /// trailing dot). The empty string and `"."` both give the root.
    ///
    /// Text that is already canonical (what every stored or generated
    /// name is) is wrapped as it stands. Any other text takes one pass
    /// over the bytes: each label is checked when its `.` (or the end)
    /// is reached, for emptiness, then length, then its first bad byte,
    /// and the whole text's length last, so the first label at fault
    /// decides the error. Text with an uppercase byte is lowercased on
    /// the stack first, so the name's own allocation is the only one.
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let text = s.strip_suffix('.').unwrap_or(s);
        if text.is_empty() {
            return Ok(Name::root());
        }
        if Self::is_canonical(text.as_bytes()) || !Self::check_text(text.as_bytes())? {
            return Ok(Name::from_canonical(text));
        }
        let mut lower = [0; MAX_TEXT_LEN];
        let lower = &mut lower[..text.len()];
        lower.copy_from_slice(text.as_bytes());
        lower.make_ascii_lowercase();
        let lower = std::str::from_utf8(lower).expect("validated labels are ASCII");
        Ok(Name::from_canonical(lower))
    }

    /// Check `s` as [`Name::parse`] would, without building the name:
    /// the same error for the same text, and `Ok(true)` for text that
    /// names the root.
    pub fn check(s: &str) -> Result<bool, NameError> {
        let text = s.strip_suffix('.').unwrap_or(s);
        if text.is_empty() {
            return Ok(true);
        }
        if !Self::is_canonical(text.as_bytes()) {
            Self::check_text(text.as_bytes())?;
        }
        Ok(false)
    }

    /// The ordered walk behind [`Name::parse`]: the first fault of
    /// `text` (a name without its trailing dot), or whether it has an
    /// uppercase byte.
    fn check_text(text: &[u8]) -> Result<bool, NameError> {
        let mut label_len = 0;
        let mut bad = None;
        let mut upper = false;
        for &b in text {
            if b == b'.' {
                Self::end_label(label_len, bad)?;
                label_len = 0;
                continue;
            }
            label_len += 1;
            // Printable ASCII; '.' ended the label above.
            if !(0x21..=0x7e).contains(&b) {
                bad = bad.or(Some(b));
            }
            upper |= b.is_ascii_uppercase();
        }
        Self::end_label(label_len, bad)?;
        if text.len() > MAX_TEXT_LEN {
            return Err(NameError::NameTooLong);
        }
        Ok(upper)
    }

    /// True when `text` satisfies the field's invariant as it stands: at
    /// most [`MAX_TEXT_LEN`] bytes, each printable ASCII and not
    /// uppercase, in labels of 1–63 bytes. It says only whether;
    /// [`Name::check_text`] says why not.
    fn is_canonical(text: &[u8]) -> bool {
        let (Some(&first), Some(&last)) = (text.first(), text.last()) else {
            return false;
        };
        if text.len() > MAX_TEXT_LEN {
            return false;
        }
        // Branch-free folds over the bytes: a disallowed byte, and an
        // empty label (a dot at either end or two in a row).
        let bad = text.iter().fold(false, |bad, &b| {
            bad | !(0x21..=0x7e).contains(&b) | b.is_ascii_uppercase()
        });
        let empty = text
            .iter()
            .zip(&text[1..])
            .fold((first == b'.') | (last == b'.'), |empty, (&a, &b)| {
                empty | ((a == b'.') & (b == b'.'))
            });
        // Only a text longer than one label can hold a label too long.
        !(bad | empty)
            && (text.len() <= MAX_LABEL_LEN
                || text
                    .split(|&b| b == b'.')
                    .all(|label| label.len() <= MAX_LABEL_LEN))
    }

    /// Check a label `len` bytes long whose first bad byte, if any, is
    /// `bad`: emptiness, then length, then the byte, as
    /// [`Name::from_labels`] checks each label.
    fn end_label(len: usize, bad: Option<u8>) -> Result<(), NameError> {
        if len == 0 {
            return Err(NameError::EmptyLabel);
        }
        if len > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong);
        }
        match bad {
            Some(b) => Err(NameError::BadCharacter(b)),
            None => Ok(()),
        }
    }

    fn check_label(label: &str) -> Result<(), NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong);
        }
        for &b in label.as_bytes() {
            // Accept any printable ASCII except '.' — hostnames in the wild
            // (and our synthesized test names) use letters, digits, '-', '_'.
            if !(0x21..=0x7e).contains(&b) || b == b'.' {
                return Err(NameError::BadCharacter(b));
            }
        }
        Ok(())
    }

    /// Construct from labels (each validated and lowercased).
    pub fn from_labels<I, S>(iter: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = TextBuf::new();
        for label in iter {
            let label = label.as_ref();
            Self::check_label(label)?;
            text.push(label);
        }
        text.finish()
    }

    /// The dotted text without a trailing dot, e.g. `"mail.example.com"`;
    /// `""` for the root, which [`Display`](fmt::Display) writes as `"."`.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        // No label is empty, so only the root's `""` has an (empty)
        // trailing piece, and `split_terminator` skips it.
        self.text.split_terminator('.')
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// Length in wire bytes (length octets + labels + terminating zero).
    pub fn wire_len(&self) -> usize {
        if self.is_root() {
            1
        } else {
            self.text.len() + 2
        }
    }

    /// The parent name (one label removed from the left); `None` at root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            return None;
        }
        Some(match self.text.split_once('.') {
            Some((_, rest)) => Name::from_canonical(rest),
            None => Name::root(),
        })
    }

    /// Prepend a label: `label.self`.
    pub fn prepend(&self, label: &str) -> Result<Name, NameError> {
        Self::check_label(label)?;
        let mut text = TextBuf::new();
        text.push(label);
        text.push(&self.text);
        text.finish()
    }

    /// Concatenate: `self.other` (self's labels first).
    pub fn concat(&self, other: &Name) -> Result<Name, NameError> {
        let mut text = TextBuf::new();
        text.push(&self.text);
        text.push(&other.text);
        text.finish()
    }

    /// True if `self` equals `ancestor` or is a subdomain of it.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        self.strip_suffix(ancestor).is_some()
    }

    /// Strip `suffix` from the right, returning the remaining left labels
    /// as dotted text (`""` when `self == suffix`).
    ///
    /// `strip_suffix("a.b.example.com", "example.com") == Some("a.b")`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<&str> {
        if suffix.is_root() {
            return Some(&self.text);
        }
        match self.text.strip_suffix(&*suffix.text)? {
            "" => Some(""),
            left => left.strip_suffix('.'),
        }
    }

    /// The `n` rightmost labels as a name (n may exceed the label count, in
    /// which case the whole name is returned).
    pub fn suffix(&self, n: usize) -> Name {
        if n == 0 {
            return Name::root();
        }
        match self.text.rmatch_indices('.').nth(n - 1) {
            Some((dot, _)) => Name::from_canonical(&self.text[dot + 1..]),
            None => self.clone(),
        }
    }
}

/// A name's text under construction, kept on the stack so that the
/// name's shared allocation is its only heap allocation.
struct TextBuf {
    bytes: [u8; MAX_TEXT_LEN],
    /// Length of the text pushed so far; may exceed [`MAX_TEXT_LEN`],
    /// in which case only the first `MAX_TEXT_LEN` bytes were kept and
    /// [`TextBuf::finish`] fails.
    len: usize,
}

impl TextBuf {
    fn new() -> Self {
        TextBuf {
            bytes: [0; MAX_TEXT_LEN],
            len: 0,
        }
    }

    /// Append validated labels (one, or a name's dotted text; `""`
    /// appends nothing), lowercased, after a `.` unless first.
    fn push(&mut self, labels: &str) {
        if labels.is_empty() {
            return;
        }
        if self.len > 0 {
            self.put(b'.');
        }
        for &b in labels.as_bytes() {
            self.put(b.to_ascii_lowercase());
        }
    }

    fn put(&mut self, b: u8) {
        if let Some(slot) = self.bytes.get_mut(self.len) {
            *slot = b;
        }
        self.len += 1;
    }

    fn finish(self) -> Result<Name, NameError> {
        let text = self.bytes.get(..self.len).ok_or(NameError::NameTooLong)?;
        let text = std::str::from_utf8(text).expect("validated labels are ASCII");
        Ok(Name::from_canonical(text))
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl Ord for Name {
    /// Label by label, leftmost first. Comparing the dotted text instead
    /// would sort `a.b` after `a-c` (`.` is 0x2e, `-` is 0x2d) and so
    /// reorder every `BTreeMap<Name, _>`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_root() { "." } else { &self.text })
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::str::FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("example.com").to_string(), "example.com");
        assert_eq!(n("Example.COM.").to_string(), "example.com");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("a.b.c").label_count(), 3);
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("MAIL.Example.Com"), n("mail.example.com"));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!(Name::parse("a..b"), Err(NameError::EmptyLabel));
        let long = "x".repeat(64);
        assert_eq!(Name::parse(&long), Err(NameError::LabelTooLong));
        assert_eq!(Name::parse("a b"), Err(NameError::BadCharacter(b' ')));
    }

    #[test]
    fn rejects_too_long_name() {
        let label = "a".repeat(63);
        let long = [label.as_str(); 5].join(".");
        assert_eq!(Name::parse(&long), Err(NameError::NameTooLong));
    }

    #[test]
    fn check_agrees_with_parse() {
        let long = ["a".repeat(63).as_str(); 5].join(".");
        let label = "x".repeat(64);
        for s in [
            "",
            ".",
            "a",
            "A.b.",
            "a..b",
            ".a",
            "a.",
            "a b",
            "\u{e9}.x",
            "x.\x7f",
            &long,
            &label,
            "t01.m9.spf-test.dns-lab.org",
            "Org00042.COM",
        ] {
            let parsed = Name::parse(s).map(|n| n.is_root());
            assert_eq!(Name::check(s), parsed, "{s:?}");
        }
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("").wire_len(), 1);
        assert_eq!(n("com").wire_len(), 5); // 1+3 + 1
        assert_eq!(n("example.com").wire_len(), 13);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("a.b.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("a.example.com")));
        assert!(!n("notexample.com").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn strip_suffix_labels() {
        let name = n("t01.m5.spf-test.dns-lab.org");
        let suffix = n("spf-test.dns-lab.org");
        assert_eq!(name.strip_suffix(&suffix), Some("t01.m5"));
        assert_eq!(suffix.strip_suffix(&suffix), Some(""));
        assert_eq!(
            name.strip_suffix(&Name::root()),
            Some("t01.m5.spf-test.dns-lab.org")
        );
        assert_eq!(name.strip_suffix(&n("other.org")), None);
    }

    #[test]
    fn parent_and_prepend() {
        assert_eq!(n("a.b.c").parent().unwrap(), n("b.c"));
        assert_eq!(Name::root().parent(), None);
        assert_eq!(n("b.c").prepend("a").unwrap(), n("a.b.c"));
        assert_eq!(n("b.c").concat(&n("d.e")).unwrap(), n("b.c.d.e"));
    }

    #[test]
    fn suffix_n() {
        assert_eq!(n("a.b.c.d").suffix(2), n("c.d"));
        assert_eq!(n("a.b").suffix(5), n("a.b"));
        assert_eq!(n("a.b").suffix(0), Name::root());
    }

    #[test]
    fn orders_label_by_label_not_by_text() {
        // '.' (0x2e) sorts after '-' (0x2d) as a byte, but a shorter
        // leftmost label sorts first.
        assert!(n("a.b") < n("a-c"));
        assert!(n("a") < n("a.b"));
        assert!(n("a.z") < n("aa"));
        assert!(Name::root() < n("a"));
    }

    /// The label-by-label parse that the one-pass [`Name::parse`]
    /// replaced: the reference it must agree with on every input.
    fn parse_by_labels(s: &str) -> Result<Name, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }

    #[test]
    fn parse_agrees_with_label_by_label_reference_at_the_edges() {
        let label = |n: usize| "x".repeat(n);
        // Four labels, 63 + 63 + 63 + `last` bytes plus three dots.
        let text = |last: usize| [label(63), label(63), label(63), label(last)].join(".");
        let mut cases: Vec<String> = [
            "",
            ".",
            "..",
            "...",
            "a.",
            "a..",
            ".a",
            "a..b",
            "a.b.",
            "com",
            "MAIL.Example.COM.",
            "Mail.example.com",
            "A",
            "a b",
            "a\x7fb",
            "a\u{80}b",
            "\u{e9}.com",
            "a.b ",
            " ",
            "\x21\x7e",
            "a\tb",
            "A..B",
            "a.B..",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cases.extend([
            label(63),
            label(64),
            format!("{}.com", label(63)),
            format!("{}.com", label(64)),
            format!("{}.com.", label(64)),
            // Length is checked before bytes, and the first label at
            // fault decides, whatever the later ones.
            format!("{} ", label(63)),
            format!("a\x7f{}", label(62)),
            format!("{}\u{80}", label(62)),
            format!("{}.a b", label(64)),
            format!("a b.{}", label(64)),
            format!("..{}", label(64)),
            format!("{}..", label(64)),
            text(61),
            text(62),
            format!("{}.", text(61)),
            format!("{}.", text(62)),
            text(61).to_uppercase(),
            text(62).to_uppercase(),
            // Too long, with a bad byte or an empty label inside.
            format!("a b.{}", text(62)),
            format!("{}.\x7f", text(62)),
            format!("{}..", text(62)),
        ]);
        for case in &cases {
            assert_eq!(Name::parse(case), parse_by_labels(case), "{case:?}");
            assert_canonical_check_agrees(case.as_bytes());
        }
    }

    /// The canonical check accepts `text` exactly when the ordered walk
    /// finds it valid and without an uppercase byte.
    fn assert_canonical_check_agrees(text: &[u8]) {
        let text = text.strip_suffix(b".").unwrap_or(text);
        if !text.is_empty() {
            assert_eq!(
                Name::is_canonical(text),
                Name::check_text(text) == Ok(false),
                "{text:?}"
            );
        }
    }

    #[test]
    fn canonical_check_agrees_with_the_ordered_walk_on_short_texts() {
        // Every text of up to 6 bytes over this alphabet; 0xc3 alone is
        // not UTF-8, so `Name::parse` sees it as the two bytes of `é`.
        const ALPHABET: [u8; 7] = [b'a', b'A', b'.', b'-', 0x20, 0x7f, 0xc3];
        let mut texts: Vec<Vec<u8>> = vec![vec![]];
        let mut last = texts.clone();
        for _ in 0..6 {
            last = last
                .iter()
                .flat_map(|t| ALPHABET.map(|b| [t.as_slice(), &[b]].concat()))
                .collect();
            texts.extend(last.iter().cloned());
        }
        assert_eq!(texts.len(), 137_257);
        for bytes in &texts {
            assert_canonical_check_agrees(bytes);
            let text: String = bytes
                .iter()
                .map(|&b| if b == 0xc3 { '\u{e9}' } else { char::from(b) })
                .collect();
            assert_eq!(Name::parse(&text), parse_by_labels(&text), "{text:?}");
        }
    }

    #[test]
    fn parse_agrees_with_label_by_label_reference_on_random_text() {
        // Labels near the 63-byte limit (empty ones too) and texts near
        // 253 bytes, from an alphabet with uppercase, bad bytes and
        // multibyte characters.
        const PIECES: [&str; 10] = [
            "a", "z", "Q", "0", "-", "_", " ", "\x7f", "\u{80}", "\u{e9}",
        ];
        let mut rng = Rng(20);
        for _ in 0..20_000 {
            let mut text = String::new();
            for _ in 0..rng.below(6) {
                let len = match rng.below(4) {
                    0 => 62 + rng.below(3),
                    1 => rng.below(3),
                    _ => rng.below(70),
                };
                let clean = rng.below(4) != 0;
                for _ in 0..len {
                    text.push_str(if clean {
                        PIECES[rng.below(4)]
                    } else {
                        PIECES[rng.below(PIECES.len())]
                    });
                }
                text.push('.');
            }
            for _ in 0..rng.below(3) {
                text.pop();
            }
            assert_eq!(Name::parse(&text), parse_by_labels(&text), "{text:?}");
            assert_canonical_check_agrees(text.as_bytes());
        }
    }

    /// A name as a vector of lowercase labels: the reference model that
    /// `Name`'s semantics are checked against.
    #[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Model(Vec<String>);

    impl Model {
        fn wire_len(&self) -> usize {
            1 + self.0.iter().map(|l| 1 + l.len()).sum::<usize>()
        }
        fn fits(&self) -> bool {
            self.wire_len() <= MAX_NAME_LEN
        }
        fn display(&self) -> String {
            if self.0.is_empty() {
                ".".into()
            } else {
                self.0.join(".")
            }
        }
        fn is_subdomain_of(&self, ancestor: &Model) -> bool {
            ancestor.0.len() <= self.0.len()
                && self.0[self.0.len() - ancestor.0.len()..] == ancestor.0[..]
        }
        fn strip_suffix(&self, suffix: &Model) -> Option<Vec<String>> {
            self.is_subdomain_of(suffix)
                .then(|| self.0[..self.0.len() - suffix.0.len()].to_vec())
        }
        fn suffix(&self, k: usize) -> Model {
            Model(self.0[self.0.len().saturating_sub(k)..].to_vec())
        }
    }

    /// splitmix64: a fixed, dependency-free source of test cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        /// A label from a small alphabet, so that labels often share
        /// prefixes, collide, and differ only at `-`, `_` or `.`.
        fn label(&mut self) -> String {
            const COMMON: [&str; 6] = ["a", "a-c", "a_b", "t01", "m00042", "spf-test"];
            if self.below(3) == 0 {
                return COMMON[self.below(COMMON.len())].to_string();
            }
            const ALPHABET: &[u8] = b"aAb-_09";
            let max = if self.below(20) == 0 {
                MAX_LABEL_LEN
            } else {
                4
            };
            let len = 1 + self.below(max);
            (0..len)
                .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
                .collect()
        }
        /// Presentation text (mixed case, sometimes a trailing dot) and
        /// its lowercase labels.
        fn name(&mut self) -> (String, Model) {
            let labels: Vec<String> = (0..self.below(5)).map(|_| self.label()).collect();
            let mut text = labels.join(".");
            if self.below(4) == 0 {
                text.push('.');
            }
            let model = Model(labels.iter().map(|l| l.to_ascii_lowercase()).collect());
            (text, model)
        }
    }

    fn labels_of(name: &Name) -> Vec<String> {
        name.labels().map(str::to_string).collect()
    }

    #[test]
    fn agrees_with_label_vector_reference() {
        let mut rng = Rng(2021);
        for _ in 0..20_000 {
            let (text_a, ma) = rng.name();
            let (_, mut mb) = rng.name();
            if rng.below(3) == 0 {
                // Related pairs, so subdomain and suffix cases occur.
                mb = ma.suffix(rng.below(4));
            }
            let a = Name::parse(&text_a);
            let b = Name::from_labels(&mb.0);
            if !(ma.fits() && mb.fits()) {
                assert_eq!(a.err(), (!ma.fits()).then_some(NameError::NameTooLong));
                assert_eq!(b.err(), (!mb.fits()).then_some(NameError::NameTooLong));
                continue;
            }
            let (a, b) = (a.expect("model says valid"), b.expect("model says valid"));
            assert_eq!(labels_of(&a), ma.0);
            assert_eq!(a.to_string(), ma.display());
            assert_eq!(Name::parse(&a.to_string()).as_ref(), Ok(&a));
            assert_eq!(a.label_count(), ma.0.len());
            assert_eq!(a.wire_len(), ma.wire_len());
            assert_eq!(a == b, ma == mb, "{a} vs {b}");
            assert_eq!(a.cmp(&b), ma.cmp(&mb), "{a} vs {b}");
            assert_eq!(
                a.parent().map(|p| labels_of(&p)),
                (!ma.0.is_empty()).then(|| ma.0[1..].to_vec())
            );
            let k = rng.below(6);
            assert_eq!(labels_of(&a.suffix(k)), ma.suffix(k).0);
            assert_eq!(
                a.is_subdomain_of(&b),
                ma.is_subdomain_of(&mb),
                "{a} under {b}"
            );
            assert_eq!(
                a.strip_suffix(&b)
                    .map(|left| left.split_terminator('.').map(str::to_string).collect()),
                ma.strip_suffix(&mb),
                "{a} minus {b}"
            );
            let joined = Model([ma.0.clone(), mb.0.clone()].concat());
            assert_eq!(
                a.concat(&b).ok().map(|c| labels_of(&c)),
                joined.fits().then_some(joined.0)
            );
            let label = rng.label();
            let prepended = Model([vec![label.to_ascii_lowercase()], ma.0.clone()].concat());
            assert_eq!(
                a.prepend(&label).ok().map(|p| labels_of(&p)),
                prepended.fits().then_some(prepended.0)
            );
        }
    }
}
