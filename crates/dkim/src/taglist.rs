//! The DKIM `tag=value` list syntax (RFC 6376 §3.2), shared by
//! `DKIM-Signature` headers and key records.

use std::borrow::Cow;

/// A parsed tag list, borrowing names and values from the input. Tag
/// names are case-sensitive per the RFC (and are conventionally
/// lowercase). A signature carries at most about 15 tags, so lookup is
/// a linear scan.
#[derive(Debug, Clone, Default)]
pub struct TagList<'a> {
    tags: Vec<(&'a str, &'a str)>,
}

/// Tag-list parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagListError {
    /// An entry had no `=`.
    MissingEquals,
    /// An entry had an empty tag name.
    EmptyName,
    /// A tag name appeared twice (§3.2: tags MUST NOT be duplicated).
    Duplicate(String),
}

impl std::fmt::Display for TagListError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagListError::MissingEquals => write!(f, "tag without '='"),
            TagListError::EmptyName => write!(f, "empty tag name"),
            TagListError::Duplicate(t) => write!(f, "duplicate tag {t:?}"),
        }
    }
}

impl std::error::Error for TagListError {}

/// Folding whitespace trimmed around tag names and values.
const FWS: [char; 4] = [' ', '\t', '\r', '\n'];

impl<'a> TagList<'a> {
    /// Parse a tag list. Folding whitespace around tags and values is
    /// stripped; whitespace *inside* values is preserved (needed for
    /// `h=a : b` style lists, which are normalized later by the caller).
    pub fn parse(input: &'a str) -> Result<TagList<'a>, TagListError> {
        let mut tags = Vec::new();
        for entry in input.split(';') {
            let entry = entry.trim_matches(FWS);
            if entry.is_empty() {
                continue; // trailing ';' is legal
            }
            let (name, value) = entry.split_once('=').ok_or(TagListError::MissingEquals)?;
            let name = name.trim_matches(FWS);
            if name.is_empty() {
                return Err(TagListError::EmptyName);
            }
            if tags.iter().any(|&(seen, _)| seen == name) {
                return Err(TagListError::Duplicate(name.to_string()));
            }
            tags.push((name, value.trim_matches(FWS)));
        }
        Ok(TagList { tags })
    }

    /// Get a tag's value.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.tags
            .iter()
            .find_map(|&(tag, value)| (tag == name).then_some(value))
    }

    /// Get a tag's value with all ASCII whitespace removed (for base64
    /// values folded across lines); borrowed when there is none.
    pub fn get_compact(&self, name: &str) -> Option<Cow<'a, str>> {
        self.get(name).map(|v| {
            if !v.bytes().any(|b| b.is_ascii_whitespace()) {
                return Cow::Borrowed(v);
            }
            let mut out = v.to_string();
            out.retain(|c| !c.is_ascii_whitespace());
            Cow::Owned(out)
        })
    }

    /// All tags in order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &'a str)> + '_ {
        self.tags.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse() {
        let t = TagList::parse("v=1; a=rsa-sha256; d=example.net; s=brisbane;").unwrap();
        assert_eq!(t.get("v"), Some("1"));
        assert_eq!(t.get("a"), Some("rsa-sha256"));
        assert_eq!(t.get("d"), Some("example.net"));
        assert_eq!(t.get("s"), Some("brisbane"));
        assert_eq!(t.get("x"), None);
    }

    #[test]
    fn folded_values() {
        let t = TagList::parse("b=abc\r\n\tdef; bh= xyz ").unwrap();
        assert_eq!(t.get_compact("b").unwrap(), "abcdef");
        assert_eq!(t.get_compact("bh").unwrap(), "xyz");
    }

    #[test]
    fn empty_value_allowed() {
        // b= is empty during signing; p= empty means revoked key.
        let t = TagList::parse("p=; v=DKIM1").unwrap();
        assert_eq!(t.get("p"), Some(""));
    }

    #[test]
    fn errors() {
        assert!(matches!(
            TagList::parse("novalue"),
            Err(TagListError::MissingEquals)
        ));
        assert!(matches!(TagList::parse("=x"), Err(TagListError::EmptyName)));
        assert!(matches!(
            TagList::parse("a=1; a=2"),
            Err(TagListError::Duplicate(_))
        ));
    }

    #[test]
    fn order_preserved() {
        let t = TagList::parse("z=1; y=2; x=3").unwrap();
        let names: Vec<&str> = t.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z", "y", "x"]);
    }
}
