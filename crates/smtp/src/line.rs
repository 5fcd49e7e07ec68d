//! CRLF line framing of SMTP text (RFC 5321 §2.3.8).

/// The pieces of `text` that end in CRLF, each with its CRLF, then the
/// rest if it is not empty: exactly what `text.split_inclusive("\r\n")`
/// yields, so a bare CR or LF stays inside its line.
pub fn crlf_lines(text: &str) -> CrlfLines<'_> {
    CrlfLines { rest: text }
}

/// Iterator returned by [`crlf_lines`].
#[derive(Debug, Clone)]
pub struct CrlfLines<'a> {
    rest: &'a str,
}

impl<'a> Iterator for CrlfLines<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        let bytes = self.rest.as_bytes();
        let mut end = bytes.len();
        let mut from = 0;
        // A line ends at the first LF whose byte before it is a CR.
        while let Some(i) = bytes[from..].iter().position(|&b| b == b'\n') {
            let lf = from + i;
            if lf > 0 && bytes[lf - 1] == b'\r' {
                end = lf + 1;
                break;
            }
            from = lf + 1;
        }
        let (line, rest) = self.rest.split_at(end);
        self.rest = rest;
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_exactly_as_split_inclusive() {
        let corpus = [
            "",
            "\r\n",
            "\r\n\r\n",
            "250 OK\r\n",
            "250-a\r\n250 b\r\n",
            "250 OK",
            "250 OK\r\n354",
            "250 O\rK\r\n",
            "250 O\nK\r\n",
            "\r\r\n",
            "\r",
            "\n",
            "\n\r",
            "\r\n\n",
            "a\r\r\n\nb\r",
            "\u{e9}\r\n\u{1f4e7}\n\r\n",
            "EHLO x\r\nMAIL FROM:<a@b.test>\r\n\r",
        ];
        for text in corpus {
            let ours: Vec<&str> = crlf_lines(text).collect();
            let std: Vec<&str> = text.split_inclusive("\r\n").collect();
            assert_eq!(ours, std, "{text:?}");
        }
        // Every string over {a, \r, \n} up to six bytes long.
        let alphabet = ['a', '\r', '\n'];
        let mut texts = vec![String::new()];
        for _ in 0..6 {
            texts = texts
                .iter()
                .flat_map(|t| alphabet.iter().map(move |c| format!("{t}{c}")))
                .collect();
            for text in &texts {
                let ours: Vec<&str> = crlf_lines(text).collect();
                let std: Vec<&str> = text.split_inclusive("\r\n").collect();
                assert_eq!(ours, std, "{text:?}");
            }
        }
    }
}
