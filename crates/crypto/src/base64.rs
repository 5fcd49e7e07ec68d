//! RFC 4648 §4 standard-alphabet Base64 encoding and decoding.
//!
//! DKIM uses Base64 in two places: the `b=` signature tag and the `p=` public
//! key tag of the key record. Decoding here is whitespace-tolerant because
//! DKIM folds Base64 across header continuation lines (RFC 6376 §3.5 allows
//! FWS inside `b=`).

/// The standard Base64 alphabet (RFC 4648 Table 1).
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Errors produced by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Base64Error {
    /// A byte outside the alphabet (and not ignorable whitespace or padding)
    /// was encountered at the given offset into the *filtered* input.
    InvalidByte(u8),
    /// The (whitespace-stripped) input length is not a valid Base64 length,
    /// or padding appears in an illegal position.
    InvalidLength,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::InvalidByte(b) => write!(f, "invalid base64 byte 0x{b:02x}"),
            Base64Error::InvalidLength => write!(f, "invalid base64 length or padding"),
        }
    }
}

impl std::error::Error for Base64Error {}

/// Encode `data` as standard Base64 with padding.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    encode_into(data, &mut out);
    out
}

/// Append the padded base64 encoding of `data` to `out`.
pub fn encode_into(data: &[u8], out: &mut String) {
    out.reserve(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let n = (b0 << 16) | (b1 << 8) | b2;
        out.push(ALPHABET[(n >> 18) as usize & 0x3f] as char);
        out.push(ALPHABET[(n >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(ALPHABET[(n >> 6) as usize & 0x3f] as char);
        } else {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(ALPHABET[n as usize & 0x3f] as char);
        } else {
            out.push('=');
        }
    }
}

fn decode_byte(b: u8) -> Option<u8> {
    match b {
        b'A'..=b'Z' => Some(b - b'A'),
        b'a'..=b'z' => Some(b - b'a' + 26),
        b'0'..=b'9' => Some(b - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

/// Decode standard Base64, ignoring ASCII whitespace (space, tab, CR, LF),
/// tolerating both padded and unpadded input. Sextets are packed into
/// the output as they are read.
pub fn decode(input: &str) -> Result<Vec<u8>, Base64Error> {
    let mut out = Vec::with_capacity(input.len() / 4 * 3 + 2);
    // The sextets of the current quantum, and how many have been read.
    let mut quantum = 0u32;
    let mut sextets = 0usize;
    let mut padding = 0usize;
    for &b in input.as_bytes() {
        if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
            continue;
        }
        if b == b'=' {
            padding += 1;
            continue;
        }
        if padding > 0 {
            // Data after padding is malformed.
            return Err(Base64Error::InvalidLength);
        }
        let v = decode_byte(b).ok_or(Base64Error::InvalidByte(b))?;
        quantum = (quantum << 6) | v as u32;
        sextets += 1;
        if sextets.is_multiple_of(4) {
            out.extend_from_slice(&[(quantum >> 16) as u8, (quantum >> 8) as u8, quantum as u8]);
            quantum = 0;
        }
    }
    // A lone sextet holds no whole byte; padding, if present, must
    // complete the final quantum.
    if padding > 2 || sextets % 4 == 1 || (padding > 0 && !(sextets + padding).is_multiple_of(4)) {
        return Err(Base64Error::InvalidLength);
    }
    match sextets % 4 {
        2 => out.push((quantum >> 4) as u8),
        3 => out.extend_from_slice(&[(quantum >> 10) as u8, (quantum >> 2) as u8]),
        _ => {}
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decoder [`decode`] replaced, which gathers every sextet
    /// before packing: the reference it is tested against.
    fn decode_reference(input: &str) -> Result<Vec<u8>, Base64Error> {
        let mut vals: Vec<u8> = Vec::with_capacity(input.len());
        let mut padding = 0usize;
        for &b in input.as_bytes() {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                continue;
            }
            if b == b'=' {
                padding += 1;
                continue;
            }
            if padding > 0 {
                // Data after padding is malformed.
                return Err(Base64Error::InvalidLength);
            }
            match decode_byte(b) {
                Some(v) => vals.push(v),
                None => return Err(Base64Error::InvalidByte(b)),
            }
        }
        if padding > 2 {
            return Err(Base64Error::InvalidLength);
        }
        let rem = vals.len() % 4;
        if rem == 1 {
            return Err(Base64Error::InvalidLength);
        }
        if padding > 0 {
            // If padding is present it must complete the final quantum.
            if !(vals.len() + padding).is_multiple_of(4) {
                return Err(Base64Error::InvalidLength);
            }
        }
        let mut out = Vec::with_capacity(vals.len() * 3 / 4);
        let mut iter = vals.chunks_exact(4);
        for q in &mut iter {
            let n =
                ((q[0] as u32) << 18) | ((q[1] as u32) << 12) | ((q[2] as u32) << 6) | q[3] as u32;
            out.push((n >> 16) as u8);
            out.push((n >> 8) as u8);
            out.push(n as u8);
        }
        match iter.remainder() {
            [] => {}
            [a, b] => {
                let n = ((*a as u32) << 18) | ((*b as u32) << 12);
                out.push((n >> 16) as u8);
            }
            [a, b, c] => {
                let n = ((*a as u32) << 18) | ((*b as u32) << 12) | ((*c as u32) << 6);
                out.push((n >> 16) as u8);
                out.push((n >> 8) as u8);
            }
            _ => unreachable!("chunks_exact(4) remainder is < 4 and rem==1 was rejected"),
        }
        Ok(out)
    }

    #[test]
    fn decode_matches_the_reference_on_a_seeded_sweep() {
        use crate::bigint::{Rng64, SplitMix64};
        // Alphabet bytes, whitespace, padding and invalid bytes.
        const PIECES: &[u8] = b"AZaz09+/Qw==  \t\r\n!-_.\x00\xff";
        let mut rng = SplitMix64::new(4648);
        let mut errors = 0;
        for _ in 0..20_000 {
            let len = (rng.next_u64() % 24) as usize;
            let mut bytes: Vec<u8> = (0..len)
                .map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize])
                .collect();
            // Mostly valid text: strip the invalid bytes from half the
            // draws, so every length mod 4 and padding position is met
            // with and without an error.
            if rng.next_u64().is_multiple_of(2) {
                bytes.retain(|&b| b.is_ascii_alphanumeric() || b"+/= \t\r\n".contains(&b));
            }
            let input = String::from_utf8_lossy(&bytes);
            let got = decode(&input);
            errors += usize::from(got.is_err());
            assert_eq!(got, decode_reference(&input), "{input:?}");
        }
        assert!(errors > 1_000 && errors < 19_000, "{errors} errors");
        // Every length mod 4, with padding at every position.
        for text in ["", "Q", "QQ", "QQQ", "QQQQ", "QQQQQ"] {
            for at in 0..=text.len() {
                for pad in ["=", "==", "==="] {
                    let input = format!("{}{pad}{}", &text[..at], &text[at..]);
                    assert_eq!(decode(&input), decode_reference(&input), "{input:?}");
                }
            }
        }
    }

    #[test]
    fn rfc4648_vectors() {
        // RFC 4648 §10 test vectors.
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_vectors() {
        assert_eq!(decode("").unwrap(), b"");
        assert_eq!(decode("Zg==").unwrap(), b"f");
        assert_eq!(decode("Zm8=").unwrap(), b"fo");
        assert_eq!(decode("Zm9v").unwrap(), b"foo");
        assert_eq!(decode("Zm9vYg==").unwrap(), b"foob");
        assert_eq!(decode("Zm9vYmE=").unwrap(), b"fooba");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_unpadded() {
        assert_eq!(decode("Zg").unwrap(), b"f");
        assert_eq!(decode("Zm8").unwrap(), b"fo");
    }

    #[test]
    fn decode_with_folding_whitespace() {
        // DKIM b= values are folded across lines.
        assert_eq!(decode("Zm9v\r\n\t YmFy").unwrap(), b"foobar");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode("Zm9v!"), Err(Base64Error::InvalidByte(b'!')));
        assert_eq!(decode("Z"), Err(Base64Error::InvalidLength));
        assert_eq!(decode("Zg==Zg=="), Err(Base64Error::InvalidLength));
        assert_eq!(decode("Zg==="), Err(Base64Error::InvalidLength));
    }

    #[test]
    fn roundtrip_binary() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }
}
