//! The one bit-pattern codec every line-based wire format in the
//! workspace shares, read through [`crate::Fields::hex64`].
//!
//! Floats never cross a process boundary as decimal text: they travel
//! as their IEEE-754 bit patterns (`f64::to_bits`) in exactly 16
//! lowercase hex digits, so signed zeros, subnormals and infinities
//! survive byte-exactly.  The decoder is strict — exactly one spelling
//! per value — so a re-encoded message hashes the same as the original
//! and a corrupt token is a typed error rather than a silently
//! different number.

/// Encodes a 64-bit pattern as exactly 16 lowercase hex digits (pass
/// `value.to_bits()` for an `f64`).
pub fn hex64(bits: u64) -> String {
    let mut out = String::with_capacity(16);
    push_hex64(&mut out, bits);
    out
}

/// Appends [`hex64`]'s spelling of `bits` to `out` without allocating
/// one `String` per value: a masses blob writes 2^14 of them.
pub fn push_hex64(out: &mut String, bits: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut spelling = [0u8; 16];
    for (index, digit) in spelling.iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * index)) as usize & 0xf];
    }
    out.push_str(std::str::from_utf8(&spelling).expect("hex digits are ASCII"));
}

/// Strictly decodes [`hex64`]: `None` unless `token` is exactly 16
/// lowercase hex digits.  Signs, uppercase digits, and short or
/// zero-padded long spellings are all rejected.
pub fn parse_hex64(token: &str) -> Option<u64> {
    if token.len() != 16 {
        return None;
    }
    token.bytes().try_fold(0u64, |bits, byte| {
        let digit = match byte {
            b'0'..=b'9' => byte - b'0',
            b'a'..=b'f' => byte - b'a' + 10,
            _ => return None,
        };
        Some(bits << 4 | u64::from(digit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_patterns_round_trip_exactly() {
        for value in [0.0f64, -0.0, 1.0, 5e-324, f64::INFINITY] {
            let token = hex64(value.to_bits());
            assert_eq!(token.len(), 16);
            assert_eq!(parse_hex64(&token), Some(value.to_bits()));
        }
        assert_eq!(hex64(1.0f64.to_bits()), "3ff0000000000000");
    }

    #[test]
    fn the_appending_writer_spells_exactly_what_format_does() {
        let mut values = vec![0, 1, u64::MAX];
        values.extend([0.0f64, -0.0, 5e-324, f64::INFINITY, f64::NAN].map(f64::to_bits));
        // A splitmix64 stream: 10 000 seeded patterns.
        let mut state = 0x5eed_u64;
        values.extend((0..10_000).map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }));
        let mut appended = String::from("head");
        let mut formatted = String::from("head");
        for bits in values {
            push_hex64(&mut appended, bits);
            formatted.push_str(&format!("{bits:016x}"));
            assert_eq!(hex64(bits), format!("{bits:016x}"));
        }
        assert_eq!(appended, formatted);
    }

    #[test]
    fn only_the_canonical_spelling_decodes() {
        for bad in [
            "",
            "3ff",
            "+3ff0000000000000",
            "3FF0000000000000",
            "03ff0000000000000",
            "3ff000000000000g",
            " 3ff000000000000",
        ] {
            assert_eq!(parse_hex64(bad), None, "accepted {bad:?}");
        }
    }
}
