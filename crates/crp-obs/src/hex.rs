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
    format!("{bits:016x}")
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
