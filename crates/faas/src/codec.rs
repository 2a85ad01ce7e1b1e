//! Length-prefixed framing for passing a batch of documents through a
//! single payload (FaaS payloads are opaque byte strings, so
//! multi-message batches need an encoding).
//!
//! Frames are stitched together with [`Payload::concat`] and carved back
//! out with [`Payload::slice`], so synthetic bodies stay symbolic all the
//! way through a queue trigger: only the 4-byte prefixes are ever
//! materialized.

use faasim_payload::Payload;

/// Encode a batch of byte strings into one payload.
pub fn encode_batch(items: &[Payload]) -> Payload {
    let mut parts: Vec<Payload> = Vec::with_capacity(1 + 2 * items.len());
    parts.push(Payload::from((items.len() as u32).to_le_bytes().to_vec()));
    for item in items {
        parts.push(Payload::from((item.len() as u32).to_le_bytes().to_vec()));
        parts.push(item.clone());
    }
    Payload::concat(parts)
}

/// Decode a payload produced by [`encode_batch`]. Returns `None` on
/// malformed input.
pub fn decode_batch(payload: &Payload) -> Option<Vec<Payload>> {
    let total = payload.len();
    let mut offset = 0usize;
    let read_u32 = |offset: &mut usize| -> Option<u32> {
        if *offset + 4 > total {
            return None;
        }
        let bytes = payload.slice(*offset..*offset + 4).to_vec();
        *offset += 4;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    };
    let count = read_u32(&mut offset)? as usize;
    // Guard against absurd counts from corrupt prefixes.
    if count > total {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u32(&mut offset)? as usize;
        if offset + len > total {
            return None;
        }
        out.push(payload.slice(offset..offset + len));
        offset += len;
    }
    if offset != total {
        return None; // trailing garbage
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let items = vec![
            Payload::from_static(b"one"),
            Payload::new(),
            Payload::from(vec![7u8; 1000]),
        ];
        let encoded = encode_batch(&items);
        let decoded = decode_batch(&encoded).unwrap();
        assert_eq!(decoded, items);
    }

    #[test]
    fn synthetic_items_stay_symbolic() {
        // A 1 GB synthetic document survives the encode/decode roundtrip
        // without ever being materialized.
        let big = Payload::synthetic("log line\n", 100_000_000);
        let encoded = encode_batch(&[big.clone(), Payload::from_static(b"tail")]);
        assert_eq!(encoded.len(), 4 + (4 + big.len()) + (4 + 4));
        let decoded = decode_batch(&encoded).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].len(), big.len());
        assert_eq!(decoded[0].line_count(), big.line_count());
        assert!(decoded[1].eq_bytes(b"tail"));
    }

    #[test]
    fn empty_batch() {
        let encoded = encode_batch(&[]);
        assert_eq!(decode_batch(&encoded).unwrap(), Vec::<Payload>::new());
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(decode_batch(&Payload::from_static(b"")).is_none());
        assert!(decode_batch(&Payload::from_static(b"\x01\x00")).is_none());
        // Valid prefix but truncated body.
        let mut good = encode_batch(&[Payload::from_static(b"hello")]).to_vec();
        good.truncate(good.len() - 1);
        assert!(decode_batch(&Payload::from(good)).is_none());
        // Trailing garbage.
        let mut padded = encode_batch(&[Payload::from_static(b"x")]).to_vec();
        padded.push(0);
        assert!(decode_batch(&Payload::from(padded)).is_none());
    }

    #[test]
    fn absurd_count_rejected() {
        let bogus = Payload::from(u32::MAX.to_le_bytes().to_vec());
        assert!(decode_batch(&bogus).is_none());
    }
}
