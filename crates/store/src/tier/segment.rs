//! The on-disk segment format: a run of bit-packed blocks, checksummed.
//!
//! A segment serializes [`Block`]s verbatim — the cold tier stores exactly
//! the compressed representation the scan kernels consume, so a fault is
//! decode-free beyond validation: no re-compression, no value decoding.
//!
//! Layout, version 2 (all integers little-endian):
//!
//! ```text
//! magic    8B  "FLDSEG" + two ASCII version digits: "FLDSEG02"
//! n_blocks 4B
//! blocks   n_blocks × ( min 8B | max 8B | width 1B | len 2B |
//!                       n_words 4B | words n_words × 8B )
//! checksum 8B  over every preceding byte, a word at a time ([`checksum`])
//! ```
//!
//! Version 1 differed only in its checksum (FNV-1a, a byte per multiply);
//! a version this build does not read is refused by name, before any
//! checksum is computed.
//!
//! [`decode_segment`] bounds-checks every read and verifies the trailing
//! checksum, so a short read or bit flip surfaces as a typed
//! [`StorageError::Corrupt`](super::StorageError) — never a panic, never a
//! silently wrong scan.

use crate::block::Block;

/// What every version of the format starts with.
const FORMAT_TAG: &[u8; 6] = b"FLDSEG";

/// The layout version this build writes and reads.
const VERSION: &[u8; 2] = b"02";

/// Serialized bytes of a block ahead of its words.
const BLOCK_HEADER: usize = 8 + 8 + 1 + 2 + 4;

/// The trailing integrity check: FNV-1a's xor-then-multiply over
/// little-endian 64-bit words instead of bytes, seeded with the length; the
/// last `len % 8` bytes are folded in as one zero-extended word. Every step
/// is a bijection of the running state, so any change confined to one word
/// — every single-bit flip — changes the result. Not cryptographic: it
/// guards against truncation and accidental corruption, which is the
/// failure model for a local cold tier.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut words = bytes.chunks_exact(8);
    let mut h = step(0xcbf2_9ce4_8422_2325, bytes.len() as u64);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8B")));
    }
    let mut last = [0u8; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(last));
    // A multiply only carries upwards: fold the high half back down.
    h ^ (h >> 32)
}

/// Serialize a run of blocks into one segment blob.
pub fn encode_segment(blocks: &[Block]) -> Vec<u8> {
    let payload: usize = blocks
        .iter()
        .map(|b| BLOCK_HEADER + b.words().len() * 8)
        .sum();
    let mut out = Vec::with_capacity(8 + 4 + payload + 8);
    out.extend_from_slice(FORMAT_TAG);
    out.extend_from_slice(VERSION);
    out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
    for b in blocks {
        out.extend_from_slice(&b.min().to_le_bytes());
        out.extend_from_slice(&b.max().to_le_bytes());
        out.push(b.width());
        out.extend_from_slice(&(b.len() as u16).to_le_bytes());
        out.extend_from_slice(&(b.words().len() as u32).to_le_bytes());
        for &w in b.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Cursor over a segment blob; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, blob holds {}",
                self.at,
                self.bytes.len()
            ));
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }
}

/// Deserialize a segment blob back into its blocks. The error string
/// describes what failed validation; callers wrap it in
/// [`StorageError::Corrupt`](super::StorageError).
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<Block>, String> {
    if bytes.len() < 8 + 4 + 8 {
        return Err(format!(
            "blob of {} bytes is shorter than a header",
            bytes.len()
        ));
    }
    let (tag, version) = bytes[..8].split_at(FORMAT_TAG.len());
    if tag != FORMAT_TAG {
        return Err("bad magic: not a segment blob".into());
    }
    if version != VERSION {
        return Err(format!(
            "unsupported segment version {:?}: this build reads {:?}",
            String::from_utf8_lossy(version),
            String::from_utf8_lossy(VERSION)
        ));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("8B"));
    let got = checksum(body);
    if got != want {
        return Err(format!(
            "checksum mismatch: stored {want:#x}, computed {got:#x}"
        ));
    }
    let mut r = Reader { bytes: body, at: 8 };
    let n_blocks = r.u32()? as usize;
    // The count is input: reserve no more than the blob could hold.
    let mut blocks = Vec::with_capacity(n_blocks.min(body.len() / BLOCK_HEADER));
    for i in 0..n_blocks {
        let min = r.u64()?;
        let max = r.u64()?;
        let width = r.u8()?;
        let len = r.u16()?;
        let n_words = r.u32()? as usize;
        // One bounds check for the block's words, then fixed-size chunks.
        let words: Box<[u64]> = r
            .take(n_words.checked_mul(8).ok_or("length overflow")?)?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8B")))
            .collect();
        blocks.push(
            Block::from_raw_parts(min, max, width, len, words)
                .map_err(|e| format!("block {i}: {e}"))?,
        );
    }
    if r.at != body.len() {
        return Err(format!(
            "{} trailing bytes after last block",
            body.len() - r.at
        ));
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BLOCK_LEN;

    /// `n` blocks of mixed widths; the last one is short.
    fn blocks_of(n: usize) -> Vec<Block> {
        let rows = (n * BLOCK_LEN).saturating_sub(84);
        let vals: Vec<u64> = (0..rows as u64)
            .map(|i| 1_000 + (i * 37) % (512 << (i / 128)))
            .collect();
        vals.chunks(BLOCK_LEN).map(Block::compress).collect()
    }

    fn blocks() -> Vec<Block> {
        blocks_of(3)
    }

    fn assert_same_values(got: &[Block], want: &[Block]) {
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(got) {
            assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i));
            }
        }
    }

    #[test]
    fn roundtrip_preserves_every_value() {
        let orig = blocks();
        assert_eq!(orig.len(), 3);
        assert_same_values(&decode_segment(&encode_segment(&orig)).unwrap(), &orig);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let enc = encode_segment(&blocks());
        for keep in 0..enc.len() {
            let err = decode_segment(&enc[..keep]).unwrap_err();
            assert!(!err.is_empty(), "keep={keep}");
        }
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut enc = encode_segment(&blocks());
        let mid = enc.len() / 2;
        enc[mid] ^= 0x40;
        let err = decode_segment(&enc).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enc = encode_segment(&blocks());
        for bit in 0..enc.len() * 8 {
            let mut bad = enc.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_segment(&bad).is_err(), "bit {bit} flipped unnoticed");
        }
    }

    #[test]
    fn every_blob_length_mod_eight_roundtrips_and_guards_its_tail() {
        // 20 + 23 B per block + whole words: 0..=7 blocks give every residue.
        let mut residues = [false; 8];
        for n in 0..8 {
            let orig = blocks_of(n);
            let enc = encode_segment(&orig);
            residues[enc.len() % 8] = true;
            assert_same_values(&decode_segment(&enc).unwrap(), &orig);
            // The last body byte sits in the checksum's partial word
            // whenever there is one.
            let mut bad = enc.clone();
            bad[enc.len() - 9] ^= 0x80;
            assert!(decode_segment(&bad).is_err(), "{n} blocks");
        }
        assert_eq!(residues, [true; 8]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut enc = encode_segment(&blocks());
        enc[0] = b'X';
        let err = decode_segment(&enc).unwrap_err();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn version_one_blob_is_refused_by_name() {
        // A well-formed version-1 blob: same body, FNV-1a a byte at a time.
        let mut v1 = encode_segment(&blocks());
        let body = v1.len() - 8;
        v1[6..8].copy_from_slice(b"01");
        let fnv1a = v1[..body].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        v1[body..].copy_from_slice(&fnv1a.to_le_bytes());
        let err = decode_segment(&v1).unwrap_err();
        assert!(err.contains("unsupported segment version \"01\""), "{err}");
    }

    #[test]
    fn empty_run_roundtrips() {
        let enc = encode_segment(&[]);
        assert!(decode_segment(&enc).unwrap().is_empty());
    }
}
