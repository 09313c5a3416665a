//! Bit-packed delta blocks: the unit of compression in the column store.
//!
//! Each [`Block`] stores up to [`BLOCK_LEN`] (=128) `u64` values as deltas to
//! the block minimum, packed at the smallest bit width that fits the largest
//! delta. Random access is constant-time: the value at offset `i` is
//! `min + delta_at(packed, i * width, width)`.
//!
//! Blocks also answer range predicates *without decoding*: the stored
//! `[min, max]` classifies a predicate as rejecting or accepting the whole
//! block ([`Block::classify`]), and partially overlapping predicates are
//! translated into the block's delta domain and evaluated against the packed
//! words directly ([`Block::match_mask`]): one branch-free pass over the
//! deltas of the offsets asked for, whatever the bit width — or, for a
//! whole block whose width subdivides a 64-bit word, word-parallel (SWAR).
//! The same pass counts instead of marking for [`Block::rank`], which is
//! how a sorted run no longer than a block is searched.
//!
//! No loop here branches on a packed value: a delta is read as the two
//! words it may span, unconditionally (`delta_at`), and a comparison
//! becomes a bit or a count, never a jump.

use serde::{Deserialize, Serialize};

/// Number of values per compression block (fixed at 128, per the paper §7.1).
pub const BLOCK_LEN: usize = 128;

/// A single bit-packed block of up to [`BLOCK_LEN`] values.
///
/// Values are stored as `value - min` at `width` bits each, packed
/// little-endian into `words`. `width == 0` means all values equal `min` and
/// no words are stored. `max` is kept alongside `min` so range predicates
/// can skip or accept the whole block from metadata alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    min: u64,
    max: u64,
    width: u8,
    len: u16,
    words: Box<[u64]>,
}

/// Disposition of an inclusive value-range predicate `[lo, hi]` against one
/// block, decided from `[min, max]` metadata ([`BlockMeta::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockMatch {
    /// `[lo, hi]` misses `[min, max]` entirely: no value can match, the
    /// block's packed words need not be touched.
    Skip,
    /// `[lo, hi]` covers `[min, max]` wholly: every value matches, the
    /// block's packed words need not be touched.
    Accept,
    /// The ranges partially overlap: the predicate, clamped and translated
    /// into the block's delta domain (`bound - min`), must be checked
    /// against the packed deltas via [`Block::match_mask`].
    Probe {
        /// `max(lo, min) - min`: the predicate's lower bound as a delta.
        dlo: u64,
        /// `min(hi, max) - min`: the predicate's upper bound as a delta.
        dhi: u64,
    },
}

/// A per-offset match bitmap for one block: bit `i` of `mask[i / 64]` is set
/// when the value at block offset `i` matched. Two words cover
/// [`BLOCK_LEN`] = 128 offsets.
pub type BlockMask = [u64; 2];

/// What a scan needs to know about a block before touching its packed
/// words: enough to skip or accept it whole. Tiered tables keep exactly
/// this resident per block while the words live in cold segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Minimum value in the block.
    pub min: u64,
    /// Maximum value in the block.
    pub max: u64,
    /// Number of rows in the block.
    pub len: u16,
}

impl BlockMeta {
    /// Classify the inclusive predicate `[lo, hi]` against `[min, max]`.
    ///
    /// For [`BlockMatch::Probe`] the returned bounds are already clamped
    /// into the delta domain: a `lo` below the block minimum saturates to
    /// delta 0, a `hi` above the block maximum clamps to `max - min`, so
    /// the bounds always fit the block's bit width.
    #[inline]
    pub fn classify(&self, lo: u64, hi: u64) -> BlockMatch {
        debug_assert!(lo <= hi);
        if hi < self.min || lo > self.max {
            return BlockMatch::Skip;
        }
        if lo <= self.min && self.max <= hi {
            return BlockMatch::Accept;
        }
        // Partial overlap. `hi >= min` and `lo <= max` both hold here, and a
        // width-0 block (min == max) can never reach this arm: overlapping
        // a single point means containing it, which is `Accept`.
        BlockMatch::Probe {
            dlo: lo.saturating_sub(self.min),
            dhi: (hi - self.min).min(self.max - self.min),
        }
    }
}

impl Block {
    /// Compress a slice of at most [`BLOCK_LEN`] values.
    ///
    /// # Panics
    /// Panics if `values` is empty or longer than [`BLOCK_LEN`].
    pub fn compress(values: &[u64]) -> Self {
        assert!(!values.is_empty(), "cannot compress an empty block");
        assert!(
            values.len() <= BLOCK_LEN,
            "block too large: {} > {}",
            values.len(),
            BLOCK_LEN
        );
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let range = max - min;
        let width = bits_needed(range);
        let total_bits = width as usize * values.len();
        let n_words = total_bits.div_ceil(64);
        let mut words = vec![0u64; n_words].into_boxed_slice();
        if width > 0 {
            for (i, &v) in values.iter().enumerate() {
                pack(&mut words, i * width as usize, width, v - min);
            }
        }
        Block {
            min,
            max,
            width,
            len: values.len() as u16,
            words,
        }
    }

    /// Number of values stored in this block.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the block holds no values (never constructed by `compress`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Constant-time access to the value at offset `i` within the block.
    ///
    /// # Panics
    /// Panics in debug builds if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len as usize);
        if self.width == 0 {
            return self.min;
        }
        self.min + delta_at(&self.words, i * self.width as usize, self.width as usize)
    }

    /// Minimum value in the block (the delta base).
    #[inline]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Maximum value in the block.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bit width used for deltas in this block.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The packed delta words (empty when `width == 0`). Exposed for the
    /// tiered-storage segment codec, which serializes blocks verbatim.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble a block from its serialized parts (the inverse of reading
    /// [`Block::min`]/[`Block::max`]/[`Block::width`]/[`Block::len`]/
    /// [`Block::words`]). The caller — the segment codec — must pass parts
    /// produced by [`Block::compress`]; geometry is re-checked so a corrupt
    /// segment can never build a block whose accessors would panic later.
    pub(crate) fn from_raw_parts(
        min: u64,
        max: u64,
        width: u8,
        len: u16,
        words: Box<[u64]>,
    ) -> Result<Self, String> {
        if len == 0 || len as usize > BLOCK_LEN {
            return Err(format!("block length {len} out of range"));
        }
        if min > max || width != bits_needed(max - min) {
            return Err(format!(
                "inconsistent block header: min {min} max {max} width {width}"
            ));
        }
        let want_words = (width as usize * len as usize).div_ceil(64);
        if words.len() != want_words {
            return Err(format!(
                "packed payload holds {} words, header implies {want_words}",
                words.len()
            ));
        }
        Ok(Block {
            min,
            max,
            width,
            len,
            words,
        })
    }

    /// This block's always-resident metadata.
    #[inline]
    pub fn meta(&self) -> BlockMeta {
        BlockMeta {
            min: self.min,
            max: self.max,
            len: self.len,
        }
    }

    /// [`BlockMeta::classify`] against this block's `[min, max]`, without
    /// touching the packed words.
    #[inline]
    pub fn classify(&self, lo: u64, hi: u64) -> BlockMatch {
        self.meta().classify(lo, hi)
    }

    /// Build the match bitmap for block offsets `[start, end)` against the
    /// delta-domain predicate `[dlo, dhi]` (from [`BlockMatch::Probe`]),
    /// comparing the packed words directly — no per-value decode.
    ///
    /// One pass over the deltas of `[start, end)`, whatever the width: each
    /// is read branch-free and `d - dlo <= dhi - dlo` (wrapping: one
    /// unsigned comparison for both bounds) becomes its bit, gathered in a
    /// register per 64 offsets. A *whole* block (`start == 0`,
    /// `end == len`) whose width subdivides a 64-bit word runs
    /// word-parallel (SWAR) instead: range-checking `64 / width` lanes at
    /// once beats the pass there (`packed_scan unsorted/*`), while on a
    /// short piece its per-hit transcription loses to it (`cells/*`).
    /// Offsets outside `[start, end)` are always clear; `start >= end` or
    /// `dlo > dhi` yields an empty mask.
    ///
    /// # Panics
    /// Panics in debug builds if `end > self.len()`.
    pub fn match_mask(&self, dlo: u64, dhi: u64, start: usize, end: usize) -> BlockMask {
        debug_assert!(end <= self.len());
        let mut mask: BlockMask = [0; 2];
        if start >= end || dlo > dhi {
            return mask;
        }
        let w = self.width as usize;
        if w == 0 {
            // All deltas are zero: everything matches iff the range admits 0.
            if dlo == 0 {
                set_mask_range(&mut mask, start, end);
            }
            return mask;
        }
        if 64 % w == 0 && start == 0 && end == self.len() {
            self.match_mask_swar(dlo, dhi, &mut mask);
            return mask;
        }
        let span = dhi - dlo;
        for (k, half) in mask.iter_mut().enumerate() {
            let mut bits = 0u64;
            self.for_each_delta(start.max(k * 64), end.min(k * 64 + 64), |i, d| {
                bits |= u64::from(d.wrapping_sub(dlo) <= span) << (i % 64);
            });
            *half = bits;
        }
        mask
    }

    /// SWAR kernel behind [`Block::match_mask`] for a whole block:
    /// `64 / width` deltas per packed word are range-checked at once; only
    /// matching lanes are visited when transcribing into the offset bitmap.
    fn match_mask_swar(&self, dlo: u64, dhi: u64, mask: &mut BlockMask) {
        let w = self.width as usize;
        let lanes = 64 / w;
        // Low bit of every lane; multiplying by it splats a lane value.
        let ones = u64::MAX / low_bits(w);
        let high = ones << (w - 1);
        let lo_splat = dlo.wrapping_mul(ones);
        let hi_splat = dhi.wrapping_mul(ones);
        for (word, &x) in self.words.iter().enumerate() {
            // Lane matches ⇔ !(x < dlo) && !(dhi < x); padding lanes past
            // `len` hold zero and are excluded by the `i < len` guard.
            let mut hit = !swar_lt(x, lo_splat, high) & !swar_lt(hi_splat, x, high) & high;
            while hit != 0 {
                let lane = hit.trailing_zeros() as usize / w;
                hit &= hit - 1;
                let i = word * lanes + lane;
                if i < self.len() {
                    mask[i / 64] |= 1 << (i % 64);
                }
            }
        }
    }

    /// Ranks of `a` and `b` among the values at offsets `[start, end)`:
    /// how many are `< a`, and how many are `<= b`. Over a sorted run these
    /// are `partition_point(< a)` and `partition_point(<= b)` — a search
    /// that costs one branch-free pass instead of a mispredicted branch per
    /// level. `[min, max]` answers without touching the packed words when
    /// it can (always, for a width-0 block).
    ///
    /// # Panics
    /// Panics in debug builds if `end > self.len()`.
    pub fn rank(&self, a: u64, b: u64, start: usize, end: usize) -> (usize, usize) {
        debug_assert!(end <= self.len());
        let n = end.saturating_sub(start);
        let decided = |none: bool, all: bool| match (none, all) {
            (true, _) => Some(0),
            (_, true) => Some(n),
            _ => None,
        };
        let lt = decided(a <= self.min, a > self.max);
        let le = decided(b < self.min, b >= self.max);
        if let (Some(lt), Some(le)) = (lt, le) {
            return (lt, le);
        }
        // Some bound lies inside `(min, max)`, so `width >= 1`. A bound the
        // metadata already decided is counted too (against a wrapped or
        // saturated delta) and its count discarded below.
        let (da, db) = (a.saturating_sub(self.min), b.wrapping_sub(self.min));
        let (mut n_lt, mut n_le) = (0usize, 0usize);
        self.for_each_delta(start, end, |_, d| {
            n_lt += usize::from(d < da);
            n_le += usize::from(d <= db);
        });
        (lt.unwrap_or(n_lt), le.unwrap_or(n_le))
    }

    /// Call `f(offset, delta)` for every offset of `[start, end)` in order,
    /// walking a running bit offset through the packed words. Needs
    /// `width >= 1`; an empty or inverted range calls nothing.
    #[inline(always)]
    fn for_each_delta(&self, start: usize, end: usize, mut f: impl FnMut(usize, u64)) {
        let w = self.width as usize;
        let words = &self.words[..];
        let mut bit = start * w;
        for i in start..end {
            f(i, delta_at(words, bit, w));
            bit += w;
        }
    }

    /// Decompress the whole block, appending to `out`.
    pub fn decompress_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.get(i));
        }
    }

    /// Heap size of this block in bytes (metadata + packed words).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * 8
    }
}

/// Number of bits needed to represent `v` (0 needs 0 bits).
#[inline]
pub fn bits_needed(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Set bits `[start, end)` of a two-word offset bitmap.
#[inline]
pub fn set_mask_range(mask: &mut BlockMask, start: usize, end: usize) {
    debug_assert!(start <= end && end <= BLOCK_LEN);
    for (k, m) in mask.iter_mut().enumerate() {
        let (ws, we) = (k * 64, k * 64 + 64);
        let s = start.clamp(ws, we) - ws;
        let e = end.clamp(ws, we) - ws;
        if s < e {
            // `e - s` is at most 64; build the run without overflowing.
            let run = (u64::MAX >> (64 - (e - s))) << s;
            *m |= run;
        }
    }
}

/// Per-lane unsigned `a < b` over `64 / width` packed lanes, reported in
/// each lane's high bit. `high` holds the high bit of every lane.
///
/// Classic carry-free SWAR comparison: `d = (a | high) - (b & !high)` keeps
/// every lane's low-part subtraction from borrowing into its neighbour
/// (each lane computes `2^(w-1) + a_low - b_low`, always in `[1, 2^w)`), so
/// the high bit of `d` is the *no-borrow* flag of `a_low - b_low`. A lane
/// then satisfies `a < b` when its high bits say `a_hi < b_hi`, or they are
/// equal and the low part borrowed.
#[inline]
fn swar_lt(a: u64, b: u64, high: u64) -> u64 {
    let d = (a | high).wrapping_sub(b & !high);
    ((!a & b) | (!(a ^ b) & !d)) & high
}

/// Pack `width` low bits of `v` at bit offset `bit` into `words`.
#[inline]
fn pack(words: &mut [u64], bit: usize, width: u8, v: u64) {
    let w = bit / 64;
    let off = bit % 64;
    words[w] |= v << off;
    let spill = off + width as usize;
    if spill > 64 {
        words[w + 1] |= v >> (64 - off);
    }
}

/// A word with its `width` low bits set, `1 <= width <= 64`. Width 64 is
/// the all-ones word: nothing here ever shifts by 64.
#[inline(always)]
fn low_bits(width: usize) -> u64 {
    debug_assert!((1..=64).contains(&width));
    u64::MAX >> (64 - width)
}

/// The `width`-bit delta at bit offset `bit` of `words`, `width >= 1`, read
/// without a branch: the word the delta starts in and the one after it are
/// both loaded and spliced. The second is shifted in two steps, so a delta
/// starting on a word boundary shifts it out entirely rather than by 64;
/// where the delta ends inside its first word, whatever the splice brings
/// in lands at bit `64 - off >= width` or above and is masked away — which
/// is also why the last word can stand in for the one past the end.
#[inline(always)]
fn delta_at(words: &[u64], bit: usize, width: usize) -> u64 {
    let (wi, off) = (bit / 64, bit % 64);
    let next = words[(wi + 1).min(words.len() - 1)];
    ((words[wi] >> off) | ((next << 1) << (63 - off))) & low_bits(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_testkit::Lcg;

    #[test]
    fn bits_needed_boundaries() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(2), 2);
        assert_eq!(bits_needed(3), 2);
        assert_eq!(bits_needed(4), 3);
        assert_eq!(bits_needed(u64::MAX), 64);
        assert_eq!(bits_needed(u64::MAX >> 1), 63);
    }

    #[test]
    fn roundtrip_constant_block() {
        let vals = vec![42u64; 100];
        let b = Block::compress(&vals);
        assert_eq!(b.width(), 0);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn roundtrip_small_range() {
        let vals: Vec<u64> = (1000..1128).collect();
        let b = Block::compress(&vals);
        assert_eq!(b.len(), 128);
        assert_eq!(b.width(), 7); // deltas 0..=127
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn roundtrip_full_width() {
        let vals = vec![0u64, u64::MAX, 1, u64::MAX - 1, 12345];
        let b = Block::compress(&vals);
        assert_eq!(b.width(), 64);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.get(i), v);
        }
    }

    #[test]
    fn roundtrip_straddles_word_boundary() {
        // width 13 ensures values straddle 64-bit word boundaries.
        let vals: Vec<u64> = (0..128).map(|i| 5000 + (i * 61) % 8000).collect();
        let b = Block::compress(&vals);
        assert!(b.width() >= 13);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(b.get(i), v, "index {i}");
        }
    }

    #[test]
    fn decompress_matches() {
        let vals: Vec<u64> = (0..77).map(|i| i * i).collect();
        let b = Block::compress(&vals);
        let mut out = Vec::new();
        b.decompress_into(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_block_panics() {
        let _ = Block::compress(&[]);
    }

    #[test]
    #[should_panic(expected = "block too large")]
    fn oversize_block_panics() {
        let vals = vec![0u64; BLOCK_LEN + 1];
        let _ = Block::compress(&vals);
    }

    /// Reference mask: decode every value and compare.
    fn naive_mask(b: &Block, lo: u64, hi: u64, start: usize, end: usize) -> BlockMask {
        let mut mask = [0u64; 2];
        for i in start..end {
            let v = b.get(i);
            if lo <= v && v <= hi {
                mask[i / 64] |= 1 << (i % 64);
            }
        }
        mask
    }

    /// Full classify + probe pipeline against the decode-first reference.
    fn assert_packed_matches(vals: &[u64], lo: u64, hi: u64, start: usize, end: usize) {
        let b = Block::compress(vals);
        let want = naive_mask(&b, lo, hi, start, end);
        let got = match b.classify(lo, hi) {
            BlockMatch::Skip => [0u64; 2],
            BlockMatch::Accept => {
                let mut m = [0u64; 2];
                set_mask_range(&mut m, start.min(end), end);
                m
            }
            BlockMatch::Probe { dlo, dhi } => b.match_mask(dlo, dhi, start, end),
        };
        assert_eq!(
            got,
            want,
            "vals[0..{}] width {} lo {lo} hi {hi} range [{start},{end})",
            vals.len(),
            b.width()
        );
    }

    #[test]
    fn classify_min_max_boundaries() {
        let b = Block::compress(&[10, 20, 30]);
        assert_eq!((b.min(), b.max()), (10, 30));
        // Predicate exactly on min/max: whole-block accept.
        assert_eq!(b.classify(10, 30), BlockMatch::Accept);
        assert_eq!(b.classify(0, u64::MAX), BlockMatch::Accept);
        // One past either endpoint: skip.
        assert_eq!(b.classify(0, 9), BlockMatch::Skip);
        assert_eq!(b.classify(31, 40), BlockMatch::Skip);
        // Predicate touching a single endpoint value: probe.
        assert_eq!(b.classify(30, 40), BlockMatch::Probe { dlo: 20, dhi: 20 });
        assert_eq!(b.classify(0, 10), BlockMatch::Probe { dlo: 0, dhi: 0 });
    }

    #[test]
    fn classify_clamps_bounds_into_delta_domain() {
        let b = Block::compress(&[100, 150, 200]);
        // Bound below min saturates to delta 0 (not a huge wrapped delta).
        assert_eq!(b.classify(3, 150), BlockMatch::Probe { dlo: 0, dhi: 50 });
        // Bound above max clamps to max - min, keeping dhi within width bits.
        assert_eq!(
            b.classify(150, u64::MAX),
            BlockMatch::Probe { dlo: 50, dhi: 100 }
        );
    }

    #[test]
    fn classify_width_zero_never_probes() {
        let b = Block::compress(&[7; 50]);
        assert_eq!(b.width(), 0);
        assert_eq!(b.classify(0, 6), BlockMatch::Skip);
        assert_eq!(b.classify(8, 9), BlockMatch::Skip);
        assert_eq!(b.classify(7, 7), BlockMatch::Accept);
        assert_eq!(b.classify(0, u64::MAX), BlockMatch::Accept);
    }

    #[test]
    fn match_mask_empty_range_is_empty() {
        let vals: Vec<u64> = (0..100).collect();
        let b = Block::compress(&vals);
        assert_eq!(b.match_mask(0, 99, 40, 40), [0, 0]);
        assert_eq!(b.match_mask(0, 99, 0, 0), [0, 0]);
        // Width-0 blocks too (the early return that reads no words).
        let c = Block::compress(&[5; 64]);
        assert_eq!(c.match_mask(0, 0, 10, 10), [0, 0]);
    }

    #[test]
    fn match_mask_respects_subrange() {
        let vals: Vec<u64> = (0..128).collect();
        let b = Block::compress(&vals); // width 7: the general pass
        let m = b.match_mask(0, 127, 3, 70);
        for i in 0..128 {
            let set = m[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(set, (3..70).contains(&i), "offset {i}");
        }
    }

    #[test]
    fn swar_widths_match_decode_first() {
        // Widths 1, 2, 4, 8, 16, 32 — every SWAR lane layout.
        for shift in [1u32, 2, 4, 8, 16, 32] {
            let top = if shift == 32 {
                u64::MAX >> 32
            } else {
                (1 << shift) - 1
            };
            let vals: Vec<u64> = (0..128u64).map(|i| (i * 2654435761) % (top + 1)).collect();
            let b = Block::compress(&vals);
            assert!(64 % b.width() as usize == 0, "width {} not SWAR", b.width());
            for (lo, hi) in [(0, top / 2), (top / 3, top), (top / 2, top / 2), (0, top)] {
                assert_packed_matches(&vals, lo, hi, 0, vals.len());
                assert_packed_matches(&vals, lo, hi, 17, 97);
            }
        }
    }

    #[test]
    fn width_64_blocks_match_decode_first() {
        let vals = vec![0u64, u64::MAX, 1, u64::MAX - 1, 1 << 63, (1 << 63) - 1, 42];
        for (lo, hi) in [
            (0, u64::MAX),
            (1, u64::MAX - 1),
            (1 << 63, u64::MAX),
            (0, (1 << 63) - 1),
            (42, 42),
        ] {
            assert_packed_matches(&vals, lo, hi, 0, vals.len());
        }
        let b = Block::compress(&vals);
        assert_eq!(b.width(), 64);
        assert_eq!((b.min(), b.max()), (0, u64::MAX));
    }

    #[test]
    fn scalar_widths_match_decode_first() {
        // Widths that do not subdivide a word (3, 5, 7, 13): the general
        // pass whatever the piece; straddled word boundaries included.
        for top in [7u64, 31, 127, 8000] {
            let vals: Vec<u64> = (0..128u64).map(|i| 1000 + (i * 61) % top).collect();
            for (lo, hi) in [
                (1000, 1000 + top / 2),
                (1000 + top / 4, u64::MAX),
                (0, 1010),
            ] {
                assert_packed_matches(&vals, lo, hi, 0, vals.len());
                assert_packed_matches(&vals, lo, hi, 5, 123);
            }
        }
    }

    /// `len` values whose block packs at exactly `width` bits: deltas 0 and
    /// the all-ones delta are both present, the rest pseudo-random, over a
    /// non-zero base wherever one fits.
    fn values_of_width(width: u32, len: usize) -> Vec<u64> {
        let top = if width == 0 {
            0
        } else {
            u64::MAX >> (64 - width)
        };
        let base = 1_000u64.min(u64::MAX - top);
        let mut rng = Lcg::new(0x9e37_79b9_7f4a_7c15 ^ u64::from(width), 7);
        let mut vals: Vec<u64> = (0..len).map(|_| base + (rng.next_u64() & top)).collect();
        vals[len / 3] = base;
        vals[len - 1] = base + top;
        vals
    }

    /// Every `(start, end)` over the piece edges the kernels distinguish:
    /// block and word boundaries and their neighbours, the short block's end.
    fn pieces(len: usize) -> Vec<(usize, usize)> {
        let edges = [0, 1, 63, 64, 65, 127, len];
        let mut out = Vec::new();
        for &start in &edges {
            for &end in &edges {
                if start <= end && end <= len {
                    out.push((start, end));
                }
            }
        }
        out
    }

    #[test]
    fn every_width_and_piece_masks_like_decode_first() {
        for width in 0..=64u32 {
            // A full block and a short last block.
            for len in [BLOCK_LEN, 77] {
                let vals = values_of_width(width, len);
                let b = Block::compress(&vals);
                assert_eq!(u32::from(b.width()), width);
                let top = b.max() - b.min();
                let mid = vals[len / 2] - b.min();
                let bounds = [
                    (0, top),
                    (0, 0),
                    (top, top),
                    (0, top / 2),
                    (top / 3, top - top / 3),
                    (mid, mid),
                    (mid, top),
                    (1.min(top), top.saturating_sub(1).max(1.min(top))),
                ];
                for (start, end) in pieces(len) {
                    for (dlo, dhi) in bounds {
                        let mut want = [0u64; 2];
                        for i in start..end {
                            let d = vals[i] - b.min();
                            if dlo <= d && d <= dhi {
                                want[i / 64] |= 1 << (i % 64);
                            }
                        }
                        assert_eq!(
                            b.match_mask(dlo, dhi, start, end),
                            want,
                            "width {width} len {len} [{dlo},{dhi}] over [{start},{end})"
                        );
                    }
                }
                // An inverted range matches nothing, at any width.
                assert_eq!(b.match_mask(1, 0, 0, len), [0, 0], "width {width}");
            }
        }
    }

    #[test]
    fn every_width_and_piece_ranks_like_decode_first() {
        for width in 0..=64u32 {
            for len in [BLOCK_LEN, 77] {
                let vals = values_of_width(width, len);
                let b = Block::compress(&vals);
                let (min, max, mid) = (b.min(), b.max(), vals[len / 2]);
                let bounds = [
                    0,
                    u64::MAX,
                    min,
                    max,
                    min.saturating_sub(1),
                    max.saturating_add(1),
                    min.saturating_add(1),
                    max.saturating_sub(1),
                    mid,
                    mid.saturating_add(1),
                    min + (max - min) / 2,
                ];
                for (start, end) in pieces(len) {
                    for a in bounds {
                        for bb in bounds {
                            let piece = &vals[start..end];
                            let want = (
                                piece.iter().filter(|&&v| v < a).count(),
                                piece.iter().filter(|&&v| v <= bb).count(),
                            );
                            assert_eq!(
                                b.rank(a, bb, start, end),
                                want,
                                "width {width} len {len} a {a} b {bb} over [{start},{end})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_last_block_masks() {
        // A 77-value block: offsets past len never set bits even when the
        // zero-padding lanes would match delta 0.
        let vals: Vec<u64> = (0..77u64).map(|i| 50 + i % 3).collect();
        let b = Block::compress(&vals);
        let BlockMatch::Probe { dlo, dhi } = b.classify(50, 50) else {
            panic!("expected probe");
        };
        assert_eq!((dlo, dhi), (0, 0));
        let m = b.match_mask(dlo, dhi, 0, b.len());
        for i in 0..BLOCK_LEN {
            let set = m[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(set, i < 77 && i % 3 == 0, "offset {i}");
        }
    }

    #[test]
    fn set_mask_range_spans_words() {
        let mut m = [0u64; 2];
        set_mask_range(&mut m, 60, 70);
        for i in 0..128 {
            let set = m[i / 64] >> (i % 64) & 1 == 1;
            assert_eq!(set, (60..70).contains(&i), "offset {i}");
        }
        let mut full = [0u64; 2];
        set_mask_range(&mut full, 0, 128);
        assert_eq!(full, [u64::MAX, u64::MAX]);
    }
}
