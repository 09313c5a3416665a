//! # flood-testkit
//!
//! What the workspace's property suites and unit tests share, once:
//!
//! - [`cases`]: a suite's proptest case count, scaled by
//!   `FLOOD_PROPTEST_CASES`;
//! - [`splitmix`] and [`Lcg`]: the seeded streams test data is drawn from,
//!   so that a proptest-chosen seed fixes a whole table;
//! - table and query builders and strategies ([`gen`]), each taking the
//!   suite's row counts, domains and bound strategies as arguments;
//! - [`oracle()`]: the brute-force answer every index is held to, and
//!   [`answer`]: one query answered under every visitor kind.
//!
//! Crates take this as a dev-dependency only.

pub mod gen;
pub mod oracle;

pub use gen::*;
pub use oracle::*;

/// The environment variable that scales every suite's case count.
const CASES_ENV: &str = "FLOOD_PROPTEST_CASES";

/// A suite's case count: `FLOOD_PROPTEST_CASES` when set and not empty
/// (CI raises it on push and runs some suites at 512 in release),
/// otherwise the suite's `default`.
///
/// # Panics
/// Panics when the variable is set to anything but a positive integer, so a
/// typo never quietly runs the default.
pub fn cases(default: u32) -> u32 {
    match std::env::var(CASES_ENV) {
        Ok(v) => parse_cases(&v, default),
        Err(_) => default,
    }
}

/// A `FLOOD_PROPTEST_CASES` value as a case count: empty (surrounding
/// whitespace aside) gives `default`, anything else must be a positive
/// integer after trimming.
///
/// # Panics
/// Panics on anything else, naming the value.
fn parse_cases(v: &str, default: u32) -> u32 {
    match v.trim() {
        "" => default,
        t => match t.parse::<u32>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("{CASES_ENV} must be a positive integer, got {v:?}"),
        },
    }
}

/// One SplitMix64 step: advances `state` and returns the next output.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Knuth's MMIX linear congruential generator,
/// `state ← state · 6364136223846793005 + 1442695040888963407`, each output
/// the new state shifted right by a fixed amount (its low bits are weak).
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
    shift: u32,
}

impl Lcg {
    /// The stream from the odd state `seed | 1`, outputs shifted by `shift`.
    pub fn new(seed: u64, shift: u32) -> Self {
        Lcg {
            state: seed | 1,
            shift,
        }
    }

    /// Advance and return the next output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = (self.state)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> self.shift
    }

    /// The next output modulo `bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_counts_are_trimmed() {
        assert_eq!(parse_cases(" 512\n", 24), 512);
    }

    #[test]
    fn an_empty_case_count_is_the_default() {
        assert_eq!(parse_cases("", 24), 24);
    }

    #[test]
    #[should_panic(expected = "FLOOD_PROPTEST_CASES must be a positive integer, got \"0\"")]
    fn a_zero_case_count_is_rejected() {
        parse_cases("0", 24);
    }

    #[test]
    #[should_panic(expected = "FLOOD_PROPTEST_CASES must be a positive integer, got \"5l2\"")]
    fn a_malformed_case_count_is_rejected_by_name() {
        parse_cases("5l2", 24);
    }
}
