//! Protocol configuration: system size `n`, resilience `k`, and the
//! quorum thresholds derived from them.

use core::fmt;

/// Error returned when a configuration violates a protocol's resilience
/// bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    n: usize,
    k: usize,
    bound: usize,
    model: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k = {} exceeds the {} resilience bound {} for n = {}",
            self.k, self.model, self.bound, self.n
        )
    }
}

impl std::error::Error for ConfigError {}

/// The smallest count that is more than half of `n`: `⌊n/2⌋ + 1`.
pub(crate) const fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// One of the paper's four quorum bars. Each is an "at least" count read
/// by one [`Config`] predicate; [`Config::ablate`] lowers it and
/// [`Config::bar`] reads it back.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Threshold {
    /// Figure 1: the cardinality that makes a message a witness, more than
    /// `n/2` ([`Config::is_witness`]; the paper's bar is `⌊n/2⌋ + 1`).
    Witness,
    /// Figure 1: witnesses for one value needed to decide, more than `k`
    /// ([`Config::enough_witnesses`]; the paper's bar is `k + 1`).
    WitnessesToDecide,
    /// Figure 2: echoes needed to accept a message, more than `(n+k)/2`
    /// ([`Config::accepts`]; the paper's bar is `⌊(n+k)/2⌋ + 1`).
    EchoesToAccept,
    /// Figure 2 and §4.1: same-value messages needed to decide, more than
    /// `(n+k)/2` ([`Config::decides`]; the paper's bar is `⌊(n+k)/2⌋ + 1`).
    AcceptedToDecide,
}

/// A validated `(n, k)` pair for one of the paper's protocols, with the
/// quorum bars its predicates read.
///
/// The constructors enforce the tight bounds the paper proves:
///
/// * [`Config::fail_stop`] requires `k ≤ ⌊(n−1)/2⌋` (Theorems 1 and 2);
/// * [`Config::malicious`] requires `k ≤ ⌊(n−1)/3⌋` (Theorems 3 and 4).
///
/// [`Config::unchecked`] skips validation — used by the lower-bound
/// experiments (E5) to run the protocols *beyond* their proven bounds and
/// watch them lose consistency or deadlock.
///
/// Every constructor sets the paper's bars (see [`Threshold`]);
/// [`Config::ablate`] is the only way to lower one, for the experiments
/// and fuzz self-tests that show each bar is load-bearing.
///
/// # Examples
///
/// ```
/// use bt_core::Config;
///
/// let c = Config::malicious(10, 3)?;
/// assert_eq!(c.quota(), 7); // waits for n − k messages
/// assert!(Config::malicious(10, 4).is_err());
/// # Ok::<(), bt_core::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    // `u32`, not `usize`: every process and `EchoTracker` holds a copy,
    // and this keeps it at 24 bytes.
    n: u32,
    k: u32,
    /// "At least" counts, indexed by `Threshold as usize`.
    bars: [u32; 4],
}

impl Config {
    fn paper(n: usize, k: usize) -> Self {
        let narrow = |count: usize| u32::try_from(count).expect("at most u32::MAX processes");
        Config {
            n: narrow(n),
            k: narrow(k),
            bars: [majority(n), k + 1, majority(n + k), majority(n + k)].map(narrow),
        }
    }

    /// Creates a configuration for the fail-stop protocol (Figure 1).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `k > ⌊(n−1)/2⌋` — by Theorem 1, no
    /// protocol can do better.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn fail_stop(n: usize, k: usize) -> Result<Self, ConfigError> {
        assert!(n > 0, "a system needs at least one process");
        let bound = Self::max_fail_stop_k(n);
        if k > bound {
            return Err(ConfigError {
                n,
                k,
                bound,
                model: "fail-stop",
            });
        }
        Ok(Config::paper(n, k))
    }

    /// Creates a configuration for the malicious protocol (Figure 2).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `k > ⌊(n−1)/3⌋` — by Theorem 3, no
    /// protocol can do better.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn malicious(n: usize, k: usize) -> Result<Self, ConfigError> {
        assert!(n > 0, "a system needs at least one process");
        let bound = Self::max_malicious_k(n);
        if k > bound {
            return Err(ConfigError {
                n,
                k,
                bound,
                model: "malicious",
            });
        }
        Ok(Config::paper(n, k))
    }

    /// Creates a configuration without validating any resilience bound.
    ///
    /// Exists so the lower-bound experiments can deliberately exceed the
    /// bounds; everywhere else prefer the checked constructors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k >= n`.
    #[must_use]
    pub fn unchecked(n: usize, k: usize) -> Self {
        assert!(n > 0, "a system needs at least one process");
        assert!(k < n, "at least one process must be able to be correct");
        Config::paper(n, k)
    }

    /// This configuration with `which` bar lowered by `by`, floored at 1.
    /// Calls chain; the result is outside the paper's proofs unless `by`
    /// is 0.
    ///
    /// ```
    /// use bt_core::{Config, Threshold};
    ///
    /// let c = Config::fail_stop(8, 3)?.ablate(Threshold::Witness, 2);
    /// assert_eq!(c.bar(Threshold::Witness), 3); // the paper's is 5
    /// assert!(c.is_witness(3));
    /// assert_eq!(c.ablate(Threshold::Witness, 100).bar(Threshold::Witness), 1);
    /// # Ok::<(), bt_core::ConfigError>(())
    /// ```
    #[must_use]
    pub fn ablate(mut self, which: Threshold, by: usize) -> Config {
        let bar = &mut self.bars[which as usize];
        // Never above the old bar, so it still fits.
        *bar = (*bar as usize).saturating_sub(by).max(1) as u32;
        self
    }

    /// The least count that passes `which` bar.
    #[must_use]
    pub const fn bar(&self, which: Threshold) -> usize {
        self.bars[which as usize] as usize
    }

    /// The number of processes `n`.
    #[must_use]
    pub const fn n(&self) -> usize {
        self.n as usize
    }

    /// The resilience `k`: the maximum number of faulty processes tolerated.
    #[must_use]
    pub const fn k(&self) -> usize {
        self.k as usize
    }

    /// How many messages a process waits for in each phase: `n − k`.
    #[must_use]
    pub const fn quota(&self) -> usize {
        (self.n - self.k) as usize
    }

    /// Whether `cardinality` makes a message a *witness* (Figure 1):
    /// strictly more than `n/2` ([`Threshold::Witness`]).
    #[must_use]
    pub const fn is_witness(&self, cardinality: usize) -> bool {
        cardinality >= self.bar(Threshold::Witness)
    }

    /// Whether `witness_count` suffices to decide in Figure 1: strictly more
    /// than `k` witnesses ([`Threshold::WitnessesToDecide`]).
    #[must_use]
    pub const fn enough_witnesses(&self, witness_count: usize) -> bool {
        witness_count >= self.bar(Threshold::WitnessesToDecide)
    }

    /// Whether `echo_count` suffices to accept a message in Figure 2:
    /// strictly more than `(n+k)/2` echoes ([`Threshold::EchoesToAccept`]).
    #[must_use]
    pub const fn accepts(&self, echo_count: usize) -> bool {
        echo_count >= self.bar(Threshold::EchoesToAccept)
    }

    /// Whether `message_count` suffices to decide in Figure 2 (and in the
    /// §4.1 simple variant): strictly more than `(n+k)/2` accepted messages
    /// with the same value ([`Threshold::AcceptedToDecide`]).
    #[must_use]
    pub const fn decides(&self, message_count: usize) -> bool {
        message_count >= self.bar(Threshold::AcceptedToDecide)
    }

    /// The largest `k` the fail-stop protocol supports for this `n`.
    #[must_use]
    pub const fn max_fail_stop_k(n: usize) -> usize {
        (n - 1) / 2
    }

    /// The largest `k` the malicious protocol supports for this `n`.
    #[must_use]
    pub const fn max_malicious_k(n: usize) -> usize {
        (n - 1) / 3
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(n={}, k={}", self.n, self.k)?;
        // A config with lowered bars must not read as the paper's.
        if *self != Config::paper(self.n(), self.k()) {
            write!(f, ", bars={:?}", self.bars)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_stop_bound_is_tight() {
        for n in 1..40 {
            let bound = (n - 1) / 2;
            assert!(Config::fail_stop(n, bound).is_ok());
            assert!(Config::fail_stop(n, bound + 1).is_err());
        }
    }

    #[test]
    fn malicious_bound_is_tight() {
        for n in 1..40 {
            let bound = (n - 1) / 3;
            assert!(Config::malicious(n, bound).is_ok());
            assert!(Config::malicious(n, bound + 1).is_err());
        }
    }

    #[test]
    fn known_bounds() {
        // n=4 tolerates 1 malicious fault; n=3 tolerates none.
        assert!(Config::malicious(4, 1).is_ok());
        assert!(Config::malicious(3, 1).is_err());
        // n=3 tolerates 1 crash; n=2 tolerates none.
        assert!(Config::fail_stop(3, 1).is_ok());
        assert!(Config::fail_stop(2, 1).is_err());
    }

    const THRESHOLDS: [Threshold; 4] = [
        Threshold::Witness,
        Threshold::WitnessesToDecide,
        Threshold::EchoesToAccept,
        Threshold::AcceptedToDecide,
    ];

    fn passes(c: Config, which: Threshold, count: usize) -> bool {
        match which {
            Threshold::Witness => c.is_witness(count),
            Threshold::WitnessesToDecide => c.enough_witnesses(count),
            Threshold::EchoesToAccept => c.accepts(count),
            Threshold::AcceptedToDecide => c.decides(count),
        }
    }

    /// Every predicate of a paper `Config` is the paper's inequality, and
    /// `ablate` moves exactly one boundary, down by `by`, floored at 1.
    #[test]
    fn predicates_are_the_papers_inequalities_and_ablate_moves_one_bar() {
        for n in 1..=64 {
            for k in 0..n {
                let c = Config::unchecked(n, k);
                for count in 0..=n {
                    assert_eq!(c.is_witness(count), 2 * count > n, "{c} {count}");
                    assert_eq!(c.enough_witnesses(count), count > k, "{c} {count}");
                    assert_eq!(c.accepts(count), 2 * count > n + k, "{c} {count}");
                    assert_eq!(c.decides(count), 2 * count > n + k, "{c} {count}");
                    assert_eq!(count >= c.quota(), count >= n - k, "{c} {count}");
                }
                for which in THRESHOLDS {
                    for by in [0, 1, 2, 3, n] {
                        let a = c.ablate(which, by);
                        for t in THRESHOLDS {
                            let at = if t == which {
                                c.bar(t).saturating_sub(by).max(1)
                            } else {
                                c.bar(t)
                            };
                            assert_eq!(a.bar(t), at, "{c} {which:?}-{by} {t:?}");
                            for count in 0..=n {
                                assert_eq!(passes(a, t, count), count >= at, "{c} {t:?} {count}");
                            }
                        }
                        assert_eq!(a.quota(), c.quota());
                    }
                }
            }
        }
    }

    #[test]
    fn display_names_lowered_bars() {
        let c = Config::fail_stop(8, 3).unwrap();
        assert_eq!(c.to_string(), "(n=8, k=3)");
        let a = c.ablate(Threshold::Witness, 2);
        assert_eq!(a.to_string(), "(n=8, k=3, bars=[3, 4, 6, 6])");
        assert_eq!(a.ablate(Threshold::Witness, 0).to_string(), a.to_string());
        assert_eq!(c.ablate(Threshold::Witness, 0).to_string(), "(n=8, k=3)");
    }

    #[test]
    fn quota_and_thresholds() {
        let c = Config::malicious(10, 3).unwrap();
        assert_eq!(c.quota(), 7);
        // witness: cardinality > 5
        assert!(!c.is_witness(5));
        assert!(c.is_witness(6));
        // accept: echoes > 6.5, i.e. >= 7
        assert!(!c.accepts(6));
        assert!(c.accepts(7));
        // decide: > 6.5 accepted same-value messages
        assert!(!c.decides(6));
        assert!(c.decides(7));
    }

    #[test]
    fn witness_threshold_odd_even() {
        let odd = Config::fail_stop(7, 3).unwrap();
        assert!(!odd.is_witness(3)); // 6 > 7 false
        assert!(odd.is_witness(4)); // 8 > 7
        let even = Config::fail_stop(8, 3).unwrap();
        assert!(!even.is_witness(4)); // 8 > 8 false
        assert!(even.is_witness(5));
    }

    #[test]
    fn error_display_names_model() {
        let e = Config::malicious(4, 2).unwrap_err();
        let s = e.to_string();
        assert!(s.contains("malicious"));
        assert!(s.contains("k = 2"));
    }

    #[test]
    #[should_panic(expected = "at least one process must be able to be correct")]
    fn unchecked_rejects_all_faulty() {
        let _ = Config::unchecked(3, 3);
    }

    #[test]
    fn unchecked_allows_beyond_bound() {
        let c = Config::unchecked(4, 2);
        assert_eq!(c.quota(), 2);
    }

    #[test]
    fn k_zero_is_valid() {
        let c = Config::fail_stop(1, 0).unwrap();
        assert_eq!(c.quota(), 1);
        assert!(c.enough_witnesses(1));
    }
}
