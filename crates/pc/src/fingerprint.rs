//! Canonical formula fingerprints — keys for compiled artifacts.
//!
//! A [`FormulaFingerprint`] identifies *exactly* the input the compiler
//! saw: the variable universe, the clause list (literals sorted within
//! each clause — the canonical presentation a serving knowledge base
//! maintains), and the bit patterns of the per-variable weights.
//! Fingerprints are compared structurally (no hash-collision risk for
//! store lookups); the 64-bit digest is a display/telemetry handle.
//! `reason-serve`'s circuit store keys its entries by fingerprint, and
//! its cluster places each knowledge base on a shard by the
//! fingerprint's [`ring_hash`](FormulaFingerprint::ring_hash).

use std::fmt;

use crate::compile::WmcWeights;
use reason_sat::{Clause, Cnf};

/// An exact, order-preserving fingerprint of `(formula, weights)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FormulaFingerprint {
    tokens: Vec<u64>,
    digest: u64,
}

/// Separator between clauses in the token stream. A DIMACS literal is
/// never 0 and weight bits follow a fixed-length prefix, so the
/// sentinel cannot be confused with payload.
const CLAUSE_SEP: u64 = 0;

impl FormulaFingerprint {
    /// Fingerprints a formula under its weights. Literals are sorted
    /// within each clause (logically identical presentations that only
    /// permute literals share a key); clause *order* is preserved,
    /// matching the stability contract of the persistent component
    /// cache's clause ids.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cnf.num_vars()`.
    pub fn new(cnf: &Cnf, weights: &WmcWeights) -> Self {
        Self::from_parts(cnf.num_vars(), cnf.clauses(), weights)
    }

    /// [`new`](Self::new) over an explicit clause slice.
    pub fn from_parts(num_vars: usize, clauses: &[Clause], weights: &WmcWeights) -> Self {
        assert_eq!(weights.len(), num_vars, "weights arity mismatch");
        let mut tokens: Vec<u64> = Vec::with_capacity(2 + num_vars + 2 * clauses.len());
        tokens.push(num_vars as u64);
        for v in 0..num_vars {
            tokens.push(weights.prob(v).to_bits());
        }
        for clause in clauses {
            let mut lits: Vec<i64> = clause.iter().map(|l| i64::from(l.to_dimacs())).collect();
            lits.sort_unstable();
            tokens.push(CLAUSE_SEP);
            tokens.extend(lits.iter().map(|&l| l as u64));
        }
        let digest = fnv1a(&tokens);
        FormulaFingerprint { tokens, digest }
    }

    /// The 64-bit digest — a compact handle for logs and reports.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Salted re-hash of the digest, for placing this key on a
    /// consistent-hash ring. The raw FNV digest is a fine identity
    /// handle but its low bits are correlated across similar token
    /// streams; [`ring_mix`] runs a full avalanche so ring positions
    /// scatter uniformly. Deterministic: same fingerprint and salt
    /// always hash to the same point.
    pub fn ring_hash(&self, salt: u64) -> u64 {
        ring_mix(self.digest ^ ring_mix(salt))
    }
}

impl fmt::Display for FormulaFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.digest)
    }
}

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`. Shared by
/// [`FormulaFingerprint::ring_hash`] and `reason-serve`'s cluster ring,
/// which uses it to place shard replica points so that key and shard
/// positions are drawn from the same (deterministic) distribution.
pub fn ring_mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the token stream.
fn fnv1a(tokens: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        for byte in t.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnf(clauses: Vec<Vec<i32>>) -> Cnf {
        Cnf::from_clauses(4, clauses)
    }

    #[test]
    fn identical_inputs_share_a_key() {
        let w = WmcWeights::uniform(4);
        let a = FormulaFingerprint::new(&cnf(vec![vec![1, 2], vec![-2, 3]]), &w);
        let b = FormulaFingerprint::new(&cnf(vec![vec![1, 2], vec![-2, 3]]), &w);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn literal_order_is_canonicalized_but_clause_order_is_not() {
        let w = WmcWeights::uniform(4);
        let base = FormulaFingerprint::new(&cnf(vec![vec![1, 2], vec![-2, 3]]), &w);
        let permuted_lits = FormulaFingerprint::new(&cnf(vec![vec![2, 1], vec![3, -2]]), &w);
        assert_eq!(base, permuted_lits);
        let permuted_clauses = FormulaFingerprint::new(&cnf(vec![vec![-2, 3], vec![1, 2]]), &w);
        assert_ne!(base, permuted_clauses, "clause ids must stay positional");
    }

    #[test]
    fn weights_and_universe_are_part_of_the_key() {
        let formula = cnf(vec![vec![1, 2]]);
        let a = FormulaFingerprint::new(&formula, &WmcWeights::uniform(4));
        let b = FormulaFingerprint::new(&formula, &WmcWeights::new(vec![0.5, 0.5, 0.5, 0.25]));
        assert_ne!(a, b);
        let wider = Cnf::from_clauses(5, vec![vec![1, 2]]);
        let c = FormulaFingerprint::new(&wider, &WmcWeights::uniform(5));
        assert_ne!(a, c);
    }

    #[test]
    fn display_prints_the_hex_digest() {
        let fp = FormulaFingerprint::new(&cnf(vec![vec![1]]), &WmcWeights::uniform(4));
        assert_eq!(format!("{fp}"), format!("{:016x}", fp.digest()));
    }

    #[test]
    fn ring_hash_is_deterministic_and_salt_sensitive() {
        let fp = FormulaFingerprint::new(&cnf(vec![vec![1, 2]]), &WmcWeights::uniform(4));
        assert_eq!(fp.ring_hash(7), fp.ring_hash(7));
        assert_ne!(fp.ring_hash(7), fp.ring_hash(8));
        assert_ne!(fp.ring_hash(7), fp.digest(), "salted hash must remix the digest");
    }

    #[test]
    fn ring_mix_scatters_sequential_inputs() {
        // Sequential salts must not produce clustered ring points: check
        // every pair of mixed values differs in at least 16 bits.
        let points: Vec<u64> = (0u64..32).map(ring_mix).collect();
        for (i, &a) in points.iter().enumerate() {
            for &b in &points[i + 1..] {
                assert!((a ^ b).count_ones() >= 16, "weak avalanche: {a:016x} vs {b:016x}");
            }
        }
    }
}
