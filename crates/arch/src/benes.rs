//! A real Benes network with route computation.
//!
//! REASON uses an input Benes crossbar so that *any* conflict-free
//! operand-to-leaf assignment is routable, which "decouples SRAM banking
//! from DAG mapping and simplifies compilation of irregular graph
//! structures" (paper Sec. V-A/V-C). To make that claim concrete, this
//! module implements the network itself: the recursive butterfly
//! construction and the classic looping algorithm that computes switch
//! settings for an arbitrary permutation in `O(N log N)`.

use std::fmt;

/// Errors raised by routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The destination vector is not a permutation (duplicate or
    /// out-of-range target).
    NotPermutation,
    /// The request size does not match the network size.
    SizeMismatch,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NotPermutation => write!(f, "destinations do not form a permutation"),
            RouteError::SizeMismatch => write!(f, "request size differs from network size"),
        }
    }
}

impl std::error::Error for RouteError {}

/// An `N`-input Benes network (`N` a power of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenesNetwork {
    size: usize,
}

impl BenesNetwork {
    /// Creates a network with `size` inputs.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a power of two and at least 2.
    pub fn new(size: usize) -> Self {
        assert!(size >= 2 && size.is_power_of_two(), "Benes size must be a power of two >= 2");
        BenesNetwork { size }
    }

    /// Number of inputs.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of switch stages: `2·log2(N) − 1`.
    pub fn num_stages(&self) -> usize {
        2 * self.size.trailing_zeros() as usize - 1
    }

    /// Computes switch settings routing input `i` to output `perm[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if `perm` is not a permutation of
    /// `0..size`.
    pub fn route(&self, perm: &[usize]) -> Result<BenesRouting, RouteError> {
        if perm.len() != self.size {
            return Err(RouteError::SizeMismatch);
        }
        let mut seen = vec![false; self.size];
        for &p in perm {
            if p >= self.size || seen[p] {
                return Err(RouteError::NotPermutation);
            }
            seen[p] = true;
        }
        Ok(route_rec(perm))
    }
}

/// Computed switch settings for one routed permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenesRouting {
    size: usize,
    /// Input-stage cross bits (one per switch); for `size == 2` this is
    /// the single switch.
    input_cross: Vec<bool>,
    /// Output-stage cross bits (empty for `size == 2`).
    output_cross: Vec<bool>,
    upper: Option<Box<BenesRouting>>,
    lower: Option<Box<BenesRouting>>,
}

impl BenesRouting {
    /// Applies the routing to a value vector: `result[perm[i]] =
    /// inputs[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the network size.
    pub fn apply<T: Copy + Default>(&self, inputs: &[T]) -> Vec<T> {
        assert_eq!(inputs.len(), self.size, "input length mismatch");
        if self.size == 2 {
            return if self.input_cross[0] {
                vec![inputs[1], inputs[0]]
            } else {
                vec![inputs[0], inputs[1]]
            };
        }
        let half = self.size / 2;
        let mut upper_in = vec![T::default(); half];
        let mut lower_in = vec![T::default(); half];
        for s in 0..half {
            let (a, b) = (inputs[2 * s], inputs[2 * s + 1]);
            if self.input_cross[s] {
                upper_in[s] = b;
                lower_in[s] = a;
            } else {
                upper_in[s] = a;
                lower_in[s] = b;
            }
        }
        let upper_out = self.upper.as_ref().expect("inner network").apply(&upper_in);
        let lower_out = self.lower.as_ref().expect("inner network").apply(&lower_in);
        let mut out = vec![T::default(); self.size];
        for t in 0..half {
            if self.output_cross[t] {
                out[2 * t] = lower_out[t];
                out[2 * t + 1] = upper_out[t];
            } else {
                out[2 * t] = upper_out[t];
                out[2 * t + 1] = lower_out[t];
            }
        }
        out
    }
}

/// The looping algorithm: decompose `perm` into input/output stage
/// settings plus two half-size sub-permutations.
fn route_rec(perm: &[usize]) -> BenesRouting {
    let n = perm.len();
    if n == 2 {
        return BenesRouting {
            size: 2,
            input_cross: vec![perm[0] == 1],
            output_cross: Vec::new(),
            upper: None,
            lower: None,
        };
    }
    let half = n / 2;
    let mut inv = vec![0usize; n];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    // subnet[i]: Some(true) = upper, Some(false) = lower.
    let mut subnet: Vec<Option<bool>> = vec![None; n];
    for start_switch in 0..half {
        if subnet[2 * start_switch].is_some() {
            continue;
        }
        // Start a chain: route the even port upward.
        let mut i = 2 * start_switch;
        subnet[i] = Some(true);
        loop {
            // The output partner of perm[i] must come through the other
            // subnet.
            let o = perm[i];
            let partner_out = o ^ 1;
            let i2 = inv[partner_out];
            let side = !subnet[i].expect("chain head assigned");
            if subnet[i2].is_some() {
                break; // cycle closed
            }
            subnet[i2] = Some(side);
            // The input partner of i2 must take the other side of its
            // switch.
            let i3 = i2 ^ 1;
            if subnet[i3].is_some() {
                break;
            }
            subnet[i3] = Some(!side);
            i = i3;
        }
    }

    let mut input_cross = vec![false; half];
    let mut upper_perm = vec![0usize; half];
    let mut lower_perm = vec![0usize; half];
    let mut output_cross = vec![false; half];
    for s in 0..half {
        let even_up = subnet[2 * s].expect("all inputs assigned");
        input_cross[s] = !even_up;
        let (i_up, i_lo) = if even_up { (2 * s, 2 * s + 1) } else { (2 * s + 1, 2 * s) };
        upper_perm[s] = perm[i_up] / 2;
        lower_perm[s] = perm[i_lo] / 2;
        // Output switch for the upper path: cross when it exits on the odd
        // port.
        output_cross[perm[i_up] / 2] = perm[i_up] & 1 == 1;
    }

    BenesRouting {
        size: n,
        input_cross,
        output_cross,
        upper: Some(Box::new(route_rec(&upper_perm))),
        lower: Some(Box::new(route_rec(&lower_perm))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn check_permutation(net: &BenesNetwork, perm: &[usize]) {
        let routing = net.route(perm).expect("routable");
        let inputs: Vec<usize> = (0..net.size()).collect();
        let outputs = routing.apply(&inputs);
        for (i, &o) in perm.iter().enumerate() {
            assert_eq!(outputs[o], i, "input {i} should land at output {o}: {outputs:?}");
        }
    }

    #[test]
    fn routes_identity_and_reversal() {
        for logn in 1..=5 {
            let n = 1 << logn;
            let net = BenesNetwork::new(n);
            let identity: Vec<usize> = (0..n).collect();
            check_permutation(&net, &identity);
            let reversal: Vec<usize> = (0..n).rev().collect();
            check_permutation(&net, &reversal);
        }
    }

    #[test]
    fn routes_random_permutations() {
        let mut rng = StdRng::seed_from_u64(99);
        for logn in 1..=6 {
            let n = 1 << logn;
            let net = BenesNetwork::new(n);
            for _ in 0..20 {
                let mut perm: Vec<usize> = (0..n).collect();
                perm.shuffle(&mut rng);
                check_permutation(&net, &perm);
            }
        }
    }

    #[test]
    fn rejects_non_permutations() {
        let net = BenesNetwork::new(4);
        assert_eq!(net.route(&[0, 0, 1, 2]), Err(RouteError::NotPermutation));
        assert_eq!(net.route(&[0, 1, 2, 9]), Err(RouteError::NotPermutation));
        assert_eq!(net.route(&[0, 1]), Err(RouteError::SizeMismatch));
    }

    #[test]
    fn stage_and_switch_counts() {
        let net = BenesNetwork::new(8);
        assert_eq!(net.num_stages(), 5);
    }

    #[test]
    fn size_two_network() {
        let net = BenesNetwork::new(2);
        assert_eq!(net.num_stages(), 1);
        check_permutation(&net, &[1, 0]);
        check_permutation(&net, &[0, 1]);
    }
}
