//! Forward sampling from probabilistic circuits.

use rand::dist::sample_categorical;
use rand::Rng;

use crate::circuit::{Circuit, NodeId, PcNode};

/// Draws one complete assignment from the circuit's distribution by
/// top-down ancestral sampling: sum nodes choose a child proportionally to
/// its weight, product nodes descend into all children, and leaves emit
/// values.
///
/// For sub-normalized circuits (see [`crate::compile`]) sampling follows
/// the *renormalized* branch distribution.
///
/// # Panics
///
/// Panics if a sum node has zero total weight.
pub fn sample<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> Vec<usize> {
    let mut assignment = vec![0usize; circuit.num_vars()];
    let mut stack: Vec<NodeId> = vec![circuit.root()];
    // One scratch for every leaf's and sum's linear-space weights.
    let mut probs: Vec<f64> = Vec::new();
    while let Some(id) = stack.pop() {
        match circuit.node(id) {
            PcNode::Indicator { var, value } => assignment[var] = value,
            PcNode::Categorical { var, log_probs } => {
                probs.clear();
                probs.extend(log_probs.iter().map(|lp| lp.exp()));
                assignment[var] = sample_categorical(rng, &probs);
            }
            PcNode::Product { children } => stack.extend(children.iter().copied()),
            PcNode::Sum { children, log_weights } => {
                probs.clear();
                probs.extend(log_weights.iter().map(|lw| lw.exp()));
                stack.push(children[sample_categorical(rng, &probs)]);
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::infer::Evidence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_frequencies_approach_probabilities() {
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let x0t = b.indicator(0, 1);
        let x0f = b.indicator(0, 0);
        let c0 = b.categorical(1, &[0.9, 0.1]);
        let c1 = b.categorical(1, &[0.2, 0.8]);
        let p0 = b.product(&[x0t, c0]);
        let p1 = b.product(&[x0f, c1]);
        let root = b.sum(&[p0, p1], &[0.3, 0.7]);
        let circuit = b.build(root).unwrap();

        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let mut count_x0 = 0usize;
        for _ in 0..n {
            let s = sample(&circuit, &mut rng);
            if s[0] == 1 {
                count_x0 += 1;
            }
        }
        let freq = count_x0 as f64 / n as f64;
        let expect = circuit.marginal(&Evidence::empty(2), 0)[1];
        assert!((freq - expect).abs() < 0.02, "freq {freq} vs p {expect}");
    }

    #[test]
    fn samples_respect_deterministic_structure() {
        // Mixture of [x0=1][x1=1] and [x0=0][x1=0]: samples are 11 or 00.
        let mut b = CircuitBuilder::new(vec![2, 2]);
        let a = b.indicator(0, 1);
        let bb = b.indicator(1, 1);
        let c = b.indicator(0, 0);
        let d = b.indicator(1, 0);
        let p0 = b.product(&[a, bb]);
        let p1 = b.product(&[c, d]);
        let root = b.sum(&[p0, p1], &[0.5, 0.5]);
        let circuit = b.build(root).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = sample(&circuit, &mut rng);
            assert_eq!(s[0], s[1]);
        }
    }
}
