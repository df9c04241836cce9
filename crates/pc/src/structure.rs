//! Seeded circuit structure generators.
//!
//! Workload synthesis needs probabilistic circuits of controllable size and
//! shape. [`random_mixture_circuit`] builds smooth, decomposable
//! mixture-of-factorization circuits in the style of region-graph SPNs:
//! variables are recursively partitioned (product nodes) and each region
//! carries a mixture (sum nodes) over alternative sub-factorizations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::circuit::{Circuit, CircuitBuilder, NodeId};

/// Parameters for [`random_mixture_circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureConfig {
    /// Number of binary variables.
    pub num_vars: usize,
    /// Maximum recursive partition depth.
    pub depth: usize,
    /// Mixture components per region.
    pub num_components: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StructureConfig {
    fn default() -> Self {
        StructureConfig { num_vars: 8, depth: 3, num_components: 2, seed: 0 }
    }
}

/// Builds a random smooth & decomposable circuit over binary variables.
///
/// ```
/// use reason_pc::{random_mixture_circuit, StructureConfig, Evidence};
/// let c = random_mixture_circuit(&StructureConfig::default());
/// c.validate().unwrap();
/// let p = c.probability(&Evidence::empty(8));
/// assert!((p - 1.0).abs() < 1e-9);
/// ```
pub fn random_mixture_circuit(config: &StructureConfig) -> Circuit {
    assert!(config.num_vars >= 1, "need at least one variable");
    assert!(config.num_components >= 1, "need at least one component");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = CircuitBuilder::new(vec![2; config.num_vars]);
    let vars: Vec<usize> = (0..config.num_vars).collect();
    let root = build_region(&mut builder, &mut rng, &vars, config.depth, config.num_components);
    builder.build(root).expect("generator produces valid circuits")
}

fn build_region(
    builder: &mut CircuitBuilder,
    rng: &mut StdRng,
    vars: &[usize],
    depth: usize,
    num_components: usize,
) -> NodeId {
    if vars.len() == 1 {
        // Leaf region: a Bernoulli (categorical over {0,1}).
        let p: f64 = rng.gen_range(0.05..0.95);
        return builder.categorical(vars[0], &[1.0 - p, p]);
    }
    if depth == 0 {
        // Fully factorize the remaining variables.
        let children: Vec<NodeId> = vars
            .iter()
            .map(|&v| {
                let p: f64 = rng.gen_range(0.05..0.95);
                builder.categorical(v, &[1.0 - p, p])
            })
            .collect();
        return builder.product(&children);
    }
    // Mixture over alternative balanced partitions of this region.
    let mut components: Vec<NodeId> = Vec::with_capacity(num_components);
    for _ in 0..num_components {
        let mut shuffled = vars.to_vec();
        shuffled.shuffle(rng);
        let mid = shuffled.len() / 2;
        let (left, right) = shuffled.split_at(mid);
        let l = build_region(builder, rng, left, depth - 1, num_components);
        let r = build_region(builder, rng, right, depth - 1, num_components);
        components.push(builder.product(&[l, r]));
    }
    let weights = random_simplex(rng, components.len());
    builder.sum(&components, &weights)
}

fn random_simplex(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evidence;

    #[test]
    fn generated_circuits_validate_and_normalize() {
        for seed in 0..5 {
            let cfg = StructureConfig { num_vars: 10, depth: 3, num_components: 3, seed };
            let c = random_mixture_circuit(&cfg);
            c.validate().unwrap();
            let p = c.probability(&Evidence::empty(10));
            assert!((p - 1.0).abs() < 1e-9, "seed {seed}: total mass {p}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = StructureConfig::default();
        let a = random_mixture_circuit(&cfg);
        let b = random_mixture_circuit(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn size_grows_with_components() {
        let small = random_mixture_circuit(&StructureConfig {
            num_vars: 8,
            depth: 3,
            num_components: 1,
            seed: 0,
        });
        let large = random_mixture_circuit(&StructureConfig {
            num_vars: 8,
            depth: 3,
            num_components: 4,
            seed: 0,
        });
        assert!(large.num_nodes() > small.num_nodes());
    }

    #[test]
    fn single_variable_circuit() {
        let cfg = StructureConfig { num_vars: 1, depth: 2, num_components: 2, seed: 0 };
        let c = random_mixture_circuit(&cfg);
        c.validate().unwrap();
        let p0 = c.probability(&Evidence::from_assignment(&[0]));
        let p1 = c.probability(&Evidence::from_assignment(&[1]));
        assert!((p0 + p1 - 1.0).abs() < 1e-9);
    }
}
