//! A double-double reference evaluator of a [`Circuit`], for tests.
//!
//! The served arena evaluates in f64; this module evaluates the same
//! circuit in double-double arithmetic (a value is an unevaluated sum
//! `hi + lo` of two f64s, ~106 bits of significand), exponentiating the
//! circuit's own f64 log weights. Its answers carry a relative error
//! near 2^-100, so against them an f64 evaluator's error reads as its
//! own.
//!
//! The bound a sum-product of non-negative values admits is
//! `γ_D = D·u / (1 − D·u)` with `u = 2^-53` ([`gamma`]), where `D` is
//! the walk's rounding depth ([`rounding_depth`]). The module is
//! compiled into `reason-pc`'s unit tests and, through `#[path]`, into
//! the integration tests that check the arena: it names `Circuit`,
//! `Evidence` and `PcNode` through `super`, so its includer must have
//! them in scope. It adds no public item to any crate.

#![allow(dead_code)]

use super::{Circuit, Evidence, PcNode};

/// A double-double number `hi + lo`, `|lo| <= ulp(hi) / 2`. Its
/// precision holds while `lo` is normal: for values above ~2^-969.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Dd {
    pub(crate) hi: f64,
    pub(crate) lo: f64,
}

/// `a + b` exactly, as a rounded sum and its error (Knuth's TwoSum).
fn two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    let bb = s - a;
    Dd { hi: s, lo: (a - (s - bb)) + (b - bb) }
}

/// `a + b` exactly when `|a| >= |b|` (Dekker's FastTwoSum).
fn quick_two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    Dd { hi: s, lo: b - (s - a) }
}

/// `a · b` exactly, as a rounded product and its error (TwoProd, with
/// the error read off one fused multiply-add).
fn two_prod(a: f64, b: f64) -> Dd {
    let p = a * b;
    Dd { hi: p, lo: a.mul_add(b, -p) }
}

/// `ln 2` to double-double precision.
const LN2: Dd = Dd { hi: std::f64::consts::LN_2, lo: 2.319_046_813_846_299_6e-17 };

impl Dd {
    pub(crate) const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    pub(crate) const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };

    pub(crate) fn from_f64(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    pub(crate) fn add(self, o: Dd) -> Dd {
        let s = two_sum(self.hi, o.hi);
        let t = two_sum(self.lo, o.lo);
        let v = quick_two_sum(s.hi, s.lo + t.hi);
        quick_two_sum(v.hi, v.lo + t.lo)
    }

    pub(crate) fn mul(self, o: Dd) -> Dd {
        let p = two_prod(self.hi, o.hi);
        quick_two_sum(p.hi, p.lo + (self.hi * o.lo + self.lo * o.hi))
    }

    fn div_f64(self, b: f64) -> Dd {
        let q1 = self.hi / b;
        let p = two_prod(q1, b);
        let r = ((self.hi - p.hi) - p.lo) + self.lo;
        quick_two_sum(q1, r / b)
    }

    /// `self · 2^k`, exact while the result stays normal.
    fn scale(self, k: i32) -> Dd {
        let f = 2f64.powi(k);
        Dd { hi: self.hi * f, lo: self.lo * f }
    }

    /// Strictly greater, comparing the exact values.
    pub(crate) fn gt(self, o: Dd) -> bool {
        self.hi > o.hi || (self.hi == o.hi && self.lo > o.lo)
    }

    /// `e^x` of an f64 argument. The argument is reduced by `k·ln 2`
    /// and `2^10`, the Taylor series runs on the remainder, and ten
    /// squarings and an exact `2^k` scale undo the reduction. Accurate
    /// to ~2^-90 relative while the result's low word stays normal, i.e.
    /// above ~2^-969.
    pub(crate) fn exp(x: f64) -> Dd {
        if x == f64::NEG_INFINITY {
            return Dd::ZERO;
        }
        let k = (x / LN2.hi).round();
        let r = Dd::from_f64(x).add(LN2.mul(Dd::from_f64(-k))).scale(-10);
        let (mut sum, mut term) = (Dd::ONE, Dd::ONE);
        for i in 1..=12 {
            term = term.mul(r).div_f64(f64::from(i));
            sum = sum.add(term);
        }
        for _ in 0..10 {
            sum = sum.mul(sum);
        }
        sum.scale(k as i32)
    }
}

/// The value of every node of `circuit` under `evidence`, sum-product,
/// in double-double. A marginalized leaf is 1, as in the circuit's own
/// evaluator.
pub(crate) fn values(circuit: &Circuit, evidence: &Evidence) -> Vec<Dd> {
    walk(circuit, evidence, false)
}

/// The value of every node under `evidence`, max-product: an Or node
/// takes its largest weighted child, a marginalized leaf its larger
/// probability.
pub(crate) fn max_values(circuit: &Circuit, evidence: &Evidence) -> Vec<Dd> {
    walk(circuit, evidence, true)
}

fn walk(circuit: &Circuit, evidence: &Evidence, max: bool) -> Vec<Dd> {
    assert_eq!(evidence.len(), circuit.num_vars(), "evidence arity mismatch");
    let mut vals: Vec<Dd> = Vec::with_capacity(circuit.num_nodes());
    for node in circuit.nodes() {
        let v =
            match node {
                PcNode::Indicator { var, value } => match evidence.value(var) {
                    Some(v) if v != value => Dd::ZERO,
                    _ => Dd::ONE,
                },
                PcNode::Categorical { var, log_probs } => match evidence.value(var) {
                    Some(v) => Dd::exp(log_probs[v]),
                    None if max => log_probs
                        .iter()
                        .map(|&lp| Dd::exp(lp))
                        .fold(Dd::ZERO, |m, p| if p.gt(m) { p } else { m }),
                    None => Dd::ONE,
                },
                PcNode::Product { children } => {
                    children.iter().fold(Dd::ONE, |acc, c| acc.mul(vals[c.index()]))
                }
                PcNode::Sum { children, log_weights } => {
                    let terms = children.iter().zip(log_weights);
                    let terms = terms.map(|(c, &lw)| Dd::exp(lw).mul(vals[c.index()]));
                    if max {
                        terms.fold(Dd::ZERO, |m, t| if t.gt(m) { t } else { m })
                    } else {
                        terms.fold(Dd::ZERO, Dd::add)
                    }
                }
            };
        vals.push(v);
    }
    vals
}

/// `Pr[φ ∧ e]` in double-double.
pub(crate) fn probability(circuit: &Circuit, evidence: &Evidence) -> Dd {
    values(circuit, evidence)[circuit.root().index()]
}

/// The max-product value of the root under `evidence`.
pub(crate) fn max_probability(circuit: &Circuit, evidence: &Evidence) -> Dd {
    max_values(circuit, evidence)[circuit.root().index()]
}

/// Roundings one f64 weight conversion `exp(log w)` may cost. A libm
/// `exp` is faithful (within one ulp), not correctly rounded, so its
/// relative error is below `2u` and it counts as two roundings.
const CONVERSION: u64 = 2;

/// The rounding depth of every node of an f64 sum-product walk of
/// `circuit`: the largest number of relative roundings the node's value
/// can carry.
///
/// - an indicator is exact: 0;
/// - a Bernoulli leaf is one weight conversion;
/// - an And node of `len` children multiplies them, so their errors
///   compound: the *sum* of the children's depths, plus `len − 1`
///   multiplies;
/// - an Or node sums `len` weighted children: the deepest child plus a
///   weight conversion and a multiply, plus `len − 1` additions.
///
/// Non-negative terms never cancel, so a node's computed value `v̂`
/// satisfies `|v̂ − v| <= γ_d · v` with `d` its depth (Higham, *Accuracy
/// and Stability of Numerical Algorithms*, Lemma 3.1 and §3.1). A
/// max-product walk makes a subset of these roundings.
pub(crate) fn rounding_depths(circuit: &Circuit) -> Vec<u64> {
    let mut depth: Vec<u64> = Vec::with_capacity(circuit.num_nodes());
    for node in circuit.nodes() {
        let d = match node {
            PcNode::Indicator { .. } => 0,
            PcNode::Categorical { .. } => CONVERSION,
            PcNode::Product { children } => {
                let sum: u64 = children.iter().map(|c| depth[c.index()]).sum();
                sum + (children.len() as u64).saturating_sub(1)
            }
            PcNode::Sum { children, .. } => {
                let deepest = children.iter().map(|c| depth[c.index()]).max().unwrap_or(0);
                deepest + CONVERSION + 1 + (children.len() as u64).saturating_sub(1)
            }
        };
        depth.push(d);
    }
    depth
}

/// The root's rounding depth `D` (see [`rounding_depths`]).
pub(crate) fn rounding_depth(circuit: &Circuit) -> u64 {
    rounding_depths(circuit)[circuit.root().index()]
}

/// Unit roundoff of f64: `2^-53`.
pub(crate) const U: f64 = f64::EPSILON / 2.0;

/// `γ_d = d·u / (1 − d·u)`.
pub(crate) fn gamma(d: u64) -> f64 {
    let du = d as f64 * U;
    du / (1.0 - du)
}

/// `|got − want| / want`, read in double-double; 0 when both are zero,
/// infinite when only one is.
pub(crate) fn relative_error(got: f64, want: Dd) -> f64 {
    if want.hi == 0.0 {
        return if got == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (((got - want.hi) - want.lo) / want.hi).abs()
}

/// `a / b` of two double-double values.
pub(crate) fn ratio(a: Dd, b: Dd) -> Dd {
    a.div_f64(b.hi).mul(Dd { hi: 1.0, lo: -b.lo / b.hi })
}

/// `got`, an arena's `Pr[φ ∧ e]`, is within `γ_D` of the reference; a
/// zero-mass lane reads exactly 0.
pub(crate) fn check_probability(circuit: &Circuit, ev: &Evidence, got: f64) -> Result<(), String> {
    let bound = gamma(rounding_depth(circuit));
    let err = relative_error(got, probability(circuit, ev));
    if err <= bound {
        Ok(())
    } else {
        Err(format!("probability {got}: relative error {err:e} exceeds γ_D = {bound:e}"))
    }
}

/// `got`, an arena's marginal of `var` given `ev`: each entry is a
/// quotient of two lanes, so within `γ_{2D+1}` of the reference
/// quotient (`(1 + θ_D) / (1 + θ_D) · (1 + δ) = 1 + θ_{2D+1}`, Higham
/// Lemma 3.3); zero-mass evidence reads uniform.
pub(crate) fn check_marginal(
    circuit: &Circuit,
    ev: &Evidence,
    var: usize,
    got: &[f64],
) -> Result<(), String> {
    let bound = gamma(2 * rounding_depth(circuit) + 1);
    let mut e = ev.clone();
    let t0 = probability(circuit, e.clear(var));
    if t0.hi == 0.0 {
        return if got == [0.5, 0.5] {
            Ok(())
        } else {
            Err(format!("zero-mass marginal of x{var} reads {got:?}, not [0.5, 0.5]"))
        };
    }
    for (b, &p) in got.iter().enumerate() {
        let err = relative_error(p, ratio(probability(circuit, e.set(var, b)), t0));
        if err > bound {
            return Err(format!("marginal x{var} = {b}: {p}, relative error {err:e} > {bound:e}"));
        }
    }
    Ok(())
}

/// An arena's MPE answer `(assignment, log_prob)` under `ev`:
/// - the assignment keeps the evidence;
/// - its reference weight is within `γ_{2D}` of the reference maximum.
///   Ties may resolve differently from exact arithmetic: the chosen
///   tree's computed value is within `γ_D` of its own and at least
///   `1 − γ_D` times the best, so the chosen weight is at least
///   `(1 − γ_D) / (1 + γ_D)` of it;
/// - `log_prob` is within `γ_{D+1} >= −ln(1 − γ_D)` of the maximum's
///   log, plus one faithful `ln` (`2u·|ln|`) on each side.
pub(crate) fn check_mpe(
    circuit: &Circuit,
    ev: &Evidence,
    assignment: &[usize],
    log_prob: f64,
) -> Result<(), String> {
    if let Some(v) = (0..ev.len()).find(|&v| ev.value(v).is_some_and(|b| assignment[v] != b)) {
        return Err(format!("MPE sets x{v} = {} against its evidence", assignment[v]));
    }
    let d = rounding_depth(circuit);
    let max = max_probability(circuit, ev);
    if max.hi == 0.0 {
        return if log_prob == f64::NEG_INFINITY {
            Ok(())
        } else {
            Err(format!("zero-mass MPE reads log_prob {log_prob}"))
        };
    }
    let full: Vec<Option<usize>> = assignment.iter().map(|&b| Some(b)).collect();
    let weight = max_probability(circuit, &Evidence::from_values(&full));
    let gap = 1.0 - ratio(weight, max).hi;
    if gap > gamma(2 * d) {
        return Err(format!("MPE weight {weight:?} is {gap:e} below the maximum {max:?}"));
    }
    let ln = max.hi.ln() + max.lo / max.hi;
    let slack = gamma(d + 1) + 4.0 * U * ln.abs();
    if (log_prob - ln).abs() > slack {
        return Err(format!("MPE log_prob {log_prob} vs reference {ln}: beyond {slack:e}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_double_exp_matches_known_constants() {
        // e = 2.718281828459045 + 1.4456468917292502e-16.
        let e = Dd::exp(1.0);
        assert_eq!(e.hi, std::f64::consts::E);
        assert!((e.lo - 1.445_646_891_729_250_2e-16).abs() < 1e-28, "{e:?}");
        // e^(fl(ln 2)) = 2·e^(−LN2.lo) = 2 − 2·LN2.lo to first order.
        let two = Dd::exp(LN2.hi);
        assert_eq!(two.hi, 2.0);
        assert!((two.lo + 2.0 * LN2.lo).abs() < 1e-28, "{two:?}");
        assert_eq!(Dd::exp(0.0), Dd::ONE);
        assert_eq!(Dd::exp(f64::NEG_INFINITY), Dd::ZERO);
        for x in [-650.0, -368.4, -3.7, -0.5, 0.3, 7.25] {
            let p = Dd::exp(x).mul(Dd::exp(-x));
            assert!((p.hi - 1.0 + p.lo).abs() < 1e-28, "x = {x}: {p:?}");
            assert!((Dd::exp(x).hi - x.exp()).abs() <= 2.0 * U * x.exp(), "x = {x}");
        }
    }

    #[test]
    fn relative_error_reads_the_low_word() {
        let want = Dd { hi: 1.0, lo: 1e-20 };
        assert_eq!(relative_error(1.0, want), 1e-20);
        assert_eq!(relative_error(0.0, Dd::ZERO), 0.0);
        assert_eq!(relative_error(1e-300, Dd::ZERO), f64::INFINITY);
        assert_eq!(gamma(0), 0.0);
        assert!(gamma(10) > 10.0 * U);
    }
}
