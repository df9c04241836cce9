//! Answer checks. A failed check is a wrong answer: it is counted,
//! reported, and makes the run exit non-zero.
//!
//! Three kinds of evidence are used. Small knowledge bases are checked
//! against brute-force enumeration. Every knowledge base is checked by
//! identities that hold for any correct answer. And every exact answer
//! from a real entry point must equal, bit for bit, the answer the
//! benchmark's own twin arena gives for the same query.

use crate::gen::{Kb, Kind, Shape};
use crate::layers::Reply;

/// Relative tolerance of the oracle and identity checks.
const TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1e-300)
}

fn in_unit(x: f64) -> bool {
    (0.0..=1.0 + TOL).contains(&x)
}

/// Identities any correct reply to `shape` satisfies, whatever rung
/// answered. `z` is `Pr[φ]` where the caller knows it.
pub fn reply_is_sane(kb: &Kb, shape: &Shape, reply: &Reply, z: Option<f64>) -> Result<(), String> {
    let bad = |why: &str| Err(format!("n={} {:?}: {why}: {reply:?}", kb.n, shape.kind));
    match reply {
        Reply::Refused => Ok(()), // booked as a failed op, not a wrong answer
        Reply::Exact(x) | Reply::Predicted(x) => {
            if !in_unit(*x) {
                return bad("probability outside [0,1]");
            }
            match (shape.kind, reply, z) {
                (Kind::Wmc, Reply::Exact(x), Some(z)) if !close(*x, z) => bad("Wmc differs from Z"),
                (Kind::Probability, Reply::Exact(x), Some(z)) if *x > z * (1.0 + TOL) => {
                    bad("Pr[φ∧e] exceeds Pr[φ]")
                }
                (Kind::Marginal | Kind::Mpe, _, _) => bad("scalar reply to a structured query"),
                _ => Ok(()),
            }
        }
        Reply::Bounds { estimate, lower, upper } => {
            // Containing the exact value is the approximate rung's
            // calibration story, not a correctness failure; the
            // bracket's shape is.
            if in_unit(*upper) && *lower >= 0.0 && lower <= estimate && estimate <= upper {
                Ok(())
            } else {
                bad("bracket not ordered inside [0,1]")
            }
        }
        Reply::Distribution(dist) => {
            if shape.kind != Kind::Marginal {
                return bad("distribution reply to a non-marginal query");
            }
            if dist.len() == 2 && dist.iter().all(|&p| in_unit(p)) && close(dist[0] + dist[1], 1.0)
            {
                Ok(())
            } else {
                bad("marginal does not sum to 1")
            }
        }
        Reply::Assignment { assignment, log_prob } => {
            if shape.kind != Kind::Mpe {
                return bad("assignment reply to a non-MPE query");
            }
            if assignment.len() != kb.n || !kb.satisfied_by(assignment) {
                return bad("MPE assignment violates the CNF");
            }
            if shape.evidence.iter().any(|&(v, b)| assignment[v] != usize::from(b)) {
                return bad("MPE assignment contradicts its evidence");
            }
            if !close(*log_prob, kb.weight_of(assignment).ln()) {
                return bad("MPE log-probability is not the weight product");
            }
            Ok(())
        }
    }
}

/// An exact-rung reply from a real entry point against the twin arena's
/// reply to the same query: bit-identical, or it is wrong.
pub fn matches_twin(kb: &Kb, shape: &Shape, got: &Reply, twin: &Reply) -> Result<(), String> {
    if got == twin {
        Ok(())
    } else {
        Err(format!("n={} {:?}: entry point {got:?} != twin arena {twin:?}", kb.n, shape.kind))
    }
}

/// The twin arena's scalar reply against brute-force enumeration:
/// `joint = Pr[φ∧e]` and `z = Pr[φ]` by enumeration. (Structured
/// replies are covered by their identities; callers skip them.)
pub fn matches_brute(
    kb: &Kb,
    shape: &Shape,
    twin: &Reply,
    joint: f64,
    z: f64,
) -> Result<(), String> {
    let want = match shape.kind {
        Kind::Wmc => z,
        Kind::Probability => joint,
        Kind::Posterior => joint / z,
        Kind::Marginal | Kind::Mpe => return Ok(()),
    };
    match twin {
        Reply::Exact(x) if close(*x, want) => Ok(()),
        _ => Err(format!("n={} {:?}: twin arena {twin:?} != brute force {want}", kb.n, shape.kind)),
    }
}

/// `Pr[φ∧x] + Pr[φ∧¬x] = Pr[φ]`.
pub fn splits_add_up(kb: &Kb, var: usize, with: f64, without: f64, z: f64) -> Result<(), String> {
    if close(with + without, z) {
        Ok(())
    } else {
        Err(format!("n={} x{var}: {with} + {without} != Z = {z}", kb.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{planted_kb, SplitMix64};

    fn kb() -> Kb {
        planted_kb(&mut SplitMix64::new(5), 12)
    }

    fn shape(kind: Kind, evidence: Vec<(usize, bool)>) -> Shape {
        Shape { kind, evidence, var: 0 }
    }

    #[test]
    fn scalar_replies() {
        let kb = kb();
        let wmc = shape(Kind::Wmc, vec![]);
        assert!(reply_is_sane(&kb, &wmc, &Reply::Exact(0.25), Some(0.25)).is_ok());
        assert!(reply_is_sane(&kb, &wmc, &Reply::Exact(0.26), Some(0.25)).is_err());
        assert!(reply_is_sane(&kb, &wmc, &Reply::Exact(1.5), None).is_err());
        let prob = shape(Kind::Probability, vec![(1, kb.planted[1])]);
        assert!(reply_is_sane(&kb, &prob, &Reply::Exact(0.1), Some(0.25)).is_ok());
        assert!(reply_is_sane(&kb, &prob, &Reply::Exact(0.3), Some(0.25)).is_err());
        assert!(reply_is_sane(&kb, &prob, &Reply::Predicted(0.3), Some(0.25)).is_ok());
        assert!(reply_is_sane(&kb, &prob, &Reply::Refused, None).is_ok());
        let marginal = shape(Kind::Marginal, vec![]);
        assert!(reply_is_sane(&kb, &marginal, &Reply::Exact(0.5), None).is_err());
    }

    #[test]
    fn brackets_must_be_ordered_not_containing() {
        let kb = kb();
        let s = shape(Kind::Probability, vec![]);
        let ok = Reply::Bounds { estimate: 0.2, lower: 0.1, upper: 0.3 };
        assert!(reply_is_sane(&kb, &s, &ok, Some(0.9)).is_ok());
        let crossed = Reply::Bounds { estimate: 0.2, lower: 0.25, upper: 0.3 };
        assert!(reply_is_sane(&kb, &s, &crossed, None).is_err());
        let outside = Reply::Bounds { estimate: 0.2, lower: -0.1, upper: 0.3 };
        assert!(reply_is_sane(&kb, &s, &outside, None).is_err());
    }

    #[test]
    fn structured_replies() {
        let kb = kb();
        let marginal = shape(Kind::Marginal, vec![]);
        assert!(reply_is_sane(&kb, &marginal, &Reply::Distribution(vec![0.4, 0.6]), None).is_ok());
        assert!(reply_is_sane(&kb, &marginal, &Reply::Distribution(vec![0.4, 0.5]), None).is_err());

        let planted: Vec<usize> = kb.planted.iter().map(|&b| usize::from(b)).collect();
        let mpe = shape(Kind::Mpe, vec![(2, kb.planted[2])]);
        let log_prob = kb.weight_of(&planted).ln();
        let good = Reply::Assignment { assignment: planted.clone(), log_prob };
        assert!(reply_is_sane(&kb, &mpe, &good, None).is_ok());
        let wrong_weight =
            Reply::Assignment { assignment: planted.clone(), log_prob: log_prob - 0.1 };
        assert!(reply_is_sane(&kb, &mpe, &wrong_weight, None).is_err());
        let against = shape(Kind::Mpe, vec![(2, !kb.planted[2])]);
        assert!(reply_is_sane(&kb, &against, &good, None).is_err());
        // Flipping every variable of the planted assignment falsifies
        // some clause of a 36-clause formula over 12 variables.
        let flipped: Vec<usize> = planted.iter().map(|&v| 1 - v).collect();
        if !kb.satisfied_by(&flipped) {
            let bad =
                Reply::Assignment { log_prob: kb.weight_of(&flipped).ln(), assignment: flipped };
            assert!(reply_is_sane(&kb, &shape(Kind::Mpe, vec![]), &bad, None).is_err());
        }
    }

    #[test]
    fn twin_brute_and_split_checks() {
        let kb = kb();
        let post = shape(Kind::Posterior, vec![(1, kb.planted[1])]);
        assert!(matches_twin(&kb, &post, &Reply::Exact(0.5), &Reply::Exact(0.5)).is_ok());
        assert!(matches_twin(&kb, &post, &Reply::Exact(0.5), &Reply::Exact(0.5000001)).is_err());
        assert!(matches_brute(&kb, &post, &Reply::Exact(0.4), 0.1, 0.25).is_ok());
        assert!(matches_brute(&kb, &post, &Reply::Exact(0.41), 0.1, 0.25).is_err());
        assert!(splits_add_up(&kb, 3, 0.1, 0.15, 0.25).is_ok());
        assert!(splits_add_up(&kb, 3, 0.1, 0.16, 0.25).is_err());
    }
}
