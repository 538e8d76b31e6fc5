//! Algebraic metadata about the op catalog, queried by the graph
//! optimizer's simplification pass.
//!
//! Keeping these facts next to the op definitions (rather than hard-coded
//! in the pass) means a new op picks up simplification behavior by adding
//! one table entry here, and the pass never has to guess at semantics.

use tfe_tensor::elementwise::BinaryOp;

/// Which operand of a binary op may be its identity element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentitySide {
    /// Either operand (commutative ops: `x * 1`, `1 * x`).
    Either,
    /// Only the right-hand operand (`x - 0`, `x / 1`).
    Rhs,
}

/// The identity element of a binary op, if it has one: applying the op
/// with this constant on the permitted side returns the other operand
/// unchanged, bit for bit (same dtype and shape assumed; the rule checks
/// both). For floats that pins the sign of a zero: `x + -0.0` is `x` for
/// every `x`, but `-0.0 + 0.0` is `0.0`; `x - 0.0` is `x`, but
/// `-0.0 - -0.0` is `0.0`. An integer constant matches by value, having
/// one zero.
///
/// `x * 0` is deliberately absent: it is an annihilator, not an identity,
/// and rewriting it would change NaN/Inf propagation.
pub fn identity_operand(op: BinaryOp) -> Option<(IdentitySide, f64)> {
    match op {
        BinaryOp::Add => Some((IdentitySide::Either, -0.0)),
        BinaryOp::Sub => Some((IdentitySide::Rhs, 0.0)),
        BinaryOp::Mul => Some((IdentitySide::Either, 1.0)),
        BinaryOp::Div => Some((IdentitySide::Rhs, 1.0)),
        _ => None,
    }
}

/// Whether `perm` is the identity permutation `[0, 1, ..., n-1]`.
pub fn is_identity_perm(perm: &[i64]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| p == i as i64)
}

/// Whether `perm` is the rank-2 swap `[1, 0]` — the transpose shape the
/// packed gemm absorbs for free via its `transpose_a`/`transpose_b` flags.
pub fn is_swap_perm(perm: &[i64]) -> bool {
    perm == [1, 0]
}

/// Compose two transpose permutations: if `y = transpose(x, inner)` and
/// `z = transpose(y, outer)`, then `z = transpose(x, compose)` where
/// `compose[i] = inner[outer[i]]`. Returns `None` on rank mismatch or an
/// out-of-range index (malformed graphs never reach the pass, but the
/// helper stays total).
pub fn compose_perms(inner: &[i64], outer: &[i64]) -> Option<Vec<i64>> {
    if inner.len() != outer.len() {
        return None;
    }
    outer.iter().map(|&o| inner.get(usize::try_from(o).ok()?).copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_table() {
        let (side, zero) = identity_operand(BinaryOp::Add).unwrap();
        assert_eq!((side, zero.to_bits()), (IdentitySide::Either, (-0.0f64).to_bits()));
        let (side, zero) = identity_operand(BinaryOp::Sub).unwrap();
        assert_eq!((side, zero.to_bits()), (IdentitySide::Rhs, 0.0f64.to_bits()));
        assert_eq!(identity_operand(BinaryOp::Mul), Some((IdentitySide::Either, 1.0)));
        assert_eq!(identity_operand(BinaryOp::Div), Some((IdentitySide::Rhs, 1.0)));
        assert_eq!(identity_operand(BinaryOp::Maximum), None);
    }

    #[test]
    fn perm_helpers() {
        assert!(is_identity_perm(&[0, 1, 2]));
        assert!(is_identity_perm(&[]));
        assert!(!is_identity_perm(&[1, 0]));
        assert!(is_swap_perm(&[1, 0]));
        assert!(!is_swap_perm(&[0, 1]));
        assert!(!is_swap_perm(&[2, 1, 0]));
    }

    #[test]
    fn perm_composition() {
        // transpose twice with [1, 0] cancels.
        assert_eq!(compose_perms(&[1, 0], &[1, 0]), Some(vec![0, 1]));
        // rank-3 rotation composed with itself.
        assert_eq!(compose_perms(&[1, 2, 0], &[1, 2, 0]), Some(vec![2, 0, 1]));
        // rank mismatch and bad indices are rejected, not panics.
        assert_eq!(compose_perms(&[1, 0], &[0, 1, 2]), None);
        assert_eq!(compose_perms(&[1, 0], &[0, 7]), None);
    }
}
