//! Symbolic shapes: shapes with possibly-unknown dimensions.
//!
//! During tracing (§4.6), tensors are "represented as abstract types
//! (numerical type and shape tuples)". With an explicit input signature the
//! user may leave dimensions unknown (e.g. the batch size); shape inference
//! then propagates `None` dims through the graph.

use std::fmt;
use tfe_tensor::{Shape, TensorError};

/// A shape whose dimensions may be unknown. Rank is always known.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SymShape(Vec<Option<usize>>);

impl SymShape {
    /// A scalar (rank 0).
    pub fn scalar() -> SymShape {
        SymShape(Vec::new())
    }

    /// From explicit dims (use `None` for unknown).
    pub fn new(dims: impl Into<Vec<Option<usize>>>) -> SymShape {
        SymShape(dims.into())
    }

    /// A fully-known shape.
    pub fn known(shape: &Shape) -> SymShape {
        SymShape(shape.dims().iter().map(|&d| Some(d)).collect())
    }

    /// A rank-`rank` shape with every dimension unknown.
    pub fn unknown(rank: usize) -> SymShape {
        SymShape(vec![None; rank])
    }

    /// The dims.
    pub fn dims(&self) -> &[Option<usize>] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Whether every dimension is known.
    pub fn is_fully_defined(&self) -> bool {
        self.0.iter().all(Option::is_some)
    }

    /// Convert to a concrete [`Shape`], if fully defined.
    pub fn to_shape(&self) -> Option<Shape> {
        let dims: Option<Vec<usize>> = self.0.iter().copied().collect();
        dims.map(Shape::new)
    }

    /// Total elements, if fully defined.
    pub fn num_elements(&self) -> Option<usize> {
        self.0.iter().copied().product::<Option<usize>>().or(if self.0.is_empty() {
            Some(1)
        } else {
            None
        })
    }

    /// Whether a concrete shape is an instance of this symbolic shape
    /// (same rank; every known dim matches).
    pub fn matches(&self, shape: &Shape) -> bool {
        self.rank() == shape.rank()
            && self.0.iter().zip(shape.dims()).all(|(sym, &d)| sym.is_none_or(|s| s == d))
    }

    /// Whether two symbolic shapes could describe the same tensor.
    pub fn compatible_with(&self, other: &SymShape) -> bool {
        self.rank() == other.rank()
            && self.0.iter().zip(&other.0).all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// Merge two compatible shapes, keeping the more specific dims.
    ///
    /// # Errors
    /// Incompatible ranks or dims.
    pub fn merge(&self, other: &SymShape) -> Result<SymShape, TensorError> {
        if !self.compatible_with(other) {
            return Err(TensorError::InvalidArgument(format!(
                "cannot merge shapes {self} and {other}"
            )));
        }
        Ok(SymShape(self.0.iter().zip(&other.0).map(|(a, b)| a.or(*b)).collect()))
    }

    /// NumPy-style broadcast of two symbolic shapes.
    ///
    /// An unknown dim broadcast against a known dim `d > 1` yields `d`; an
    /// unknown against 1 or unknown stays unknown.
    ///
    /// # Errors
    /// Known dims that cannot broadcast.
    pub fn broadcast(&self, other: &SymShape) -> Result<SymShape, TensorError> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![None; rank];
        for (i, o) in out.iter_mut().enumerate() {
            let a = if i < rank - self.rank() { Some(1) } else { self.0[i - (rank - self.rank())] };
            let b =
                if i < rank - other.rank() { Some(1) } else { other.0[i - (rank - other.rank())] };
            *o = match (a, b) {
                (Some(1), d) | (d, Some(1)) => d,
                (Some(x), Some(y)) if x == y => Some(x),
                (Some(_), Some(_)) => {
                    return Err(TensorError::InvalidArgument(format!(
                        "shapes {self} and {other} are not broadcast-compatible"
                    )))
                }
                (None, Some(d)) | (Some(d), None) => {
                    // d != 1 here; the unknown side must be d or 1. The
                    // result is d only if the unknown turns out to be d or 1
                    // broadcast to d — either way, d.
                    Some(d)
                }
                (None, None) => None,
            };
        }
        Ok(SymShape(out))
    }
}

impl fmt::Display for SymShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match d {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "?")?,
            }
        }
        if self.0.len() == 1 {
            write!(f, ",")?;
        }
        write!(f, ")")
    }
}

impl From<&Shape> for SymShape {
    fn from(s: &Shape) -> SymShape {
        SymShape::known(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfe_tensor::rng::{each_seed, Rng};

    #[test]
    fn known_round_trip() {
        let s = Shape::from([2, 3]);
        let sym = SymShape::known(&s);
        assert!(sym.is_fully_defined());
        assert_eq!(sym.to_shape(), Some(s));
        assert_eq!(sym.num_elements(), Some(6));
    }

    #[test]
    fn unknown_dims() {
        let sym = SymShape::new(vec![None, Some(3)]);
        assert!(!sym.is_fully_defined());
        assert_eq!(sym.to_shape(), None);
        assert_eq!(sym.num_elements(), None);
        assert_eq!(sym.to_string(), "(?, 3)");
    }

    #[test]
    fn scalar_num_elements() {
        assert_eq!(SymShape::scalar().num_elements(), Some(1));
    }

    #[test]
    fn matches_concrete() {
        let sym = SymShape::new(vec![None, Some(3)]);
        assert!(sym.matches(&Shape::from([5, 3])));
        assert!(!sym.matches(&Shape::from([5, 4])));
        assert!(!sym.matches(&Shape::from([3])));
    }

    #[test]
    fn merge_refines() {
        let a = SymShape::new(vec![None, Some(3)]);
        let b = SymShape::new(vec![Some(2), None]);
        assert_eq!(a.merge(&b).unwrap(), SymShape::new(vec![Some(2), Some(3)]));
        let c = SymShape::new(vec![Some(9), Some(3)]);
        assert!(a.merge(&c).is_ok());
        let d = SymShape::new(vec![Some(2), Some(4)]);
        assert!(a.merge(&d).is_err());
    }

    #[test]
    fn broadcast_with_unknowns() {
        let a = SymShape::new(vec![None, Some(3)]);
        let b = SymShape::new(vec![Some(1)]);
        assert_eq!(a.broadcast(&b).unwrap(), a);
        let c = SymShape::new(vec![Some(4), Some(1)]);
        // (?, 3) x (4, 1): first dim must end up 4.
        assert_eq!(a.broadcast(&c).unwrap(), SymShape::new(vec![Some(4), Some(3)]));
        let d = SymShape::new(vec![Some(4), Some(5)]);
        assert!(a.broadcast(&d).is_err());
        // unknown vs unknown stays unknown
        let e = SymShape::unknown(1);
        assert_eq!(e.broadcast(&e).unwrap(), e);
    }

    #[test]
    fn broadcast_known_matches_tensor_broadcast() {
        let a = Shape::from([2, 1, 4]);
        let b = Shape::from([3, 1]);
        let sym = SymShape::known(&a).broadcast(&SymShape::known(&b)).unwrap();
        let concrete = tfe_tensor::broadcast_shapes(&a, &b).unwrap();
        assert_eq!(sym, SymShape::known(&concrete));
    }

    fn small_dims(rng: &mut Rng) -> Vec<usize> {
        (0..rng.range(0usize..4)).map(|_| rng.range(1..4)).collect()
    }

    #[test]
    fn sym_broadcast_agrees_with_concrete() {
        each_seed(64, |rng| {
            let sa = Shape::new(small_dims(rng));
            let sb = Shape::new(small_dims(rng));
            let sym = SymShape::known(&sa).broadcast(&SymShape::known(&sb));
            let conc = tfe_tensor::broadcast_shapes(&sa, &sb);
            match (sym, conc) {
                (Ok(s), Ok(c)) => assert_eq!(s, SymShape::known(&c)),
                (Err(_), Err(_)) => {}
                (s, c) => panic!("disagreement: {s:?} vs {c:?}"),
            }
        });
    }

    #[test]
    fn merge_is_commutative_on_compat() {
        each_seed(64, |rng| {
            let dims = small_dims(rng);
            let full = SymShape::new(dims.iter().map(|&d| Some(d)).collect::<Vec<_>>());
            let partial = SymShape::unknown(full.rank());
            let m1 = full.merge(&partial).unwrap();
            let m2 = partial.merge(&full).unwrap();
            assert_eq!(m1, m2);
        });
    }
}
