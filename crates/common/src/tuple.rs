//! Row representation.
//!
//! A [`Tuple`] is a fixed-width row of [`Value`]s. Tuples are the unit
//! flowing through the Volcano operators; they are cheap to clone because
//! string payloads are reference counted.

use crate::value::Value;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Index;

/// A row of values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The zero-column tuple — the single inhabitant of the paper's
    /// "relation over a null schema" that `exists` returns.
    pub fn unit() -> Self {
        Tuple { values: Vec::new() }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the zero-column tuple.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the backing vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The value at `index`.
    pub fn value(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Project onto the given indices (in order).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two tuples: `self ++ other`. This is the `{c} × r`
    /// cross-product step in the formal GApply definition, and the join
    /// output construction.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        &self.values[index]
    }
}

/// Tuples order, compare and hash exactly as their value slices do, so
/// a set of tuples can be probed with a borrowed `&[Value]`.
impl Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.values
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Build a tuple from a list of things convertible to [`Value`].
///
/// ```
/// use xmlpub_common::{row, Value};
/// let t = row![1, "alice", 2.5];
/// assert_eq!(t.value(1), &Value::str("alice"));
/// ```
#[macro_export]
macro_rules! row {
    () => { $crate::Tuple::unit() };
    ($($v:expr),+ $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn construction_and_access() {
        let t = row![1, "x", 2.5];
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.value(1).as_str(), Some("x"));
        assert!(!t.is_empty());
        assert!(Tuple::unit().is_empty());
    }

    #[test]
    fn project_and_concat() {
        let t = row![1, "x", 2.5];
        let p = t.project(&[2, 0]);
        assert_eq!(p, row![2.5, 1]);
        let c = p.concat(&row!["y"]);
        assert_eq!(c, row![2.5, 1, "y"]);
        assert_eq!(Tuple::unit().concat(&t), t);
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(row![1, "a"] < row![1, "b"]);
        assert!(row![1, "z"] < row![2, "a"]);
    }

    #[test]
    fn display() {
        assert_eq!(row![1, "x"].to_string(), "[1, x]");
        assert_eq!(Tuple::unit().to_string(), "[]");
    }

    #[test]
    fn from_iter() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t, row![0, 1, 2]);
        let v: Tuple = vec![Value::Int(1)].into();
        assert_eq!(v.len(), 1);
        assert_eq!(v.into_values(), vec![Value::Int(1)]);
    }
}
