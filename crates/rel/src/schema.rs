//! Relation schemas: ordered lists of attribute names.

use std::fmt;
use std::sync::Arc;

/// An ordered list of attribute names. Cloning is cheap (shared `Arc`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Schema {
    cols: Arc<[String]>,
}

impl Schema {
    /// Build a schema from attribute names.
    pub fn new<S: Into<String>>(cols: impl IntoIterator<Item = S>) -> Self {
        Schema {
            cols: cols.into_iter().map(Into::into).collect(),
        }
    }

    /// Number of attributes (`arity(Sch(R))` in the paper).
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Attribute names in order.
    pub fn cols(&self) -> &[String] {
        &self.cols
    }

    /// Index of a named attribute.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == name)
    }

    /// Index of a named attribute, panicking with a helpful message if absent.
    pub fn col(&self, name: &str) -> usize {
        self.index_of(name)
            .unwrap_or_else(|| panic!("schema {:?} has no column {name:?}", self.cols))
    }

    /// Extend with one more attribute.
    pub fn with(&self, name: impl Into<String>) -> Schema {
        Schema::new(self.cols.iter().cloned().chain([name.into()]))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.cols.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_concat() {
        let s = Schema::new(["a", "b"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.col("b"), 1);
        assert_eq!(s.index_of("z"), None);
        assert_eq!(s.with("pos").cols(), &["a", "b", "pos"]);
    }

    #[test]
    #[should_panic(expected = "has no column")]
    fn missing_column_panics() {
        Schema::new(["a"]).col("nope");
    }
}
