//! # audb-rel — deterministic bag-relational algebra over ℕ-annotated relations
//!
//! This crate is the deterministic substrate of the AU-DB reproduction. It
//! implements *K-relations* (Green et al., PODS'07) specialized to the
//! natural-numbers semiring ℕ: every tuple carries a multiplicity, and
//! selection, projection and union are expressed through semiring
//! operations (paper Fig. 2; join and difference are not implemented — no
//! query of this reproduction has one). On top of them it provides:
//!
//! * grouping aggregation (`sum`, `count`, `min`, `max`, `avg`),
//! * the **row-based windowed aggregation operator** `ω[l,u]_{f(A)→X; G; O}`
//!   of paper Fig. 3, including duplicate explosion and total-order
//!   tie-breaking `<total_O`,
//! * the **sort operator** `sort_{O→τ}` of paper Def. 1 (positions
//!   materialized as data) and top-k as sort + selection,
//! * a scalar expression language with a total value order.
//!
//! Every operator is a plain function from relations to a relation,
//! evaluated eagerly and in memory; there is no plan algebra here (plans
//! are `audb-engine`'s) and windows are row-based only, as in the paper.
//! The crate is the executor for the SQL-rewrite method (crate
//! `audb-rewrite`). The paper's `Det` baseline is not run here: it is
//! `Imp`'s engine plan over the selected-guess world
//! (`audb_workloads::runner::selected_guess`).

pub mod csv;
pub mod expr;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use csv::read_csv;
pub use expr::{CmpOp, Expr};
pub use ops::aggregate::{aggregate, AggFunc};
pub use ops::project::project;
pub use ops::select::select;
pub use ops::sort::sort_to_pos;
pub use ops::union::union;
pub use ops::window::{window_rows, WindowSpec};
pub use relation::{Relation, Row};
pub use schema::Schema;
pub use tuple::Tuple;
pub use value::{cmp_float_float, cmp_int_float, Value};
