//! The independent oracle: a deterministic sort and a rolling sum over
//! the selected-guess world of the generated tables, and the check that
//! the engine's bounds contain them.
//!
//! What is checked of a result row with identifier `id`: if the row is in
//! the selected-guess answer, its bounded attribute's `sg` equals the
//! oracle's value, `lb ≤ sg ≤ ub`, and its multiplicity's `sg` is 1; if
//! it is not, its multiplicity's `sg` is 0. Every row of the
//! selected-guess answer must be returned (for a top-k, the top k).

use crate::gen::{Cell, Table};
use std::collections::{HashMap, HashSet};

/// A result in the benchmark's own terms: what the adapter makes of an
/// `AuRelation` or of a JSON reply.
pub struct Rows {
    pub cols: Vec<String>,
    /// Row-major `[lb, sg, ub]` cells, `cols.len()` per row.
    pub cells: Vec<Cell>,
    /// `[lb, sg, ub]` multiplicity per row.
    pub mults: Vec<[u64; 3]>,
}

impl Rows {
    fn col(&self, name: &str) -> Result<usize, String> {
        self.cols
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("result has no column {name:?}: {:?}", self.cols))
    }
}

/// A predicate over a row's cells (evaluated on their `sg` lane).
pub type RowPred = Box<dyn Fn(&[Cell]) -> bool>;
/// The order-by values of a row.
pub type RowKey = Box<dyn Fn(&[Cell]) -> [i64; 2]>;

pub enum Shape {
    /// `ORDER BY … AS pos [LIMIT k]`: `key` gives the order-by values of a
    /// row in the selected-guess world (ties fall to `id`).
    Rank { key: RowKey, limit: Option<u64> },
    /// `SUM(v) OVER ([PARTITION BY g] ORDER BY o ROWS BETWEEN 2 PRECEDING
    /// AND CURRENT ROW) AS s` over the window table's columns.
    Window { partitioned: bool },
}

/// One SQL statement with what the oracle needs to answer it.
pub struct Statement {
    pub sql: String,
    /// Index of the scanned table among the workload's tables.
    pub table: usize,
    /// How many leading rows of that table are registered when the
    /// statement runs (the served window table grows and is reset).
    pub table_rows: usize,
    /// The `WHERE` clause on selected-guess values.
    pub filter: Option<RowPred>,
    pub shape: Shape,
}

/// Frame of the window statements: this many rows before the current one.
pub const PRECEDING: usize = 2;

/// Tightness of one statement's result (see `README.md`): summed bound
/// width, rows whose bounded attribute is certain, and rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    pub width_sum: f64,
    pub certain: usize,
    pub rows: usize,
}

/// The selected-guess answer: `id → value of the bounded attribute`, for
/// every row of the answer.
fn sg_answer(stmt: &Statement, table: &Table) -> HashMap<i64, i64> {
    let id = |r: usize| table.row(r)[table.id_col][1];
    let members: Vec<usize> = (0..stmt.table_rows)
        .filter(|&r| table.mults[r][1] > 0)
        .filter(|&r| stmt.filter.as_ref().is_none_or(|f| f(table.row(r))))
        .collect();
    match &stmt.shape {
        Shape::Rank { key, .. } => {
            let mut sorted = members;
            sorted.sort_by_key(|&r| (key(table.row(r)), id(r)));
            sorted
                .iter()
                .enumerate()
                .map(|(pos, &r)| (id(r), pos as i64))
                .collect()
        }
        Shape::Window { partitioned } => {
            let (o, g, v) = (
                table.col_index("o"),
                table.col_index("g"),
                table.col_index("v"),
            );
            let mut sorted = members;
            let part = |r: usize| if *partitioned { table.row(r)[g][1] } else { 0 };
            sorted.sort_by_key(|&r| (part(r), table.row(r)[o][1], id(r)));
            let mut out = HashMap::with_capacity(sorted.len());
            let mut start = 0;
            for i in 0..sorted.len() {
                if part(sorted[i]) != part(sorted[start]) {
                    start = i;
                }
                let from = i.saturating_sub(PRECEDING).max(start);
                let sum = sorted[from..=i].iter().map(|&r| table.row(r)[v][1]).sum();
                out.insert(id(sorted[i]), sum);
            }
            out
        }
    }
}

/// Check `got` against the oracle. `Err` carries the first violation.
pub fn check(stmt: &Statement, table: &Table, got: &Rows) -> Result<Quality, String> {
    let answer = sg_answer(stmt, table);
    let (bounded, limit) = match &stmt.shape {
        Shape::Rank { limit, .. } => ("pos", limit.map(|k| k as i64)),
        Shape::Window { .. } => ("s", None),
    };
    let (id_col, val_col) = (got.col("id")?, got.col(bounded)?);
    let arity = got.cols.len();
    let in_answer = |p: i64| limit.is_none_or(|k| p < k);
    let mut quality = Quality::default();
    let mut seen = HashSet::with_capacity(got.mults.len());
    let mut returned = 0usize;
    for (row, mult) in got.cells.chunks_exact(arity).zip(&got.mults) {
        let id = row[id_col][1];
        let [lb, sg, ub] = row[val_col];
        if !seen.insert(id) {
            return Err(format!("id {id} returned twice"));
        }
        match answer.get(&id).copied().filter(|&p| {
            // A rank beyond the limit is outside a top-k's answer.
            matches!(stmt.shape, Shape::Window { .. }) || in_answer(p)
        }) {
            Some(want) => {
                returned += 1;
                if !(sg == want && lb <= want && want <= ub && mult[1] == 1) {
                    return Err(format!(
                        "id {id}: selected-guess {bounded} is {want}, got [{lb}, {sg}, {ub}] mult {mult:?}"
                    ));
                }
            }
            None if mult[1] != 0 => {
                return Err(format!(
                    "id {id} is not in the selected-guess answer but has mult {mult:?}"
                ));
            }
            None => {}
        }
        quality.rows += 1;
        quality.certain += usize::from(lb == ub && mult[0] >= 1);
        quality.width_sum += match stmt.shape {
            Shape::Rank { .. } => (ub - lb) as f64 / stmt.table_rows as f64,
            Shape::Window { .. } => (ub - lb) as f64 / (sg.abs().max(1)) as f64,
        };
    }
    let expected = match stmt.shape {
        Shape::Rank { .. } => answer.values().filter(|&&p| in_answer(p)).count(),
        Shape::Window { .. } => answer.len(),
    };
    if returned != expected {
        return Err(format!(
            "{returned} of the {expected} selected-guess answer rows returned"
        ));
    }
    Ok(quality)
}

/// The two tightness metrics over a script's statements: mean bound
/// width (mean over statements of the mean over rows) and the certain
/// share of all result rows.
pub fn summarize(per_statement: &[Quality]) -> (f64, f64) {
    let n = per_statement.len().max(1) as f64;
    let width = per_statement
        .iter()
        .map(|q| q.width_sum / q.rows.max(1) as f64)
        .sum::<f64>()
        / n;
    let rows: usize = per_statement.iter().map(|q| q.rows).sum();
    let certain: usize = per_statement.iter().map(|q| q.certain).sum();
    (width, certain as f64 / rows.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six rows of `w(o, g, v, id)`, checked by hand:
    ///
    /// | id | o (sg) | g | v (sg) | mult    |
    /// |----|--------|---|--------|---------|
    /// | 0  | 10     | 0 | 1      | 1,1,1   |
    /// | 1  | 30     | 1 | 2      | 1,1,1   |
    /// | 2  | 20     | 0 | 4      | 1,1,1   |
    /// | 3  | 40     | 0 | 8      | 0,1,1   |
    /// | 4  | 50     | 1 | 16     | 1,1,1   |
    /// | 5  | 60     | 0 | 32     | 1,1,1   |
    ///
    /// Ordered by `o`: ids 0, 2, 1, 3, 4, 5 → rolling sums (2 preceding)
    /// 1, 5, 7, 14, 26, 56. Partitioned by `g`: group 0 is ids 0, 2, 3, 5
    /// → 1, 5, 13, 44; group 1 is ids 1, 4 → 2, 18.
    fn six_rows() -> Table {
        let rows: [(i64, i64, i64, [u64; 3]); 6] = [
            (10, 0, 1, [1, 1, 1]),
            (30, 1, 2, [1, 1, 1]),
            (20, 0, 4, [1, 1, 1]),
            (40, 0, 8, [0, 1, 1]),
            (50, 1, 16, [1, 1, 1]),
            (60, 0, 32, [1, 1, 1]),
        ];
        let mut t = Table::new(
            "w",
            &[("o", true), ("g", false), ("v", true), ("id", false)],
            3,
        );
        for (id, &(o, g, v, mult)) in rows.iter().enumerate() {
            t.push(&[[o; 3], [g; 3], [v; 3], [id as i64; 3]], mult);
        }
        t
    }

    fn statement(shape: Shape, filter: Option<RowPred>) -> Statement {
        Statement {
            sql: String::new(),
            table: 0,
            table_rows: 6,
            filter,
            shape,
        }
    }

    fn answer_by_id(stmt: &Statement, t: &Table) -> Vec<i64> {
        let a = sg_answer(stmt, t);
        (0..6).map(|id| a.get(&id).copied().unwrap_or(-1)).collect()
    }

    #[test]
    fn rolling_sums_by_hand() {
        let t = six_rows();
        let flat = statement(Shape::Window { partitioned: false }, None);
        assert_eq!(answer_by_id(&flat, &t), [1, 7, 5, 14, 26, 56]);
        let part = statement(Shape::Window { partitioned: true }, None);
        assert_eq!(answer_by_id(&part, &t), [1, 2, 5, 13, 18, 44]);
    }

    #[test]
    fn ranks_by_hand() {
        let t = six_rows();
        // Order by (g, o): group 0 first → ids 0, 2, 3, 5, then 1, 4.
        let by_g_o = || -> RowKey { Box::new(|r| [r[1][1], r[0][1]]) };
        let all = statement(
            Shape::Rank {
                key: by_g_o(),
                limit: None,
            },
            None,
        );
        assert_eq!(answer_by_id(&all, &t), [0, 4, 1, 2, 5, 3]);
        // WHERE v > 1 drops id 0 from the selected-guess world.
        let filtered = statement(
            Shape::Rank {
                key: by_g_o(),
                limit: Some(2),
            },
            Some(Box::new(|r| r[2][1] > 1)),
        );
        assert_eq!(answer_by_id(&filtered, &t), [-1, 3, 0, 1, 4, 2]);
    }

    #[test]
    fn check_accepts_sound_bounds_and_rejects_unsound_ones() {
        let t = six_rows();
        let stmt = statement(
            Shape::Rank {
                key: Box::new(|r| [r[0][1], 0]),
                limit: Some(2),
            },
            None,
        );
        // Order by o: ids 0, 2, 1, …; top-2 answer is ids 0 and 2. Id 1
        // is possible (lb 1 < 2) but not in the selected-guess answer.
        let good = Rows {
            cols: vec!["id".into(), "pos".into()],
            cells: vec![
                [0, 0, 0],
                [0, 0, 0],
                [2, 2, 2],
                [1, 1, 2],
                [1, 1, 1],
                [1, 2, 2],
            ],
            mults: vec![[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        };
        let q = check(&stmt, &t, &good).unwrap();
        assert_eq!((q.rows, q.certain), (3, 1));
        assert!((q.width_sum - 2.0 / 6.0).abs() < 1e-12);

        let mut wrong_sg = Rows { ..good };
        wrong_sg.cells[3] = [0, 0, 2];
        assert!(check(&stmt, &t, &wrong_sg).unwrap_err().contains("id 2"));
        wrong_sg.cells[3] = [1, 1, 2];
        wrong_sg.mults[2] = [0, 1, 1];
        assert!(check(&stmt, &t, &wrong_sg).is_err());
        wrong_sg.mults[2] = [0, 0, 1];
        wrong_sg.cells.truncate(2);
        wrong_sg.mults.truncate(1);
        assert!(check(&stmt, &t, &wrong_sg)
            .unwrap_err()
            .contains("1 of the 2"));
    }

    #[test]
    fn summary_averages_statements() {
        let q = [
            Quality {
                width_sum: 1.0,
                certain: 1,
                rows: 2,
            },
            Quality {
                width_sum: 0.0,
                certain: 2,
                rows: 2,
            },
        ];
        assert_eq!(summarize(&q), (0.25, 0.75));
    }
}
