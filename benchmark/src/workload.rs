//! The four workloads: sizes, generated inputs, SQL scripts. Shared by
//! both binaries so that the traced run replays exactly what the
//! end-to-end run measures. `README.md` says why each workload exists.

use crate::gen::{self, Rng, Table, FNV_INIT};
use crate::oracle::{RowPred, Shape, Statement};
use std::ops::Range;

pub const NAMES: [&str; 4] = ["rank_scan", "window_scan", "filter_scan", "serve_mix"];

/// Untimed operations that end every set-up.
pub const WARMUP_OPS: usize = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Rows per `/append` batch of `serve_mix`.
pub const BATCH_ROWS: usize = 64;
/// `serve_mix` re-registers `w` at its base size every this many rounds,
/// so the table oscillates over `[rows, rows + CYCLE_ROUNDS · BATCH_ROWS]`.
pub const CYCLE_ROUNDS: usize = 32;

/// Table size and operation counts of one run.
pub struct Sizes {
    /// Rows of the workload's table (`serve_mix`: of `w`; its `r` has a
    /// eighth of them).
    pub rows: usize,
    /// Measured operations.
    pub ops: usize,
    pub warmup: usize,
    pub setups: usize,
}

/// Runs are work-boxed: `--seconds` does not stop a clock, it selects an
/// operation count (`seconds × ops_per_second`, frozen below from the
/// 2-core reference box, where a run then measures for about that long).
/// Two runs with the same arguments therefore do identical work.
pub fn sizes(workload: &str, seconds: u64, quick: bool) -> Result<Sizes, String> {
    let (rows, ops_per_second) = match workload {
        "rank_scan" => (32_768, 27),
        "window_scan" => (8_192, 13),
        "filter_scan" => (131_072, 14),
        "serve_mix" => (16_384, 33),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {}",
                NAMES.join(", ")
            ))
        }
    };
    Ok(if quick {
        // Same code paths on an eighth of the data; not comparable.
        Sizes {
            rows: rows / 8,
            ops: 12,
            warmup: 2,
            setups: 1,
        }
    } else {
        Sizes {
            rows,
            ops: (seconds as usize * ops_per_second).max(1),
            warmup: WARMUP_OPS,
            setups: SETUPS,
        }
    })
}

/// Everything generated from the seed.
pub struct Inputs {
    pub tables: Vec<Table>,
    /// AU-CSV of each table at its base size, as registered at set-up.
    pub csvs: Vec<Vec<u8>>,
    /// `serve_mix` only: the AU-CSV of each append batch of one cycle.
    pub batches: Vec<Vec<u8>>,
    /// Rows of each table at set-up.
    pub base_rows: Vec<usize>,
    /// FNV-1a over every generated byte, in generation order.
    pub checksum: u64,
}

pub fn inputs(workload: &str, seed: u64, rows: usize) -> Inputs {
    let mut rng = Rng::new(seed);
    let tables = match workload {
        "rank_scan" => vec![gen::rank_table(&mut rng, rows)],
        "window_scan" => vec![gen::window_table(&mut rng, rows, false)],
        "filter_scan" => vec![gen::events_table(&mut rng, rows)],
        // The ranked table is an eighth of the window table: at equal sizes
        // the two top-10 requests alone are half of a round, and the
        // server's own share (CSV, catalog, JSON, HTTP) falls under a third.
        "serve_mix" => vec![
            gen::rank_table(&mut rng, rows / 8),
            gen::window_table(&mut rng, rows + CYCLE_ROUNDS * BATCH_ROWS, true),
        ],
        other => panic!("unknown workload {other}"),
    };
    let base_rows: Vec<usize> = tables.iter().map(|t| t.len().min(rows)).collect();
    let csvs: Vec<Vec<u8>> = tables
        .iter()
        .zip(&base_rows)
        .map(|(t, &n)| t.au_csv(0..n))
        .collect();
    let batches: Vec<Vec<u8>> = if workload == "serve_mix" {
        (0..CYCLE_ROUNDS)
            .map(|b| tables[1].au_csv(batch_range(rows, b)))
            .collect()
    } else {
        Vec::new()
    };
    let checksum = csvs
        .iter()
        .chain(&batches)
        .fold(FNV_INIT, |h, bytes| gen::fnv1a(h, bytes));
    Inputs {
        tables,
        csvs,
        batches,
        base_rows,
        checksum,
    }
}

fn batch_range(base_rows: usize, batch: usize) -> Range<usize> {
    let start = base_rows + batch * BATCH_ROWS;
    start..start + BATCH_ROWS
}

const WINDOW_FRAME: &str = "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW";

fn rank_by_a_b(limit: Option<u64>, a: usize, b: usize) -> Shape {
    Shape::Rank {
        key: Box::new(move |r| [r[a][1], r[b][1]]),
        limit,
    }
}

/// The statement script of a library workload: one pass is one operation.
pub fn script(workload: &str, inputs: &Inputs) -> Vec<Statement> {
    let rows = inputs.base_rows[0];
    let stmt = |sql: String, filter, shape| Statement {
        sql,
        table: 0,
        table_rows: rows,
        filter,
        shape,
    };
    match workload {
        "rank_scan" => vec![stmt(
            "SELECT * FROM r ORDER BY a, b AS pos".into(),
            None,
            rank_by_a_b(None, 0, 1),
        )],
        "window_scan" => vec![
            stmt(
                format!(
                    "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o {WINDOW_FRAME}) AS s FROM w"
                ),
                None,
                Shape::Window { partitioned: true },
            ),
            stmt(
                format!("SELECT *, SUM(v) OVER (ORDER BY o {WINDOW_FRAME}) AS s FROM w"),
                None,
                Shape::Window { partitioned: false },
            ),
        ],
        "filter_scan" => {
            // Columns of e: id, a, b, c, d.
            let below = |share: usize| (rows / share) as i64;
            let id_below = |t: i64| -> Option<RowPred> { Some(Box::new(move |r| r[0][1] < t)) };
            vec![
                stmt(
                    format!(
                        "SELECT * FROM e WHERE id < {} ORDER BY a, b AS pos LIMIT 10",
                        below(100)
                    ),
                    id_below(below(100)),
                    rank_by_a_b(Some(10), 1, 2),
                ),
                stmt(
                    format!(
                        "SELECT * FROM e WHERE id < {} ORDER BY a, b AS pos LIMIT 10",
                        below(10)
                    ),
                    id_below(below(10)),
                    rank_by_a_b(Some(10), 1, 2),
                ),
                stmt(
                    "SELECT id, a + b AS c FROM e WHERE a < c AND b > d ORDER BY c AS pos LIMIT 10"
                        .into(),
                    Some(Box::new(|r| r[1][1] < r[3][1] && r[2][1] > r[4][1])),
                    Shape::Rank {
                        key: Box::new(|r| [r[1][1] + r[2][1], 0]),
                        limit: Some(10),
                    },
                ),
            ]
        }
        other => panic!("{other} has no library script"),
    }
}

/// One operation of `serve_mix`: an optional reset of `w`, an append,
/// then four queries (top-10 twice — plan-cache miss then hit —, a
/// filtered ranking of about half of `r`, and a window over the
/// most recent eighth of `w`).
pub struct Round {
    /// Re-register `w` at its base size first.
    pub reset: bool,
    /// Index into [`Inputs::batches`] of the batch to append.
    pub batch: usize,
    /// Rows of `w` after the append.
    pub w_rows: usize,
    pub queries: Vec<Statement>,
}

/// Round `index`, counted from the first warm-up round of a set-up.
pub fn round(inputs: &Inputs, index: usize) -> Round {
    let (r_rows, rows) = (inputs.base_rows[0], inputs.base_rows[1]);
    let batch = index % CYCLE_ROUNDS;
    let w_rows = rows + (batch + 1) * BATCH_ROWS;
    let top = || Statement {
        sql: "SELECT * FROM r ORDER BY a, b AS pos LIMIT 10".into(),
        table: 0,
        table_rows: r_rows,
        filter: None,
        shape: rank_by_a_b(Some(10), 0, 1),
    };
    // b is uniform over 20 · r_rows values: keep half of r.
    let b_below = (r_rows * 20 / 2) as i64;
    let recent_from = (w_rows - rows / 8) as i64;
    let queries = vec![
        top(),
        top(),
        Statement {
            sql: format!("SELECT * FROM r WHERE b < {b_below} ORDER BY a, b AS pos"),
            table: 0,
            table_rows: r_rows,
            filter: Some(Box::new(move |r| r[1][1] < b_below)),
            shape: rank_by_a_b(None, 0, 1),
        },
        Statement {
            sql: format!(
                "SELECT *, SUM(v) OVER (ORDER BY o {WINDOW_FRAME}) AS s \
                 FROM (SELECT * FROM w WHERE id >= {recent_from})"
            ),
            table: 1,
            table_rows: w_rows,
            filter: Some(Box::new(move |r| r[3][1] >= recent_from)),
            shape: Shape::Window { partitioned: false },
        },
    ];
    Round {
        reset: batch == 0 && index > 0,
        batch,
        w_rows,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_checksum() {
        for w in NAMES {
            let a = inputs(w, 42, 256);
            let b = inputs(w, 42, 256);
            assert_eq!(a.checksum, b.checksum, "{w}");
            assert_ne!(a.checksum, inputs(w, 43, 256).checksum, "{w}");
        }
    }

    #[test]
    fn served_table_oscillates() {
        let inputs = inputs("serve_mix", 1, 512);
        assert_eq!(inputs.batches.len(), CYCLE_ROUNDS);
        let sizes: Vec<usize> = (0..2 * CYCLE_ROUNDS + 1)
            .map(|i| round(&inputs, i).w_rows)
            .collect();
        assert_eq!(sizes[0], 512 + BATCH_ROWS);
        assert_eq!(sizes[CYCLE_ROUNDS - 1], 512 + CYCLE_ROUNDS * BATCH_ROWS);
        assert_eq!(sizes[CYCLE_ROUNDS], sizes[0]);
        assert!(!round(&inputs, 0).reset);
        assert!(round(&inputs, CYCLE_ROUNDS).reset);
        assert!(!round(&inputs, CYCLE_ROUNDS + 1).reset);
    }

    #[test]
    fn seconds_select_an_operation_count() {
        let s = sizes("rank_scan", 20, false).unwrap();
        assert_eq!(s.ops, sizes("rank_scan", 20, false).unwrap().ops);
        assert_eq!(sizes("rank_scan", 10, false).unwrap().ops * 2, s.ops);
        assert!(sizes("nope", 20, false).is_err());
    }
}
