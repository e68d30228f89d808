//! Benchmark-owned input generator.
//!
//! Inputs are a function of the seed and of this file alone: the PRNG is
//! ours (splitmix64-seeded xoshiro256**), the paper's synthetic shapes
//! (Sec. 9.1: uniform values, 5 % uncertain rows, attribute range 1000)
//! are re-stated here, and nothing calls `audb_workloads::synthetic` or
//! `vendor/rand` — so a change to repo code cannot change what the
//! benchmark feeds it. The engine only ever sees the CSV bytes and SQL.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::ops::Range;

/// One uncertain row in this many (the paper's 5 %).
const UNCERTAIN_ONE_IN: u64 = 20;
/// Width of an uncertain attribute's range (the paper's 1k).
const RANGE: u64 = 1000;
/// `PARTITION BY` groups of the window table.
pub const GROUPS: u64 = 8;

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift with rejection, so unbiased).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// 64-bit FNV-1a, the checksum printed for the generated bytes.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis: the `hash` to start [`fnv1a`] from.
pub const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// `[lb, sg, ub]` of one attribute value.
pub type Cell = [i64; 3];

pub struct Col {
    pub name: &'static str,
    /// Emitted as `c_lb,c,c_ub` (true) or as the single column `c`.
    pub ranged: bool,
}

/// A generated table: the AU-DB the engine loads and, in the `sg` lane
/// of every cell, the selected-guess world the oracle computes on.
pub struct Table {
    pub name: &'static str,
    pub cols: Vec<Col>,
    /// Index of the certain, unique `id` column.
    pub id_col: usize,
    /// Row-major cells, `cols.len()` per row.
    cells: Vec<Cell>,
    /// `[lb, sg, ub]` multiplicity per row.
    pub mults: Vec<[u64; 3]>,
}

impl Table {
    pub(crate) fn new(name: &'static str, cols: &[(&'static str, bool)], id_col: usize) -> Table {
        Table {
            name,
            cols: cols
                .iter()
                .map(|&(name, ranged)| Col { name, ranged })
                .collect(),
            id_col,
            cells: Vec::new(),
            mults: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.mults.len()
    }

    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    pub fn row(&self, r: usize) -> &[Cell] {
        &self.cells[r * self.cols.len()..(r + 1) * self.cols.len()]
    }

    pub fn col_index(&self, name: &str) -> usize {
        self.cols
            .iter()
            .position(|c| c.name == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
    }

    pub(crate) fn push(&mut self, row: &[Cell], mult: [u64; 3]) {
        assert_eq!(row.len(), self.cols.len());
        self.cells.extend_from_slice(row);
        self.mults.push(mult);
    }

    /// The AU-CSV text of `rows` under the loader's header convention
    /// (`c_lb,c,c_ub` siblings and the `mult_lb,mult_sg,mult_ub` triple).
    pub fn au_csv(&self, rows: Range<usize>) -> Vec<u8> {
        let mut out = String::with_capacity(rows.len() * 12 * self.cols.len() + 128);
        for c in &self.cols {
            if c.ranged {
                let _ = write!(out, "{0}_lb,{0},{0}_ub,", c.name);
            } else {
                let _ = write!(out, "{},", c.name);
            }
        }
        out.push_str("mult_lb,mult_sg,mult_ub\n");
        for r in rows {
            for (cell, c) in self.row(r).iter().zip(&self.cols) {
                if c.ranged {
                    let _ = write!(out, "{},{},{},", cell[0], cell[1], cell[2]);
                } else {
                    let _ = write!(out, "{},", cell[1]);
                }
            }
            let m = self.mults[r];
            let _ = writeln!(out, "{},{},{}", m[0], m[1], m[2]);
        }
        out.into_bytes()
    }

    /// The selected-guess world of `rows` as plain CSV (the input of the
    /// deterministic baseline): sg values, rows absent in that world left
    /// out.
    pub fn sg_csv(&self, rows: Range<usize>) -> Vec<u8> {
        let names: Vec<&str> = self.cols.iter().map(|c| c.name).collect();
        let mut out = names.join(",");
        out.push('\n');
        for r in rows.filter(|&r| self.mults[r][1] > 0) {
            let vals: Vec<String> = self.row(r).iter().map(|c| c[1].to_string()).collect();
            out.push_str(&vals.join(","));
            out.push('\n');
        }
        out.into_bytes()
    }
}

fn certain(v: i64) -> Cell {
    [v, v, v]
}

/// A *declared* range of the full width with the guess anywhere inside
/// (the sorting workload: a cleaning heuristic's range).
fn declared_range(rng: &mut Rng, base: u64) -> Cell {
    let sg = base + rng.below(RANGE);
    [base as i64, sg as i64, (base + RANGE - 1) as i64]
}

/// The hull of four alternatives drawn inside the range, the first being
/// the guess (the window workload: no heuristic widening).
fn hull_range(rng: &mut Rng, base: u64) -> Cell {
    let alts: [u64; 4] = std::array::from_fn(|_| base + rng.below(RANGE));
    let lb = alts.iter().min().expect("non-empty");
    let ub = alts.iter().max().expect("non-empty");
    [*lb as i64, alts[0] as i64, *ub as i64]
}

/// One row in five of those with an uncertain order attribute may also be
/// absent: `(0, 1, 1)`. Only the window table has such rows — under a
/// window an absent row blurs its neighbours, under a ranking it would
/// blur the position of every row after it.
fn mult_of(rng: &mut Rng, uncertain: bool) -> [u64; 3] {
    if uncertain && rng.one_in(5) {
        [0, 1, 1]
    } else {
        [1, 1, 1]
    }
}

/// The sorting table `r(a, b, id)`: `a` uncertain on 5 % of the rows, the
/// selected-guess `(a, b)` pairs pairwise distinct.
pub fn rank_table(rng: &mut Rng, rows: usize) -> Table {
    let mut t = Table::new("r", &[("a", true), ("b", false), ("id", false)], 2);
    let domain = rows as u64 * 20;
    let mut seen = HashSet::with_capacity(rows);
    for id in 0..rows {
        let uncertain = rng.one_in(UNCERTAIN_ONE_IN);
        let base = rng.below(domain);
        let a = if uncertain {
            declared_range(rng, base)
        } else {
            certain(base as i64)
        };
        let mut b = rng.below(domain) as i64;
        while !seen.insert((a[1], b)) {
            b = rng.below(domain) as i64;
        }
        t.push(&[a, certain(b), certain(id as i64)], [1, 1, 1]);
    }
    t
}

/// The window table `w(o, g, v, id)`: order attribute `o` and aggregated
/// attribute `v` uncertain independently on 5 % of the rows, `g` one of
/// [`GROUPS`] certain partitions, selected-guess `o` pairwise distinct.
/// With `in_order`, `o` grows with `id` (row `i` draws from the `i`-th
/// stride of 200), the shape of an append-only series; without, `o` is
/// uniform over the whole domain.
pub fn window_table(rng: &mut Rng, rows: usize, in_order: bool) -> Table {
    let mut t = Table::new(
        "w",
        &[("o", true), ("g", false), ("v", true), ("id", false)],
        3,
    );
    let domain = rows as u64 * 200;
    let mut seen = HashSet::with_capacity(rows);
    for id in 0..rows {
        let o_uncertain = rng.one_in(UNCERTAIN_ONE_IN);
        let v_uncertain = rng.one_in(UNCERTAIN_ONE_IN);
        let o = loop {
            let base = if in_order {
                id as u64 * 200 + rng.below(200)
            } else {
                rng.below(domain)
            };
            let o = if o_uncertain {
                hull_range(rng, base)
            } else {
                certain(base as i64)
            };
            if seen.insert(o[1]) {
                break o;
            }
        };
        let g = rng.below(GROUPS) as i64;
        let v_base = rng.below(domain);
        let v = if v_uncertain {
            hull_range(rng, v_base)
        } else {
            certain(v_base as i64)
        };
        let mult = mult_of(rng, o_uncertain);
        t.push(&[o, certain(g), v, certain(id as i64)], mult);
    }
    t
}

/// The scan table `e(id, a, b, c, d)`, clustered on the certain `id`:
/// `a` and `b` uncertain independently on 5 % of the rows; `c` and `d`
/// certain and drawn so that `a < c` and `b > d` each hold for about 30 %
/// of the rows (their conjunction for about 9 %).
pub fn events_table(rng: &mut Rng, rows: usize) -> Table {
    let mut t = Table::new(
        "e",
        &[
            ("id", false),
            ("a", true),
            ("b", true),
            ("c", false),
            ("d", false),
        ],
        0,
    );
    let domain = rows as u64 * 20;
    for id in 0..rows {
        let a_uncertain = rng.one_in(UNCERTAIN_ONE_IN);
        let b_uncertain = rng.one_in(UNCERTAIN_ONE_IN);
        let a_base = rng.below(domain);
        let b_base = rng.below(domain);
        let a = if a_uncertain {
            declared_range(rng, a_base)
        } else {
            certain(a_base as i64)
        };
        let b = if b_uncertain {
            declared_range(rng, b_base)
        } else {
            certain(b_base as i64)
        };
        let c = rng.below(domain * 6 / 10) as i64;
        let d = (domain * 4 / 10 + rng.below(domain * 6 / 10)) as i64;
        t.push(
            &[certain(id as i64), a, b, certain(c), certain(d)],
            [1, 1, 1],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checksum(seed: u64) -> u64 {
        let mut rng = Rng::new(seed);
        let r = rank_table(&mut rng, 500);
        let w = window_table(&mut rng, 500, true);
        let e = events_table(&mut rng, 500);
        [
            r.au_csv(0..500),
            w.au_csv(100..164),
            e.au_csv(0..500),
            w.sg_csv(0..500),
        ]
        .iter()
        .fold(FNV_INIT, |h, bytes| fnv1a(h, bytes))
    }

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(checksum(42), checksum(42));
        assert_ne!(checksum(42), checksum(43));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5) as usize] = true;
        }
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn csv_header_follows_the_loader_convention() {
        let mut rng = Rng::new(1);
        let r = rank_table(&mut rng, 4);
        let csv = String::from_utf8(r.au_csv(0..4)).unwrap();
        assert!(csv.starts_with("a_lb,a,a_ub,b,id,mult_lb,mult_sg,mult_ub\n"));
        assert_eq!(csv.lines().count(), 5);
        let sg = String::from_utf8(r.sg_csv(0..4)).unwrap();
        assert!(sg.starts_with("a,b,id\n"));
    }

    #[test]
    fn selected_guess_order_keys_are_distinct() {
        let mut rng = Rng::new(3);
        let r = rank_table(&mut rng, 2000);
        let keys: HashSet<(i64, i64)> = (0..r.len())
            .map(|i| (r.row(i)[0][1], r.row(i)[1][1]))
            .collect();
        assert_eq!(keys.len(), r.len());
        let w = window_table(&mut rng, 2000, false);
        let keys: HashSet<i64> = (0..w.len()).map(|i| w.row(i)[0][1]).collect();
        assert_eq!(keys.len(), w.len());
        for i in 0..w.len() {
            let [lb, sg, ub] = w.row(i)[0];
            assert!(lb <= sg && sg <= ub);
        }
    }
}
