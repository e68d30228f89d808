//! # audb-competitors — the baselines of the paper's evaluation
//!
//! Every method the paper compares against, implemented from scratch over
//! the x-tuple model of `audb-worlds`:
//!
//! | paper name | here | nature |
//! |---|---|---|
//! | `MCDB` \[34\] | [`mcdb`] | Monte-Carlo over sampled worlds (10/20 samples): sort-position and window envelopes; *under*-approximates bounds |
//! | `PT-k` \[32\] | [`ptk`] | exact `Pr[t ∈ top-k]` via Poisson-binomial DP; `PT(1)`/`PT(0)` = certain/possible answers |
//! | `Symb` \[12, 9\] | [`symb`] | exact bounds via symbolic-style reasoning (Z3 stand-in, see DESIGN.md §2) |
//! | U-Top / U-Rank \[56\] | [`ranks`] | most likely top-k sequence / per-rank winners (Fig. 1b/1c) |
//! | Global-Topk \[64\] | [`ranks::global_topk`] | k most likely top-k members |
//! | Expected rank \[19\] | [`ranks::expected_ranks`] | rank expectation ordering |
//!
//! The `Det` baseline is not here: it is `Imp`'s engine plan over the
//! selected-guess (most likely) world
//! ([`audb_worlds::XTupleTable::most_likely_world`]), `Method::Det` in
//! `audb_workloads::runner`.

pub mod mcdb;
pub mod ptk;
pub mod ranks;
pub mod symb;

pub use mcdb::{mcdb_sort_bounds, mcdb_window_bounds};
pub use ptk::{ptk_certain, ptk_possible, ptk_query, ptk_topk_probs};
pub use ranks::{expected_ranks, global_topk, urank, utop};
pub use symb::symb_sort_bounds;

use audb_rel::ops::sort::total_order;
use audb_rel::Tuple;
use audb_worlds::{XTuple, XTupleTable};

/// Every alternative's key under `<total_O` (the `order` attributes, then
/// the rest), per x-tuple: what the exact competitors compare pairwise.
fn alt_keys(table: &XTupleTable, order: &[usize]) -> Vec<Vec<Tuple>> {
    let total_idxs = total_order(table.schema.arity(), order);
    let keys = |t: &XTuple| {
        let alts = t.alternatives.iter();
        alts.map(|a| a.tuple.project(&total_idxs)).collect()
    };
    table.tuples.iter().map(keys).collect()
}

/// `q_u` for every x-tuple `u ≠ t`, in order: `Pr[u precedes t | t realizes
/// key]`, the mass of `u`'s alternatives whose [`alt_keys`] entry orders
/// before `key` (ties broken by index).
fn preceding<'a>(
    table: &'a XTupleTable,
    keys: &'a [Vec<Tuple>],
    (key, t): (&'a Tuple, usize),
) -> impl Iterator<Item = f64> + 'a {
    let q = move |u: usize| {
        let alts = table.tuples[u].alternatives.iter().zip(&keys[u]);
        alts.filter(|&(_, uk)| (uk, u) < (key, t))
            .map(|(ua, _)| ua.prob)
            .sum::<f64>()
    };
    (0..table.len()).filter(move |&u| u != t).map(q)
}
