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
//! The `Det` baseline is simply the `audb-rel` engine on the most likely
//! world ([`audb_worlds::XTupleTable::most_likely_world`]).

pub mod mcdb;
pub mod ptk;
pub mod ranks;
pub mod symb;

pub use mcdb::{mcdb_sort_bounds, mcdb_window_bounds};
pub use ptk::{ptk_certain, ptk_possible, ptk_query, ptk_topk_probs};
pub use ranks::{expected_ranks, global_topk, urank, utop};
pub use symb::symb_sort_bounds;
