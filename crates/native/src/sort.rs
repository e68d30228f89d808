//! One-pass non-deterministic sort and top-k (paper Algorithm 1 + the
//! `split` of Algorithm 2).
//!
//! Algorithm 1 scans its input in `O↓` order (the lower-bound corner of the
//! order-by key) and holds the tuples whose upper bound is not yet known in
//! a min-heap on `O↑`, because a sorted input has no ranks. Here the three
//! corners of every row share one dense rank space (stage 2 below), and
//! each bound of Equations (1)–(3) is a count of certainly or possibly
//! preceding tuples — a prefix sum over it:
//!
//! * `τ↓(t)`: the certain mass `Σ k↓` of the rows whose `O↑` rank is below
//!   `t`'s `O↓` rank (`u.O↑ <lex t.O↓`, Equation (1));
//! * `τ↑(t)`: the possible mass `Σ k↑` of the rows whose `O↓` rank is below
//!   `t`'s `O↑` rank, less `t`'s own `k↑` where its two ranks differ —
//!   Equation (3) exactly, where the paper's pseudocode over-counts by the
//!   tuple's own multiplicity and by tuples whose `O↓` *equals* its `O↑`;
//! * `τ_sg(t)`: the selected-guess mass of strictly smaller selected-guess
//!   corners (Equation (2)).
//!
//! Rows come out in the heap's pop order — `O↑` rank, then `O↓` scan order
//! — by one counting sort, property-tested *identical* to the Def. 2
//! reference. With `k` given, a row with `τ↓ ≥ k` is certainly out and
//! skipped — the suffix of the scan Algorithm 1 stops before — and position
//! bounds are capped at `k` as in the paper's `emit` (both are applied to
//! the reference, too, when comparing); DESIGN.md §3.3 has why the output
//! is the heap loop's. Uses the exact interval-lexicographic comparison
//! semantics ([`audb_core::CmpSemantics::IntervalLex`]).
//!
//! ## Keys are words until they tie
//!
//! Everything ahead of the sweep runs on flat state (DESIGN.md §3.3 has
//! the stage table):
//!
//! 1. **Encode.** The eight-byte prefix of every corner key over
//!    `<total_O`, read off the lanes ([`PrefixReader`]) beside `3 · row +
//!    corner` — no key is encoded here. A row that is certain on every
//!    attribute has one key for all three corners and one prefix;
//!    zero-multiplicity rows are dropped here.
//! 2. **Rank.** One stable radix sort of those `(prefix, id)` pairs
//!    ([`sort_prefixes`]) — each row's `O↓` key plus the selected-guess and
//!    `O↑` keys of uncertain rows — assigns one dense rank space to all
//!    three corners, and leaves the `O↓` scan order behind (ties in stored
//!    order). Only a run of equal prefixes has its keys encoded, into a
//!    small [`KeyArena`] reused run after run, and ordered by `(key, stored
//!    order)`; a rank steps where the prefix changes, or the key inside a
//!    tied run.
//! 3. **Merge, selected guess.** Identical hypercubes stored apart share
//!    their rank triple and sit in one run of the scan order; they fold
//!    into the first stored copy. Selected-guess positions (Equation (2))
//!    are a prefix sum of `k_sg` mass per rank.
//! 4. **Band** (top-k only, ahead of ranking). Rows that cannot reach
//!    rank `k` and cannot move the bounds of a row that can are dropped by
//!    linear passes over the prefixes — the candidate band of DESIGN.md
//!    §3.3; on prefixes it is a superset of the band on keys, and what it
//!    keeps beyond that is certainly out and precedes no row that is not.
//!    A subscription ([`crate::maintain::TopKMaintain`]) keeps these rows,
//!    merged, and nothing else between appends ([`band_rows`]).
//!
//! From there on every comparison is an integer compare. Under `LIMIT k`
//! every mass the ranks add up counts a row's multiplicity as `min(·, k)`:
//! exact once positions are capped at `k`, and inside `u64` whatever the
//! annotations.
//!
//! ## Columns in, columns out
//!
//! The kernel reads [`AuColumns`] — what the engine's catalog stores and
//! its fused stages hand over — and returns them: `encode` reads prefixes
//! straight from the typed lanes and takes per-row certainty from the
//! column bitmaps, and `materialise` is one pass that splits the sweep's
//! emissions into lanes — the emission-order row index, three `i64`
//! position lanes, three multiplicity lanes — and one
//! [`AuColumns::gather_extended`]: the input's lanes copied in that order,
//! the position lanes appended as they stand. No tuple is built here;
//! whoever wants rows calls [`AuColumns::to_rows`] at its own door
//! (DESIGN.md §3.3 has why the sweep emits one record, not seven lanes).
//! The window sweep ([`crate::window`]) ranks an index view of the same
//! columns — one partition — through the same code, but takes the rows in
//! `O↓` scan order, with no emission counting sort: `τ↓` never decreases
//! along it, so the window's arrival order is a sort of each run of equal
//! `τ↓` ([`crate::maintain`]), not of the batch. [`sort_native`] and
//! [`topk_native`] are doors for callers that hold rows and want rows:
//! they transpose, call the columnar entry and transpose back.

use crate::Stages;
use audb_core::{
    sort_prefixes, AuColumn, AuColumns, AuRelation, Corner, KeyArena, Mult3, PhysVec, PrefixReader,
};
use audb_rel::ops::sort::total_order;
use std::collections::BinaryHeap;

/// One output row of the sweep: which input row backs it, which of that
/// row's possible duplicates it is (`split`, Algorithm 2), its position
/// bounds and its own multiplicity triple. The sort splits these into the
/// lanes of its output; the window sweep ([`crate::maintain`]) consumes
/// them directly.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Position {
    /// Index into the input columns of the (first stored copy of the) row.
    pub row: u32,
    /// Duplicate index within the row's merged possible multiplicity
    /// (`> 0` only where the fused normalisation found `k↑ > 1`).
    pub dup: u32,
    pub tau_lb: u64,
    pub tau_sg: u64,
    pub tau_ub: u64,
    pub mult: Mult3,
}

/// The largest output a breaker emits: row indices are `u32` throughout
/// the kernels, and one output row is emitted per possible duplicate.
pub const MAX_OUTPUT_ROWS: u64 = u32::MAX as u64;

/// The most rows one ranking takes: a row's three corner keys are numbered
/// `3 · row + corner` in a `u32`. The engine refuses a breaker over more
/// ([`output_rows_bound`]'s caller); past it, a direct caller's panic.
pub const MAX_RANKED_ROWS: u64 = (u32::MAX as u64 + 1) / 3;

/// The number of the lower-bound key of the `cand`-th ranked row — its
/// other corners follow it — while all three fit a `u32`: `None` from the
/// [`MAX_RANKED_ROWS`]-th row on.
fn key_id(cand: usize) -> Option<u32> {
    let last = cand.checked_mul(3)?.checked_add(2)?;
    u32::try_from(last).ok().map(|last| last - 2)
}

/// The duplicate index `i` of a row's split: under the row's emission
/// count, which [`output_rows_bound`] kept within [`MAX_OUTPUT_ROWS`] — a
/// `u32` — before the sweep began.
fn dup_index(i: u64) -> u32 {
    u32::try_from(i).expect("a duplicate index under the output bound, which fits a u32")
}

/// How many rows an order-based operator emits over input of possible
/// multiplicities `mult_ub`, at most: one per possible duplicate (`split`),
/// under `LIMIT k` no more than `k` of one row (a duplicate's `τ↓` grows
/// with its index). `None` when the sum leaves `u64`. The engine refuses a
/// breaker whose bound exceeds [`MAX_OUTPUT_ROWS`] before it runs; the
/// sweep sizes its output by it.
pub fn output_rows_bound(mult_ub: impl IntoIterator<Item = u64>, k: Option<u64>) -> Option<u64> {
    let cap = k.unwrap_or(u64::MAX);
    mult_ub
        .into_iter()
        .try_fold(0u64, |sum, ub| sum.checked_add(ub.min(cap)))
}

/// `sort_{O→τ}(R)` — one-pass equivalent of [`audb_core::sort_ref`] under
/// interval-lex comparison — for a caller that holds rows and wants rows:
/// transposed here, once each way, around [`sort_columns_native`].
pub fn sort_native(rel: &AuRelation, order: &[usize], pos_name: &str) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- the row door `benchmark/`'s bench-trace imports (ROADMAP item 5b removes it); no operator calls it
    sort_columns_native(&rel.to_columns(), order, pos_name, None, &()).to_rows()
}

/// Top-k for a caller that holds rows: [`sort_columns_native`] with a
/// limit between the two transpositions.
pub fn topk_native(rel: &AuRelation, order: &[usize], k: u64, pos_name: &str) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- the row door `benchmark/`'s bench-trace imports (ROADMAP item 5b removes it); no operator calls it
    sort_columns_native(&rel.to_columns(), order, pos_name, Some(k), &()).to_rows()
}

/// `sort_{O→τ}(R)` over a columnar relation — one-pass equivalent of
/// [`audb_core::sort_ref`] under interval-lex comparison. Identical
/// hypercubes stored as separate rows are merged on the way (duplicate
/// offsets presuppose one row per hypercube); the input is neither copied
/// nor normalized. With `k`, top-k: the sort and the AU-selection
/// `σ_{τ < k}` fused into the scan with early termination, position bounds
/// capped at `k` (paper Algorithm 1, `emit`). Panics if more than
/// [`MAX_OUTPUT_ROWS`] rows would come out ([`output_rows_bound`]: the
/// engine asks first). Reports `"encode"`, `"band"` (top-k only),
/// `"rank"`, `"merge"`, `"sweep"` and `"materialise"` to `stages`.
pub fn sort_columns_native<S: Stages>(
    cols: &AuColumns,
    order: &[usize],
    pos_name: &str,
    k: Option<u64>,
    stages: &S,
) -> AuColumns {
    let ranked = positions::<false, S>(cols, 0..cols.len(), order, cols.is_normalized(), k, stages);
    let at = stages.mark();
    // The emissions, a lane per quantity.
    let n = ranked.len();
    let mut rows = Vec::with_capacity(n);
    let mut tau = [0; 3].map(|_| Vec::with_capacity(n));
    let mut mults = [0; 3].map(|_| Vec::with_capacity(n));
    for p in &ranked {
        rows.push(p.row as usize);
        tau[LB].push(p.tau_lb as i64);
        tau[SG].push(p.tau_sg as i64);
        tau[UB].push(p.tau_ub as i64);
        mults[LB].push(p.mult.lb);
        mults[SG].push(p.mult.sg);
        mults[UB].push(p.mult.ub);
    }
    let pos = AuColumn::from_lanes(tau.map(PhysVec::I64));
    let out = cols.gather_extended(&rows, mults, pos_name, pos);
    stages.stage(at, "materialise");
    out
}

/// A row taking part in the sort and — once ranked — how its keys compare.
#[derive(Clone, Copy)]
struct Cand {
    /// Index into the input columns.
    row: u32,
    /// Dense ranks of the three corner keys, by [`LB`] / [`SG`] / [`UB`].
    ranks: [u32; 3],
    /// Its annotation; after the merge, summed over the stored copies.
    /// Zero marks a copy folded into an earlier one.
    mult: Mult3,
}

const LB: usize = 0;
const SG: usize = 1;
const UB: usize = 2;
const CORNERS: [Corner; 3] = [Corner::Lb, Corner::Sg, Corner::Ub];

/// One key to be ranked: its prefix ([`PrefixReader`]) and `3 · cand +
/// corner` — which orders the keys of equal prefix as they were stored.
type KeyRef = (u64, u32);

/// The rank computation of Algorithm 1 + `split` over the rows `rows` of
/// `cols` — all of them, or one partition — in emission order, or with
/// `SCAN` in `O↓` scan order, along which `τ↓` never decreases (the
/// window's arrivals). `normalized` asserts those rows are distinct and
/// zero-free, which skips the merge. Reports `"encode"`, `"band"` (top-k
/// only), `"rank"`, `"merge"` and `"sweep"` to `stages`. Never inlined:
/// inlined into the sort, its one caller per sink, it read `rank_scan`
/// ≈ 8 % slower.
#[inline(never)]
pub(crate) fn positions<const SCAN: bool, S: Stages>(
    cols: &AuColumns,
    rows: impl ExactSizeIterator<Item = usize>,
    order: &[usize],
    normalized: bool,
    k: Option<u64>,
    stages: &S,
) -> Vec<Position> {
    if k == Some(0) {
        return Vec::new(); // every position is ≥ 0
    }
    let at = stages.mark();
    let idxs = total_order(cols.arity(), order);
    let (mut cands, mut refs) = encode(cols, rows, &idxs, k);
    let mut at = stages.stage(at, "encode");
    if let Some(k) = k {
        band(&cands, &mut refs, k);
        at = stages.stage(at, "band");
    }
    let (mut scanned, rank_count) = rank(cols, &idxs, &mut cands, &mut refs);
    let at = stages.stage(at, "rank");
    if !normalized {
        merge(&mut scanned);
    }
    // Selected-guess positions (Equation (2)): the `k_sg` mass of strictly
    // smaller selected-guess keys — tuples with equal keys do not precede
    // each other, so a whole rank shares one base.
    let mut sg_base = vec![0u64; rank_count + 1];
    for c in &scanned {
        let base = &mut sg_base[c.ranks[SG] as usize + 1];
        *base = checked(base.checked_add(c.mult.sg));
    }
    for r in 0..rank_count {
        sg_base[r + 1] = checked(sg_base[r + 1].checked_add(sg_base[r]));
    }
    let at = stages.stage(at, "merge");
    let out = sweep::<SCAN>(&scanned, &sg_base, k);
    stages.stage(at, "sweep");
    out
}

/// A count of output rows the engine's [`output_rows_bound`] check keeps
/// within [`MAX_OUTPUT_ROWS`]; past it, a direct caller's panic.
fn checked(sum: Option<u64>) -> u64 {
    sum.unwrap_or_else(|| panic!("the sort would emit more than {MAX_OUTPUT_ROWS} rows"))
}

/// The rows a top-k over `cols` reads, with their annotations: stages 1–4
/// without the sweep. Identical hypercubes are folded into their first
/// stored copy, and every annotation counts `min(·, k)` per stored copy —
/// so a top-k over these rows is the top-k over `cols`, and so is the band
/// of these rows and more appended to them (DESIGN.md §3.3).
pub fn band_rows(cols: &AuColumns, order: &[usize], k: u64) -> Vec<(usize, Mult3)> {
    let idxs = total_order(cols.arity(), order);
    let (mut cands, mut refs) = encode(cols, 0..cols.len(), &idxs, Some(k));
    band(&cands, &mut refs, k);
    let (mut scanned, _) = rank(cols, &idxs, &mut cands, &mut refs);
    merge(&mut scanned);
    (scanned.iter()).map(|c| (c.row as usize, c.mult)).collect()
}

/// Stage 1: the prefixes of the corner keys over `idxs` of every one of
/// `rows` with a non-zero annotation, a certain row's once, in stored
/// order; no key is encoded. Under `LIMIT k` an annotation is kept as
/// `min(·, k)`: every mass the ranking adds up then reaches `k` iff the
/// true one does and is exact below it — all a position capped at `k`
/// reads — and stays within the output bound, where the true one may
/// leave `u64`.
fn encode(
    cols: &AuColumns,
    rows: impl ExactSizeIterator<Item = usize>,
    idxs: &[usize],
    k: Option<u64>,
) -> (Vec<Cand>, Vec<KeyRef>) {
    let n = rows.len();
    let cap = k.unwrap_or(u64::MAX);
    let mut cands = Vec::with_capacity(n);
    let mut refs = Vec::with_capacity(n + n / 4);
    let [lb_key, sg_key, ub_key] = CORNERS.map(|corner| PrefixReader::new(cols, corner, idxs));
    for r in rows {
        let Mult3 { lb, sg, ub } = cols.mult(r);
        let (lb, sg, ub) = (lb.min(cap), sg.min(cap), ub.min(cap));
        let mult = Mult3 { lb, sg, ub };
        if mult.is_zero() {
            continue;
        }
        let id = key_id(cands.len())
            .unwrap_or_else(|| panic!("the sort would rank more than {MAX_RANKED_ROWS} rows"));
        refs.push((lb_key.at(r), id));
        if !cols.row_is_certain(r) {
            refs.push((sg_key.at(r), id + 1));
            refs.push((ub_key.at(r), id + 2));
        }
        cands.push(Cand {
            row: r as u32,
            ranks: [0; 3],
            mult,
        });
    }
    (cands, refs)
}

/// Stage 4, top-k: keep the references of the candidate band (DESIGN.md
/// §3.3), on prefixes alone. `K` is the `O↑` prefix by which certain mass
/// `k` has accumulated — a row whose `O↓` prefix lies beyond it has `τ↓ ≥
/// k`. `M` is the largest `O↑` prefix among the rows not beyond `K`; a row
/// whose `O↓` prefix lies beyond `M` precedes none of them in any world,
/// so their bounds are the same without it. With fewer than `k` certain
/// rows every row may reach the top k. A cut candidate keeps its place in
/// `cands` and is never ranked.
fn band(cands: &[Cand], refs: &mut Vec<KeyRef>, k: u64) {
    let certain = cands
        .iter()
        .fold(0u64, |mass, c| mass.saturating_add(c.mult.lb));
    if certain < k {
        return;
    }
    // `(cand, O↓ prefix, O↑ prefix)`: a certain row's one reference is both.
    let corners = || {
        (refs.chunk_by(|a, b| a.1 / 3 == b.1 / 3)).map(|keys| {
            (
                &cands[keys[0].1 as usize / 3],
                keys[0].0,
                keys[keys.len() - 1].0,
            )
        })
    };
    // The smallest `O↑` prefixes of certain rows, as few as hold mass ≥ k.
    let mut smallest = BinaryHeap::new();
    let mut mass = 0u64;
    for (c, _, ub) in corners().filter(|(c, ..)| c.mult.lb > 0) {
        if mass >= k && smallest.peek().is_some_and(|&(top, _)| top <= ub) {
            continue;
        }
        smallest.push((ub, c.mult.lb));
        mass = mass.saturating_add(c.mult.lb);
        while let Some(&(_, top_mass)) = smallest.peek() {
            if mass - top_mass < k {
                break;
            }
            mass -= top_mass;
            smallest.pop();
        }
    }
    let Some(&(threshold, _)) = smallest.peek() else {
        return;
    };
    let Some(reach) = corners()
        .filter(|&(_, lb, _)| lb <= threshold)
        .map(|(.., ub)| ub)
        .max()
    else {
        return;
    };
    // A row's `O↓` reference comes first and decides for its other two.
    let mut keep = false;
    refs.retain(|&(prefix, id)| {
        if id % 3 == LB as u32 {
            keep = prefix <= reach;
        }
        keep
    });
}

/// Stage 2: one dense rank space for all three corners — `rank(x) <
/// rank(y)` iff the keys compare that way, whichever corners they belong
/// to. The references are radix-sorted on their prefixes; only a run of
/// equal prefixes has its keys encoded (over `idxs`, into a small arena)
/// and ordered by `(key, stored order)`. Returns the ranked candidates in
/// `O↓` order (ties in stored order) and the number of ranks.
fn rank(
    cols: &AuColumns,
    idxs: &[usize],
    cands: &mut [Cand],
    refs: &mut [KeyRef],
) -> (Vec<Cand>, usize) {
    sort_prefixes(refs);
    let mut scan = Vec::with_capacity(cands.len());
    let mut place = |cands: &mut [Cand], id: u32, rank: u32| {
        let (c, corner) = (id / 3, id as usize % 3);
        let cand = &mut cands[c as usize];
        // A row's `O↓` key is ranked before its others (it is the least,
        // and numbered first among equals), and a certain row has no other.
        if corner == LB {
            cand.ranks = [rank; 3];
            scan.push(c);
        } else {
            cand.ranks[corner] = rank;
        }
    };
    let mut ties = KeyArena::with_capacity(0, 0);
    let mut next = 0u32;
    for run in refs.chunk_by(|a, b| a.0 == b.0) {
        if let [(_, id)] = run {
            place(cands, *id, next);
            next += 1;
            continue;
        }
        ties.clear();
        for &(_, id) in run {
            let row = cands[id as usize / 3].row as usize;
            ties.push_corner_at(cols, row, CORNERS[id as usize % 3], idxs);
        }
        let mut last = None;
        for slot in ties.sorted_slots() {
            if last.is_some_and(|prev| ties.key(prev) != ties.key(slot)) {
                next += 1;
            }
            place(cands, run[slot].1, next);
            last = Some(slot);
        }
        next += 1;
    }
    // Every pass from here on reads the candidates in turn, and the ranks
    // they index mostly ascend.
    let scanned = scan.iter().map(|&c| cands[c as usize]).collect();
    (scanned, next as usize)
}

/// Stage 3: normalisation, fused. Identical hypercubes must be merged for
/// duplicate offsets to be meaningful (see `sort_ref`). `<total_O` covers
/// every attribute, so equal rank triples mean equal tuples — and equal
/// `O↓` ranks put them in one run of the scan order. Each run of more than
/// one row folds its equal triples into the first stored copy; `scanned`
/// keeps its order and loses the folded copies.
fn merge(scanned: &mut Vec<Cand>) {
    let mut group: Vec<usize> = Vec::new();
    let mut folded = false;
    let runs = scanned.chunk_by_mut(|a, b| a.ranks[LB] == b.ranks[LB]);
    for run in runs.filter(|run| run.len() > 1) {
        // A run is in stored order.
        group.clear();
        group.extend(0..run.len());
        group.sort_unstable_by_key(|&c| (run[c].ranks, c));
        let mut first = group[0];
        for &c in &group[1..] {
            if run[c].ranks == run[first].ranks {
                run[first].mult = run[first].mult.saturating_add(run[c].mult);
                run[c].mult = Mult3::ZERO;
                folded = true;
            } else {
                first = c;
            }
        }
    }
    if folded {
        scanned.retain(|c| !c.mult.is_zero());
    }
}

/// Algorithm 1 over ranked candidates in `O↓` order, as passes over the
/// rank space, with `split` (Algorithm 2) and, under top-k, the fused
/// `σ_{τ < k}` and cap in `emit`; the rows in emission order, or in the
/// scan order (`SCAN`).
fn sweep<const SCAN: bool>(scanned: &[Cand], sg_base: &[u64], k: Option<u64>) -> Vec<Position> {
    // One output row per possible duplicate, decided before anything is
    // allocated for them.
    let bound = output_rows_bound(scanned.iter().map(|c| c.mult.ub), k);
    // The engine refuses such a breaker before it runs (`ResultTooLarge`); a
    // direct caller gets a message instead of an aborted allocation. Every
    // sum below is at most the engine's bound, which counts `min(k↑, k)`
    // per stored copy as `encode` does.
    let rows = checked(bound.filter(|&rows| rows <= MAX_OUTPUT_ROWS));
    // Without a limit exactly that many come out; a top-k emits about `k`.
    let mut out = Vec::with_capacity(rows.min(k.unwrap_or(rows)) as usize);
    // Per rank `r`, summed over the rows ranked below it: the certain mass
    // and the number of the rows whose `O↑` is, and the possible mass of
    // the rows whose `O↓` is.
    const CERTAIN: usize = 0;
    const POSSIBLE: usize = 1;
    const ROWS: usize = 2;
    let mut below = vec![[0u64; 3]; sg_base.len()];
    for c in scanned {
        let [lb, ub] = [c.ranks[LB], c.ranks[UB]].map(|rank| rank as usize + 1);
        below[ub][CERTAIN] += c.mult.lb;
        below[ub][ROWS] += 1;
        below[lb][POSSIBLE] += c.mult.ub;
    }
    for r in 1..below.len() {
        below[r] = [CERTAIN, POSSIBLE, ROWS].map(|sum| below[r][sum] + below[r - 1][sum]);
    }
    // Emission order, the heap's of Algorithm 1: by `O↑` rank, then in scan
    // order — one counting sort —, or the scan order itself.
    let mut order = vec![0u32; scanned.len()];
    for (i, c) in scanned.iter().enumerate() {
        let at = &mut below[c.ranks[UB] as usize][ROWS];
        order[if SCAN { i } else { *at as usize }] = i as u32;
        *at += 1;
    }
    for i in order {
        let cand = &scanned[i as usize];
        // Equation (1): the rows whose `O↑` is below `t.O↓`. Equation (3):
        // the rows whose `O↓` is below `t.O↑`, `t` itself aside.
        let tau_lb = below[cand.ranks[LB] as usize][CERTAIN];
        let tau_sg = sg_base[cand.ranks[SG] as usize];
        let own = cand.mult.ub * u64::from(cand.ranks[LB] != cand.ranks[UB]);
        let tau_ub = below[cand.ranks[UB] as usize][POSSIBLE] - own;
        debug_assert!(tau_lb <= tau_sg && tau_sg <= tau_ub);
        // split (Algorithm 2): one output row per possible duplicate. Under
        // `LIMIT k` a row with `τ↓ ≥ k` emits none: certainly out.
        for i in 0..cand.mult.ub {
            let (plb, mut psg, mut pub_) = (tau_lb + i, tau_sg + i, tau_ub + i);
            let mut m = cand.mult.copy(i);
            if let Some(k) = k {
                // Fused σ_{τ < k} with [24] selection semantics.
                if plb >= k {
                    break; // this duplicate and every later one: certainly out
                }
                m = Mult3 {
                    lb: if pub_ < k { m.lb } else { 0 },
                    sg: if psg < k { m.sg } else { 0 },
                    ub: m.ub,
                };
                // Cap positions at k (paper: τ↑ ← min(k, rank↑)).
                psg = psg.min(k);
                pub_ = pub_.min(k);
            }
            out.push(Position {
                row: cand.row,
                dup: dup_index(i),
                tau_lb: plb,
                tau_sg: psg,
                tau_ub: pub_,
                mult: m,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{sort_ref, topk_ref, AuTuple, CmpSemantics, RangeValue};
    use audb_rel::Schema;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn example6() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["a", "b"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64), rv(1, 1, 3)]),
                    Mult3::new(1, 1, 2),
                ),
                (
                    AuTuple::new([rv(2, 3, 3), RangeValue::certain(15i64)]),
                    Mult3::new(0, 1, 1),
                ),
                (
                    AuTuple::new([rv(1, 1, 2), RangeValue::certain(2i64)]),
                    Mult3::ONE,
                ),
            ],
        )
    }

    #[test]
    fn matches_reference_on_example_6() {
        let native = sort_native(&example6(), &[0, 1], "pos");
        let reference = sort_ref(&example6(), &[0, 1], "pos", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn topk_matches_reference_with_capping() {
        for k in 0..5u64 {
            let native = topk_native(&example6(), &[0, 1], k, "pos");
            let mut reference = topk_ref(&example6(), &[0, 1], k, CmpSemantics::IntervalLex);
            cap_positions(&mut reference, k);
            assert!(
                native.bag_eq(&reference),
                "k={k}\nnative:\n{native}\nreference:\n{reference}"
            );
        }
    }

    /// Apply the paper's `τ↑ ← min(k, ·)` cap to a reference top-k result
    /// (reference keeps raw Def. 2 positions; native caps during emit).
    fn cap_positions(rel: &mut AuRelation, k: u64) {
        let pos_col = rel.schema.arity() - 1;
        for row in rel.rows_mut() {
            let p = row.tuple.0[pos_col].clone();
            let (lb, sg, ub) = p.as_i64_triple();
            row.tuple.0[pos_col] = RangeValue::from_i64s(lb, sg.min(k as i64), ub.min(k as i64));
        }
    }

    #[test]
    fn certain_relation_sorts_deterministically() {
        use audb_rel::Relation;
        let det = Relation::from_values(Schema::new(["a"]), [[5i64], [1], [3], [2], [4]]);
        let au = AuRelation::certain(&det);
        let native = sort_native(&au, &[0], "pos");
        let reference = sort_ref(&au, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
        for row in native.rows() {
            assert!(row.tuple.get(1).is_certain());
        }
    }

    #[test]
    fn duplicate_multiplicities_split_with_offsets() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [(AuTuple::new([rv(1, 2, 4)]), Mult3::new(2, 2, 3))],
        );
        let native = sort_native(&rel, &[0], "pos");
        let reference = sort_ref(&rel, &[0], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference), "{native}\nvs\n{reference}");
        assert_eq!(native.rows().len(), 3);
    }

    #[test]
    fn all_equal_certain_keys() {
        // Equal certain keys collapse to one row of multiplicity 3 after
        // normalization; positions 0,1,2 with certainty.
        let t = AuTuple::new([RangeValue::certain(7i64)]);
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (t.clone(), Mult3::ONE),
                (t.clone(), Mult3::ONE),
                (t.clone(), Mult3::ONE),
            ],
        );
        let native = sort_native(&rel, &[0], "pos");
        let reference = sort_ref(
            &rel.clone().normalize(),
            &[0],
            "pos",
            CmpSemantics::IntervalLex,
        );
        assert!(native.bag_eq(&reference), "{native}\nvs\n{reference}");
    }

    #[test]
    fn prenormalized_input_is_not_renormalized() {
        let rel = example6().normalize();
        assert!(rel.is_normalized());
        let native = sort_native(&rel, &[0, 1], "pos");
        let reference = sort_ref(&rel, &[0, 1], "pos", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
    }

    /// `τ↓ + i` only grows with the duplicate index: once it reaches `k`
    /// the split of a row is over, however many duplicates it may have.
    #[test]
    fn topk_stops_splitting_a_row_at_k() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                (
                    AuTuple::new([RangeValue::certain(1i64)]),
                    Mult3::new(1, 1, 4_000_000_000),
                ),
                (AuTuple::new([RangeValue::certain(2i64)]), Mult3::ONE),
            ],
        );
        let top = topk_native(&rel, &[0], 3, "pos");
        let positions: Vec<_> = top
            .rows()
            .iter()
            .map(|r| (r.tuple.get(1).as_i64_triple(), r.mult))
            .collect();
        assert_eq!(
            positions,
            [
                ((0, 0, 0), Mult3::ONE),
                ((1, 1, 1), Mult3::new(0, 0, 1)),
                ((2, 2, 2), Mult3::new(0, 0, 1)),
                ((1, 1, 3), Mult3::new(0, 1, 1)),
            ]
        );
    }

    /// Rows come out by `O↑` key, and rows of one `O↑` key in `O↓` scan
    /// order — `O↓` key, then stored order — each row's split duplicates
    /// together: the order SQL results show. The last row is a copy of the
    /// second, so that one merges into two duplicates.
    #[test]
    fn emission_order_is_upper_key_then_scan_order() {
        let rel = AuRelation::from_rows(
            Schema::new(["a"]),
            [
                rv(1, 2, 5),
                rv(2, 2, 3),
                rv(1, 1, 5),
                rv(0, 4, 5),
                rv(3, 3, 3),
                rv(2, 2, 3),
            ]
            .into_iter()
            .zip([1, 1, 2, 1, 1, 1])
            .map(|(a, ub)| (AuTuple::new([a]), Mult3::new(1, 1, ub))),
        );
        let out = sort_columns_native(&rel.to_columns(), &[0], "pos", None, &()).to_rows();
        let emitted: Vec<_> = (out.rows().iter())
            .map(|r| r.tuple.get(0).as_i64_triple())
            .collect();
        assert_eq!(
            emitted,
            [
                (2, 2, 3),
                (2, 2, 3),
                (3, 3, 3),
                (0, 4, 5),
                (1, 2, 5),
                (1, 1, 5),
                (1, 1, 5),
            ]
        );
    }

    #[test]
    fn stages_end_in_pipeline_order() {
        let heard = std::sync::Mutex::default();
        let cols = example6().to_columns();
        let top = sort_columns_native(&cols, &[0, 1], "pos", Some(2), &heard);
        assert!(top
            .to_rows()
            .bag_eq(&topk_native(&example6(), &[0, 1], 2, "pos")));
        assert_eq!(
            heard.into_inner().unwrap(),
            ["encode", "band", "rank", "merge", "sweep", "materialise"]
        );
    }

    /// The key numbering at the edge of a `u32`, checked without a row
    /// behind it.
    #[test]
    fn key_ids_stop_at_u32() {
        let last = MAX_RANKED_ROWS as usize - 1;
        assert_eq!(key_id(0), Some(0));
        assert_eq!(key_id(last), Some(u32::MAX - 3));
        assert_eq!(key_id(last + 1), None);
        assert_eq!(key_id(usize::MAX), None);
        assert_eq!(dup_index(u64::from(u32::MAX)), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "fits a u32")]
    fn a_duplicate_index_past_u32_is_refused() {
        dup_index(u64::from(u32::MAX) + 1);
    }

    #[test]
    fn empty_input() {
        let rel = AuRelation::empty(Schema::new(["a"]));
        assert!(sort_native(&rel, &[0], "pos").is_empty());
        assert!(topk_native(&rel, &[0], 3, "pos").is_empty());
    }
}
