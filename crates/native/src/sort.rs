//! One-pass non-deterministic sort and top-k (paper Algorithm 1 + the
//! `split` of Algorithm 2).
//!
//! The input is scanned in ascending order of the *lower-bound corner* of
//! the order-by key (`O↓`); a min-heap `todo` keyed on the upper-bound
//! corner (`O↑`) holds tuples whose position upper bound is not yet known.
//! When an incoming tuple's `O↓` exceeds a heap tuple's `O↑`, that heap
//! tuple's window of possible predecessors is complete and it is *emitted*:
//!
//! * its position lower bound was fixed at insertion time (`rank↓` = total
//!   certain multiplicity of tuples emitted before it — exactly the tuples
//!   `u` with `u.O↑ <lex t.O↓`, i.e. Equation (1));
//! * its position upper bound is derived from `rank↑` (total possible
//!   multiplicity processed so far). Unlike the paper's pseudocode, which
//!   over-counts by the tuple's own multiplicity and by processed tuples
//!   whose `O↓` *equals* the emitted tuple's `O↑` (not strict predecessors),
//!   we subtract both — tracked per distinct lower-bound key — so the
//!   emitted bound equals Equation (3) exactly. The result is
//!   property-tested to be *identical* to the Def. 2 reference.
//!
//! Selected-guess positions are deterministic: the selected-guess mass of
//! strictly smaller selected-guess corners (Equation (2)).
//!
//! With `k` given, the scan stops once `rank↓ ≥ k` (all further tuples are
//! certainly out of the top-k); position bounds of survivors are capped at
//! `k` as in the paper's `emit` (both are applied to the reference, too,
//! when comparing). Uses the exact interval-lexicographic comparison
//! semantics ([`audb_core::CmpSemantics::IntervalLex`]).
//!
//! ## Keys are words until they tie
//!
//! Everything ahead of the sweep runs on flat state (DESIGN.md §3.3 has
//! the stage table):
//!
//! 1. **Encode.** The eight-byte prefix of every corner key over
//!    `<total_O`, read off the lanes ([`prefix_at`]) beside `3 · row +
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
//! whoever wants rows calls [`AuColumns::to_rows`] at its own door. (A
//! sweep that pushed onto the seven lanes itself was measured: its heap
//! loop with seven write streams read 1.9–2.0 ms where emitting one
//! 56-byte record reads 1.3, the split pass costs 0.3, and ns per row at
//! 262 144 rows read 1.8 × the 32 768-row figure against 1.4 ×.) The
//! window sweep ([`crate::window`]) ranks an index view of the same
//! columns — one partition — through the same code and reads the same
//! emissions. [`sort_native`] and [`topk_native`] are doors for callers
//! that hold rows and want rows: they transpose, call the columnar entry
//! and transpose back.

use audb_core::{
    prefix_at, sort_prefixes, AuColumn, AuColumns, AuRelation, Corner, KeyArena, Mult3,
};
use audb_rel::ops::sort::total_order;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry: `(O↑ rank, scan sequence, rank↓ at insertion)`. The scan
/// sequence is unique, so this is a total order: pops are deterministic
/// and FIFO among equal `O↑` keys. `Copy`: pushing allocates nothing.
type Pending = (u32, u32, u64);

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
    sort_columns_native(&rel.to_columns(), order, pos_name, None).to_rows()
}

/// Top-k for a caller that holds rows: [`sort_columns_native`] with a
/// limit between the two transpositions.
pub fn topk_native(rel: &AuRelation, order: &[usize], k: u64, pos_name: &str) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- the row door `benchmark/`'s bench-trace imports (ROADMAP item 5b removes it); no operator calls it
    sort_columns_native(&rel.to_columns(), order, pos_name, Some(k)).to_rows()
}

/// `sort_{O→τ}(R)` over a columnar relation — one-pass equivalent of
/// [`audb_core::sort_ref`] under interval-lex comparison. Identical
/// hypercubes stored as separate rows are merged on the way (duplicate
/// offsets presuppose one row per hypercube); the input is neither copied
/// nor normalized. With `k`, top-k: the sort and the AU-selection
/// `σ_{τ < k}` fused into the scan with early termination, position bounds
/// capped at `k` (paper Algorithm 1, `emit`). Panics if more than
/// [`MAX_OUTPUT_ROWS`] rows would come out ([`output_rows_bound`]: the
/// engine asks first).
pub fn sort_columns_native(
    cols: &AuColumns,
    order: &[usize],
    pos_name: &str,
    k: Option<u64>,
) -> AuColumns {
    sort_native_staged(cols, order, pos_name, k, &mut |_| {})
}

/// [`sort_columns_native`], calling `stage` with a stage's name as it
/// ends: `"encode"`, `"band"` (top-k only), `"rank"`, `"merge"`, `"sweep"`,
/// `"materialise"`. `repro bench`'s `sort/stages` block reads a clock
/// there; the kernel itself never does.
pub fn sort_native_staged(
    cols: &AuColumns,
    order: &[usize],
    pos_name: &str,
    k: Option<u64>,
    stage: &mut dyn FnMut(&'static str),
) -> AuColumns {
    let ranked = positions(cols, 0..cols.len(), order, cols.is_normalized(), k, stage);
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
    let [lb, sg, ub] = tau;
    let pos = AuColumn::from_i64_lanes(lb, sg, ub);
    let out = cols.gather_extended(&rows, mults, pos_name, pos);
    stage("materialise");
    out
}

/// A row taking part in the sort and — once ranked — how its keys compare.
struct Cand {
    /// Index into the input columns.
    row: u32,
    /// A certain row has one key for its three corners.
    uncertain: bool,
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

/// One key to be ranked: its prefix ([`prefix_at`]) and `3 · cand +
/// corner` — which orders the keys of equal prefix as they were stored.
type KeyRef = (u64, u32);

/// The rank computation of Algorithm 1 + `split` over the rows `rows` of
/// `cols` — all of them, or one partition — in emission order.
/// `normalized` asserts those rows are distinct and zero-free, which skips
/// the merge.
pub(crate) fn positions(
    cols: &AuColumns,
    rows: impl ExactSizeIterator<Item = usize>,
    order: &[usize],
    normalized: bool,
    k: Option<u64>,
    stage: &mut dyn FnMut(&'static str),
) -> Vec<Position> {
    if k == Some(0) {
        return Vec::new(); // every position is ≥ 0
    }
    let idxs = total_order(cols.arity(), order);
    let (mut cands, mut refs) = encode(cols, rows, &idxs, k);
    stage("encode");
    if let Some(k) = k {
        band(&cands, &mut refs, k);
        stage("band");
    }
    let (mut scan, rank_count) = rank(cols, &idxs, &mut cands, &mut refs);
    stage("rank");
    if !normalized {
        merge(&mut cands, &mut scan);
    }
    // Selected-guess positions (Equation (2)): the `k_sg` mass of strictly
    // smaller selected-guess keys — tuples with equal keys do not precede
    // each other, so a whole rank shares one base.
    let mut sg_base = vec![0u64; rank_count + 1];
    for &c in &scan {
        let c = &cands[c as usize];
        let base = &mut sg_base[c.ranks[SG] as usize + 1];
        *base = checked(base.checked_add(c.mult.sg));
    }
    for r in 0..rank_count {
        sg_base[r + 1] = checked(sg_base[r + 1].checked_add(sg_base[r]));
    }
    stage("merge");
    let out = sweep(&cands, &scan, &sg_base, k);
    stage("sweep");
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
    let (mut scan, _) = rank(cols, &idxs, &mut cands, &mut refs);
    merge(&mut cands, &mut scan);
    (scan.iter())
        .map(|&c| (cands[c as usize].row as usize, cands[c as usize].mult))
        .collect()
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
    for r in rows {
        let Mult3 { lb, sg, ub } = cols.mult(r);
        let (lb, sg, ub) = (lb.min(cap), sg.min(cap), ub.min(cap));
        let mult = Mult3 { lb, sg, ub };
        if mult.is_zero() {
            continue;
        }
        let uncertain = !cols.row_is_certain(r);
        let id = key_id(cands.len())
            .unwrap_or_else(|| panic!("the sort would rank more than {MAX_RANKED_ROWS} rows"));
        refs.push((prefix_at(cols, r, Corner::Lb, idxs), id));
        if uncertain {
            refs.push((prefix_at(cols, r, Corner::Sg, idxs), id + 1));
            refs.push((prefix_at(cols, r, Corner::Ub, idxs), id + 2));
        }
        cands.push(Cand {
            row: r as u32,
            uncertain,
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
) -> (Vec<u32>, usize) {
    sort_prefixes(refs);
    let mut scan = Vec::with_capacity(cands.len());
    let mut place = |cands: &mut [Cand], id: u32, rank: u32| {
        let (c, corner) = (id / 3, id as usize % 3);
        let cand = &mut cands[c as usize];
        if cand.uncertain {
            cand.ranks[corner] = rank;
        } else {
            cand.ranks = [rank; 3];
        }
        if corner == LB {
            scan.push(c);
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
    (scan, next as usize)
}

/// Stage 3: normalisation, fused. Identical hypercubes must be merged for
/// duplicate offsets to be meaningful (see `sort_ref`). `<total_O` covers
/// every attribute, so equal rank triples mean equal tuples — and equal
/// `O↓` ranks put them in one run of `scan`. Each run of more than one row
/// folds its equal triples into the first stored copy; `scan` keeps its
/// order and loses the folded copies.
fn merge(cands: &mut [Cand], scan: &mut Vec<u32>) {
    let mut group: Vec<u32> = Vec::new();
    let mut folded = false;
    let mut start = 0;
    while start < scan.len() {
        let lb = cands[scan[start] as usize].ranks[LB];
        let len = scan[start..]
            .iter()
            .take_while(|&&c| cands[c as usize].ranks[LB] == lb)
            .count();
        if len > 1 {
            group.clear();
            group.extend_from_slice(&scan[start..start + len]);
            group.sort_unstable_by_key(|&c| (cands[c as usize].ranks, c));
            let mut first = group[0] as usize;
            for &c in &group[1..] {
                let c = c as usize;
                if cands[c].ranks == cands[first].ranks {
                    cands[first].mult = cands[first].mult.saturating_add(cands[c].mult);
                    cands[c].mult = Mult3::ZERO;
                    folded = true;
                } else {
                    first = c;
                }
            }
        }
        start += len;
    }
    if folded {
        scan.retain(|&c| !cands[c as usize].mult.is_zero());
    }
}

/// Algorithm 1 over ranked candidates in `O↓` order, with `split`
/// (Algorithm 2) and, under top-k, the fused `σ_{τ < k}` and cap in `emit`.
fn sweep(cands: &[Cand], scan: &[u32], sg_base: &[u64], k: Option<u64>) -> Vec<Position> {
    // One output row per possible duplicate, decided before anything is
    // allocated for them.
    let bound = output_rows_bound(scan.iter().map(|&c| cands[c as usize].mult.ub), k);
    // The engine refuses such a breaker before it runs (`ResultTooLarge`); a
    // direct caller gets a message instead of an aborted allocation.
    let rows = checked(bound.filter(|&rows| rows <= MAX_OUTPUT_ROWS));
    // Without a limit exactly that many come out; a top-k emits about `k`.
    let mut out = Vec::with_capacity(rows.min(k.unwrap_or(rows)) as usize);
    let mut todo: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    // Σ k↓ of emitted tuples and Σ k↑ of processed tuples.
    let (mut rank_lb, mut rank_ub) = (0u64, 0u64);
    // Σ k↑ of processed tuples per distinct lower-bound key: emitted upper
    // bounds must not count tuples whose O↓ merely *ties* the emitted O↑.
    // Indexed by dense key rank.
    let mut processed_by_lb: Vec<u64> = vec![0; sg_base.len()];

    let emit = |p: Pending,
                rank_lb: &mut u64,
                rank_ub: u64,
                processed_by_lb: &[u64],
                out: &mut Vec<Position>| {
        let (ub_rank, seq, tau_lb) = p;
        let cand = &cands[scan[seq as usize] as usize];
        let rmult = cand.mult;
        let tau_sg = sg_base[cand.ranks[SG] as usize];
        let bucket = processed_by_lb[ub_rank as usize];
        let self_extra = if cand.ranks[LB] != cand.ranks[UB] {
            rmult.ub
        } else {
            0
        };
        let tau_ub = rank_ub - bucket - self_extra;
        // Without early termination the bounds are exact and ordered; with
        // top-k early termination the raw sg rank (computed globally) can
        // exceed the partially-computed upper bound — the cap below restores
        // the invariant (both then equal k; see module docs).
        debug_assert!(k.is_some() || (tau_lb <= tau_sg && tau_sg <= tau_ub));
        // split (Algorithm 2): one output row per possible duplicate.
        for i in 0..rmult.ub {
            let (plb, mut psg, mut pub_) = (tau_lb + i, tau_sg + i, tau_ub + i);
            let mut m = rmult.copy(i);
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
            if plb > psg {
                psg = plb; // can only happen via capping; keep the invariant
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
        *rank_lb += rmult.lb;
    };

    for (seq, &c) in scan.iter().enumerate() {
        let cand = &cands[c as usize];
        // Emit every pending tuple certainly ordered before the incoming one.
        while let Some(&Reverse(p)) = todo.peek() {
            if p.0 < cand.ranks[LB] {
                todo.pop();
                emit(p, &mut rank_lb, rank_ub, &processed_by_lb, &mut out);
            } else {
                break;
            }
        }
        if k.is_some_and(|k| rank_lb >= k) {
            // Everything from here on is certainly out of the top-k.
            break;
        }
        rank_ub += cand.mult.ub;
        processed_by_lb[cand.ranks[LB] as usize] += cand.mult.ub;
        todo.push(Reverse((cand.ranks[UB], seq as u32, rank_lb)));
    }

    // Flush remaining pending tuples (Algorithm 1, lines 10–11).
    while let Some(Reverse(p)) = todo.pop() {
        emit(p, &mut rank_lb, rank_ub, &processed_by_lb, &mut out);
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

    #[test]
    fn stages_end_in_pipeline_order() {
        let mut seen = Vec::new();
        let cols = example6().to_columns();
        let top = sort_native_staged(&cols, &[0, 1], "pos", Some(2), &mut |s| seen.push(s));
        assert!(top
            .to_rows()
            .bag_eq(&topk_native(&example6(), &[0, 1], 2, "pos")));
        assert_eq!(
            seen,
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
