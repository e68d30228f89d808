//! Incremental (append-only) maintenance of the one-pass window and top-k
//! operators.
//!
//! The sweep of [`crate::window::window_native`] is a *streaming* algorithm:
//! it consumes tuples in ascending position order and closes a window as
//! soon as no future tuple can possibly belong to it. Nothing about it
//! requires the whole relation up front — this module keeps the sweep
//! state ([`WindowMaintain`]) alive between batches so an appended row
//! costs a share of its batch's ranking instead of an `O(n log n)`
//! recompute.
//!
//! ## In-order appends
//!
//! A batch is *in order* when every new row's lower-bound corner on the
//! ORDER BY attributes is strictly greater than the upper-bound corner of
//! every accumulated row (the batch sits entirely after the *frontier*).
//! Under that condition the global sort positions decompose exactly:
//!
//! * accumulated rows keep the positions they already had (every world
//!   orders them before every new row), and
//! * a new row's global position range is its batch-local range shifted by
//!   the accumulated certain mass (`τ↓ += Σ k↓`) and possible mass
//!   (`τ↑ += Σ k↑`).
//!
//! So a batch is ranked locally by the sort sweep (`sort::positions`
//! — positions only, no sorted relation is materialised), its positions
//! are offset, and the rows are fed to the *same* sweep loop the one-shot
//! operator runs — that operator is the one-batch case of
//! [`crate::MaintainedWindow`], which keeps the two permanently in
//! agreement.
//!
//! [`crate::MaintainedWindow::apply`] asks this per partition value
//! (`crate::window` routes rows to one sweep each), and also whether a
//! batch touches a group a range value shares — its rows would join a
//! group swept before them. A batch that is not in order rebuilds the
//! operator from everything it was fed.
//!
//! Already-closed windows are final: when the sweep closes `s` because an
//! incoming tuple has `τ↓ > s.τ↑ + u`, at least `s.τ↑ + u + 1` rows
//! certainly precede that tuple, so the guaranteed-slot count of
//! [`audb_core::guaranteed_extra_slots`] is saturated and no future row
//! can enter `s`'s certain set, possible pool, or selected-guess frame.
//! Open windows are closed *non-destructively* by
//! [`WindowMaintain::open_rows`] — their provisional bounds equal what a
//! full recompute over the data seen so far would produce. Closed rows and
//! open rows together are the answer; a subscription keeps no other copy
//! of it.
//!
//! ## Sweep state
//!
//! The sweep holds no tuple. What it compares is read from the lanes once,
//! into a flat `Item` per split row: `τ↓`, `τ↑` (the copies of one row
//! share the hull of their ranges), the aggregated attribute's range,
//! `k↓ ≥ 1`, `k_sg ≥ 1`, which copy it is, and where the input row is
//! (the number of the batch that fed it, the row there). A closing window
//! leaves a [`WindowRow`] — that address, the annotation and the aggregate
//! `X` — and [`crate::MaintainedWindow`], which keeps the rows it was fed,
//! gathers the output from the input lanes, extended by one aggregate
//! column, whenever it is asked. Only a batch's rows its caller marks as
//! the group's own open windows; the others only fill them. Items are
//! indexed by arrival order, which is `(τ↓, τ↑)`-ascending, so
//!
//! * the minimum `τ↓` over the open windows is the `τ↓` of the *oldest
//!   still-open item* — a cursor that only moves forward;
//! * the certain tuples form a `τ↓`-ordered deque: the range scan of
//!   `compBounds` binary-searches its start, eviction pops the front.
//!
//! The paper keeps the open windows and the possible pool in heaps; this
//! sweep keeps none. Windows close, and items leave the pool, in one
//! order, `(τ↑, id)`: a counting pass over each batch's `τ↑`s, appended
//! to the order kept so far — an in-order batch's `τ↑`s all exceed the
//! earlier ones — and two cursors walk it. `l ≤ 0 ≤ u`, so a window has
//! arrived by the time it closes, and an item below the eviction
//! watermark is in the pool. The pool's other two orders, `A↓` ascending
//! and `A↑` descending, are rankings of its survivors and the next
//! arrivals, re-ranked at every batch boundary and whenever those run out
//! (`Pool`): its members are ranks in a hierarchical bitset
//! (`RankSet`), and a scan walks their set bits. Eviction only saves
//! scan visits — `compBounds`' membership test rejects whatever it evicts
//! — so its timing cannot change an answer.
//!
//! ## Selected guesses
//!
//! The selected-guess component is the deterministic window operator over
//! the selected-guess world in the order [`audb_core::sg_ordered_inputs`]
//! defines (shared with [`audb_core::sg_window_values`]). The ranking has
//! that order already — `τ_sg` less the duplicate index is one number per
//! distinct selected guess under `<total_O` — so a batch's entries are
//! sorted on it and `sg_ordered_inputs` is asked about the runs that tie
//! (equal selected guesses on every attribute: content decides). In-order
//! batches extend the order at its end, so it is kept as a bounded tail of
//! `(item, value)` pairs: an entry's aggregate is final once `u` later
//! entries exist, after which only `−l` entries of left context are
//! retained.
//!
//! ## Top-k
//!
//! [`TopKMaintain`] accepts appends in *any* order. Its state is one
//! [`AuColumns`]: the candidate band of DESIGN.md §3.3 over everything
//! appended — rows whose lower-bound key is at most `M`, the largest
//! upper-bound key among rows not certainly ranked below `k` — as the
//! native top-k's own stages compute it ([`band_rows`]). An append
//! recomputes the band over the band and the batch; identical hypercubes
//! merge in the kernel, each annotation counted as `min(·, k)`. A row the
//! band drops is never needed again, whatever arrives later (§3.3, (iv)),
//! so the state and the cost of an append scale with the uncertain band
//! around rank `k`, not with `n`; a query is
//! [`crate::sort::sort_columns_native`] over the band.

use crate::rank_set::RankSet;
use crate::sort::{band_rows, positions, sort_columns_native};
use crate::Stages;
use audb_core::{
    prefix_of, sg_ordered_inputs, sort_prefixes, AuColumns, AuTuple, AuWindowSpec, Corner,
    KeyArena, Lanes, Mult3, RangeValue, WinAgg,
};
use audb_rel::ops::window::sliding_aggregate;
use audb_rel::{Schema, Value};
use std::collections::VecDeque;
use std::ops::Range;

/// One split row in flight through the sweep: everything the sweep
/// compares, read from the lanes once — no tuple is built for it.
struct Item {
    tlo: i64,
    thi: i64,
    /// Range of the aggregated attribute (`[1,1,1]` for count).
    attr: RangeValue,
    /// Certainly exists (`k↓ ≥ 1`).
    cert: bool,
    /// Exists in the selected-guess world (`k_sg ≥ 1`).
    in_sg: bool,
    /// Which copy of its input row it is: copies arrive one after another.
    dup: u32,
    /// Its window has closed for good — or never opens: it is not one of
    /// its group's own rows, and only fills their windows.
    closed: bool,
    /// Selected-guess window aggregate, once final.
    sg: Option<Value>,
    /// Its input row: which batch fed it, and the row there.
    batch: u32,
    row: u32,
}

impl Item {
    /// A split row's annotation: `k↑ = 1`.
    fn mult(&self) -> Mult3 {
        Mult3::new(u64::from(self.cert), u64::from(self.in_sg), 1)
    }
}

/// One output row of the sweep, not yet a tuple: row `row` of the
/// `batch`-th batch fed, extended by its window's aggregate `x`.
/// [`crate::MaintainedWindow`] gathers it from the input lanes when asked.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRow {
    /// Which of the batches fed so far holds the input row.
    pub batch: u32,
    /// The input row within that batch.
    pub row: u32,
    /// Which of the input row's copies (`split`, Algorithm 2) it is.
    pub dup: u32,
    /// The split row's annotation (`k↑ = 1`).
    pub mult: Mult3,
    /// The window aggregate: the output attribute.
    pub x: RangeValue,
}

/// A pool candidate: what `compBounds`' membership test reads, and the
/// words it is ranked on, read off the item once.
#[derive(Clone, Copy)]
struct Ranked {
    id: usize,
    tlo: i64,
    thi: i64,
    cert: bool,
    /// Per ranking (`A↓`, `A↑`), whether the bound is an `Int`: its word
    /// is then the sign-flipped `i64`, else its prefix ([`prefix_of`]).
    int: [bool; 2],
    word: [u64; 2],
}

/// Arrivals ranked at once beside a small pool's survivors.
const CHUNK: usize = 1024;

/// The possible pool (module docs): two rankings — `A↓` ascending,
/// `A↑` descending, ties by item id — in one rank space, `A↓`'s first.
#[derive(Default)]
struct Pool {
    /// The candidates in id order: the survivors of the last re-rank, then
    /// the arrivals the ranking serves.
    slots: Vec<Ranked>,
    /// Rank → `(word, slot)`.
    ranked: Vec<(u64, u32)>,
    live: RankSet,
    /// Item id → its two ranks.
    rank_of: Vec<[u32; 2]>,
    /// Per ranking, the ranks below this hold a negative `A↓` / positive
    /// `A↑`: the sign tests of the `SUM` scans.
    signed: [usize; 2],
    len: usize,
    /// The slots' buffer for the next re-rank.
    spare: Vec<Ranked>,
}

impl Pool {
    /// Rank the members and `arrivals` afresh. The candidates are in id
    /// order and the sort is stable, so wherever words tie only on equal
    /// bounds, equal bounds keep the id order. A ranking whose bounds are
    /// all `Int`s sorts their words as they are — exact —, any other the
    /// prefixes ([`prefix_of`], numeric across `Int` and `Float`), whose
    /// tied runs the values order.
    fn rerank(&mut self, items: &[Item], arrivals: Range<usize>) {
        let (live, rank_of) = (&self.live, &self.rank_of);
        let mut slots = std::mem::take(&mut self.spare);
        slots.clear();
        slots.extend((self.slots.iter()).filter(|c| live.contains(rank_of[c.id][0] as usize)));
        let survivors = slots.len();
        self.rank_of.resize(arrivals.end, [0; 2]);
        let flip = |i: i64| (i as u64) ^ (1 << 63);
        slots.extend(arrivals.map(|id| {
            let it = &items[id];
            let bounds = [&it.attr.lb, &it.attr.ub];
            let (tlo, thi, cert) = (it.tlo, it.thi, it.cert);
            let int = bounds.map(|v| matches!(v, Value::Int(_)));
            let word = bounds.map(|v| v.as_i64().map_or_else(|| prefix_of([v]), flip));
            Ranked {
                id,
                tlo,
                thi,
                cert,
                int,
                word,
            }
        }));
        self.spare = std::mem::replace(&mut self.slots, slots);
        let slots = &self.slots;
        let n = slots.len();
        self.ranked.clear();
        self.live.reset(2 * n);
        let zero = Value::Int(0);
        for h in 0..2 {
            let bound = |at: u32| {
                let attr = &items[slots[at as usize].id].attr;
                [&attr.lb, &attr.ub][h]
            };
            let exact = slots.iter().all(|c| c.int[h]);
            let base = h * n;
            self.ranked.extend(slots.iter().zip(0..).map(|(c, at)| {
                let word = match c.int[h] && !exact {
                    true => prefix_of([&Value::Int((c.word[h] ^ 1 << 63) as i64)]),
                    false => c.word[h],
                };
                (if h == 0 { word } else { !word }, at)
            }));
            let keys = &mut self.ranked[base..];
            sort_prefixes(keys);
            if !exact {
                for run in keys.chunk_by_mut(|a, b| a.0 == b.0) {
                    run.sort_by(|a, b| match h {
                        0 => bound(a.1).cmp(bound(b.1)),
                        _ => bound(b.1).cmp(bound(a.1)),
                    });
                }
            }
            self.signed[h] = base
                + keys.partition_point(|&(_, at)| match h {
                    0 => *bound(at) < zero,
                    _ => *bound(at) > zero,
                });
            for (rank, &(_, at)) in (base..).zip(keys.iter()) {
                self.rank_of[slots[at as usize].id][h] = rank as u32;
                if (at as usize) < survivors {
                    self.live.insert(rank);
                }
            }
        }
    }

    /// Item `id` joins the pool.
    fn insert(&mut self, id: usize) {
        for rank in self.rank_of[id] {
            self.live.insert(rank as usize);
        }
        self.len += 1;
    }

    /// Item `id` leaves the pool.
    fn remove(&mut self, id: usize) {
        for rank in self.rank_of[id] {
            self.live.remove(rank as usize);
        }
        self.len -= 1;
    }

    /// The members in ranking `h`'s order (0: `A↓` ascending, 1: `A↑`
    /// descending), each with whether its bound is signed — negative `A↓`,
    /// positive `A↑`.
    fn scan(&self, h: usize) -> impl Iterator<Item = (bool, &Ranked)> {
        let n = self.ranked.len() / 2;
        let (ranks, signed) = (self.live.iter_from(h * n), self.signed[h]);
        let ranks = ranks.take_while(move |&rank| rank < (h + 1) * n);
        ranks.map(move |rank| (rank < signed, &self.slots[self.ranked[rank].1 as usize]))
    }
}

/// Buffers `compBounds` fills per window, kept across windows.
#[derive(Default)]
struct Scratch {
    /// Items certainly in the window (self first).
    cert: Vec<usize>,
    /// Pool items picked by the min-k / max-k scan.
    picked: Vec<usize>,
}

/// Resumable partitionless window sweep (see the module docs).
///
/// [`crate::MaintainedWindow`] runs one of these per partition value and
/// feeds it each batch's share of that value's rows — the one-shot
/// operator one batch. It holds no tuple: its output is [`WindowRow`]s.
pub struct WindowMaintain {
    spec: AuWindowSpec,
    agg: WinAgg,
    items: Vec<Item>,
    /// Accumulated certain / possible input mass (the position offsets).
    total_lb: u64,
    total_ub: u64,
    /// The greatest upper-bound corner on the ORDER BY attributes among
    /// the accumulated rows, as its key's bytes.
    frontier: Option<Vec<u8>>,
    // Sweep state, live between batches.
    /// Every item in `(τ↑, id)` order: the order windows close in and
    /// items leave the pool in.
    by_thi: Vec<usize>,
    /// `by_thi[closing..]` holds every window still open; `by_thi[..evicted]`
    /// every item evicted from the pool.
    closing: usize,
    evicted: usize,
    /// No item before this one is still open.
    oldest_open: usize,
    /// Certain items `(τ↓, τ↑, id)` in arrival (= `τ↓`) order.
    cert: VecDeque<(i64, i64, usize)>,
    poss: Pool,
    scratch: Scratch,
    /// Closed (final) output rows, in close order.
    closed: Vec<WindowRow>,
    /// Pool size summed over the closes of [`WindowMaintain::step`], and
    /// its maximum there.
    pool_sum: u64,
    pool_max: usize,
    // Selected-guess tail, in SG order: item ids and the values the
    // deterministic aggregate slides over. Entries before `sg_pending` are
    // final and kept as left context only.
    sg_ids: Vec<usize>,
    sg_vals: Vec<Value>,
    sg_pending: usize,
}

impl WindowMaintain {
    /// Fresh state for a partitionless window.
    ///
    /// Panics if `spec` carries PARTITION BY attributes — partitioning is
    /// routed above this type (see [`crate::MaintainedWindow`]).
    pub fn new(spec: AuWindowSpec, agg: WinAgg) -> WindowMaintain {
        assert!(
            spec.partition.is_empty(),
            "WindowMaintain is partitionless; use MaintainedWindow"
        );
        WindowMaintain {
            agg,
            items: Vec::new(),
            total_lb: 0,
            total_ub: 0,
            frontier: None,
            by_thi: Vec::new(),
            closing: 0,
            evicted: 0,
            oldest_open: 0,
            cert: VecDeque::new(),
            poss: Pool::default(),
            scratch: Scratch::default(),
            closed: Vec::new(),
            pool_sum: 0,
            pool_max: 0,
            sg_ids: Vec::new(),
            sg_vals: Vec::new(),
            sg_pending: 0,
            spec,
        }
    }

    /// Output rows already closed (final regardless of future appends), in
    /// close order.
    pub fn closed_rows(&self) -> &[WindowRow] {
        &self.closed
    }

    /// Mean and maximum size of the possible-member pool over the windows
    /// closed by an arriving row — what a sorted pool scan has under it
    /// (`repro bench`'s `window/scaling` residency line).
    pub fn pool_residency(&self) -> (f64, usize) {
        let closes = self.closed.len().max(1) as f64;
        (self.pool_sum as f64 / closes, self.pool_max)
    }

    /// Would the rows `rows` of `cols` be in order after the rows fed so
    /// far? (Trivially true while the state is empty — the first batch
    /// seeds the sweep.)
    pub(crate) fn rows_in_order(&self, cols: &AuColumns, rows: &[usize]) -> bool {
        let Some(frontier) = &self.frontier else {
            return true;
        };
        let mut lb = KeyArena::with_capacity(rows.len(), self.spec.order.len());
        rows.iter().all(|&row| {
            lb.push_corner_at(cols, row, Corner::Lb, &self.spec.order);
            frontier.as_slice() < lb.key(lb.len() - 1)
        })
    }

    /// Feed batch number `batch` — counted by the caller, who keeps the
    /// batches if it wants tuples later — through the sweep, in order (the
    /// caller knows its rows lie past the frontier; feeding an out-of-order
    /// batch silently computes bounds for the wrong relation).
    pub fn apply(&mut self, cols: &AuColumns, batch: u32) {
        let (rows, normalized) = (existing_rows(cols), cols.is_normalized());
        self.apply_rows(cols, batch, &rows, normalized, cols.len(), &());
    }

    /// [`WindowMaintain::apply`] over the rows `rows` of `cols` — one
    /// group's share of a batch (`normalized`: they are distinct and
    /// zero-free), of which the rows of `cols` below `own` are the group's
    /// own: only their windows open, the others only fill them — reporting
    /// `"rank"`, `"items"`, `"selected-guess"` and `"sweep"` to `stages`.
    pub(crate) fn apply_rows<S: Stages>(
        &mut self,
        cols: &AuColumns,
        batch: u32,
        rows: &[usize],
        normalized: bool,
        own: usize,
        stages: &S,
    ) {
        let at = stages.mark();
        // Batch-local positions in the sweep's arrival order; entries have
        // k↑ = 1 (input row and duplicate index break ties reproducibly).
        let rows = rows.iter().copied();
        let mut pos = positions(cols, rows, &self.spec.order, normalized, None, &());
        if pos.is_empty() {
            return;
        }
        // Copies of one input row have no order between them — in a world
        // either may come first — so where the sort offsets copy `i` by `i`
        // (Algorithm 2), each takes the hull of their ranges: `τ↓` of the
        // first, `τ↑` of the last. They tie, and arrive one after another.
        for copies in pos.chunk_by_mut(|a, b| a.row == b.row) {
            let (lo, hi) = (copies[0].tau_lb, copies[copies.len() - 1].tau_ub);
            for p in copies {
                (p.tau_lb, p.tau_ub) = (lo, hi);
            }
        }
        // Arrival order `(τ↓, τ↑, row, dup)`: one radix sort of `(τ↓, τ↑)`
        // words — batch-local positions, under 2³² as the output is — and
        // `(row, dup)` only where two tie.
        let mut refs: Vec<(u64, u32)> = (pos.iter().enumerate())
            .map(|(i, p)| (p.tau_lb << 32 | p.tau_ub, i as u32))
            .collect();
        sort_prefixes(&mut refs);
        for run in refs
            .chunk_by_mut(|a, b| a.0 == b.0)
            .filter(|run| run.len() > 1)
        {
            run.sort_unstable_by_key(|&(_, i)| (pos[i as usize].row, pos[i as usize].dup));
        }
        let pos: Vec<_> = refs.iter().map(|&(_, i)| pos[i as usize]).collect();
        // `(τ↑, id)` order, extended: one counting pass over the batch's
        // `τ↑`s, which are below its entry count.
        let first_new = self.items.len();
        let mut at_thi = vec![0; pos.len() + 1];
        pos.iter().for_each(|p| at_thi[p.tau_ub as usize + 1] += 1);
        (1..at_thi.len()).for_each(|thi| at_thi[thi] += at_thi[thi - 1]);
        self.by_thi.resize(first_new + pos.len(), 0);
        for (id, p) in (first_new..).zip(&pos) {
            let at = &mut at_thi[p.tau_ub as usize];
            self.by_thi[first_new + *at] = id;
            *at += 1;
        }
        let at = stages.stage(at, "rank");
        // Offsets shift batch-local positions into the global rank space;
        // the totals must cover the whole batch *before* any window closes
        // (the one-shot sweep's guaranteed-slot math sees the full total).
        let off_lb = self.total_lb as i64;
        let off_ub = self.total_ub as i64;
        for p in &pos {
            self.total_lb += p.mult.lb;
            self.total_ub += p.mult.ub;
        }
        // The one time the input is read: the aggregated attribute's range,
        // straight from the lanes, resolved once.
        let attr = self.agg.input_col().map(|c| Lanes::of(cols.col(c)));
        for p in &pos {
            self.items.push(Item {
                tlo: p.tau_lb as i64 + off_lb,
                thi: p.tau_ub as i64 + off_ub,
                attr: attr.map_or_else(
                    || RangeValue::certain(1i64),
                    |lanes| lanes.range_value(p.row as usize),
                ),
                cert: p.mult.lb >= 1,
                in_sg: p.mult.sg >= 1,
                dup: p.dup,
                closed: p.row as usize >= own,
                sg: None,
                batch,
                row: p.row,
            });
        }
        // The frontier moves to the batch's greatest ORDER BY upper-bound
        // corner. Every row's lower-bound corner is at or below that one, so
        // no row has more possible predecessors than its row: only the rows
        // of greatest `τ↑` are encoded to find it.
        let last = pos.iter().map(|p| p.tau_ub).max();
        let greatest_ub = |rows: &mut dyn Iterator<Item = u32>| {
            let mut ub = KeyArena::with_capacity(1, self.spec.order.len());
            rows.for_each(|row| {
                ub.push_corner_at(cols, row as usize, Corner::Ub, &self.spec.order)
            });
            let top = (0..ub.len()).map(|slot| ub.key(slot)).max();
            top.expect("the batch ranked at least one row").to_vec()
        };
        let at_last = pos.iter().filter(|p| Some(p.tau_ub) == last);
        let top = greatest_ub(&mut at_last.map(|p| p.row));
        debug_assert_eq!(top, greatest_ub(&mut pos.iter().map(|p| p.row)));
        if self.frontier.as_ref().is_none_or(|f| *f < top) {
            self.frontier = Some(top);
        }
        let at = stages.stage(at, "items");
        // The selected-guess order of the batch. The ranking already holds
        // it: entries of different selected guesses under `<total_O` differ
        // in the base of `τ_sg`. Only among equal ones — one base — does
        // content decide, and that is `sg_ordered_inputs`' to say.
        let mut bases: Vec<(u64, u32)> = (pos.iter().enumerate())
            .filter(|(_, p)| p.mult.sg >= 1)
            .map(|(i, p)| (p.tau_sg - u64::from(p.dup), i as u32))
            .collect();
        sort_prefixes(&mut bases);
        let mut sg_block: Vec<(u64, usize)> = (bases.into_iter())
            .map(|(base, i)| (base, first_new + i as usize))
            .collect();
        for run in sg_block.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                let tuples: Vec<AuTuple> = (run.iter())
                    .map(|&(_, id)| cols.tuple(self.items[id].row as usize))
                    .collect();
                let mut tied: Vec<(usize, &AuTuple)> =
                    run.iter().map(|&(_, id)| id).zip(&tuples).collect();
                sg_ordered_inputs(&mut tied, &self.spec.order, self.agg);
                for (entry, (id, _)) in run.iter_mut().zip(tied) {
                    entry.1 = id;
                }
            }
        }
        let sg_ids: Vec<usize> = sg_block.iter().map(|&(_, id)| id).collect();
        let sg_vals = (sg_ids.iter())
            .map(|&id| self.items[id].attr.sg.clone())
            .collect();
        self.ingest_sg(sg_ids, sg_vals);
        let at = stages.stage(at, "selected-guess");
        // A ranking serves [`CHUNK`] arrivals, or four times as many as it
        // has survivors: re-ranking costs at most 1.25 entries per arrival
        // where nothing leaves the pool.
        let mut from = first_new;
        while from < self.items.len() {
            let to = self.items.len().min(from + CHUNK.max(4 * self.poss.len));
            self.poss.rerank(&self.items, from..to);
            for t in from..to {
                self.step(t);
            }
            from = to;
        }
        stages.stage(at, "sweep");
    }

    /// Provisional output rows of the still-open windows (the rows that
    /// may change on a future append), in flush order: after
    /// [`WindowMaintain::closed_rows`] they complete the exact row order
    /// the one-shot sweep produces over the accumulated relation.
    pub fn open_rows(&self) -> Vec<WindowRow> {
        let provisional = self.provisional_sg();
        let mut scratch = Scratch::default();
        (self.open_windows())
            .map(|sid| self.window_row(sid, &provisional, &mut scratch))
            .collect()
    }

    /// The windows still open, in the order they close: `(τ↑, id)`.
    fn open_windows(&self) -> impl Iterator<Item = usize> + '_ {
        (self.by_thi[self.closing..].iter().copied()).filter(|&sid| !self.items[sid].closed)
    }

    /// End the sweep: the open windows close for good, in the order of
    /// [`WindowMaintain::open_rows`], and all but the closed rows — every
    /// output row now — is freed. No batch may follow.
    pub fn finish(&mut self) {
        let provisional = self.provisional_sg();
        for at in self.closing..self.by_thi.len() {
            let sid = self.by_thi[at];
            if !self.items[sid].closed {
                self.close(sid, &provisional);
            }
        }
        let closed = std::mem::take(&mut self.closed);
        *self = WindowMaintain {
            closed,
            ..WindowMaintain::new(self.spec.clone(), self.agg)
        };
    }

    /// Advance the sweep over item `t` (arrival in global `(τ↓, τ↑)`
    /// order), closing every window no future tuple can possibly join.
    fn step(&mut self, t: usize) {
        let (it_tlo, it_thi, it_cert) = {
            let it = &self.items[t];
            (it.tlo, it.thi, it.cert)
        };
        let (l, u) = (self.spec.lower, self.spec.upper);
        // `l ≤ 0 ≤ u`: a window that closes has arrived (`τ↓ ≤ τ↑ < t.τ↓`).
        while let Some(&sid) = self.by_thi.get(self.closing) {
            // A window nobody reads never opens: it never closes, and it
            // keeps no pool member from eviction.
            if self.items[sid].closed {
                self.closing += 1;
                continue;
            }
            if self.items[sid].thi + u >= it_tlo {
                break;
            }
            debug_assert!(sid < t, "a window closes after it arrived");
            self.closing += 1;
            self.items[sid].closed = true;
            // Evict certain tuples below every range scan still to come:
            // windows close in τ↑ order and arrivals lie beyond `s.τ↑ + u`,
            // so no window closing after `s` scans below `s.τ↑ + l`.
            let sthi = self.items[sid].thi;
            while self.cert.front().is_some_and(|c| c.0 < sthi + l) {
                self.cert.pop_front();
            }
            debug_assert!(
                !self.items[sid].in_sg || self.items[sid].sg.is_some(),
                "sg value of a closing window must be final"
            );
            self.pool_sum += self.poss.len as u64;
            self.pool_max = self.pool_max.max(self.poss.len);
            self.close(sid, &[]);
        }
        // Evict pool tuples below every window open or to come: the minimum
        // τ↓ over the open windows (a later-closing window may start earlier
        // when position ranges are wide) is the oldest open item's, `t`'s
        // when none is open. At every arrival, lest a group whose last
        // window closed keep its pool, and re-rank it, to the end.
        while self.oldest_open < t && self.items[self.oldest_open].closed {
            self.oldest_open += 1;
        }
        let open_tlo = match self.oldest_open < t {
            true => self.items[self.oldest_open].tlo,
            false => it_tlo,
        };
        while let Some(&e) = self.by_thi.get(self.evicted) {
            if self.items[e].thi >= open_tlo + l {
                break;
            }
            debug_assert!(e < t, "an item below the watermark is in the pool");
            self.poss.remove(e);
            self.evicted += 1;
        }
        if it_cert {
            self.cert.push_back((it_tlo, it_thi, t));
        }
        self.poss.insert(t);
    }

    /// Close window `id` for good: its output row joins the closed rows.
    fn close(&mut self, id: usize, provisional: &[(usize, Value)]) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let row = self.window_row(id, provisional, &mut scratch);
        self.scratch = scratch;
        self.closed.push(row);
    }

    /// The output row of window `id` from the current sweep state.
    fn window_row(
        &self,
        id: usize,
        provisional: &[(usize, Value)],
        scratch: &mut Scratch,
    ) -> WindowRow {
        let it = &self.items[id];
        WindowRow {
            batch: it.batch,
            row: it.row,
            dup: it.dup,
            mult: it.mult(),
            x: self.comp_bounds(id, self.sg_raw(id, provisional), scratch),
        }
    }

    /// `compBounds` (paper Algorithms 4–6): the output attribute of window
    /// `id` from the current sweep state. Read-only on the state, so final
    /// closes and provisional flushes share it.
    fn comp_bounds(&self, id: usize, sg_raw: Value, scratch: &mut Scratch) -> RangeValue {
        let (l, u) = (self.spec.lower, self.spec.upper);
        let size = self.spec.size() as usize;
        let items = &self.items;
        let s = &items[id];
        let cs = (s.thi + l, s.tlo + u); // certainly covered positions
        let ps = (s.tlo + l, s.thi + u); // possibly covered positions
        let Scratch { cert, picked } = scratch;

        // Certain members: self, then the τ↓-range scan.
        cert.clear();
        cert.push(id);
        if cs.0 <= cs.1 {
            let start = self.cert.partition_point(|c| c.0 < cs.0);
            for &(tlo, thi, cid) in self.cert.range(start..) {
                if tlo > cs.1 {
                    break;
                }
                if cid != id && thi <= cs.1 {
                    cert.push(cid);
                }
            }
        }
        let possn = size.saturating_sub(cert.len());
        let n_cert = self.total_lb - u64::from(s.cert) + 1;
        let q = audb_core::guaranteed_extra_slots(
            l,
            u,
            s.tlo as u64,
            s.thi as u64,
            n_cert,
            cert.len(),
            possn,
        );

        // A pool candidate is a possible-but-not-certain member ≠ self.
        let valid = |&(_, p): &(bool, &Ranked)| -> bool {
            let certainly = p.cert && p.tlo >= cs.0 && p.thi <= cs.1;
            p.id != id && !certainly && p.tlo <= ps.1 && p.thi >= ps.0
        };
        let cert_lb = || cert.iter().map(|&c| &items[c].attr.lb);
        let cert_ub = || cert.iter().map(|&c| &items[c].attr.ub);
        // Pool scans: `A↓` ascending (min-k), `A↑` descending (max-k).
        let (min_k, max_k) = (|| self.poss.scan(0), || self.poss.scan(1));

        let (xlo, xhi) = match self.agg {
            WinAgg::Sum(_) | WinAgg::Count => {
                let lo = sum(Value::Int(0), cert_lb());
                let hi = sum(Value::Int(0), cert_ub());
                // A frame already full of certain members takes nothing
                // from the pool (every window of certain data): no scan,
                // where each would walk its ranking to the first candidate
                // to stop there.
                if possn == 0 {
                    return clamped(lo, sg_raw, hi);
                }
                // min-k over the A↓-ordered component with the guaranteed
                // floor: the j = clamp(#negatives, q, possn) smallest lower
                // bounds (see audb_core::aggregate_window) — the scan stops
                // at the first candidate that is neither owed nor negative.
                picked.clear();
                for (negative, p) in min_k().filter(valid) {
                    if picked.len() == possn || (picked.len() >= q && !negative) {
                        break;
                    }
                    picked.push(p.id);
                }
                let lo = sum(lo, picked.iter().map(|&p| &items[p].attr.lb));
                // max-k over the A↑-descending component, mirrored.
                picked.clear();
                for (positive, p) in max_k().filter(valid) {
                    if picked.len() == possn || (picked.len() >= q && !positive) {
                        break;
                    }
                    picked.push(p.id);
                }
                let hi = sum(hi, picked.iter().map(|&p| &items[p].attr.ub));
                (lo, hi)
            }
            // Minima and maxima read the item a scan picks.
            WinAgg::Min(_) => {
                let mut hi = cert_ub().min().expect("self").clone();
                if q >= 1 {
                    // q-th largest pool upper bound caps the minimum.
                    if let Some((_, p)) = max_k().filter(valid).nth(q - 1) {
                        hi = hi.min(items[p.id].attr.ub.clone());
                    }
                }
                let mut lo = cert_lb().min().expect("self").clone();
                if possn > 0 {
                    if let Some((_, p)) = min_k().find(valid) {
                        lo = lo.min(items[p.id].attr.lb.clone());
                    }
                }
                (lo, hi)
            }
            WinAgg::Max(_) => {
                let mut lo = cert_lb().max().expect("self").clone();
                if q >= 1 {
                    if let Some((_, p)) = min_k().filter(valid).nth(q - 1) {
                        lo = lo.max(items[p.id].attr.lb.clone());
                    }
                }
                let mut hi = cert_ub().max().expect("self").clone();
                if possn > 0 {
                    if let Some((_, p)) = max_k().find(valid) {
                        hi = hi.max(items[p.id].attr.ub.clone());
                    }
                }
                (lo, hi)
            }
            WinAgg::Avg(_) => {
                let mut lo = cert_lb().min().expect("self").clone();
                let mut hi = cert_ub().max().expect("self").clone();
                if possn > 0 {
                    if let Some((_, p)) = min_k().find(valid) {
                        lo = lo.min(items[p.id].attr.lb.clone());
                    }
                    if let Some((_, p)) = max_k().find(valid) {
                        hi = hi.max(items[p.id].attr.ub.clone());
                    }
                }
                (lo, hi)
            }
        };

        clamped(xlo, sg_raw, xhi)
    }

    /// Append a batch's selected-guess-world entries — item ids and the
    /// values the aggregate slides over, in the order
    /// [`sg_ordered_inputs`] put them — to the tail, harvest every
    /// newly-final aggregate, and prune the tail back down to one frame of
    /// context. In-order batches sort entirely after the accumulated rows,
    /// so appending keeps the tail in SG order.
    fn ingest_sg(&mut self, ids: Vec<usize>, vals: Vec<Value>) {
        self.sg_vals.extend(vals);
        self.sg_ids.extend(ids);
        // Final once `u` later entries exist.
        let final_to = self.sg_ids.len().saturating_sub(self.spec.upper as usize);
        if final_to <= self.sg_pending {
            return;
        }
        let mut aggs = self.eval_sg_tail();
        for j in self.sg_pending..final_to {
            self.items[self.sg_ids[j]].sg = Some(std::mem::replace(&mut aggs[j], Value::Null));
        }
        let keep_from = final_to.saturating_sub((-self.spec.lower) as usize);
        self.sg_ids.drain(..keep_from);
        self.sg_vals.drain(..keep_from);
        self.sg_pending = final_to - keep_from;
    }

    /// The deterministic window aggregate of every tail entry. The tail
    /// starts at the first entry or carries `−l` entries of left context,
    /// so entries from `sg_pending` on see their whole frame.
    fn eval_sg_tail(&self) -> Vec<Value> {
        let (l, u) = (self.spec.lower, self.spec.upper);
        sliding_aggregate(&self.sg_vals, l, u, self.agg.det())
    }

    /// Provisional `(item id, aggregate)` of the pending tail entries (at
    /// most `u` of them), sorted by id.
    fn provisional_sg(&self) -> Vec<(usize, Value)> {
        if self.sg_pending == self.sg_ids.len() {
            return Vec::new();
        }
        let pending = self.sg_ids[self.sg_pending..].iter().copied();
        let mut out: Vec<(usize, Value)> = pending
            .zip(self.eval_sg_tail().into_iter().skip(self.sg_pending))
            .collect();
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// Raw (pre-clamp) selected-guess value for item `id`, replicating the
    /// fallback chain of `sg_window_values`: the finalized value, else a
    /// provisional tail value, else the previous duplicate of the same
    /// hypercube, else the row's own sg attribute.
    fn sg_raw(&self, id: usize, provisional: &[(usize, Value)]) -> Value {
        let mut i = id;
        loop {
            let it = &self.items[i];
            if let Some(v) = &it.sg {
                return v.clone();
            }
            if let Ok(at) = provisional.binary_search_by_key(&i, |&(j, _)| j) {
                return provisional[at].1.clone();
            }
            if it.dup == 0 {
                return it.attr.sg.clone();
            }
            i -= 1;
        }
    }
}

/// `acc` plus every term, left to right, exactly as a fold of
/// [`Value::add`] from `acc` adds them — kept as an `i64` while the sum
/// and every term are `Int`s and no addition overflows, the fold from the
/// first term that is not or does.
fn sum<'a>(acc: Value, terms: impl IntoIterator<Item = &'a Value>) -> Value {
    let mut terms = terms.into_iter();
    let Value::Int(mut total) = acc else {
        return terms.fold(acc, |acc, v| acc.add(v));
    };
    while let Some(v) = terms.next() {
        match v {
            Value::Int(i) if let Some(next) = total.checked_add(*i) => total = next,
            _ => return terms.fold(Value::Int(total).add(v), |acc, v| acc.add(v)),
        }
    }
    Value::Int(total)
}

/// `[lb / sg / ub]` with the selected guess clamped into the bounds
/// (DESIGN.md §3.4).
fn clamped(lb: Value, sg_raw: Value, ub: Value) -> RangeValue {
    let sg = if sg_raw.is_null() || sg_raw < lb {
        lb.clone()
    } else if sg_raw > ub {
        ub.clone()
    } else {
        sg_raw
    };
    RangeValue { lb, sg, ub }
}

/// The rows of `cols` that exist (`k↑ > 0`).
pub(crate) fn existing_rows(cols: &AuColumns) -> Vec<usize> {
    (0..cols.len())
        .filter(|&row| !cols.mult(row).is_zero())
        .collect()
}

/// Append maintenance of the native top-k: the state is the candidate band
/// of everything appended, and nothing else (module docs). Appends may
/// arrive in any order.
#[derive(Clone)]
pub struct TopKMaintain {
    order: Vec<usize>,
    k: u64,
    pos_name: String,
    /// The rows [`band_rows`] keeps over everything appended so far, under
    /// the annotations it merged.
    band: AuColumns,
}

impl TopKMaintain {
    /// Fresh state for `topk(k)` ordered on `order` over `schema`.
    pub fn new(schema: Schema, order: Vec<usize>, k: u64, pos_name: &str) -> TopKMaintain {
        TopKMaintain {
            order,
            k,
            pos_name: pos_name.to_string(),
            band: AuColumns::empty(schema),
        }
    }

    /// Distinct hypercube rows in the band.
    pub fn len(&self) -> usize {
        self.band.len()
    }

    /// True while the band is empty.
    pub fn is_empty(&self) -> bool {
        self.band.is_empty()
    }

    /// Absorb one batch (any order): the band of the band and the batch
    /// becomes the band, with identical hypercubes merged.
    pub fn apply(&mut self, batch: AuColumns) {
        self.band.append(batch);
        let (rows, mults): (Vec<usize>, Vec<Mult3>) = band_rows(&self.band, &self.order, self.k)
            .into_iter()
            .unzip();
        self.band = self.band.gather(&rows, &mults);
    }

    /// The rows [`TopKMaintain::result`] sorts, and the `k` it sorts them
    /// under.
    pub fn band(&self) -> (&AuColumns, u64) {
        (&self.band, self.k)
    }

    /// Current top-k output: the native top-k over the band, exactly
    /// bag-equal to a run over all accumulated rows.
    pub fn result(&self) -> AuColumns {
        sort_columns_native(&self.band, &self.order, &self.pos_name, Some(self.k), &())
    }
}

impl std::fmt::Debug for TopKMaintain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKMaintain")
            .field("rows", &self.band.len())
            .field("k", &self.k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::topk_native;
    use crate::window::{window_native, MaintainedWindow};
    use audb_core::{window_ref, AuRelation, CmpSemantics};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    /// Deterministic pseudo-random stream of rows with bounded order
    /// uncertainty: row `i` has order in `[10i − j, 10i + j]` with `j ≤ 4`
    /// (strictly in order between any split point).
    fn stream_rows(n: usize, seed: u64) -> Vec<(AuTuple, Mult3)> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| {
                let o = 10 * i as i64;
                let j = (step() % 5) as i64;
                let v = (step() % 100) as i64 - 50;
                let vj = (step() % 7) as i64;
                let mult = match step() % 4 {
                    0 => Mult3::new(0, 1, 1),
                    1 => Mult3::new(0, 0, 1),
                    _ => Mult3::ONE,
                };
                (
                    AuTuple::new([rv(o - j, o, o + j), rv(v - vj, v, v + vj)]),
                    mult,
                )
            })
            .collect()
    }

    fn rel_of(rows: &[(AuTuple, Mult3)]) -> AuRelation {
        AuRelation::from_rows(Schema::new(["o", "v"]), rows.iter().cloned())
    }

    #[test]
    fn batched_window_equals_one_shot_and_reference() {
        let rows = stream_rows(60, 7);
        let all = rel_of(&rows);
        for agg in [
            WinAgg::Sum(1),
            WinAgg::Count,
            WinAgg::Min(1),
            WinAgg::Max(1),
            WinAgg::Avg(1),
        ] {
            for (l, u) in [(-2i64, 0i64), (-1, 1), (0, 2), (-4, 0)] {
                let spec = AuWindowSpec::rows(vec![0], l, u);
                let mut m = MaintainedWindow::new(Schema::new(["o", "v"]), spec.clone(), agg, "x");
                // Feed in uneven batches.
                for chunk in rows.chunks(7) {
                    assert!(m.apply(rel_of(chunk).to_columns()).is_none());
                }
                let inc = m.result().to_rows();
                let one_shot = window_native(&all, &spec, agg, "x");
                assert!(
                    inc.bag_eq(&one_shot),
                    "agg={agg:?} l={l} u={u}\nincremental:\n{inc}\none-shot:\n{one_shot}"
                );
                let reference = window_ref(&all, &spec, agg, "x", CmpSemantics::IntervalLex);
                assert!(inc.bag_eq(&reference), "agg={agg:?} l={l} u={u}");
            }
        }
    }

    #[test]
    fn per_append_results_match_full_recompute() {
        let rows = stream_rows(40, 13);
        let spec = AuWindowSpec::rows(vec![0], -2, 0);
        let mut m =
            MaintainedWindow::new(Schema::new(["o", "v"]), spec.clone(), WinAgg::Sum(1), "x");
        let mut acc: Vec<(AuTuple, Mult3)> = Vec::new();
        for chunk in rows.chunks(3) {
            m.apply(rel_of(chunk).to_columns());
            acc.extend(chunk.iter().cloned());
            let inc = m.result().to_rows();
            let full = window_native(&rel_of(&acc), &spec, WinAgg::Sum(1), "x");
            assert!(
                inc.bag_eq(&full),
                "after {} rows\nincremental:\n{inc}\nfull:\n{full}",
                acc.len()
            );
        }
    }

    #[test]
    fn closed_rows_are_final() {
        let rows = stream_rows(50, 3);
        let spec = AuWindowSpec::rows(vec![0], -1, 1);
        let mut m = WindowMaintain::new(spec.clone(), WinAgg::Max(1));
        let mut snapshot: Vec<WindowRow> = Vec::new();
        for (batch, chunk) in rows.chunks(5).enumerate() {
            m.apply(&rel_of(chunk).to_columns(), batch as u32);
            // Previously closed rows never change.
            assert_eq!(&m.closed_rows()[..snapshot.len()], &snapshot[..]);
            snapshot = m.closed_rows().to_vec();
        }
        assert!(
            snapshot.len() >= 20,
            "most windows closed: {}",
            snapshot.len()
        );
    }

    /// A drained row is built from the batch its input row arrived in,
    /// however many batches later its window closes or it is drained:
    /// uneven batches, drained at uneven times, add up to the one-shot
    /// result over everything fed.
    #[test]
    fn rows_drained_late_are_built_from_their_own_batch() {
        let rows = stream_rows(90, 21);
        let all = rel_of(&rows);
        for (l, u) in [(-2i64, 0i64), (0, 3)] {
            let spec = AuWindowSpec::rows(vec![0], l, u);
            let mut m =
                MaintainedWindow::new(Schema::new(["o", "v"]), spec.clone(), WinAgg::Sum(1), "x");
            let mut drained = AuColumns::empty(Schema::new(["o", "v", "x"]));
            let mut fed = 0;
            for (batch, size) in [1usize, 13, 2, 2, 30, 5, 1, 36].into_iter().enumerate() {
                m.apply(rel_of(&rows[fed..fed + size]).to_columns());
                fed += size;
                // Windows closed two and three batches ago are drained now:
                // what a drain returns beside the open rows.
                if batch % 3 == 2 {
                    let (since, open) = m.drain();
                    let open: Vec<AuTuple> = (0..open.len()).map(|i| open.tuple(i)).collect();
                    let closed: Vec<usize> = (0..since.len())
                        .filter(|&i| !open.contains(&since.tuple(i)))
                        .collect();
                    let mults: Vec<Mult3> = closed.iter().map(|&i| since.mult(i)).collect();
                    drained.append(since.gather(&closed, &mults));
                }
            }
            assert_eq!(fed, rows.len());
            assert!(
                drained.len() > 20,
                "{} rows drained on the way",
                drained.len()
            );
            drained.append(m.drain().0);
            let streamed = drained.to_rows();
            let one_shot = window_native(&all, &spec, WinAgg::Sum(1), "x");
            assert!(
                streamed.bag_eq(&one_shot),
                "l={l} u={u}\nstreamed:\n{streamed}\none-shot:\n{one_shot}"
            );
            assert!(m.result().to_rows().bag_eq(&one_shot));
        }
    }

    #[test]
    fn frontier_rejects_out_of_order_batches() {
        let rows = stream_rows(20, 1);
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        let mut m = WindowMaintain::new(spec, WinAgg::Sum(1));
        m.apply(&rel_of(&rows[..10]).to_columns(), 0);
        let in_order = |rows: &[(AuTuple, Mult3)]| {
            let cols = rel_of(rows).to_columns();
            m.rows_in_order(&cols, &existing_rows(&cols))
        };
        assert!(in_order(&rows[10..]));
        // A row at an order position already covered overlaps the frontier.
        assert!(!in_order(&rows[..1]));
        assert!(!in_order(&[(
            AuTuple::new([rv(85, 95, 300), rv(0, 0, 0)]),
            Mult3::ONE
        )]));
    }

    #[test]
    fn partitioned_maintenance_with_churn() {
        let schema = Schema::new(["g", "o", "v"]);
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let mut m = MaintainedWindow::new(schema.clone(), spec.clone(), WinAgg::Sum(2), "s");
        let mut acc: Vec<(AuTuple, Mult3)> = Vec::new();
        // Partition g appears only from batch g onwards (churn).
        for b in 0..4i64 {
            let mut batch: Vec<(AuTuple, Mult3)> = Vec::new();
            for g in 0..=b {
                for i in 0..3i64 {
                    let o = b * 10 + i;
                    batch.push((
                        AuTuple::new([rv(g, g, g), rv(o, o, o + 1), rv(o + g, o + g, o + g)]),
                        if i == 2 {
                            Mult3::new(0, 1, 1)
                        } else {
                            Mult3::ONE
                        },
                    ));
                }
            }
            let batch_cols =
                AuRelation::from_rows(schema.clone(), batch.iter().cloned()).to_columns();
            assert!(m.apply(batch_cols).is_none());
            acc.extend(batch);
            let inc = m.result().to_rows();
            let full = window_native(
                &AuRelation::from_rows(schema.clone(), acc.iter().cloned()),
                &spec,
                WinAgg::Sum(2),
                "s",
            );
            assert!(inc.bag_eq(&full), "batch {b}\ninc:\n{inc}\nfull:\n{full}");
        }
        // A batch with an uncertain partition value is never in order: the
        // operator is fed everything again, and answers what it held.
        let before = m.result().to_rows();
        acc.push((
            AuTuple::new([rv(0, 0, 1), rv(999, 999, 999), rv(1, 1, 1)]),
            Mult3::ONE,
        ));
        let bad = AuRelation::from_rows(schema.clone(), acc[acc.len() - 1..].iter().cloned());
        let answered = m.apply(bad.to_columns()).expect("a rebuild");
        assert!(answered.to_rows().bag_eq(&before));
        let all = AuRelation::from_rows(schema, acc.iter().cloned());
        let full = window_native(&all, &spec, WinAgg::Sum(2), "s");
        assert!(m.result().to_rows().bag_eq(&full));
    }

    #[test]
    fn topk_maintenance_matches_full_run_any_order() {
        let schema = Schema::new(["a", "b"]);
        let mut rows: Vec<(AuTuple, Mult3)> = Vec::new();
        let mut x = 42u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..80 {
            let a = (step() % 60) as i64;
            let j = (step() % 6) as i64;
            let b = (step() % 30) as i64;
            let mult = match step() % 5 {
                0 => Mult3::new(0, 1, 1),
                1 => Mult3::new(1, 1, 2), // duplicate multiplicity
                _ => Mult3::ONE,
            };
            rows.push((AuTuple::new([rv(a - j, a, a + j), rv(b, b, b)]), mult));
        }
        for (k, band) in [(1u64, 21), (3, 23), (10, 34)] {
            let mut m = TopKMaintain::new(schema.clone(), vec![0, 1], k, "pos");
            let mut acc: Vec<(AuTuple, Mult3)> = Vec::new();
            // Appends arrive in arbitrary (generation) order.
            for chunk in rows.chunks(11) {
                m.apply(AuRelation::from_rows(schema.clone(), chunk.iter().cloned()).to_columns());
                acc.extend(chunk.iter().cloned());
                let inc = m.result().to_rows();
                let full = topk_native(
                    &AuRelation::from_rows(schema.clone(), acc.iter().cloned()),
                    &[0, 1],
                    k,
                    "pos",
                );
                assert!(
                    inc.bag_eq(&full),
                    "k={k} after {} rows\ninc:\n{inc}\nfull:\n{full}",
                    acc.len()
                );
            }
            // The pruned run really pruned (certain rows beyond the band).
            assert_eq!(m.len(), band, "k={k}");
        }
    }

    /// Identical hypercubes merge in the band however many times they are
    /// appended: the state stays one row, and the answer is the top-k of
    /// them all.
    #[test]
    fn a_repeated_row_stays_one_band_row() {
        let schema = Schema::new(["a"]);
        let one = AuRelation::from_rows(
            schema.clone(),
            [(
                AuTuple::new([RangeValue::certain(0i64)]),
                Mult3::new(0, 1, 1),
            )],
        )
        .to_columns();
        let mut m = TopKMaintain::new(schema, vec![0], 3, "pos");
        for _ in 0..5000 {
            m.apply(one.clone());
        }
        assert_eq!(m.len(), 1);
        let top = m.result().to_rows();
        let got: Vec<_> = (top.rows().iter())
            .map(|r| (r.tuple.get(1).as_i64_triple(), r.mult))
            .collect();
        let possible = Mult3::new(0, 1, 1);
        assert_eq!(
            got,
            [
                ((0, 0, 0), possible),
                ((1, 1, 1), possible),
                ((2, 2, 2), possible)
            ]
        );
    }

    /// The pool's rankings hold its survivors and one batch — or
    /// [`CHUNK`] arrivals — at a time: fed eight certain rows at a time,
    /// the rankings stay the size of the sweep band, not of the relation.
    #[test]
    fn the_pool_arena_is_the_sweep_band() {
        let mut rows = stream_rows(64, 9);
        rows.iter_mut().for_each(|(_, mult)| *mult = Mult3::ONE);
        let spec = AuWindowSpec::rows(vec![0], -2, 0);
        let mut m = WindowMaintain::new(spec, WinAgg::Sum(1));
        let mut ranked = 0;
        for (batch, chunk) in rows.chunks(8).enumerate() {
            let survivors = m.poss.len;
            m.apply(&rel_of(chunk).to_columns(), batch as u32);
            ranked = m.poss.slots.len();
            assert_eq!(ranked, survivors + chunk.len(), "batch {batch}");
        }
        assert!(ranked < 24, "band-sized rankings, got {ranked}");
    }
}
