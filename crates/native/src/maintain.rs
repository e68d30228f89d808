//! Incremental (append-only) maintenance of the one-pass window and top-k
//! operators.
//!
//! The sweep of [`crate::window::window_native`] is a *streaming* algorithm:
//! it consumes tuples in ascending position order and closes a window as
//! soon as no future tuple can possibly belong to it. Nothing about it
//! requires the whole relation up front — this module keeps the sweep
//! state ([`WindowMaintain`]) alive between batches so an appended row
//! costs `O(log n)` heap work instead of an `O(n log n)` recompute.
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
//! operator runs — `window_native` itself is the one-batch special case,
//! which keeps the two permanently in agreement.
//!
//! [`MaintainedWindow::in_order`] asks this per partition, as a `bool`: a
//! row with an uncertain PARTITION BY value may join every partition its
//! range overlaps, so its batch is never in order. Why a batch cannot be
//! absorbed — a frontier overlap to rebuild after, or an uncertain
//! partition value that stays in the data — is its caller's to tell, from
//! the batch.
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
//! `X` — and whoever wants the output gathers it from the input lanes,
//! extended by one aggregate column: the one-shot operator once, already
//! in its output order; [`MaintainedWindow`], which keeps the rows it was
//! fed, whenever it is asked. Items are indexed by arrival order, which is
//! `(τ↓, τ↑)`-ascending, so
//!
//! * the minimum `τ↓` over the open windows is the `τ↓` of the *oldest
//!   still-open item* — a cursor that only moves forward;
//! * the certain tuples form a `τ↓`-ordered deque: the range scan of
//!   `compBounds` binary-searches its start, eviction pops the front;
//! * the possible pool is the three-order connected heap of the paper. Its
//!   entries hold no [`Value`]: the heap compares words — `τ↑`, and the
//!   eight-byte prefixes of the `A↓` / `A↑` bounds ([`prefix_of`]) — and
//!   its order ([`HeapOrder`], passed per call because it reads the
//!   sweep's items) compares the bounds as values only where two prefixes
//!   tie. A scan runs through a scratch frontier the sweep owns
//!   ([`ConnectedHeap::sorted_iter_with`]).
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
//!
//! Within one window sweep the pool heap reuses its arena: a popped record's
//! slot goes on the free list and the next insert takes it, so the arena
//! holds the sweep band, not the relation. A sweep that is rebuilt (a
//! recompute fallback) is a new heap.

use crate::sort::{band_rows, positions, sort_columns_native};
use crate::window::{aggregate_column, partitions, ranged};
use crate::Stages;
use audb_conheap::{ConnectedHeap, HeapOrder};
use audb_core::{
    prefix_of, sg_ordered_inputs, sort_prefixes, AuColumns, AuTuple, AuWindowSpec, Corner,
    KeyArena, Mult3, RangeValue, WinAgg,
};
use audb_rel::ops::window::sliding_aggregate;
use audb_rel::{Schema, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

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
    /// Its window has closed for good.
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
/// `batch`-th batch fed, extended by its window's aggregate `x`. Whoever
/// wants the output gathers it from the input lanes — the one-shot
/// operator once, in its output order; [`MaintainedWindow`] when asked.
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

/// Pool payload: everything the three heap orders and the membership test
/// of `compBounds` read, copied out of the item — as words: the bounds of
/// the aggregated attribute are their prefixes ([`prefix_of`]), which
/// order them wherever they differ; the values stay with the item.
struct PoolItem {
    tlo: i64,
    thi: i64,
    id: usize,
    cert: bool,
    /// Prefix of `A↓`.
    alo: u64,
    /// Prefix of `A↑`.
    ahi: u64,
}

/// The pool's three orders — heap 0: `τ↑` ascending (eviction order);
/// heap 1: `A↓` ascending (min-k candidates); heap 2: `A↑` descending
/// (max-k candidates), each made total by the item id. The heap compares
/// their words — `τ↑` (a position: never negative), `A↓`'s prefix, `A↑`'s
/// prefix inverted — and asks `cmp` only where two tie, which reads the
/// bounds from the sweep's own items: the order borrows them, so the sweep
/// hands it to the heap per call. A type, so the heap's sifts inline it.
struct PoolOrder<'a>(&'a [Item]);

impl HeapOrder<PoolItem> for PoolOrder<'_> {
    const WORDS: bool = true;

    #[inline]
    fn word(&self, h: usize, p: &PoolItem) -> u64 {
        match h {
            0 => p.thi as u64,
            1 => p.alo,
            _ => !p.ahi,
        }
    }

    #[inline]
    fn cmp(&self, h: usize, a: &PoolItem, b: &PoolItem) -> Ordering {
        let attr = |p: &PoolItem| &self.0[p.id].attr;
        match h {
            0 => (a.thi, a.id).cmp(&(b.thi, b.id)),
            1 => attr(a).lb.cmp(&attr(b).lb).then(a.id.cmp(&b.id)),
            _ => attr(b).ub.cmp(&attr(a).ub).then(a.id.cmp(&b.id)),
        }
    }
}

/// Buffers `compBounds` fills per window, kept across windows.
#[derive(Default)]
struct Scratch {
    /// Frontier of the pool's sorted iteration.
    frontier: Vec<usize>,
    /// Items certainly in the window (self first).
    cert: Vec<usize>,
    /// Pool items picked by the min-k / max-k scan.
    picked: Vec<usize>,
}

/// Resumable partitionless window sweep (see the module docs).
///
/// `window_columns_native` runs one of these per partition with the whole
/// partition as a single batch; a subscription keeps it alive and feeds it
/// in-order batches. It holds no tuple: its output is [`WindowRow`]s.
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
    openw: BinaryHeap<Reverse<(i64, usize)>>,
    /// No item before this one is still open.
    oldest_open: usize,
    /// Certain items `(τ↓, τ↑, id)` in arrival (= `τ↓`) order.
    cert: VecDeque<(i64, i64, usize)>,
    /// Ordered per call, by a [`PoolOrder`] over `items`.
    poss: ConnectedHeap<PoolItem, ()>,
    scratch: Scratch,
    /// Closed (final) output rows, in close order.
    closed: Vec<WindowRow>,
    /// Only the windows of input rows below this one are opened.
    emit_below: u32,
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
    /// routed above this type (see [`MaintainedWindow`]).
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
            openw: BinaryHeap::new(),
            oldest_open: 0,
            cert: VecDeque::new(),
            poss: ConnectedHeap::with_order(3, 1024, ()),
            scratch: Scratch::default(),
            closed: Vec::new(),
            emit_below: u32::MAX,
            pool_sum: 0,
            pool_max: 0,
            sg_ids: Vec::new(),
            sg_vals: Vec::new(),
            sg_pending: 0,
            spec,
        }
    }

    /// Split rows accumulated so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True before the first non-empty batch.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Compute the windows of the input rows below `rows` only — a group's
    /// own rows, when the members after them only fill its windows.
    pub(crate) fn emitting_below(self, rows: u32) -> WindowMaintain {
        WindowMaintain {
            emit_below: rows,
            ..self
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

    /// Would `batch` be in order after the accumulated rows? (Trivially
    /// true while the state is empty — the first batch seeds the sweep.)
    pub fn batch_in_order(&self, batch: &AuColumns) -> bool {
        self.rows_in_order(batch, &existing_rows(batch))
    }

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
    /// caller checks [`WindowMaintain::batch_in_order`] first; feeding an
    /// out-of-order batch silently computes bounds for the wrong relation).
    pub fn apply(&mut self, cols: &AuColumns, batch: u32) {
        let normalized = cols.is_normalized();
        self.apply_rows(cols, batch, &existing_rows(cols), normalized, &());
    }

    /// [`WindowMaintain::apply`] over the rows `rows` of `cols` — one
    /// partition of a batch (`normalized`: they are distinct and
    /// zero-free) — reporting `"rank"`, `"items"`, `"selected-guess"` and
    /// `"sweep"` to `stages`.
    pub(crate) fn apply_rows<S: Stages>(
        &mut self,
        cols: &AuColumns,
        batch: u32,
        rows: &[usize],
        normalized: bool,
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
        // straight from the lanes.
        let first_new = self.items.len();
        let attr = self.agg.input_col().map(|c| cols.col(c));
        for p in &pos {
            self.items.push(Item {
                tlo: p.tau_lb as i64 + off_lb,
                thi: p.tau_ub as i64 + off_ub,
                attr: attr.map_or_else(
                    || RangeValue::certain(1i64),
                    |col| col.range_value(p.row as usize),
                ),
                cert: p.mult.lb >= 1,
                in_sg: p.mult.sg >= 1,
                dup: p.dup,
                closed: false,
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
        for t in first_new..self.items.len() {
            self.step(t);
        }
        stages.stage(at, "sweep");
    }

    /// Provisional output rows of the still-open windows (the rows that
    /// may change on a future append), in flush order: after
    /// [`WindowMaintain::closed_rows`] they complete the exact row order
    /// the one-shot sweep produces over the accumulated relation.
    pub fn open_rows(&self) -> Vec<WindowRow> {
        let provisional = self.provisional_sg();
        let mut open: Vec<(i64, usize)> = self.openw.iter().map(|w| w.0).collect();
        open.sort_unstable();
        let mut scratch = Scratch::default();
        open.into_iter()
            .map(|(_, sid)| self.window_row(sid, &provisional, &mut scratch))
            .collect()
    }

    /// Consume the sweep: the open windows close for good, in the order of
    /// [`WindowMaintain::open_rows`], and every output row is handed over.
    pub fn finish(mut self) -> Vec<WindowRow> {
        let provisional = self.provisional_sg();
        while let Some(Reverse((_, sid))) = self.openw.pop() {
            self.close(sid, &provisional);
        }
        self.closed
    }

    /// Advance the sweep over item `t` (arrival in global `(τ↓, τ↑)`
    /// order), closing every window no future tuple can possibly join.
    fn step(&mut self, t: usize) {
        let (it_tlo, it_thi, it_cert) = {
            let it = &self.items[t];
            (it.tlo, it.thi, it.cert)
        };
        let (l, u) = (self.spec.lower, self.spec.upper);
        while let Some(&Reverse((thi, sid))) = self.openw.peek() {
            if thi + u >= it_tlo {
                break;
            }
            self.openw.pop();
            self.items[sid].closed = true;
            while self.oldest_open < t && self.items[self.oldest_open].closed {
                self.oldest_open += 1;
            }
            let (stlo, sthi) = (self.items[sid].tlo, self.items[sid].thi);
            // Evict certain tuples below every range scan still to come:
            // `openw` pops in τ↑ order and arrivals lie beyond `s.τ↑ + u`, so
            // no window closing after `s` scans below `s.τ↑ + l`.
            while self.cert.front().is_some_and(|c| c.0 < sthi + l) {
                self.cert.pop_front();
            }
            debug_assert!(
                !self.items[sid].in_sg || self.items[sid].sg.is_some(),
                "sg value of a closing window must be final"
            );
            self.pool_sum += self.poss.len() as u64;
            self.pool_max = self.pool_max.max(self.poss.len());
            self.close(sid, &[]);
            // Evict pool tuples below every remaining window: the minimum
            // τ↓ over the windows still open (a later-closing window may
            // start earlier when position ranges are wide) is the oldest
            // open item's; the incoming tuple stands in when none is open.
            let open_tlo = if self.oldest_open < t {
                self.items[self.oldest_open].tlo
            } else {
                it_tlo
            };
            let watermark = open_tlo.min(stlo) + l;
            while self.poss.peek(0).is_some_and(|p| p.thi < watermark) {
                self.poss.pop_with(0, &PoolOrder(&self.items));
            }
        }
        // A window nobody reads is never opened: it never closes, and it
        // keeps no pool member from eviction.
        match self.items[t].row < self.emit_below {
            true => self.openw.push(Reverse((it_thi, t))),
            false => self.items[t].closed = true,
        }
        if it_cert {
            self.cert.push_back((it_tlo, it_thi, t));
        }
        let attr = &self.items[t].attr;
        let item = PoolItem {
            tlo: it_tlo,
            thi: it_thi,
            id: t,
            cert: it_cert,
            alo: prefix_of([&attr.lb]),
            ahi: prefix_of([&attr.ub]),
        };
        self.poss.insert_with(item, &PoolOrder(&self.items));
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
        let Scratch {
            frontier,
            cert,
            picked,
        } = scratch;

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
        let valid = |p: &&PoolItem| -> bool {
            let certainly = p.cert && p.tlo >= cs.0 && p.thi <= cs.1;
            p.id != id && !certainly && p.tlo <= ps.1 && p.thi >= ps.0
        };
        let cert_lb = || cert.iter().map(|&c| &items[c].attr.lb);
        let cert_ub = || cert.iter().map(|&c| &items[c].attr.ub);
        let order = PoolOrder(items);
        // The sign of a pool bound: its prefix against zero's, the value
        // where they tie.
        let zero = Value::Int(0);
        let zero_word = prefix_of([&zero]);
        let sign = |word: u64, v: &Value| word.cmp(&zero_word).then_with(|| v.cmp(&zero));

        let (xlo, xhi) = match self.agg {
            WinAgg::Sum(_) | WinAgg::Count => {
                let lo = sum(Value::Int(0), cert_lb());
                let hi = sum(Value::Int(0), cert_ub());
                // A frame already full of certain members takes nothing
                // from the pool (every window of certain data): no scan,
                // where each would walk its heap order to the first
                // candidate to stop there.
                if possn == 0 {
                    return clamped(lo, sg_raw, hi);
                }
                // min-k over the A↓-ordered component with the guaranteed
                // floor: the j = clamp(#negatives, q, possn) smallest lower
                // bounds (see audb_core::aggregate_window) — the scan stops
                // at the first candidate that is neither owed nor negative.
                picked.clear();
                for p in self
                    .poss
                    .sorted_iter_with(1, frontier, &order)
                    .filter(valid)
                {
                    let negative = || sign(p.alo, &items[p.id].attr.lb).is_lt();
                    if picked.len() == possn || (picked.len() >= q && !negative()) {
                        break;
                    }
                    picked.push(p.id);
                }
                let lo = sum(lo, picked.iter().map(|&p| &items[p].attr.lb));
                // max-k over the A↑-descending component, mirrored.
                picked.clear();
                for p in self
                    .poss
                    .sorted_iter_with(2, frontier, &order)
                    .filter(valid)
                {
                    let positive = || sign(p.ahi, &items[p.id].attr.ub).is_gt();
                    if picked.len() == possn || (picked.len() >= q && !positive()) {
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
                    if let Some(p) = self
                        .poss
                        .sorted_iter_with(2, frontier, &order)
                        .filter(valid)
                        .nth(q - 1)
                    {
                        hi = hi.min(items[p.id].attr.ub.clone());
                    }
                }
                let mut lo = cert_lb().min().expect("self").clone();
                if possn > 0 {
                    if let Some(p) = self.poss.sorted_iter_with(1, frontier, &order).find(valid) {
                        lo = lo.min(items[p.id].attr.lb.clone());
                    }
                }
                (lo, hi)
            }
            WinAgg::Max(_) => {
                let mut lo = cert_lb().max().expect("self").clone();
                if q >= 1 {
                    if let Some(p) = self
                        .poss
                        .sorted_iter_with(1, frontier, &order)
                        .filter(valid)
                        .nth(q - 1)
                    {
                        lo = lo.max(items[p.id].attr.lb.clone());
                    }
                }
                let mut hi = cert_ub().max().expect("self").clone();
                if possn > 0 {
                    if let Some(p) = self.poss.sorted_iter_with(2, frontier, &order).find(valid) {
                        hi = hi.max(items[p.id].attr.ub.clone());
                    }
                }
                (lo, hi)
            }
            WinAgg::Avg(_) => {
                let mut lo = cert_lb().min().expect("self").clone();
                let mut hi = cert_ub().max().expect("self").clone();
                if possn > 0 {
                    if let Some(p) = self.poss.sorted_iter_with(1, frontier, &order).find(valid) {
                        lo = lo.min(items[p.id].attr.lb.clone());
                    }
                    if let Some(p) = self.poss.sorted_iter_with(2, frontier, &order).find(valid) {
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

impl std::fmt::Debug for WindowMaintain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowMaintain")
            .field("rows", &self.items.len())
            .field("closed", &self.closed.len())
            .field("open", &self.openw.len())
            .field("pool_arena", &self.poss.arena_slots())
            .finish()
    }
}

/// The rows of `cols` that exist (`k↑ > 0`).
fn existing_rows(cols: &AuColumns) -> Vec<usize> {
    (0..cols.len())
        .filter(|&row| !cols.mult(row).is_zero())
        .collect()
}

/// Append maintenance of a (possibly partitioned) window query: routes
/// batches to per-partition [`WindowMaintain`] sweeps, creating sweeps for
/// partitions as they first appear (partition churn), and keeps the rows
/// fed — columns, batch after batch — to gather its output from when asked.
pub struct MaintainedWindow {
    spec: AuWindowSpec,
    inner: AuWindowSpec,
    agg: WinAgg,
    out_name: String,
    /// Every row fed; the batch numbered `b` starts at row `starts[b]`.
    fed: AuColumns,
    starts: Vec<usize>,
    /// Per-partition sweep + count of closed rows already drained, by the
    /// key of the partition value ([`partitions`]).
    parts: BTreeMap<Vec<u8>, (WindowMaintain, usize)>,
}

impl MaintainedWindow {
    /// Fresh state for `ω[l,u]_{f(A)→X; G; O}` over `schema`.
    pub fn new(
        schema: Schema,
        spec: AuWindowSpec,
        agg: WinAgg,
        out_name: &str,
    ) -> MaintainedWindow {
        let inner = AuWindowSpec {
            partition: Vec::new(),
            order: spec.order.clone(),
            lower: spec.lower,
            upper: spec.upper,
        };
        MaintainedWindow {
            inner,
            agg,
            out_name: out_name.to_string(),
            fed: AuColumns::empty(schema),
            starts: Vec::new(),
            parts: BTreeMap::new(),
            spec,
        }
    }

    /// Split rows accumulated across all partitions.
    pub fn len(&self) -> usize {
        self.parts.values().map(|(p, _)| p.len()).sum()
    }

    /// True before the first non-empty batch.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Can `batch` be absorbed incrementally: does every partition it
    /// touches receive its rows strictly after that partition's frontier?
    /// A row with an uncertain PARTITION BY value may join any partition
    /// its range overlaps: such a batch is never in order.
    pub fn in_order(&self, batch: &AuColumns) -> bool {
        (partitions(batch, &self.spec.partition).iter()).all(|(value, rows)| {
            !(rows.first()).is_some_and(|&row| ranged(batch, &self.spec.partition, row))
                && (self.parts.get(value)).is_none_or(|(sweep, _)| sweep.rows_in_order(batch, rows))
        })
    }

    /// Absorb one batch. The caller asked [`MaintainedWindow::in_order`]:
    /// a range PARTITION BY value would be swept as a partition of its own.
    pub fn apply(&mut self, batch: &AuColumns) {
        let parts = partitions(batch, &self.spec.partition);
        let number = self.starts.len() as u32;
        for (value, rows) in parts {
            let (sweep, _) = (self.parts.entry(value))
                .or_insert_with(|| (WindowMaintain::new(self.inner.clone(), self.agg), 0));
            sweep.apply_rows(batch, number, &rows, batch.is_normalized(), &());
        }
        self.starts.push(self.fed.len());
        self.fed.append(batch.clone());
    }

    /// The full current output over all partitions, in deterministic
    /// partition-key order: per partition the closed rows, then a
    /// non-destructive flush of the still-open windows. Unnormalized.
    pub fn result(&self) -> AuColumns {
        let open: Vec<Vec<WindowRow>> = self.parts.values().map(|(p, _)| p.open_rows()).collect();
        let rows = (self.parts.values().zip(&open))
            .flat_map(|((part, _), open)| part.closed_rows().iter().chain(open));
        self.gather(rows.collect())
    }

    /// [`MaintainedWindow::result`], consuming the sweeps: the open
    /// windows close for good.
    pub fn into_result(mut self) -> AuColumns {
        let parts = std::mem::take(&mut self.parts);
        let rows: Vec<WindowRow> = parts.into_values().flat_map(|(p, _)| p.finish()).collect();
        self.gather(rows.iter().collect())
    }

    /// Output rows closed (finalized) since the last drain, across all
    /// partitions in partition-key order.
    pub fn drain_new_closed(&mut self) -> AuColumns {
        let from: Vec<usize> = (self.parts.values_mut())
            .map(|(part, drained)| std::mem::replace(drained, part.closed_rows().len()))
            .collect();
        let rows = (self.parts.values().zip(from))
            .flat_map(|((part, _), from)| &part.closed_rows()[from..]);
        self.gather(rows.collect())
    }

    /// Provisional rows of every still-open window, across all partitions
    /// in partition-key order.
    pub fn open_result(&self) -> AuColumns {
        let rows: Vec<WindowRow> = self
            .parts
            .values()
            .flat_map(|(p, _)| p.open_rows())
            .collect();
        self.gather(rows.iter().collect())
    }

    /// The output rows `rows`: the fed lanes gathered at their input rows,
    /// extended by their aggregates.
    fn gather(&self, rows: Vec<&WindowRow>) -> AuColumns {
        let mut idxs = Vec::with_capacity(rows.len());
        let mut mults = [0; 3].map(|_| Vec::with_capacity(rows.len()));
        for r in &rows {
            idxs.push(self.starts[r.batch as usize] + r.row as usize);
            mults[0].push(r.mult.lb);
            mults[1].push(r.mult.sg);
            mults[2].push(r.mult.ub);
        }
        let x = aggregate_column(rows.iter().map(|r| &r.x));
        self.fed.gather_extended(&idxs, mults, &self.out_name, x)
    }
}

impl std::fmt::Debug for MaintainedWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainedWindow")
            .field("partitions", &self.parts.len())
            .field("rows", &self.len())
            .finish()
    }
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
    pub fn apply(&mut self, batch: &AuColumns) {
        self.band.append(batch.clone());
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
    use crate::window::window_native;
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
                    let batch = rel_of(chunk).to_columns();
                    assert!(m.in_order(&batch));
                    m.apply(&batch);
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
            m.apply(&rel_of(chunk).to_columns());
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
                m.apply(&rel_of(&rows[fed..fed + size]).to_columns());
                fed += size;
                // Windows closed two and three batches ago are drained now.
                if batch % 3 == 2 {
                    drained.append(m.drain_new_closed());
                }
            }
            assert_eq!(fed, rows.len());
            assert!(
                drained.len() > 20,
                "{} rows drained on the way",
                drained.len()
            );
            drained.append(m.drain_new_closed());
            drained.append(m.open_result());
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
        assert!(m.batch_in_order(&rel_of(&rows[10..]).to_columns()));
        // A row at an order position already covered overlaps the frontier.
        assert!(!m.batch_in_order(&rel_of(&rows[..1]).to_columns()));
        let overlap = vec![(AuTuple::new([rv(85, 95, 300), rv(0, 0, 0)]), Mult3::ONE)];
        assert!(!m.batch_in_order(&rel_of(&overlap).to_columns()));
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
            assert!(m.in_order(&batch_cols));
            m.apply(&batch_cols);
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
        // A batch with an uncertain partition value is never in order.
        let bad = AuRelation::from_rows(
            schema,
            [(
                AuTuple::new([rv(0, 0, 1), rv(999, 999, 999), rv(1, 1, 1)]),
                Mult3::ONE,
            )],
        );
        assert!(!m.in_order(&bad.to_columns()));
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
        for k in [1u64, 3, 10] {
            let mut m = TopKMaintain::new(schema.clone(), vec![0, 1], k, "pos");
            let mut acc: Vec<(AuTuple, Mult3)> = Vec::new();
            // Appends arrive in arbitrary (generation) order.
            for chunk in rows.chunks(11) {
                m.apply(&AuRelation::from_rows(schema.clone(), chunk.iter().cloned()).to_columns());
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
            assert!(m.len() == 80 || m.len() < 80);
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
            m.apply(&one);
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

    /// Within one sweep a popped pool record's slot goes on the free list
    /// and the next insert takes it: the arena's high-water mark is the
    /// sweep band, not the relation size.
    #[test]
    fn the_pool_arena_is_the_sweep_band() {
        let rows = stream_rows(64, 9);
        let spec = AuWindowSpec::rows(vec![0], -2, 0);
        let mut m = WindowMaintain::new(spec, WinAgg::Sum(1));
        m.apply(&rel_of(&rows).to_columns(), 0);
        let slots = m.poss.arena_slots();
        assert!(slots > 0 && slots < 64, "band-sized arena, got {slots}");
    }
}
