//! One-pass ranged windowed aggregation (paper Algorithm 3, with the
//! `compBounds` family of Algorithms 4–6) over one `τ↑` order and two
//! rankings of the possible pool, where the paper keeps heaps.
//!
//! The input rows are first ranked by the sort sweep (`sort::positions`:
//! `τ` ranges per row, every entry's possible multiplicity is 1 — no sorted
//! relation is built), then swept in ascending `τ↓` order:
//!
//! * `by_thi` — every tuple in `(τ↑, id)` order, which is the order
//!   windows close in: a tuple `s` closes once the incoming `τ↓` exceeds
//!   `s.τ↑ + u` (no future tuple can possibly belong to its window). A
//!   close cursor walks it, and an eviction cursor behind it — the
//!   paper's open-window heap and the pool's `τ↑` heap.
//! * `cert` — the certain tuples (`k↓ ≥ 1`) in arrival order, which is
//!   `τ↓` order: a range scan over `τ↓ ∈ [s.τ↑ + l, s.τ↓ + u]` keeping
//!   `τ↑ ≤ s.τ↓ + u` yields exactly the tuples *certainly* in `s`'s window
//!   (Fig. 6). Tuples below every open window are evicted from the front.
//! * `poss` — the pool of possible members in two rankings, `A↓`
//!   ascending (min-k candidates) and `A↑` descending (max-k candidates),
//!   its members a bitset over their ranks. `compBounds` walks a ranking's
//!   members in order, skipping tuples that are certain members or outside
//!   `s`'s possible window, and takes at most `possn = size([l,u]) −
//!   |certain|` contributions — the min-k/max-k pools of Sec. 6.1.
//!
//! Two deviations from the paper's pseudocode, both strictly tighter and
//! needed for exact agreement with the Def. 3 reference
//! ([`audb_core::window_ref`]): pool scans filter candidates to tuples
//! actually overlapping `s`'s possible window, and eviction thresholds use
//! the minimum `τ↓` over *all* open windows rather than the closing
//! window's own `τ↓` (later-closing windows may start earlier when position
//! ranges are wide). Selected-guess components are the deterministic
//! window operator over the selected-guess world in the one order
//! [`audb_core::sg_ordered_inputs`] defines, shared with the reference.
//!
//! The copies of one input row (`k↑ > 1`) have no order between them: in a
//! world either may come first, so each takes the hull of the copies'
//! position ranges (`maintain`), which is the reference's rule that a copy
//! counts toward every other copy's possible position and never toward its
//! certain one.
//!
//! ## One operator, fed once or in batches
//!
//! `PARTITION BY` runs one sweep per partition value, an extension over
//! the paper's benchmarked configuration. A value that is a range is a
//! value of its own; its sweep runs over the rows whose value possibly
//! equals it, annotated by the truth of that equality — the `Q_part` join
//! of the rewrite (Fig. 8) —, and so does the sweep of every point value a
//! range possibly equals; only a group's own rows open windows, each under
//! its own annotation (`groups`). [`MaintainedWindow`] is the operator: it
//! routes a batch's rows to their groups, sweeps each group's share in
//! parallel (`audb_par`) with a resumable [`WindowMaintain`], and gathers
//! the output when asked. [`window_columns_native`] is it fed its input,
//! borrowed, once, so the one-shot operator and the incremental
//! maintenance cannot disagree. [`MaintainedWindow::apply`] routes a later
//! batch once and absorbs it if it is in order: each group it touches gets
//! its rows strictly after that group's frontier (`crate::maintain` says
//! why positions then decompose) and it touches no group a range shares.
//! Otherwise the operator is fed everything it holds and the batch, once,
//! afresh.
//!
//! ## Performance notes
//!
//! The sweep holds no tuple ([`crate::maintain`] describes its state). A
//! group no range shares sweeps its rows where they lie, an index view
//! over the batch, not a copy; a group a range shares gathers its members
//! under their filtered annotations. Partition values are ordered like
//! every key here: `(prefix, row)` pairs radix-sorted
//! ([`audb_core::sort_prefixes`]), key bytes encoded for the rows of one
//! prefix only — and of those, where the partition lanes are `i64`s and
//! the run's rows are certain and hold one word in each, for its first
//! row only: the run is one value.
//!
//! The first rows fed pick the sweeps' form ([`crate::maintain`]): words
//! for a `SUM`, `COUNT`, `MIN` or `MAX` over `i64` lanes — no `Value`
//! between the lanes and the output column —, `Value`s otherwise. A later
//! batch the words cannot hold switches the operator to `Value`s for good:
//! it is fed again what it was fed, which closes what the words closed,
//! and then the batch.
//!
//! ## One ranking, no tuple
//!
//! The output is normalized without a tuple being sorted — or built: its
//! canonical order ([`audb_core::canonical_order`], what `normalize` would
//! sort by) is taken from the prefixes of the lower-bound corner of the
//! *input* lanes ([`audb_core::PrefixReader`]); that corner is encoded only
//! for rows whose prefixes tie, and the aggregate and the other corners
//! only for rows that tie on the whole corner — split duplicates of one
//! hypercube, hypercubes equal on every lower bound — which merge when
//! equal throughout. The result is then the fed lanes gathered in that
//! order plus one aggregate column ([`AuColumns::gather_extended`]),
//! flagged normalized through [`AuColumns::assume_canonical`], which
//! checks the claim in debug builds. The kernel reports where each stage
//! ends to the [`Stages`] sink it is handed, a group's stages from the
//! worker that sweeps it. [`window_native`] is the door for a caller that
//! holds rows and wants rows: it transposes once each way.

use crate::maintain::{existing_rows, Unfit, WindowMaintain, WindowRow, Word};
use crate::Stages;
use audb_core::{
    canonical_order, sort_prefixes, AuColumns, AuRelation, AuTuple, AuWindowSpec, Corner, KeyArena,
    Lanes, Mult3, PrefixReader, WinAgg,
};
use audb_rel::{Schema, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// `ω[l,u]_{f(A)→X; G; O}(R)` — one-pass equivalent of
/// [`audb_core::window_ref`] — for a caller that holds rows and wants
/// rows: transposed here, once each way, around
/// [`window_columns_native`].
pub fn window_native(
    rel: &AuRelation,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
) -> AuRelation {
    // lint: allow(no-transpose-between-operators) -- the row door `benchmark/`'s bench-trace imports (ROADMAP item 5b removes it); no operator calls it
    let out = window_columns_native(&rel.to_columns(), spec, agg, out_name, &());
    // lint: allow(no-transpose-between-operators) -- the same door, on its way out
    out.to_rows()
}

/// `ω[l,u]_{f(A)→X; G; O}(R)` over a columnar relation: the one-pass
/// equivalent of [`audb_core::window_ref`], columns in and columns out —
/// a [`MaintainedWindow`] fed `cols`, borrowed, as its one batch.
/// Reports `"partition"`, then per group `"rank"`, `"items"`,
/// `"selected-guess"` and `"sweep"` — from the worker that sweeps it —
/// then `"order"` and `"materialise"` to `stages`.
pub fn window_columns_native<S: Stages>(
    cols: &AuColumns,
    spec: &AuWindowSpec,
    agg: WinAgg,
    out_name: &str,
    stages: &S,
) -> AuColumns {
    let mut window = MaintainedWindow::new(cols.schema().clone(), spec.clone(), agg, out_name);
    window.feed(Cow::Borrowed(cols), stages, true);
    window.output(false, true, stages)
}

/// Is row `row`'s value of the `partition` attributes a range?
fn ranged(cols: &AuColumns, partition: &[usize], row: usize) -> bool {
    partition.iter().any(|&g| !cols.col(g).certain_at(row))
}

/// `cols` as its groups read it: a group restores its own rows'
/// annotations from the input, which must hold them merged — where a
/// partition value is a range, identical rows stored apart are merged
/// first. The engine's output bound counts every merged multiplicity, so
/// none overflows.
fn merged<'c>(cols: Cow<'c, AuColumns>, partition: &[usize]) -> Cow<'c, AuColumns> {
    let ranges = (0..cols.len()).any(|r| ranged(&cols, partition, r) && !cols.mult(r).is_zero());
    match cols.is_normalized() || !ranges {
        true => cols,
        false => Cow::Owned(
            (cols.into_owned().normalize()).expect("multiplicities within the output bound"),
        ),
    }
}

/// The rows of `cols` that exist (`k↑ > 0`), one run per value of the
/// `partition` attributes: `(key of the value, row indices)` in value
/// order, stored order within — sorted by prefix, by key bytes only where
/// prefixes tie and the run is not one integer value. A range is a value of
/// its own, keyed by all its corners.
fn partitions(cols: &AuColumns, partition: &[usize]) -> Vec<(Vec<u8>, Vec<usize>)> {
    let rows = existing_rows(cols);
    // Without a PARTITION BY the rows are one run as they stand, and their
    // keys — all empty — are not compared (2 ms of an 8 192-row window went
    // into memcmp over nothing).
    if partition.is_empty() {
        return vec![(Vec::new(), rows)];
    }
    // Every sort is stable: stored order within a value.
    let prefix = PrefixReader::new(cols, Corner::Sg, partition);
    let mut refs: Vec<(u64, u32)> = (rows.iter().enumerate())
        .map(|(slot, &row)| (prefix.at(row), slot as u32))
        .collect();
    sort_prefixes(&mut refs);
    // Integer partition lanes: a run of certain rows that hold one word in
    // each is one value, keyed once.
    let words: Option<Vec<&[i64]>> = (partition.iter())
        .map(|&g| match Lanes::of(cols.col(g)) {
            Lanes::I64([_, sg, _]) => Some(sg),
            Lanes::Values(_) => None,
        })
        .collect();
    let mut parts = Vec::new();
    let mut keys = KeyArena::with_capacity(0, 0);
    for run in refs.chunk_by(|a, b| a.0 == b.0) {
        keys.clear();
        let first = rows[run[0].1 as usize];
        let one_value = words.as_ref().is_some_and(|lanes| {
            run.iter().all(|&(_, slot)| {
                let row = rows[slot as usize];
                !ranged(cols, partition, row) && lanes.iter().all(|lane| lane[row] == lane[first])
            })
        });
        if one_value {
            keys.push_corner_at(cols, first, Corner::Sg, partition);
            let members = run.iter().map(|&(_, slot)| rows[slot as usize]).collect();
            parts.push((keys.key(0).to_vec(), members));
            continue;
        }
        for &(_, slot) in run {
            let row = rows[slot as usize];
            keys.extend_corner_at(cols, row, Corner::Sg, partition);
            if ranged(cols, partition, row) {
                keys.extend_corner_at(cols, row, Corner::Lb, partition);
                keys.extend_corner_at(cols, row, Corner::Ub, partition);
            }
            keys.end_key();
        }
        let by_value = keys.sorted_slots();
        for value in by_value.chunk_by(|&a, &b| keys.key(a) == keys.key(b)) {
            let members = value.iter().map(|&at| rows[run[at].1 as usize]).collect();
            parts.push((keys.key(value[0]).to_vec(), members));
        }
    }
    parts
}

/// One group's share of a batch (`groups`): the key of its value, the
/// rows of the batch its sweep runs over — its own first — and, where
/// some of them are not its own or its value is a range, their
/// annotations there and how many of them are its own.
type Share = (Vec<u8>, Vec<usize>, Option<(Vec<Mult3>, usize)>);

/// One share per partition value of `cols` ([`partitions`]). While every
/// value is a point, a share is its value's rows. Otherwise a group's
/// members are the rows whose value possibly equals its own, annotations
/// filtered by the truth of that equality — `Q_part`'s range-overlap join,
/// filtered as [`audb_core::window_ref`] filters —; a point value no range
/// covers keeps its rows as they are.
fn groups(cols: &AuColumns, partition: &[usize]) -> Vec<Share> {
    let parts = partitions(cols, partition);
    let ranges: Vec<usize> = (0..parts.len())
        .filter(|&p| (parts[p].1.first()).is_some_and(|&row| ranged(cols, partition, row)))
        .collect();
    if ranges.is_empty() {
        return parts
            .into_iter()
            .map(|(key, rows)| (key, rows, None))
            .collect();
    }
    let values: Vec<AuTuple> = parts.iter().map(|(_, rows)| cols.tuple(rows[0])).collect();
    let all: Vec<usize> = (0..parts.len()).collect();
    let shares = (0..parts.len()).map(|p| {
        // Two points are equal or not; a range may equal anything.
        let range = ranges.binary_search(&p).is_ok();
        let others = if range { &all } else { &ranges };
        let (mut rows, mut mults) = (Vec::new(), Vec::new());
        for &q in std::iter::once(&p).chain(others.iter().filter(|&&q| q != p)) {
            let truth = values[q].eq_on(&values[p], partition);
            if truth.ub {
                rows.extend(&parts[q].1);
                mults.extend(parts[q].1.iter().map(|&r| cols.mult(r).filter(truth)));
            }
        }
        let own = parts[p].1.len();
        let filtered = (range || rows.len() > own).then_some((mults, own));
        (parts[p].0.clone(), rows, filtered)
    });
    shares.collect()
}

/// One partition value's sweep.
struct Group<W> {
    sweep: WindowMaintain<W>,
    /// Closed rows already drained.
    drained: usize,
    /// Where the sweep ran over gathered members (a [`Share`]'s filtered
    /// rows): the rows of its batch they are, its own first.
    members: Option<Vec<usize>>,
    /// The rows of its still-open windows, as of its last batch.
    open: Vec<WindowRow<W>>,
}

/// One sweep per partition value, by the value's key ([`partitions`]).
type Groups<W> = BTreeMap<Vec<u8>, Group<W>>;

/// The groups, every one in the form the first rows fed picked
/// ([`words_fit`]).
enum Sweeps {
    Words(Groups<i64>),
    Values(Groups<Value>),
}

/// `$body` over the groups of either form, bound to `$groups`.
macro_rules! each_form {
    ($sweeps:expr, $groups:ident => $body:expr) => {
        match $sweeps {
            Sweeps::Words($groups) => $body,
            Sweeps::Values($groups) => $body,
        }
    };
}

/// Does the word form hold `agg` over `batch`: an aggregate that stays an
/// integer, over `i64` lanes?
fn words_fit(agg: WinAgg, batch: &AuColumns) -> bool {
    let lanes = |c: usize| matches!(Lanes::of(batch.col(c)), Lanes::I64(_));
    !matches!(agg, WinAgg::Avg(_)) && agg.input_col().is_none_or(lanes)
}

/// A `ω[l,u]_{f(A)→X; G; O}` kept live under appended column batches
/// (module docs): per partition value a resumable [`WindowMaintain`],
/// created as its value first appears, and the rows fed — batch after
/// batch, or one batch borrowed — to gather its output from when asked.
pub struct MaintainedWindow<'a> {
    spec: AuWindowSpec,
    agg: WinAgg,
    out_name: String,
    /// Every row fed; the batch numbered `b` starts at row `starts[b]`.
    fed: Cow<'a, AuColumns>,
    starts: Vec<usize>,
    sweeps: Sweeps,
    /// The range values fed: a batch row whose value possibly equals one
    /// would join its group.
    ranges: Vec<AuTuple>,
}

impl<'a> MaintainedWindow<'a> {
    /// Fresh state for `ω[l,u]_{f(A)→X; G; O}` over `schema`.
    pub fn new(schema: Schema, spec: AuWindowSpec, agg: WinAgg, out_name: &str) -> Self {
        MaintainedWindow {
            spec,
            agg,
            out_name: out_name.to_string(),
            fed: Cow::Owned(AuColumns::empty(schema)),
            starts: Vec::new(),
            sweeps: Sweeps::Words(BTreeMap::new()),
            ranges: Vec::new(),
        }
    }

    /// Nothing fed, in the `Value` form if `values` or this is in it.
    fn fresh(&self, values: bool) -> Self {
        let schema = self.fed.schema().clone();
        let mut fresh = MaintainedWindow::new(schema, self.spec.clone(), self.agg, &self.out_name);
        if values || matches!(self.sweeps, Sweeps::Values(_)) {
            fresh.sweeps = Sweeps::Values(BTreeMap::new());
        }
        fresh
    }

    /// Absorb one batch if it is in order (module docs): trivially while
    /// nothing is fed; afterwards not where it holds a range value, or a
    /// point value that possibly equals a range value fed before, and only
    /// if every group it touches receives its rows strictly after that
    /// group's frontier. Then the answer is `None`. Otherwise the state is
    /// fed everything fed so far and `batch` afresh, as one batch, and the
    /// answer is the whole output before, as [`MaintainedWindow::result`]
    /// gave it. A batch the word form cannot hold hands the operator to the
    /// `Value` form, as either of these.
    pub fn apply(&mut self, batch: AuColumns) -> Option<AuColumns> {
        self.feed(Cow::Owned(batch), &(), false)
    }

    /// [`MaintainedWindow::apply`], the batch routed once, its shares swept
    /// in parallel — each group's own rows opening windows — and each
    /// group's sweep finished where it ran if `finish`: no batch follows.
    /// Reports `"partition"` and each group's stages.
    fn feed<S: Stages>(
        &mut self,
        batch: Cow<'a, AuColumns>,
        stages: &S,
        finish: bool,
    ) -> Option<AuColumns> {
        let at = stages.mark();
        let partition = &self.spec.partition;
        let batch = merged(batch, partition);
        let shares = groups(&batch, partition);
        stages.stage(at, "partition");
        if self.fed.is_empty() && !words_fit(self.agg, &batch) {
            self.sweeps = Sweeps::Values(BTreeMap::new());
        }
        let in_order = each_form!(&self.sweeps, groups => groups.is_empty()
        || (shares.iter()).all(|(value, rows, filtered)| {
            // Only a batch without a PARTITION BY has an empty share.
            let Some(&row) = rows.first() else {
                return true;
            };
            // A share is its value's rows as they are where no range
            // is among the batch's values.
            filtered.is_none()
                && (self.ranges.is_empty() || {
                    let point = batch.tuple(row);
                    !(self.ranges.iter()).any(|range| point.eq_on(range, partition).ub)
                })
                && (groups.get(value)).is_none_or(|g| g.sweep.rows_in_order(&batch, rows))
        }));
        if !in_order {
            let before = self.result();
            let fresh = self.fresh(false);
            let mut all = std::mem::replace(self, fresh).fed.into_owned();
            all.append(batch.into_owned());
            self.feed(Cow::Owned(all), stages, finish);
            return Some(before);
        }
        let number = self.starts.len() as u32;
        self.starts.push(self.fed.len());
        // `spec` without its partition: what each group's sweep runs.
        let inner = AuWindowSpec {
            partition: Vec::new(),
            ..self.spec.clone()
        };
        let agg = self.agg;
        // An `Err` leaves the sweeps spent: only what they drained is read.
        let swept: Result<(), Unfit> = each_form!(&mut self.sweeps, groups => {
            let swept: Vec<_> = (shares.iter())
                .map(|(key, ..)| {
                    let fresh = || Group {
                        sweep: WindowMaintain::new(inner.clone(), agg),
                        drained: 0,
                        members: None,
                        open: Vec::new(),
                    };
                    Mutex::new(groups.remove(key).unwrap_or_else(fresh))
                })
                .collect();
            let done = audb_par::par_map_indexed(&swept, |at, group| {
                let group = &mut *group.lock().expect("one worker per group");
                let (_, rows, filtered) = &shares[at];
                match filtered {
                    None => {
                        let (normalized, own) = (batch.is_normalized(), batch.len());
                        (group.sweep).apply_rows(&batch, number, rows, normalized, own, stages)?
                    }
                    Some((mults, own)) => {
                        let members = batch.gather(rows, mults);
                        let all = Vec::from_iter(0..members.len());
                        (group.sweep).apply_rows(&members, number, &all, true, *own, stages)?
                    }
                }
                group.open = match finish {
                    true => group.sweep.finish().map(|()| Vec::new())?,
                    false => group.sweep.open_rows()?,
                };
                Ok(())
            });
            for ((key, rows, filtered), group) in shares.into_iter().zip(swept) {
                let mut group = group.into_inner().expect("no worker panicked");
                if filtered.is_some() {
                    if ranged(&batch, partition, rows[0]) {
                        self.ranges.push(batch.tuple(rows[0]));
                    }
                    group.members = Some(rows);
                }
                groups.insert(key, group);
            }
            done.into_iter().collect()
        });
        if swept.is_err() {
            // A word sweep met what no word holds part way through the
            // batch: the `Value` form takes over, fed what was fed — which
            // closes the windows the words closed, in their order, and so
            // keeps what was drained of them — and then the batch, which
            // is as much in order for it.
            let words = std::mem::replace(self, self.fresh(true));
            if !words.fed.is_empty() {
                self.feed(words.fed, stages, false);
                if let (Sweeps::Words(old), Sweeps::Values(new)) = (&words.sweeps, &mut self.sweeps)
                {
                    for (key, group) in new {
                        group.drained = old.get(key).map_or(0, |old| old.drained);
                    }
                }
            }
            return self.feed(batch, stages, finish);
        }
        match self.fed.is_empty() {
            true => self.fed = batch,
            false => self.fed.to_mut().append(batch.into_owned()),
        }
        None
    }

    /// The whole current output, normalized: per group the closed rows,
    /// then the rows of the still-open windows.
    pub fn result(&self) -> AuColumns {
        self.output(false, true, &())
    }

    /// What may have changed since the last drain — the rows closed since,
    /// and the provisional rows of every still-open window — and those
    /// open rows alone, each normalized. No key is in both the closed and
    /// the open rows: the copies of one input row share their position
    /// range and close together.
    pub fn drain(&mut self) -> (AuColumns, AuColumns) {
        let since = self.output(true, true, &());
        each_form!(&mut self.sweeps, groups => for g in groups.values_mut() {
            g.drained = g.sweep.closed_rows().len();
        });
        (since, self.output(true, true, &()))
    }

    /// Every output row in close order: per group, in value order, the
    /// closed rows and then the rows of the windows still open.
    /// Unnormalized: the order [`MaintainedWindow::result`] normalizes
    /// without a sort.
    pub fn into_result(self) -> AuColumns {
        self.output(false, false, &())
    }

    /// Per group, in value order, its closed rows — those since the last
    /// drain, if `drained` — and then its open rows, in `canonical` order
    /// or in close order (see [`MaintainedWindow::gather`]).
    fn output<S: Stages>(&self, drained: bool, canonical: bool, stages: &S) -> AuColumns {
        each_form!(&self.sweeps, groups => {
            let rows = groups.values().flat_map(|g| {
                let closed = &g.sweep.closed_rows()[if drained { g.drained } else { 0 }..];
                (closed.iter().chain(&g.open)).map(|r| (g.members.as_deref(), r))
            });
            self.gather(rows, canonical, stages)
        })
    }

    /// The output rows `rows` — each with its group's members, if it
    /// gathered them — as the fed lanes gathered at their input rows under
    /// their own annotations, extended by their aggregates: in the order
    /// given, or in `canonical` order, merged as `normalize` would merge
    /// them (module docs). Reports `"order"` and `"materialise"`.
    fn gather<'r, W: Word, S: Stages>(
        &self,
        rows: impl Iterator<Item = (Option<&'r [usize]>, &'r WindowRow<W>)>,
        canonical: bool,
        stages: &S,
    ) -> AuColumns {
        let at = stages.mark();
        let cols = &*self.fed;
        let rows: Vec<(usize, Mult3, &[W; 3])> = (rows)
            .map(|(members, r)| {
                let start = self.starts[r.batch as usize];
                match members {
                    None => (start + r.row as usize, r.mult, &r.x),
                    Some(members) => {
                        let row = start + members[r.row as usize];
                        (row, cols.mult(row).copy(u64::from(r.dup)), &r.x)
                    }
                }
            })
            .collect();
        // The canonical order — what `normalize` would sort these rows into
        // — from the prefixes of the fed lanes' lower-bound corner; a
        // corner of the output row is that corner of the fed lanes, then of
        // the aggregate, encoded only for the rows that tie before it
        // (split duplicates of one hypercube, hypercubes equal on every
        // lower bound), which merge when equal throughout as they would
        // there.
        let order: Vec<(usize, Mult3)> = match canonical {
            false => rows.iter().enumerate().map(|(out, r)| (out, r.1)).collect(),
            true => {
                let all: Vec<usize> = (0..cols.arity()).collect();
                let prefix = PrefixReader::new(cols, Corner::Lb, &all);
                canonical_order(
                    rows.len(),
                    |out| rows[out].1,
                    |out| prefix.at(rows[out].0),
                    |keys, out, corner| {
                        let (row, _, x) = rows[out];
                        keys.extend_corner_at(cols, row, corner, &all);
                        // `Corner` counts `lb`, `sg`, `ub` as `x` holds them.
                        W::extend_key(keys, &x[corner as usize]);
                    },
                )
                .expect("split rows have k↑ = 1, and no more of them than a u64 counts")
            }
        };
        let at = stages.stage(at, "order");
        // The fed lanes in that order, and the aggregates as one column.
        let x = W::column(order.iter().map(|&(out, _)| rows[out].2));
        let mut idxs = Vec::with_capacity(order.len());
        let mut mults = [0; 3].map(|_| Vec::with_capacity(order.len()));
        for (out, mult) in order {
            idxs.push(rows[out].0);
            mults[0].push(mult.lb);
            mults[1].push(mult.sg);
            mults[2].push(mult.ub);
        }
        let rel = cols.gather_extended(&idxs, mults, &self.out_name, x);
        let rel = if canonical {
            rel.assume_canonical()
        } else {
            rel
        };
        stages.stage(at, "materialise");
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{window_ref, CmpSemantics, RangeValue};
    use audb_rel::{Schema, Value};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn small_rel() -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::new([rv(1, 1, 3), rv(5, 7, 7)]), Mult3::ONE),
                (AuTuple::new([rv(2, 2, 2), rv(-3, -3, -3)]), Mult3::ONE),
                (
                    AuTuple::new([rv(4, 5, 6), rv(10, 10, 12)]),
                    Mult3::new(0, 1, 1),
                ),
                (AuTuple::new([rv(8, 8, 8), rv(1, 2, 3)]), Mult3::ONE),
            ],
        )
    }

    #[test]
    fn matches_reference_on_small_relation() {
        for agg in [
            WinAgg::Sum(1),
            WinAgg::Count,
            WinAgg::Min(1),
            WinAgg::Max(1),
            WinAgg::Avg(1),
        ] {
            for (l, u) in [(0i64, 0i64), (-1, 0), (-2, 0), (-1, 1), (0, 2)] {
                let spec = AuWindowSpec::rows(vec![0], l, u);
                let native = window_native(&small_rel(), &spec, agg, "x");
                let reference =
                    window_ref(&small_rel(), &spec, agg, "x", CmpSemantics::IntervalLex);
                assert!(
                    native.bag_eq(&reference),
                    "agg={agg:?} l={l} u={u}\nnative:\n{native}\nreference:\n{reference}"
                );
            }
        }
    }

    /// Rows that tie on `τ_sg` — equal selected guesses on every
    /// attribute — are ordered by content, as `sg_ordered_inputs` says, not
    /// by arrival: `b` arrives first (fewer possible predecessors), `a`
    /// comes first (smaller lower bounds), and which of them is first
    /// decides whose selected-guess sum spans one row and whose two.
    #[test]
    fn tied_selected_guesses_are_ordered_by_content() {
        let rel = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            [
                (AuTuple::new([rv(4, 5, 6), rv(1, 2, 3)]), Mult3::ONE), // b
                (AuTuple::new([rv(0, 5, 9), rv(2, 2, 2)]), Mult3::ONE), // a
                (AuTuple::new([rv(7, 7, 7), rv(10, 10, 10)]), Mult3::ONE),
            ],
        );
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        let native = window_native(&rel, &spec, WinAgg::Sum(1), "x");
        let sg_of = |o_lb: i64| {
            let row = (native.rows().iter()).find(|r| r.tuple.get(0).lb == Value::Int(o_lb));
            row.expect("one row per input row").tuple.get(2).sg.clone()
        };
        assert_eq!((sg_of(0), sg_of(4)), (Value::Int(2), Value::Int(4)));
        let reference = window_ref(&rel, &spec, WinAgg::Sum(1), "x", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn certain_partition_by_splits_groups() {
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                (
                    AuTuple::new([rv(1, 1, 1), rv(1, 1, 2), rv(10, 10, 10)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(1, 1, 1), rv(2, 3, 3), rv(20, 20, 20)]),
                    Mult3::ONE,
                ),
                (
                    AuTuple::new([rv(2, 2, 2), rv(1, 1, 1), rv(100, 100, 100)]),
                    Mult3::ONE,
                ),
            ],
        );
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let native = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        let reference = window_ref(&rel, &spec, WinAgg::Sum(2), "s", CmpSemantics::IntervalLex);
        assert!(
            native.bag_eq(&reference),
            "native:\n{native}\nreference:\n{reference}"
        );
    }

    #[test]
    fn many_partitions_parallel_sweep_is_deterministic() {
        // 40 partitions × 6 rows; the parallel sweep must agree with the
        // reference and with itself under a forced single thread.
        let mut rows = Vec::new();
        for g in 0..40i64 {
            for o in 0..6i64 {
                let unc = (g + o) % 3 == 0;
                let (olo, ohi) = if unc { (o, o + 2) } else { (o, o) };
                rows.push((
                    AuTuple::new([
                        rv(g, g, g),
                        rv(olo, o, ohi),
                        rv(g * 10 + o, g * 10 + o, g * 10 + o + 1),
                    ]),
                    if unc { Mult3::new(0, 1, 1) } else { Mult3::ONE },
                ));
            }
        }
        let rel = AuRelation::from_rows(Schema::new(["g", "o", "v"]), rows);
        let spec = AuWindowSpec::rows(vec![1], -2, 0).partition_by(vec![0]);
        let native = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        let reference = window_ref(&rel, &spec, WinAgg::Sum(2), "s", CmpSemantics::IntervalLex);
        assert!(native.bag_eq(&reference));
        let again = window_native(&rel, &spec, WinAgg::Sum(2), "s");
        assert!(native.bag_eq(&again));
        assert_eq!(native.rows().len(), again.rows().len());
        for (a, b) in native.rows().iter().zip(again.rows()) {
            assert_eq!(a, b, "parallel sweep order must be deterministic");
        }
    }

    /// A range partition value is a group of its own, over the rows whose
    /// value possibly equals it; a point value's group takes in the ranges
    /// that cover it. Each row keeps its own annotation.
    #[test]
    fn uncertain_partition_values_match_reference() {
        let row =
            |g: RangeValue, o: i64, v: i64, m| (AuTuple::new([g, rv(o - 1, o, o), rv(v, v, v)]), m);
        let rel = AuRelation::from_rows(
            Schema::new(["g", "o", "v"]),
            [
                row(rv(1, 1, 2), 1, 5, Mult3::new(1, 1, 2)),
                row(rv(1, 1, 2), 3, 2, Mult3::ONE),
                row(rv(1, 1, 1), 2, 7, Mult3::ONE),
                row(rv(2, 2, 2), 1, 1, Mult3::new(0, 1, 1)),
                row(rv(3, 3, 3), 2, 9, Mult3::ONE),
            ],
        );
        for agg in [WinAgg::Sum(2), WinAgg::Count, WinAgg::Min(2)] {
            let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
            let native = window_native(&rel, &spec, agg, "x");
            let reference = window_ref(&rel, &spec, agg, "x", CmpSemantics::IntervalLex);
            assert!(
                native.bag_eq(&reference),
                "{agg:?}\nnative:\n{native}\nreference:\n{reference}"
            );
        }
    }

    /// Groups swept in parallel report their stages from their workers:
    /// the whole run's once, a group's once per group — and listening
    /// changes nothing in the output. Five groups: `g` = 0…3 and `[1, 2]`.
    #[test]
    fn a_parallel_window_reports_its_stages() {
        let row = |g, o| (AuTuple::new([g, rv(o, o, o + 1), rv(o, o, o)]), Mult3::ONE);
        let mut rows: Vec<_> = (0..32).map(|i| row(rv(i % 4, i % 4, i % 4), i)).collect();
        rows.push(row(rv(1, 1, 2), 7));
        let cols = AuRelation::from_rows(Schema::new(["g", "o", "v"]), rows).to_columns();
        let spec = AuWindowSpec::rows(vec![1], -1, 0).partition_by(vec![0]);
        let heard = std::sync::Mutex::default();
        let listened = window_columns_native(&cols, &spec, WinAgg::Sum(2), "x", &heard);
        let quiet = window_columns_native(&cols, &spec, WinAgg::Sum(2), "x", &());
        assert_eq!(format!("{listened:?}"), format!("{quiet:?}"));
        let names: Vec<&str> = heard.into_inner().unwrap();
        let count = |name| names.iter().filter(|&&n| n == name).count();
        for name in ["partition", "order", "materialise"] {
            assert_eq!(count(name), 1, "{name} in {names:?}");
        }
        for name in ["rank", "items", "selected-guess", "sweep"] {
            assert_eq!(count(name), 5, "{name} in {names:?}");
        }
    }

    /// The lanes pick the form, and nothing else does: an integer `SUM`,
    /// `COUNT`, `MIN` or `MAX` over `i64` lanes runs on words; `AVG`, an
    /// `f64` lane or a `Generic` one runs on `Value`s — `COUNT` reads no
    /// lane and runs on words over any.
    #[test]
    fn the_lanes_pick_the_form() {
        let floats = AuRelation::from_rows(
            Schema::new(["o", "v"]),
            (small_rel().rows().iter()).map(|r| {
                let v = r.tuple.get(1).as_i64_triple();
                let v = RangeValue::new(v.0 as f64 + 0.5, v.1 as f64 + 0.5, v.2 as f64 + 0.5);
                (AuTuple::new([r.tuple.get(0).clone(), v]), r.mult)
            }),
        );
        let ints = small_rel().to_columns();
        let (floats, generic) = (floats.to_columns(), ints.to_generic());
        assert!(matches!(Lanes::of(ints.col(1)), Lanes::I64(_)));
        assert!(matches!(Lanes::of(floats.col(1)), Lanes::Values(_)));
        let words = |cols: &AuColumns, agg| {
            let spec = AuWindowSpec::rows(vec![0], -1, 0);
            let mut window = MaintainedWindow::new(cols.schema().clone(), spec, agg, "x");
            assert!(window.feed(Cow::Borrowed(cols), &(), true).is_none());
            matches!(window.sweeps, Sweeps::Words(_))
        };
        for agg in [
            WinAgg::Sum(1),
            WinAgg::Count,
            WinAgg::Min(1),
            WinAgg::Max(1),
        ] {
            assert!(words(&ints, agg), "{agg:?}");
            assert_eq!(words(&floats, agg), agg == WinAgg::Count, "{agg:?}");
            assert_eq!(words(&generic, agg), agg == WinAgg::Count, "{agg:?}");
        }
        assert!(!words(&ints, WinAgg::Avg(1)));
    }

    #[test]
    fn certain_input_equals_deterministic() {
        use audb_rel::{window_rows, AggFunc, Relation, WindowSpec};
        let det = Relation::from_values(
            Schema::new(["o", "v"]),
            [[1i64, 4], [2, -2], [3, 9], [4, 0], [5, 7]],
        );
        let au = AuRelation::certain(&det);
        let spec = AuWindowSpec::rows(vec![0], -2, 0);
        let native = window_native(&au, &spec, WinAgg::Sum(1), "s");
        let dout = window_rows(
            &det,
            &WindowSpec::rows(vec![0], -2, 0),
            AggFunc::Sum(1),
            "s",
        );
        assert!(native.sg_world().bag_eq(&dout), "{native}\nvs\n{dout}");
        for row in native.rows() {
            assert!(row.tuple.get(2).is_certain());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let rel = AuRelation::empty(Schema::new(["o", "v"]));
        let spec = AuWindowSpec::rows(vec![0], -1, 0);
        assert!(window_native(&rel, &spec, WinAgg::Sum(1), "s").is_empty());
    }

    #[test]
    #[should_panic(expected = "current row")]
    fn window_must_contain_current_row() {
        let spec = AuWindowSpec::rows(vec![0], 1, 2);
        window_columns_native(&small_rel().to_columns(), &spec, WinAgg::Sum(1), "x", &());
    }
}
