//! The FROM-clause namespace of the SQL frontend: an immutable-once-read
//! [`Catalog`] of named tables, and the snapshot-swappable
//! [`SharedCatalog`] many concurrent sessions read through.
//!
//! What a name maps to is one `Arc`'d **table handle** ([`Table`]): an
//! immutable list of `Arc`'d [`Segment`]s, each one [`AuColumns`] together
//! with the [`TableStats`] swept over it (zones start at the segment's row
//! 0). Columns are the one stored form: they are built when a table
//! version is published — from the rows a caller registers or appends, or
//! handed over as columns already — and nothing is derived lazily
//! afterwards. `register` publishes one sealed segment holding the whole
//! relation. `append` publishes a new handle that shares every sealed
//! segment with the version it grew and owns a rebuilt *tail*: the open
//! appended segment (under [`SEGMENT_ROWS`] rows) copied, the batch pushed
//! onto it, the result swept. A tail that reaches [`SEGMENT_ROWS`] rows is
//! sealed and the next append starts a new one; the registered segment is
//! never copied or extended. So an append, the drop of the version it
//! supersedes and the scan of what it added cost the batch and the tail,
//! whatever the table's size — and a published segment is never mutated,
//! so a plan bound to an earlier version keeps reading exactly its rows.
//!
//! The catalog stores the handle and every [`crate::Plan`] scanning the
//! table holds the same one. A publication that replaces a table makes a
//! new handle; a table it does not touch keeps its handle across it.

use audb_core::{AuBatch, AuColumns, AuRelation, TableStats, ZONE_ROWS};
use audb_rel::Schema;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Rows at which an appended segment is sealed: the next append starts a
/// new one instead of copying it.
pub const SEGMENT_ROWS: usize = 4 * ZONE_ROWS;

/// One immutable run of a table's rows: their columns and the statistics
/// swept over exactly them, so zone `i` of the statistics is rows
/// `[i · ZONE_ROWS, (i + 1) · ZONE_ROWS)` of the columns.
#[derive(Debug)]
pub struct Segment {
    cols: AuColumns,
    stats: TableStats,
}

impl Segment {
    fn sweep(cols: AuColumns) -> Arc<Segment> {
        let stats = TableStats::of_columns(&cols);
        Arc::new(Segment { cols, stats })
    }

    /// The segment's rows.
    pub fn columns(&self) -> &AuColumns {
        &self.cols
    }

    /// Statistics of [`Segment::columns`].
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }
}

/// One version of one table (module docs): the registered segment first,
/// appended ones after it, only the last of which may be open. Immutable
/// once made — `append` publishes a new handle.
#[derive(Debug)]
pub struct Table {
    segments: Vec<Arc<Segment>>,
    rows: usize,
}

impl Table {
    /// A handle over `cols` as one sealed segment, swept now: by the
    /// publishing thread before it takes any catalog lock, or as a plan
    /// over a relation no catalog holds is built.
    pub(crate) fn sealed(cols: AuColumns) -> Arc<Table> {
        Arc::new(Table {
            rows: cols.len(),
            segments: vec![Segment::sweep(cols)],
        })
    }

    /// This version grown by a non-empty `batch` of its schema: every
    /// sealed segment shared, the tail rebuilt. The one append — a catalog
    /// publishes the result, a subscription that is never maintained keeps
    /// it to recompute over.
    pub(crate) fn appended(&self, batch: AuColumns) -> Arc<Table> {
        let rows = self.rows + batch.len();
        let (sealed, tail) = match self.segments.split_last() {
            Some((open, sealed)) if !sealed.is_empty() && open.cols.len() < SEGMENT_ROWS => {
                let mut tail = open.cols.clone();
                tail.append(batch);
                (sealed, tail)
            }
            _ => (&self.segments[..], batch),
        };
        let mut segments = Vec::with_capacity(sealed.len() + 1);
        segments.extend_from_slice(sealed);
        segments.push(Segment::sweep(tail));
        Arc::new(Table { segments, rows })
    }

    /// Attribute names.
    pub fn schema(&self) -> &Schema {
        self.segments[0].cols.schema()
    }

    /// Stored rows, over all segments.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The segments, in row order (never empty: the first is the
    /// registered relation, whatever its size).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Statistics zones over all segments.
    pub fn zone_count(&self) -> usize {
        self.segments.iter().map(|s| s.stats.zone_count()).sum()
    }

    /// The rows as batches of at most `size` rows, segment by segment: a
    /// batch never spans two, so the last batch of *each* segment may be
    /// short and [`AuBatch::index`] counts within the segment.
    pub fn batches(&self, size: usize) -> impl Iterator<Item = AuBatch<'_>> {
        self.segments.iter().flat_map(move |s| s.cols.batches(size))
    }

    /// Number of batches [`Table::batches`] yields.
    pub fn batch_count(&self, size: usize) -> usize {
        (self.segments.iter())
            .map(|s| s.cols.batch_count(size))
            .sum()
    }

    /// The rows as one [`AuColumns`]: the segment itself when there is one,
    /// else a copy of every segment's lanes end to end (never flagged
    /// normalized) — what an operator over the whole table pays once per
    /// execution, and what a caller at the API boundary that wants rows
    /// converts ([`AuColumns::to_rows`]).
    pub fn contiguous(&self) -> Cow<'_, AuColumns> {
        match &self.segments[..] {
            [only] => Cow::Borrowed(&only.cols),
            [first, rest @ ..] => {
                let mut all = first.cols.clone();
                for segment in rest {
                    all.append(segment.cols.clone());
                }
                Cow::Owned(all)
            }
            [] => unreachable!("a table has its registered segment"),
        }
    }
}

/// Named tables, shared cheaply behind [`Arc`]s. Names are case-sensitive
/// (quote mixed-case names in SQL as `"MyTable"`); lookups iterate in name
/// order, so catalog listings are deterministic.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a relation under a name; true iff it replaced a table of
    /// that name. The rows are transposed and their statistics (zone maps,
    /// [`TableStats`]) swept here, so binding and execution never do
    /// either.
    pub fn register(&mut self, name: impl Into<String>, rel: impl Into<Arc<AuRelation>>) -> bool {
        self.register_columns(name, rel.into().to_columns())
    }

    /// [`Catalog::register`] for a relation that is columns already.
    pub fn register_columns(&mut self, name: impl Into<String>, cols: AuColumns) -> bool {
        self.insert(name.into(), Table::sealed(cols))
    }

    /// Map `name` to a ready handle; true iff it replaced one.
    fn insert(&mut self, name: String, table: Arc<Table>) -> bool {
        self.tables.insert(name, table).is_some()
    }

    /// Remove a named table; true iff it was registered.
    pub fn deregister(&mut self, name: &str) -> bool {
        self.tables.remove(name).is_some()
    }

    /// The named table's handle — what the binder scans, so every plan
    /// over one published version shares it.
    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// `(name, table)` pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Table>)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// A catalog shared by many concurrent sessions, updated by **snapshot
/// publication**: readers take an [`Arc`]'d snapshot of the whole catalog
/// (one `Arc::clone` under a read lock — no lock is held while a query
/// binds or executes), and registration is copy-on-write (clone the
/// current [`Catalog`] — a map of table handles, so every table the
/// change does not name keeps its handle — apply the change, swap the
/// `Arc` and bump the version under the write lock). Everything that
/// touches data — transposing registered or appended rows, copying the
/// open tail for an append, sweeping a new segment's statistics — happens
/// *before* the write lock is taken; the lock covers the map clone and
/// the swap.
///
/// **Visibility rule:** a statement binds against the snapshot current at
/// `prepare` time and its plan pins the scanned table's handle behind an
/// `Arc`, so in-flight queries finish on their pinned version; a
/// `register` becomes visible to statements *prepared after* publication,
/// never to ones already running. Nothing blocks: readers never wait on
/// writers beyond the snapshot clone, writers never wait on running
/// queries.
///
/// Cloning a `SharedCatalog` shares the underlying catalog (that is the
/// point — many sessions, one namespace); [`SharedCatalog::snapshot`]
/// gives a private immutable view.
#[derive(Clone, Debug, Default)]
pub struct SharedCatalog {
    // (version, snapshot) swap together so a cache keyed on the version
    // can never observe a torn pair. The pair is only ever replaced whole,
    // by one assignment: a thread that panics while holding the lock
    // leaves a coherent value behind, so every access recovers a poisoned
    // lock (`PoisonError::into_inner`) instead of failing every later
    // request.
    current: Arc<RwLock<(u64, Arc<Catalog>)>>,
}

impl SharedCatalog {
    /// An empty shared catalog at version 0.
    pub fn new() -> Self {
        SharedCatalog::default()
    }

    /// Wrap an existing catalog as the initial snapshot.
    pub fn from_catalog(catalog: Catalog) -> Self {
        SharedCatalog {
            current: Arc::new(RwLock::new((0, Arc::new(catalog)))),
        }
    }

    /// The current snapshot. Callers hold it as long as they like; it
    /// never changes under them.
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.read().1)
    }

    /// The current snapshot together with its version (the pair is
    /// coherent — the plan cache keys on the version).
    pub fn snapshot_versioned(&self) -> (u64, Arc<Catalog>) {
        let guard = self.read();
        (guard.0, Arc::clone(&guard.1))
    }

    /// The current publication version: bumped by every
    /// [`SharedCatalog::register`] and [`SharedCatalog::deregister`] and by
    /// every [`SharedCatalog::append`] that adds rows (the plan cache drops
    /// its plans on it).
    pub fn version(&self) -> u64 {
        self.read().0
    }

    fn read(&self) -> RwLockReadGuard<'_, (u64, Arc<Catalog>)> {
        self.current.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, (u64, Arc<Catalog>)> {
        self.current.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// True iff two handles publish into the same underlying catalog.
    pub fn same_catalog(&self, other: &SharedCatalog) -> bool {
        Arc::ptr_eq(&self.current, &other.current)
    }

    /// Publish a new snapshot with `name` registered (copy-on-write: the
    /// table map is cloned, each table stays shared behind its `Arc`); true
    /// iff it replaced a table of that name.
    pub fn register(&self, name: impl Into<String>, rel: impl Into<Arc<AuRelation>>) -> bool {
        self.register_columns(name, rel.into().to_columns())
    }

    /// [`SharedCatalog::register`] for a relation that is columns already
    /// (what the CSV loader builds).
    pub fn register_columns(&self, name: impl Into<String>, cols: AuColumns) -> bool {
        let table = Table::sealed(cols);
        self.publish(|cat| cat.insert(name.into(), table))
    }

    /// Publish a new snapshot with `name` removed; true iff it was
    /// registered.
    pub fn deregister(&self, name: &str) -> bool {
        self.publish(|cat| cat.deregister(name))
    }

    fn publish<T>(&self, change: impl FnOnce(&mut Catalog) -> T) -> T {
        let mut guard = self.write();
        let mut next = (*guard.1).clone();
        let out = change(&mut next);
        *guard = (guard.0 + 1, Arc::new(next));
        out
    }

    /// Publish a new snapshot with `batch`'s rows appended to the named
    /// table — the ingest path of the served API. Copy-on-write like
    /// [`SharedCatalog::register`], at the cost of the batch and the open
    /// tail, not of the table (module docs): the snapshot `Arc` is
    /// swapped, and the version bump invalidates any [`crate::PlanCache`]
    /// keyed on it. In-flight queries keep their pinned pre-append
    /// version.
    ///
    /// Validation happens before anything is published: a failed append
    /// does **not** bump the version, and neither does an empty batch,
    /// which publishes nothing. Returns the table's total row count and
    /// the catalog version that holds it.
    ///
    /// The grown table is built from a snapshot, outside the write lock;
    /// under the lock the append only checks that `name` still maps to the
    /// handle it grew. If another publication replaced that handle in the
    /// meantime, the work is redone on the new one — no append is lost,
    /// and of any set of racing appends one always lands.
    pub fn append(
        &self,
        name: &str,
        batch: &AuRelation,
    ) -> Result<(usize, u64), CatalogAppendError> {
        self.append_columns(name, batch.to_columns())
    }

    /// [`SharedCatalog::append`] for a batch that is columns already.
    pub fn append_columns(
        &self,
        name: &str,
        batch: AuColumns,
    ) -> Result<(usize, u64), CatalogAppendError> {
        loop {
            let (version, snapshot) = self.snapshot_versioned();
            let Some(current) = snapshot.get(name) else {
                return Err(CatalogAppendError::UnknownTable {
                    name: name.to_string(),
                    known: snapshot.names().map(String::from).collect(),
                });
            };
            if current.schema() != batch.schema() {
                return Err(CatalogAppendError::SchemaMismatch {
                    table: name.to_string(),
                    expected: current.schema().to_string(),
                    got: batch.schema().to_string(),
                });
            }
            if batch.is_empty() {
                return Ok((current.len(), version));
            }
            let table = current.appended(batch.clone());

            let mut guard = self.write();
            if !(guard.1.get(name)).is_some_and(|now| Arc::ptr_eq(now, current)) {
                continue;
            }
            let mut next = (*guard.1).clone();
            next.insert(name.to_string(), Arc::clone(&table));
            *guard = (guard.0 + 1, Arc::new(next));
            return Ok((table.len(), guard.0));
        }
    }
}

/// An append could not be published (nothing changed, no version bump).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogAppendError {
    /// The named table is not registered.
    UnknownTable {
        /// The missing name.
        name: String,
        /// The catalog's registered names (for the error message).
        known: Vec<String>,
    },
    /// The appended rows carry a different schema than the table.
    SchemaMismatch {
        /// The table appended to.
        table: String,
        /// Display form of the table's schema.
        expected: String,
        /// Display form of the batch's schema.
        got: String,
    },
}

impl CatalogAppendError {
    /// A stable machine-readable tag, as used in the server's structured
    /// error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            CatalogAppendError::UnknownTable { .. } => "unknown_table",
            CatalogAppendError::SchemaMismatch { .. } => "schema_mismatch",
        }
    }
}

impl std::fmt::Display for CatalogAppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogAppendError::UnknownTable { name, known } => {
                write!(f, "unknown table {name:?}; registered: ")?;
                if known.is_empty() {
                    write!(f, "(none)")
                } else {
                    write!(f, "{}", known.join(", "))
                }
            }
            CatalogAppendError::SchemaMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "appended rows have schema {got}, but table {table:?} has schema {expected}"
            ),
        }
    }
}

impl std::error::Error for CatalogAppendError {}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_core::{AuTuple, Mult3, RangeValue};

    fn schema() -> Schema {
        Schema::new(["a"])
    }

    /// `a = from, from + 1, …` for `n` certain rows.
    fn rows(from: i64, n: usize) -> AuRelation {
        AuRelation::from_rows(
            schema(),
            (from..from + n as i64).map(|v| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE)),
        )
    }

    /// The values of `a` a handle holds, in stored order.
    fn values(table: &Table) -> Vec<i64> {
        let of = |cols: &AuColumns| -> Vec<i64> {
            (0..cols.len())
                .map(|i| cols.tuple(i).get(0).as_i64_triple().1)
                .collect()
        };
        let by_segment: Vec<i64> = (table.segments().iter())
            .flat_map(|s| of(s.columns()))
            .collect();
        assert_eq!(of(&table.contiguous()), by_segment);
        by_segment
    }

    #[test]
    fn shared_catalog_publishes_snapshots() {
        let shared = SharedCatalog::new();
        assert_eq!(shared.version(), 0);
        let before = shared.snapshot();

        assert!(!shared.register("t", AuRelation::empty(schema())));
        assert_eq!(shared.version(), 1);

        // The pre-registration snapshot is immutable — readers pinned to
        // it never see the new table.
        assert!(before.get("t").is_none());
        let after = shared.snapshot();
        assert!(after.get("t").unwrap().is_empty());

        // Re-registration reports the replacement; deregistration
        // publishes another snapshot; `after` is pinned.
        assert!(shared.register("t", rows(0, 1)));
        assert!(shared.deregister("t"));
        assert!(!shared.deregister("t"));
        assert_eq!(shared.version(), 4);
        assert!(after.get("t").is_some());
        assert!(shared.snapshot().get("t").is_none());

        // Clones share the catalog; from_catalog starts a fresh one.
        let clone = shared.clone();
        assert!(clone.same_catalog(&shared));
        clone.register("u", AuRelation::empty(Schema::new(["b"])));
        assert!(shared.snapshot().get("u").is_some());
        assert!(!SharedCatalog::from_catalog(Catalog::new()).same_catalog(&shared));
    }

    #[test]
    fn append_publishes_grown_snapshots_and_validates_first() {
        let shared = SharedCatalog::new();
        shared.register("t", rows(1, 1));
        assert_eq!(shared.version(), 1);
        let pinned = shared.snapshot();

        let batch = rows(2, 2);
        let (total, version) = shared.append("t", &batch).unwrap();
        assert_eq!((total, version), (3, 2));
        assert_eq!(values(shared.snapshot().get("t").unwrap()), [1, 2, 3]);
        // Pinned snapshots keep the pre-append version.
        assert_eq!(values(pinned.get("t").unwrap()), [1]);

        // Failed appends change nothing — not even the version.
        let miss = shared.append("nope", &batch).unwrap_err();
        assert_eq!(miss.kind(), "unknown_table");
        let bad = AuRelation::empty(Schema::new(["a", "b"]));
        let mismatch = shared.append("t", &bad).unwrap_err();
        assert_eq!(mismatch.kind(), "schema_mismatch");
        assert!(mismatch.to_string().contains("(a)"), "{mismatch}");
        assert_eq!(shared.version(), 2);
        assert_eq!(shared.snapshot().get("t").unwrap().len(), 3);
    }

    /// An empty batch is validated like any other and then publishes
    /// nothing: same handle, same version, no cached plan flushed.
    #[test]
    fn an_empty_batch_publishes_nothing() {
        let shared = SharedCatalog::new();
        shared.register("t", rows(0, 3));
        shared.append("t", &rows(3, 2)).unwrap();
        let before = shared.snapshot();

        let empty = AuRelation::empty(schema());
        assert_eq!(shared.append("t", &empty).unwrap(), (5, 2));
        assert_eq!(shared.version(), 2);
        assert!(Arc::ptr_eq(
            before.get("t").unwrap(),
            shared.snapshot().get("t").unwrap()
        ));
        // Validation still comes first.
        assert_eq!(
            shared.append("nope", &empty).unwrap_err().kind(),
            "unknown_table"
        );
        let other = AuRelation::empty(Schema::new(["b"]));
        assert_eq!(
            shared.append("t", &other).unwrap_err().kind(),
            "schema_mismatch"
        );
        assert_eq!(shared.version(), 2);
    }

    /// A segment is published with the sweep over exactly its rows — a
    /// snapshot's statistics always describe the rows it holds, zones
    /// counted from each segment's first row.
    #[test]
    fn stats_track_publication() {
        let shared = SharedCatalog::new();
        shared.register("t", rows(0, ZONE_ROWS + 2));
        let before = shared.snapshot();
        let t = before.get("t").unwrap();
        assert_eq!(
            (t.len(), t.segments().len(), t.zone_count()),
            (ZONE_ROWS + 2, 1, 2)
        );

        shared.append("t", &rows(-5, 3)).unwrap();
        let after = shared.snapshot();
        let t = after.get("t").unwrap();
        assert_eq!(
            (t.len(), t.segments().len(), t.zone_count()),
            (ZONE_ROWS + 5, 2, 3)
        );
        let tail = t.segments()[1].stats();
        assert_eq!(tail.rows, 3);
        let zone = &tail.cols[0].zones[0];
        assert_eq!(
            (zone.min_lb.as_i64(), zone.max_ub.as_i64()),
            (Some(-5), Some(-3))
        );
        // Every segment's block says the same of its own rows.
        for segment in t.segments() {
            assert_eq!(segment.stats(), &TableStats::of_columns(segment.columns()));
        }
        // The pinned pre-append snapshot keeps its own (still-accurate)
        // stats.
        assert_eq!(before.get("t").unwrap().zone_count(), 2);
        assert!(after.get("missing").is_none());
    }

    /// A publication makes a new handle for the table it names and for no
    /// other: `r` keeps its handle across every append to `w`.
    #[test]
    fn publication_keeps_untouched_table_handles() {
        let shared = SharedCatalog::new();
        shared.register("r", rows(1, 1));
        shared.register("w", rows(2, 1));
        let before = shared.snapshot();

        shared.append("w", &rows(3, 1)).unwrap();
        let after = shared.snapshot();
        assert!(Arc::ptr_eq(
            before.get("r").unwrap(),
            after.get("r").unwrap()
        ));
        // `w` is a new version: a new handle over the registered segment
        // and a tail of its own; the old version is what it was.
        let (w_old, w_new) = (before.get("w").unwrap(), after.get("w").unwrap());
        assert!(!Arc::ptr_eq(w_old, w_new));
        assert!(Arc::ptr_eq(&w_old.segments()[0], &w_new.segments()[0]));
        assert_eq!((values(w_old), values(w_new)), (vec![2], vec![2, 3]));
    }

    /// What an append shares and what it rebuilds, across the real seal:
    /// every segment but the last is the same object in consecutive
    /// versions, exactly one segment is new per append, the registered
    /// segment is the same object in every version, and an appended
    /// segment is copied only while it holds under `SEGMENT_ROWS` rows.
    #[test]
    fn appends_share_sealed_segments_and_rebuild_only_the_tail() {
        let shared = SharedCatalog::new();
        shared.register("t", rows(0, 10));
        let base = Arc::clone(&shared.snapshot().get("t").unwrap().segments()[0]);
        let mut next = 10i64;
        let mut versions = vec![shared.snapshot()];
        for batch in [
            1,
            64,
            SEGMENT_ROWS - 1,
            SEGMENT_ROWS,
            SEGMENT_ROWS + 1,
            1,
            1,
        ] {
            shared.append("t", &rows(next, batch)).unwrap();
            next += batch as i64;
            versions.push(shared.snapshot());
        }
        let lens = |snapshot: &Catalog| -> Vec<usize> {
            let table = snapshot.get("t").unwrap();
            table.segments().iter().map(|s| s.columns().len()).collect()
        };
        let s = SEGMENT_ROWS;
        assert_eq!(lens(&versions[1]), [10, 1]);
        assert_eq!(lens(&versions[2]), [10, 65]);
        assert_eq!(lens(&versions[3]), [10, s + 64], "the tail seals");
        assert_eq!(lens(&versions[4]), [10, s + 64, s], "sealed on arrival");
        assert_eq!(lens(&versions[5]), [10, s + 64, s, s + 1]);
        assert_eq!(lens(&versions[6]), [10, s + 64, s, s + 1, 1]);
        assert_eq!(lens(&versions[7]), [10, s + 64, s, s + 1, 2]);
        for pair in versions.windows(2) {
            let (old, new) = (pair[0].get("t").unwrap(), pair[1].get("t").unwrap());
            assert!(
                Arc::ptr_eq(&new.segments()[0], &base),
                "base is never copied"
            );
            let shared = (new.segments().iter())
                .filter(|s| old.segments().iter().any(|o| Arc::ptr_eq(o, s)))
                .count();
            assert_eq!(
                shared,
                new.segments().len() - 1,
                "one new segment per append"
            );
            // The sealed prefix is positionally the old version's.
            let sealed = new.segments().len() - 1;
            let kept = sealed.min(old.segments().len());
            for i in 0..kept.saturating_sub(1) {
                assert!(Arc::ptr_eq(&old.segments()[i], &new.segments()[i]));
            }
        }
        // Every version still holds exactly the rows it was published with.
        let mut expect = 10usize;
        for (snapshot, batch) in versions.iter().zip([0, 1, 64, s - 1, s, s + 1, 1, 1]) {
            expect += batch;
            let table = snapshot.get("t").unwrap();
            assert_eq!(table.len(), expect);
            assert_eq!(values(table), (0..expect as i64).collect::<Vec<_>>());
            assert_eq!(table.batches(1000).map(|b| b.len()).sum::<usize>(), expect);
            assert_eq!(table.batches(1000).count(), table.batch_count(1000));
        }
        // A concatenation is a copy, and never claims canonical form; the
        // one-segment table lends its segment.
        assert!(matches!(
            versions[0].get("t").unwrap().contiguous(),
            Cow::Borrowed(_)
        ));
        let whole = versions[7].get("t").unwrap().contiguous();
        assert!(matches!(whole, Cow::Owned(_)) && !whole.is_normalized());
    }

    /// A panic while the catalog lock is held (here: inside a publication's
    /// change, before anything was swapped) poisons the lock but not the
    /// value behind it — every later reader and writer carries on.
    #[test]
    fn a_panicking_publication_does_not_poison_the_catalog() {
        let shared = SharedCatalog::new();
        shared.register("t", rows(1, 1));

        let writer = shared.clone();
        let panicked = std::thread::spawn(move || {
            writer.publish(|_| panic!("publication failed half-way"));
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.current.is_poisoned());

        // Nothing was published, nothing is lost, nothing fails.
        assert_eq!(shared.version(), 1);
        assert_eq!(shared.snapshot().get("t").unwrap().len(), 1);
        assert_eq!(shared.snapshot_versioned().0, 1);
        shared.register("u", AuRelation::empty(schema()));
        assert_eq!(shared.append("t", &rows(2, 1)).unwrap(), (2, 3));
        assert!(shared.deregister("u"));
        assert_eq!(shared.version(), 4);
    }

    #[test]
    fn register_lookup_deregister() {
        let mut cat = Catalog::new();
        assert!(!cat.register("t", Arc::new(rows(0, 2))));
        assert_eq!(values(cat.get("t").unwrap()), [0, 1]);
        // Re-registering reports the replacement.
        assert!(cat.register_columns("t", rows(7, 1).to_columns()));
        assert_eq!(values(cat.get("t").unwrap()), [7]);
        assert_eq!(cat.names().collect::<Vec<_>>(), ["t"]);
        assert_eq!(
            cat.iter().map(|(n, t)| (n, t.len())).collect::<Vec<_>>(),
            [("t", 1)]
        );
        assert!(cat.deregister("t"));
        assert!(cat.is_empty() && cat.get("t").is_none());
    }
}
