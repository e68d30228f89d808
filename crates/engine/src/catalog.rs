//! The FROM-clause namespace of the SQL frontend: an immutable-once-read
//! [`Catalog`] of named AU-relations, and the snapshot-swappable
//! [`SharedCatalog`] many concurrent sessions read through.
//!
//! What a name maps to is one `Arc`'d **table handle**: the rows as
//! registered, their [`TableStats`], and the columnar form
//! ([`AuColumns`]) the fused stages read. The catalog stores the handle
//! and every [`crate::Plan`] scanning the table holds the same one, so
//! the columnar form is built **at most once per (table, published
//! version)** — by the first fused stage that reads the source unchanged,
//! never at `register` / `append` — and is shared by every statement
//! bound to that version. A publication that replaces a table makes a new
//! handle (a plan can never observe another version's columns); a table
//! it does not touch keeps its handle, and its columns, across it.

use audb_core::{AuColumns, AuRelation, TableStats};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One version of one table: its rows, and the two derived forms every
/// plan over it shares. Immutable once made — `append` publishes a new
/// handle.
#[derive(Debug)]
pub(crate) struct Table {
    rows: Arc<AuRelation>,
    /// Forced at publication for a catalog's tables, so binding and
    /// optimization never scan the data; computed on first use for a
    /// handle no catalog made (`Query::scan(rel)`, `Plan::with_source`).
    stats: OnceLock<Arc<TableStats>>,
    /// The transposition of `rows`, built by the first fused stage that
    /// asks for it.
    cols: OnceLock<AuColumns>,
}

impl Table {
    /// A handle over `rows` with nothing derived yet.
    pub(crate) fn new(rows: Arc<AuRelation>) -> Arc<Table> {
        Arc::new(Table {
            rows,
            stats: OnceLock::new(),
            cols: OnceLock::new(),
        })
    }

    /// A handle ready for publication: its statistics are swept now — by
    /// the publishing thread, before it takes any catalog lock — not by
    /// the first statement.
    fn published(rows: Arc<AuRelation>) -> Arc<Table> {
        let table = Table::new(rows);
        table.stats();
        table
    }

    pub(crate) fn rows(&self) -> &Arc<AuRelation> {
        &self.rows
    }

    /// Column statistics of the rows: swept on first use — over the
    /// columnar form when it is already there — and kept.
    pub(crate) fn stats(&self) -> &Arc<TableStats> {
        self.stats.get_or_init(|| {
            Arc::new(match self.cols.get() {
                Some(cols) => TableStats::of_columns(cols),
                None => TableStats::of_relation(&self.rows),
            })
        })
    }

    /// The rows in columnar form, transposed on first use and kept for
    /// the handle's lifetime.
    pub(crate) fn columns(&self) -> &AuColumns {
        self.cols.get_or_init(|| self.rows.to_columns())
    }

    /// Has anything asked for [`Table::columns`] yet?
    #[cfg(test)]
    pub(crate) fn columns_built(&self) -> bool {
        self.cols.get().is_some()
    }
}

/// Named AU-relations, shared cheaply behind [`Arc`]s. Names are
/// case-sensitive (quote mixed-case names in SQL as `"MyTable"`); lookups
/// iterate in name order, so catalog listings are deterministic.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a relation under a name, replacing (and returning) any
    /// previous relation of that name. Column statistics (zone maps,
    /// certain fractions — [`TableStats`]) are computed eagerly here, so
    /// binding and optimization never scan the data to obtain them.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        rel: impl Into<Arc<AuRelation>>,
    ) -> Option<Arc<AuRelation>> {
        self.insert(name.into(), Table::published(rel.into()))
    }

    /// Map `name` to a ready handle, returning the relation it replaces.
    fn insert(&mut self, name: String, table: Arc<Table>) -> Option<Arc<AuRelation>> {
        self.tables
            .insert(name, table)
            .map(|old| Arc::clone(old.rows()))
    }

    /// Remove a named relation, returning it if it was registered.
    pub fn deregister(&mut self, name: &str) -> Option<Arc<AuRelation>> {
        self.tables.remove(name).map(|old| Arc::clone(old.rows()))
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Arc<AuRelation>> {
        self.tables.get(name).map(|t| t.rows())
    }

    /// The named table's handle — what the binder scans, so every plan
    /// over one published version shares its columnar form.
    pub(crate) fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// The statistics computed when the named relation was registered.
    pub fn stats(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.tables.get(name).map(|t| t.stats())
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// `(name, relation)` pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<AuRelation>)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t.rows()))
    }

    /// Number of registered relations.
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
/// change does not name keeps its handle and whatever columnar form it
/// has built — apply the change, swap the `Arc` and bump the version
/// under the write lock). Everything that scales with a table — copying
/// its rows for an append, sweeping its statistics — happens *before* the
/// write lock is taken; the lock covers the map clone and the swap.
///
/// **Visibility rule:** a statement binds against the snapshot current at
/// `prepare` time and its plan pins the scanned relation behind an `Arc`,
/// so in-flight queries finish on their pinned snapshot; a `register`
/// becomes visible to statements *prepared after* publication, never to
/// ones already running. Nothing blocks: readers never wait on writers
/// beyond the snapshot clone, writers never wait on running queries.
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

    /// The current publication version: bumped by every successful
    /// [`SharedCatalog::register`], [`SharedCatalog::deregister`] and
    /// [`SharedCatalog::append`] (the plan cache drops its plans on it).
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

    /// Publish a new snapshot with `name` registered (copy-on-write:
    /// the table map is cloned, each relation stays shared behind its
    /// `Arc`). Returns the replaced relation, if any.
    pub fn register(
        &self,
        name: impl Into<String>,
        rel: impl Into<Arc<AuRelation>>,
    ) -> Option<Arc<AuRelation>> {
        let table = Table::published(rel.into());
        self.publish(|cat| cat.insert(name.into(), table))
    }

    /// Publish a new snapshot with `name` removed, returning it if it was
    /// registered.
    pub fn deregister(&self, name: &str) -> Option<Arc<AuRelation>> {
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
    /// table — the ingest path of the streaming API. The append is
    /// copy-on-write like [`SharedCatalog::register`]: the table is cloned
    /// with the new rows, the snapshot `Arc` is swapped, and the version
    /// bump invalidates any [`crate::PlanCache`] keyed on it. In-flight
    /// queries keep their pinned pre-append relation.
    ///
    /// Validation happens before anything is published: a failed append
    /// does **not** bump the version. Returns the table's new total row
    /// count and the new catalog version.
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
        loop {
            let snapshot = self.snapshot();
            let Some(current) = snapshot.table(name) else {
                return Err(CatalogAppendError::UnknownTable {
                    name: name.to_string(),
                    known: snapshot.names().map(String::from).collect(),
                });
            };
            if current.rows().schema != batch.schema {
                return Err(CatalogAppendError::SchemaMismatch {
                    table: name.to_string(),
                    expected: current.rows().schema.to_string(),
                    got: batch.schema.to_string(),
                });
            }
            let mut grown = (**current.rows()).clone();
            for row in batch.rows() {
                grown.push(row.tuple.clone(), row.mult);
            }
            let total = grown.rows().len();
            let table = Table::published(Arc::new(grown));

            let mut guard = self.write();
            if !(guard.1.table(name)).is_some_and(|now| Arc::ptr_eq(now, current)) {
                continue;
            }
            let mut next = (*guard.1).clone();
            next.insert(name.to_string(), table);
            *guard = (guard.0 + 1, Arc::new(next));
            return Ok((total, guard.0));
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
    use audb_rel::Schema;

    #[test]
    fn shared_catalog_publishes_snapshots() {
        let shared = SharedCatalog::new();
        assert_eq!(shared.version(), 0);
        let before = shared.snapshot();

        let rel = Arc::new(AuRelation::empty(Schema::new(["a"])));
        shared.register("t", Arc::clone(&rel));
        assert_eq!(shared.version(), 1);

        // The pre-registration snapshot is immutable — readers pinned to
        // it never see the new table.
        assert!(before.get("t").is_none());
        let after = shared.snapshot();
        assert!(Arc::ptr_eq(after.get("t").unwrap(), &rel));

        // Deregistration publishes another snapshot; `after` is pinned.
        assert!(shared.deregister("t").is_some());
        assert_eq!(shared.version(), 2);
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
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("t", AuRelation::from_rows(schema.clone(), [row(1)]));
        assert_eq!(shared.version(), 1);
        let pinned = shared.snapshot();

        let batch = AuRelation::from_rows(schema.clone(), [row(2), row(3)]);
        let (total, version) = shared.append("t", &batch).unwrap();
        assert_eq!((total, version), (3, 2));
        assert_eq!(shared.snapshot().get("t").unwrap().rows().len(), 3);
        // Pinned snapshots keep the pre-append relation.
        assert_eq!(pinned.get("t").unwrap().rows().len(), 1);

        // Failed appends change nothing — not even the version.
        let miss = shared.append("nope", &batch).unwrap_err();
        assert_eq!(miss.kind(), "unknown_table");
        let bad = AuRelation::empty(Schema::new(["a", "b"]));
        let mismatch = shared.append("t", &bad).unwrap_err();
        assert_eq!(mismatch.kind(), "schema_mismatch");
        assert!(mismatch.to_string().contains("(a)"), "{mismatch}");
        assert_eq!(shared.version(), 2);
        assert_eq!(shared.snapshot().get("t").unwrap().rows().len(), 3);
    }

    /// Stats are computed at registration and recomputed when the append
    /// path re-registers the grown table — a snapshot's stats always
    /// describe the rows it holds.
    #[test]
    fn stats_track_publication() {
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("t", AuRelation::from_rows(schema.clone(), [row(1), row(2)]));
        let before = shared.snapshot();
        assert_eq!(before.stats("t").unwrap().rows, 2);

        let batch = AuRelation::from_rows(schema, [row(3)]);
        shared.append("t", &batch).unwrap();
        let after = shared.snapshot();
        assert_eq!(after.stats("t").unwrap().rows, 3);
        // The pinned pre-append snapshot keeps its own (still-accurate)
        // stats.
        assert_eq!(before.stats("t").unwrap().rows, 2);
        assert!(after.stats("missing").is_none());
    }

    /// A publication makes a new handle for the table it names and for no
    /// other: `r` keeps its handle — and the columnar form hanging off it
    /// — across every append to `w`.
    #[test]
    fn publication_keeps_untouched_table_handles() {
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("r", AuRelation::from_rows(schema.clone(), [row(1)]));
        shared.register("w", AuRelation::from_rows(schema.clone(), [row(2)]));
        let before = shared.snapshot();
        let r_cols: *const AuColumns = before.table("r").unwrap().columns();
        assert!(!before.table("w").unwrap().columns_built());

        shared
            .append("w", &AuRelation::from_rows(schema, [row(3)]))
            .unwrap();
        let after = shared.snapshot();
        assert!(Arc::ptr_eq(
            before.table("r").unwrap(),
            after.table("r").unwrap()
        ));
        assert!(std::ptr::eq(r_cols, after.table("r").unwrap().columns()));
        // `w` is a new version: new handle, nothing derived but its stats,
        // and the old version's columns are not reachable from it.
        let (w_old, w_new) = (before.table("w").unwrap(), after.table("w").unwrap());
        assert!(!Arc::ptr_eq(w_old, w_new));
        assert!(!w_new.columns_built());
        assert_eq!((w_old.columns().len(), w_new.columns().len()), (1, 2));
    }

    /// A panic while the catalog lock is held (here: inside a publication's
    /// change, before anything was swapped) poisons the lock but not the
    /// value behind it — every later reader and writer carries on.
    #[test]
    fn a_panicking_publication_does_not_poison_the_catalog() {
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("t", AuRelation::from_rows(schema.clone(), [row(1)]));

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
        shared.register("u", AuRelation::empty(schema.clone()));
        let batch = AuRelation::from_rows(schema, [row(2)]);
        assert_eq!(shared.append("t", &batch).unwrap(), (2, 3));
        assert!(shared.deregister("u").is_some());
        assert_eq!(shared.version(), 4);
    }

    #[test]
    fn register_lookup_deregister() {
        let mut cat = Catalog::new();
        let rel = Arc::new(AuRelation::empty(Schema::new(["a"])));
        assert!(cat.register("t", Arc::clone(&rel)).is_none());
        assert!(Arc::ptr_eq(cat.get("t").unwrap(), &rel));
        // Re-registering returns the replaced relation.
        let rel2 = AuRelation::empty(Schema::new(["b"]));
        let old = cat.register("t", rel2).unwrap();
        assert!(Arc::ptr_eq(&old, &rel));
        assert_eq!(cat.names().collect::<Vec<_>>(), ["t"]);
        assert!(cat.deregister("t").is_some());
        assert!(cat.is_empty() && cat.get("t").is_none());
    }
}
