//! A bounded, shared [`PlanCache`]: normalized-SQL → compiled plan, so a
//! server answering the same hot queries skips parse + bind entirely.
//!
//! Keying: entries are keyed on canonical SQL — the
//! [`Plan::to_sql`](crate::Plan::to_sql) of the *bound* plan — so two texts
//! that differ only in whitespace, optional semicolons, or other surface
//! syntax share one entry (the second text counts as a **hit**: its bind
//! work is done once, then the plan is found already cached). Two queries
//! over different tables can never collide (the table name is part of the
//! canonical text).
//!
//! Invalidation is per table. A plan reads exactly one table version — the
//! `Arc<Table>` it was bound to — so it is valid as long as that handle is
//! still the one its table's name maps to. The cache remembers the catalog
//! version it last checked its plans against; the first lookup at a newer
//! version drops exactly the plans whose table handle is no longer the
//! published one (`Arc::ptr_eq`), and keeps every other plan with its
//! aliases and LRU position. So an `append` to `w` drops the plans that
//! read `w` and none that read `r`; a plan can never serve stale data; and
//! a superseded table version (its tail; sealed segments live on in the
//! next version) is pinned by the cache no longer than until the next
//! lookup. (Statements already handed out keep executing on their pinned
//! snapshot.) A lookup that raced a publication and still holds an older
//! version compiles its plan and returns it without inserting.
//!
//! Answers: a plan reads one immutable table version, so every execution
//! of it returns the same bag. [`PlanCache::answer`] keeps a statement's
//! normalized answer in the statement itself — shared by every clone of
//! the [`Prepared`], the cached one included — when it is at most
//! [`MAX_ANSWER_BYTES`], and serves it from there on. A dropped plan takes
//! its answer with it.
//!
//! A raw-text alias map (`text as sent → canonical key`) fronts the
//! canonical map, so the common case — the *same* string arriving again —
//! is a single hash probe with no parsing at all. The alias key is the
//! text itself, less what surrounds the statement (outer whitespace, a
//! trailing `;`): nothing inside it is touched, because whitespace inside
//! a quoted literal is data. Formatting differences are the canonical
//! level's to unify, at one parse + bind per distinct text.
//!
//! Eviction is LRU at a fixed capacity. All state sits behind one
//! [`Mutex`]; compilation of a missing entry, execution of a missing
//! answer and the freeing of superseded plans happen *outside* the lock,
//! so neither a slow bind nor a large drop blocks other sessions' cache
//! hits.

use crate::catalog::{Catalog, SharedCatalog};
use crate::engine::Engine;
use crate::error::SessionError;
use crate::session::Prepared;
use audb_core::AuColumns;
use audb_sql::ast;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The largest answer a statement keeps, by [`AuColumns::heap_bytes`]: a
/// page of ≈ 1 000 ranked rows fits, and a full cache of
/// [`PlanCache::DEFAULT_CAPACITY`] statements holds at most 64 MiB of
/// answers. A larger answer is recomputed on every request.
pub const MAX_ANSWER_BYTES: usize = 256 << 10;

/// Cache key: canonical text, or the text as sent.
type Key = String;

/// Hit/miss counters plus occupancy, as surfaced in server responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (including normalized-equivalent
    /// texts whose plan was already resident).
    pub hits: u64,
    /// Lookups that compiled a fresh plan.
    pub misses: u64,
    /// Answers served from a statement's kept answer, not executed.
    pub answered: u64,
    /// Plans dropped at a publication because their table changed.
    pub dropped: u64,
    /// Plans currently resident (each reading the current version of its
    /// table, as of the last lookup).
    pub len: usize,
    /// Maximum resident plans before LRU eviction.
    pub capacity: usize,
}

/// One resident plan and the name of the table it reads.
#[derive(Debug)]
struct Entry {
    table: String,
    prepared: Prepared,
}

impl Entry {
    /// Is the table version this plan reads still the published one?
    fn is_current(&self, snapshot: &Catalog) -> bool {
        snapshot
            .get(&self.table)
            .is_some_and(|t| Arc::ptr_eq(t, self.prepared.plan().source_columns()))
    }
}

/// The resident plans, each valid at the cache's catalog version.
#[derive(Debug, Default)]
struct Entries {
    /// Canonical key → compiled plan.
    plans: HashMap<Key, Entry>,
    /// LRU order over `plans` keys: front = coldest, back = hottest.
    order: VecDeque<Key>,
    /// Raw-text fast path: text as sent → canonical key.
    aliases: HashMap<Key, Key>,
}

#[derive(Debug, Default)]
struct CacheState {
    /// Catalog version `entries` were last checked against.
    version: u64,
    entries: Entries,
    hits: u64,
    misses: u64,
    answered: u64,
    dropped: u64,
}

/// A bounded LRU of compiled plans keyed on normalized SQL; see the
/// module docs for the keying and invalidation rules. Share one per
/// engine/server (e.g. behind an `Arc`) and call
/// [`crate::Session::prepare_cached`] instead of `prepare`.
#[derive(Debug, Default)]
pub struct PlanCache {
    state: Mutex<CacheState>,
}

impl PlanCache {
    /// The bound: plenty for a dashboard-style workload of repeated
    /// statements, small enough that eviction is exercised in tests.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// The guarded state, recovered if a thread panicked while holding the
    /// lock: every mutation is a whole-value map or counter operation, so
    /// what a panic leaves behind is at worst a plan the LRU order or an
    /// alias no longer (or not yet) names — a colder cache, never a wrong
    /// plan — and one panicking request must not fail every later one.
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let s = self.lock();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            answered: s.answered,
            dropped: s.dropped,
            len: s.entries.plans.len(),
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Look up (or compile and insert) the plan for `sql` against the
    /// current snapshot of `catalog`. Returns the prepared statement and
    /// whether it was served from the cache.
    pub fn get_or_prepare(
        &self,
        catalog: &SharedCatalog,
        sql: &str,
    ) -> Result<(Prepared, bool), SessionError> {
        let (version, snapshot) = catalog.snapshot_versioned();
        self.get_or_prepare_at(version, &snapshot, sql)
    }

    /// [`PlanCache::get_or_prepare`] against one `(version, snapshot)`
    /// pair already read from the catalog.
    fn get_or_prepare_at(
        &self,
        version: u64,
        snapshot: &Catalog,
        sql: &str,
    ) -> Result<(Prepared, bool), SessionError> {
        let raw_key = as_sent(sql).to_string();

        let mut s = self.lock();
        let superseded = s.advance_to(version, snapshot);
        let hit = if s.version == version {
            s.entries.lookup(&raw_key)
        } else {
            None
        };
        s.hits += u64::from(hit.is_some());
        drop(s);
        // Superseded plans each pin a table version: free them with the
        // mutex released.
        drop(superseded);
        if let Some(prepared) = hit {
            return Ok((prepared, true));
        }

        // Miss on the fast path: parse + bind outside the lock. The
        // canonical key is rendered from the bound plan, so
        // normalized-equivalent texts share one entry.
        let stmt = audb_sql::parse(sql)?;
        let plan = crate::bind::compile(&stmt, snapshot)?;
        let table = root_table(&stmt);
        let canonical = plan.to_sql(table);
        let prepared = Prepared::from_plan(plan);

        let mut s = self.lock();
        if s.version != version {
            // The catalog moved on while this lookup held its snapshot:
            // the plan is right for the caller and dead to everyone else.
            s.misses += 1;
            return Ok((prepared, false));
        }
        s.entries.remember_alias(raw_key, canonical.clone());
        if let Some(existing) = s.entries.plans.get(&canonical) {
            // A normalized-equivalent text (or a racing thread) already
            // resident: reuse its plan, count the normalization hit.
            let existing = existing.prepared.clone();
            s.entries.touch(&canonical);
            s.hits += 1;
            return Ok((existing, true));
        }
        let entry = Entry {
            table: table.to_string(),
            prepared: prepared.clone(),
        };
        s.entries.plans.insert(canonical.clone(), entry);
        s.entries.order.push_back(canonical);
        s.misses += 1;
        while s.entries.plans.len() > Self::DEFAULT_CAPACITY {
            if let Some(coldest) = s.entries.order.pop_front() {
                s.entries.plans.remove(&coldest);
                s.entries.aliases.retain(|_, v| *v != coldest);
            }
        }
        Ok((prepared, false))
    }

    /// The normalized answer of `prepared` on `engine`: the answer the
    /// statement kept (counted in [`CacheStats::answered`]), or executed
    /// and normalized now, then kept if it is at most
    /// [`MAX_ANSWER_BYTES`]. Sound because the plan reads one immutable
    /// table version; the kept answer is tagged with the engine that
    /// computed it, and another engine executes. Execution runs outside
    /// the cache lock.
    pub fn answer<'p>(
        &self,
        engine: &Engine,
        prepared: &'p Prepared,
    ) -> Result<Cow<'p, AuColumns>, SessionError> {
        if let Some(kept) = prepared.kept_answer(engine) {
            self.lock().answered += 1;
            return Ok(Cow::Borrowed(kept));
        }
        let cols = engine.execute(prepared.plan())?.normalize()?;
        if cols.heap_bytes() > MAX_ANSWER_BYTES {
            return Ok(Cow::Owned(cols));
        }
        Ok(prepared.keep_answer(engine, cols))
    }
}

impl CacheState {
    /// Move the cache to a newer catalog version, handing back the plans
    /// whose table changed for the caller to drop outside the lock: each
    /// pins a superseded table version, and no lookup can hit it again.
    /// A `version` at or below the cache's leaves it untouched.
    fn advance_to(&mut self, version: u64, snapshot: &Catalog) -> Vec<Entry> {
        if version <= self.version {
            return Vec::new();
        }
        self.version = version;
        let stale = self.entries.drop_stale(snapshot);
        self.dropped += stale.len() as u64;
        stale
    }
}

impl Entries {
    /// The raw-text fast path: alias → canonical key → plan, touched.
    fn lookup(&mut self, raw: &Key) -> Option<Prepared> {
        let canonical = self.aliases.get(raw)?.clone();
        let prepared = self.plans.get(&canonical)?.prepared.clone();
        self.touch(&canonical);
        Some(prepared)
    }

    /// Take out every plan whose table version is no longer the one
    /// `snapshot` publishes, with its LRU position and aliases; the rest
    /// stay as they were.
    fn drop_stale(&mut self, snapshot: &Catalog) -> Vec<Entry> {
        let stale: Vec<Entry> = self
            .plans
            .extract_if(|_, entry| !entry.is_current(snapshot))
            .map(|(_, entry)| entry)
            .collect();
        if !stale.is_empty() {
            let plans = &self.plans;
            self.order.retain(|key| plans.contains_key(key));
            self.aliases.retain(|_, key| plans.contains_key(key));
        }
        stale
    }

    /// Move `key` to the hot end of the LRU order.
    fn touch(&mut self, key: &Key) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key.clone());
        }
    }

    fn remember_alias(&mut self, raw: Key, canonical: Key) {
        // The alias map is only a fast path; re-derivable, so bound it by
        // wholesale reset rather than its own LRU bookkeeping.
        if self.aliases.len() >= PlanCache::DEFAULT_CAPACITY * 4 {
            self.aliases.clear();
        }
        self.aliases.insert(raw, canonical);
    }
}

/// The statement text without what surrounds it: outer whitespace and a
/// trailing `;`. Interior whitespace stays — inside a quoted literal it is
/// part of the value (`'a  b'` is not `'a b'`).
fn as_sent(sql: &str) -> &str {
    sql.trim().trim_end_matches(';').trim_end()
}

/// The innermost FROM table: the scan the whole operator chain hangs off,
/// and the table name [`crate::Plan::to_sql`] needs to print.
fn root_table(stmt: &ast::Select) -> &str {
    match &stmt.from {
        ast::TableRef::Name(name) => name,
        ast::TableRef::Subquery(inner) => root_table(inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::session::Session;
    use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
    use audb_rel::Schema;

    fn rel(rows: i64) -> AuRelation {
        AuRelation::from_rows(
            Schema::new(["x"]),
            (0..rows).map(|i| (AuTuple::from([RangeValue::certain(i)]), Mult3::ONE)),
        )
    }

    fn session() -> Session {
        let s = Session::new(Engine::native());
        s.register("a", rel(3));
        s.register("b", rel(3));
        s
    }

    #[test]
    fn hits_on_identical_and_normalized_equivalent_sql() {
        let s = session();
        let cache = PlanCache::default();

        let (_, hit) = s
            .prepare_cached(&cache, "SELECT x FROM a WHERE x < 2")
            .unwrap();
        assert!(!hit);
        // Same text: raw-alias fast path.
        let (_, hit) = s
            .prepare_cached(&cache, "SELECT x FROM a WHERE x < 2")
            .unwrap();
        assert!(hit);
        // Whitespace / trailing-semicolon variants are one canonical text.
        let (_, hit) = s
            .prepare_cached(&cache, "  SELECT   x\nFROM a\tWHERE x < 2 ; ")
            .unwrap();
        assert!(hit);
        // A genuinely different surface form (same operator chain spelled
        // through a pass-through subquery) normalizes through the bound
        // plan's canonical SQL and still hits.
        let (_, hit) = s
            .prepare_cached(&cache, "SELECT x FROM (SELECT * FROM a WHERE x < 2)")
            .unwrap();
        assert!(hit, "normalized-equivalent text should hit");

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn no_cross_table_false_hits() {
        let s = session();
        let cache = PlanCache::default();
        let (pa, hit_a) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        let (pb, hit_b) = s.prepare_cached(&cache, "SELECT x FROM b").unwrap();
        assert!(
            !hit_a && !hit_b,
            "same shape over different tables must not collide"
        );
        assert!(!std::sync::Arc::ptr_eq(
            pa.plan().source_columns(),
            pb.plan().source_columns()
        ));
        assert_eq!(cache.stats().misses, 2);
    }

    /// Whitespace inside a quoted literal is data: two statements that
    /// differ only there are two plans, never an alias hit of one another.
    #[test]
    fn literals_differing_in_inner_whitespace_do_not_alias() {
        let s = Session::new(Engine::native());
        let named = |v: &str| {
            let name = RangeValue::certain(audb_rel::Value::str(v));
            (AuTuple::from([name]), Mult3::ONE)
        };
        let names = [named("a  b"), named("a b")];
        s.register("t", AuRelation::from_rows(Schema::new(["name"]), names));
        let cache = PlanCache::default();
        let run = |sql: &str| {
            let (prepared, hit) = s.prepare_cached(&cache, sql).unwrap();
            (s.execute(&prepared).unwrap().to_rows(), hit)
        };
        let (two_spaces, _) = run("SELECT * FROM t WHERE name = 'a  b'");
        let (one_space, hit) = run("SELECT * FROM t WHERE name = 'a b'");
        assert!(!hit, "a different literal is a different statement");
        assert_eq!((two_spaces.len(), one_space.len()), (1, 1));
        assert!(!two_spaces.bag_eq(&one_space));
        // What surrounds the statement is not part of it.
        assert!(run("  SELECT * FROM t WHERE name = 'a b' ;\n").1);
    }

    #[test]
    fn evicts_least_recently_used_at_capacity() {
        let s = session();
        let cache = PlanCache::default();
        let prepare = |x: usize| {
            let sql = format!("SELECT x FROM a WHERE x < {x}");
            s.prepare_cached(&cache, &sql).unwrap().1
        };
        (0..PlanCache::DEFAULT_CAPACITY).for_each(|x| assert!(!prepare(x)));
        // Touch the first so the second is coldest...
        assert!(prepare(0));
        // ...then one statement more evicts `x < 1`.
        assert!(!prepare(PlanCache::DEFAULT_CAPACITY));
        assert_eq!(cache.stats().len, PlanCache::DEFAULT_CAPACITY);
        assert!(prepare(0), "recently used entry should survive eviction");
        assert!(!prepare(1), "coldest entry should have been evicted");
    }

    #[test]
    fn registration_invalidates_by_version() {
        let s = session();
        let cache = PlanCache::default();
        let (p, _) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        assert_eq!(s.execute(&p).unwrap().len(), 3);

        s.register("a", rel(5));
        let (p2, hit) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        assert!(!hit, "version bump must invalidate cached plans");
        assert_eq!(s.execute(&p2).unwrap().len(), 5);
        // The old prepared statement still runs on its pinned snapshot.
        assert_eq!(s.execute(&p).unwrap().len(), 3);
    }

    /// An `append` drops exactly the plans of the appended table: the
    /// first lookup after it frees the plans that read `a`'s superseded
    /// version (they could never be hit again, and each pins it), keeps
    /// `b`'s plan with its answer, and a statement handed out before the
    /// append keeps executing on the snapshot it pinned.
    #[test]
    fn append_drops_superseded_plans_but_not_prepared_statements() {
        let s = session();
        let engine = *s.engine();
        let cache = PlanCache::default();
        let (before, _) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        s.prepare_cached(&cache, "SELECT x FROM a WHERE x < 2")
            .unwrap();
        let (of_b, _) = s.prepare_cached(&cache, "SELECT x FROM b").unwrap();
        let answer = cache.answer(&engine, &of_b).unwrap();
        assert!(matches!(answer, Cow::Borrowed(_)), "kept");
        assert_eq!((cache.stats().len, cache.stats().answered), (3, 0));
        let pinned = Arc::downgrade(before.plan().source_columns());

        s.shared_catalog().append("a", &rel(2)).unwrap();
        let (after, hit) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (2, 0, 4));
        assert_eq!(
            stats.dropped, 2,
            "both plans over `a`, not the one over `b`"
        );
        assert_eq!(s.execute(&after).unwrap().len(), 5);
        // The visibility rule: the in-flight statement still sees 3 rows…
        assert_eq!(s.execute(&before).unwrap().len(), 3);
        // …and is the only thing keeping the superseded table alive.
        drop(before);
        assert!(pinned.upgrade().is_none(), "cache still pins the old table");

        // `b`'s plan survived, its answer with it.
        let (again, hit) = s.prepare_cached(&cache, "SELECT x FROM b").unwrap();
        assert!(hit);
        assert_eq!(cache.answer(&engine, &again).unwrap().len(), 3);
        assert_eq!(cache.stats().answered, 1, "served from the kept answer");
    }

    /// Registering, re-registering and dropping tables drop the plans of
    /// exactly the tables named; a new table drops none.
    #[test]
    fn publications_drop_only_the_plans_of_their_table() {
        let s = session();
        let cache = PlanCache::default();
        let lookup = |sql: &str| s.prepare_cached(&cache, sql).unwrap().1;
        lookup("SELECT x FROM a");
        lookup("SELECT x FROM b");
        s.register("c", rel(1));
        assert!(lookup("SELECT x FROM a") && lookup("SELECT x FROM b"));
        assert_eq!(cache.stats().dropped, 0);

        s.register("b", rel(3));
        assert!(lookup("SELECT x FROM a"));
        assert!(!lookup("SELECT x FROM b"), "re-registered: a new version");
        s.deregister("a");
        assert!(s.prepare_cached(&cache, "SELECT x FROM a").is_err());
        assert!(lookup("SELECT x FROM b"));
        let stats = cache.stats();
        assert_eq!((stats.dropped, stats.len), (2, 1));
    }

    /// A statement's answer is computed once and served from then on by
    /// every clone of it; an answer past [`MAX_ANSWER_BYTES`] is computed
    /// every time, and a kept answer is served to its own engine only.
    #[test]
    fn answers_are_kept_once_under_the_bound_and_per_engine() {
        let s = session();
        s.register("big", rel(20_000));
        let engine = *s.engine();
        let cache = PlanCache::default();

        let (small, _) = s
            .prepare_cached(&cache, "SELECT x FROM a WHERE x < 2")
            .unwrap();
        let first = cache.answer(&engine, &small).unwrap();
        assert_eq!(cache.stats().answered, 0);
        let (clone, _) = s
            .prepare_cached(&cache, "SELECT x FROM a WHERE x < 2")
            .unwrap();
        let second = cache.answer(&engine, &clone).unwrap();
        assert_eq!(cache.stats().answered, 1, "a clone reads the kept answer");
        assert!(std::ptr::eq(&*first, &*second));
        assert!(first
            .to_rows()
            .bag_eq(&s.execute(&small).unwrap().to_rows()));

        let (big, _) = s.prepare_cached(&cache, "SELECT x FROM big").unwrap();
        for _ in 0..2 {
            let answer = cache.answer(&engine, &big).unwrap();
            assert!(answer.heap_bytes() > MAX_ANSWER_BYTES);
            assert!(matches!(answer, Cow::Owned(_)));
        }
        assert_eq!(cache.stats().answered, 1);

        let other = Engine::reference();
        let answer = cache.answer(&other, &small).unwrap();
        assert!(matches!(answer, Cow::Owned(_)));
        assert!(answer.to_rows().bag_eq(&first.to_rows()));
        assert_eq!(cache.stats().answered, 1);
    }

    /// A lookup that read the catalog before a publication and reaches
    /// the cache after a newer lookup already advanced it: it gets its
    /// plan (on its own snapshot) and leaves the cache alone.
    #[test]
    fn older_version_lookup_compiles_without_inserting() {
        let s = session();
        let cache = PlanCache::default();
        let (old_version, old_snapshot) = s.shared_catalog().snapshot_versioned();

        s.register("a", rel(5));
        s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        let resident = cache.stats();
        assert_eq!((resident.len, resident.misses), (1, 1));

        let sql = "SELECT x FROM a WHERE x < 2";
        for _ in 0..2 {
            let (p, hit) = cache
                .get_or_prepare_at(old_version, &old_snapshot, sql)
                .unwrap();
            assert!(!hit);
            assert_eq!(
                p.plan().source_columns().len(),
                3,
                "bound to its own snapshot"
            );
        }
        // Even the statement the cache holds is not served across versions.
        let (p, hit) = cache
            .get_or_prepare_at(old_version, &old_snapshot, "SELECT x FROM a")
            .unwrap();
        assert!(!hit);
        assert_eq!(p.plan().source_columns().len(), 3);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 0, 4));
        // The current version is undisturbed.
        let (_, hit) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        assert!(hit);
    }

    /// A nested statement is cached under the canonical key of its bound
    /// plan, and a publication that changes the table's statistics
    /// invalidates it through the version bump: the re-prepared plan reads
    /// the new handle's zone maps, never the stale ones.
    #[test]
    fn stats_change_invalidates_cached_plans() {
        let s = session();
        let cache = PlanCache::default();
        let sql = "SELECT * FROM (SELECT * FROM a ORDER BY x) WHERE x < 1";
        let max_ub = |p: &Prepared| {
            p.plan().source_columns().segments()[0].stats().cols[0].zones[0]
                .max_ub
                .clone()
        };

        let (p, hit) = s.prepare_cached(&cache, sql).unwrap();
        assert!(!hit);
        let (p2, hit) = s.prepare_cached(&cache, sql).unwrap();
        assert!(hit, "same version: the plan is served from cache");
        assert!(Arc::ptr_eq(
            p.plan().source_columns(),
            p2.plan().source_columns()
        ));
        assert_eq!(max_ub(&p2), audb_rel::Value::Int(2));

        // Republish `a` with an uncertain `x`: the version bump
        // invalidates the entry.
        s.register(
            "a",
            AuRelation::from_rows(
                Schema::new(["x"]),
                (0..3).map(|i| {
                    (
                        AuTuple::from([RangeValue::from_i64s(i, i, i + 1)]),
                        Mult3::ONE,
                    )
                }),
            ),
        );
        let (p3, hit) = s.prepare_cached(&cache, sql).unwrap();
        assert!(!hit, "stats change must invalidate via version bump");
        assert_eq!(max_ub(&p3), audb_rel::Value::Int(3));
        assert!(p3.plan().same_shape(p.plan()));
    }

    /// A panic while the cache lock is held poisons the lock but not the
    /// state behind it: later lookups hit, miss and count as before.
    #[test]
    fn a_panic_under_the_lock_does_not_poison_the_cache() {
        let s = session();
        let cache = std::sync::Arc::new(PlanCache::default());
        s.prepare_cached(&cache, "SELECT x FROM a").unwrap();

        let holder = std::sync::Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.state.lock().unwrap();
            panic!("request died holding the plan cache");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.state.is_poisoned());

        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 0, 1));
        let (_, hit) = s.prepare_cached(&cache, "SELECT x FROM a").unwrap();
        assert!(hit);
        let (_, hit) = s.prepare_cached(&cache, "SELECT x FROM b").unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().len, 2);
    }

    #[test]
    fn parse_and_bind_errors_are_not_cached() {
        let s = session();
        let cache = PlanCache::default();
        assert!(s.prepare_cached(&cache, "SELECT nope FROM a").is_err());
        assert!(s.prepare_cached(&cache, "SELEKT").is_err());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 0, 0));
    }
}
