//! # audb-conheap — connected heaps (paper Sec. 8.2)
//!
//! A **connected heap** is a set of `H` min-heaps that store pointers into a
//! shared arena of records; each record remembers its node position inside
//! every component heap (*back pointers*). Popping the root of one heap
//! therefore removes the record from all other heaps in `O(H · log n)`,
//! instead of the `O(n)` linear scan a collection of independent heaps
//! would need to even *find* the element.
//!
//! The paper's windowed-aggregation algorithm (Sec. 8.3) keeps the tuples
//! possibly belonging to a window simultaneously ordered by
//! `τ↑` (eviction order), `A↓` (min-k candidates) and `A↑` descending
//! (max-k candidates); the connected heap makes maintaining all three views
//! cheap. This crate is the structure of the preliminary experiment of
//! Sec. 8.2 (reproduced by `repro heaps`, which shows 1.7×–10× gains over
//! unconnected heaps); the native window sweep keeps no heap — it walks
//! one `τ↑` order and two rankings of its pool (`audb_native::maintain`).
//!
//! [`UnconnectedHeaps`] implements the baseline from that experiment:
//! identical API, but deletion from the non-popped heaps does a linear
//! search.
//!
//! ```
//! use audb_conheap::ConnectedHeap;
//! use std::cmp::Ordering;
//!
//! // Two orders over (a, b) pairs: heap 0 by a, heap 1 by b.
//! let mut h = ConnectedHeap::new(2, |which, x: &(i64, i64), y: &(i64, i64)| match which {
//!     0 => x.0.cmp(&y.0),
//!     _ => x.1.cmp(&y.1),
//! });
//! h.insert((1, 30));
//! h.insert((2, 10));
//! h.insert((3, 20));
//! assert_eq!(h.peek(0), Some(&(1, 30)));
//! assert_eq!(h.peek(1), Some(&(2, 10)));
//! // Popping from heap 0 removes the record everywhere.
//! assert_eq!(h.pop(0), Some((1, 30)));
//! assert_eq!(h.peek(1), Some(&(2, 10)));
//! assert_eq!(h.len(), 2);
//! ```

use std::cmp::Ordering;

/// Stable handle to a record stored in a [`ConnectedHeap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordId(usize);

/// A set of `H` min-heaps over one shared record arena with back pointers.
///
/// Back pointers live in **one flat stride-`H` vector** (`pos[rec * H + h]`
/// = node index of record `rec` inside component heap `h`) rather than a
/// `Vec<usize>` per record: inserting a record costs zero allocations once
/// the arena has warmed up (amortized one `Vec` growth each), and the
/// pointer updates in `sift_up`/`sift_down` hit one contiguous cache line
/// per record instead of chasing a heap-allocated side vector.
///
/// `cmp(h, a, b)` is a total order per component heap `h`.
pub struct ConnectedHeap<T, C> {
    payload: Vec<Option<T>>,
    /// Flat back pointers, stride `heaps.len()`.
    pos: Vec<usize>,
    free: Vec<usize>,
    /// Per component: heap position → record index.
    heaps: Vec<Vec<usize>>,
    len: usize,
    order: C,
}

impl<T, C> ConnectedHeap<T, C>
where
    C: Fn(usize, &T, &T) -> Ordering,
{
    /// Create a connected heap with `h` component orders.
    pub fn new(h: usize, cmp: C) -> Self {
        Self::with_capacity(h, 0, cmp)
    }

    /// Create with capacity for `cap` simultaneous records (no further
    /// allocation until the live count first exceeds `cap`).
    pub fn with_capacity(h: usize, cap: usize, cmp: C) -> Self {
        assert!(h >= 1, "need at least one component heap");
        ConnectedHeap {
            payload: Vec::with_capacity(cap),
            pos: Vec::with_capacity(cap * h),
            free: Vec::with_capacity(cap),
            heaps: vec![Vec::with_capacity(cap); h],
            len: 0,
            order: cmp,
        }
    }

    /// Number of component heaps `H`.
    pub fn components(&self) -> usize {
        self.heaps.len()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest element of component heap `h` in `O(1)`.
    pub fn peek(&self, h: usize) -> Option<&T> {
        self.heaps[h].first().map(|&rec| self.payload(rec))
    }

    /// Borrow a record by id.
    pub fn get(&self, id: RecordId) -> Option<&T> {
        self.payload.get(id.0).and_then(|s| s.as_ref())
    }

    fn payload(&self, rec: usize) -> &T {
        self.payload[rec].as_ref().expect("live record")
    }

    #[inline]
    fn pos_of(&self, rec: usize, h: usize) -> usize {
        self.pos[rec * self.heaps.len() + h]
    }

    /// Component `h`, borrowed apart from the rest of the heap — what a
    /// sift moves through — and the order it sifts by.
    #[inline]
    fn component(&mut self, h: usize) -> (Component<'_, T>, &C) {
        let component = Component {
            h,
            stride: self.heaps.len(),
            nodes: &mut self.heaps[h],
            pos: &mut self.pos,
            payload: &self.payload,
        };
        (component, &self.order)
    }

    /// Insert a record into every component heap in `O(H log n)` — and
    /// zero allocations when a freed arena slot is available.
    pub fn insert(&mut self, item: T) -> RecordId {
        let hn = self.heaps.len();
        let rec = match self.free.pop() {
            Some(i) => {
                self.payload[i] = Some(item);
                i
            }
            None => {
                self.payload.push(Some(item));
                self.pos.resize(self.payload.len() * hn, usize::MAX);
                self.payload.len() - 1
            }
        };
        for h in 0..hn {
            let at = self.heaps[h].len();
            self.heaps[h].push(rec);
            self.pos[rec * hn + h] = at;
            let (mut component, order) = self.component(h);
            component.sift_up(order, at);
        }
        self.len += 1;
        RecordId(rec)
    }

    /// Pop the root of component heap `h`, removing the record from every
    /// other heap via its back pointers (`O(H log n)`).
    pub fn pop(&mut self, h: usize) -> Option<T> {
        let &rec = self.heaps[h].first()?;
        self.remove_live(rec)
    }

    /// Remove a specific record from all heaps.
    pub fn remove(&mut self, id: RecordId) -> Option<T> {
        self.get(id)?;
        self.remove_live(id.0)
    }

    fn remove_live(&mut self, rec: usize) -> Option<T> {
        for h in 0..self.heaps.len() {
            let at = self.pos_of(rec, h);
            debug_assert!(self.heaps[h][at] == rec);
            let last = self.heaps[h].len() - 1;
            self.component(h).0.swap(at, last);
            self.heaps[h].pop();
            if at < last {
                // The replacement may violate the heap property either
                // upward or downward (never both; see paper Sec. 8.2).
                let (mut component, order) = self.component(h);
                component.sift_down(order, at);
                component.sift_up(order, at);
            }
        }
        self.len -= 1;
        self.free.push(rec);
        self.payload[rec].take()
    }

    /// Iterate component heap `h` in sorted order without disturbing the
    /// structure. Allocates a fresh frontier per call; loops that scan a
    /// component again and again use [`ConnectedHeap::sorted_iter_in`].
    pub fn sorted_iter(&self, h: usize) -> SortedIter<'_, T, C> {
        self.sorted_iter_through(h, Vec::new())
    }

    /// [`ConnectedHeap::sorted_iter`] through a caller-owned scratch buffer
    /// (cleared first; its capacity is reused, so a warmed-up buffer makes
    /// the scan allocation-free).
    pub fn sorted_iter_in<'a>(
        &'a self,
        h: usize,
        scratch: &'a mut Vec<usize>,
    ) -> SortedIter<'a, T, C, &'a mut Vec<usize>> {
        self.sorted_iter_through(h, scratch)
    }

    fn sorted_iter_through<S: AsMut<Vec<usize>>>(
        &self,
        h: usize,
        mut frontier: S,
    ) -> SortedIter<'_, T, C, S> {
        let f = frontier.as_mut();
        f.clear();
        if !self.heaps[h].is_empty() {
            f.push(0);
        }
        SortedIter {
            h,
            nodes: &self.heaps[h],
            payload: &self.payload,
            order: &self.order,
            frontier,
        }
    }

    /// Debug validation: every back pointer agrees with the heap arrays,
    /// and every component satisfies the heap property.
    pub fn validate(&self) -> bool {
        for (h, nodes) in self.heaps.iter().enumerate() {
            if nodes.len() != self.len {
                return false;
            }
            for (i, &rec) in nodes.iter().enumerate() {
                if self.payload[rec].is_none() || self.pos_of(rec, h) != i {
                    return false;
                }
                if i > 0 && less(&self.order, h, nodes, &self.payload, i, (i - 1) / 2) {
                    return false;
                }
            }
        }
        true
    }
}

/// Does node `a` of component `h` — records `nodes` — order before node
/// `b`?
#[inline(always)]
fn less<T, O: Fn(usize, &T, &T) -> Ordering>(
    order: &O,
    h: usize,
    nodes: &[usize],
    payload: &[Option<T>],
    a: usize,
    b: usize,
) -> bool {
    let record = |i: usize| payload[nodes[i]].as_ref().expect("live record");
    order(h, record(a), record(b)) == Ordering::Less
}

/// One component heap of a [`ConnectedHeap`] and the back pointers into
/// it, borrowed apart: a sift reads and writes no other state.
struct Component<'a, T> {
    h: usize,
    /// Back pointers per record (`heaps.len()`).
    stride: usize,
    nodes: &'a mut Vec<usize>,
    pos: &'a mut Vec<usize>,
    payload: &'a [Option<T>],
}

impl<T> Component<'_, T> {
    #[inline]
    fn less<O: Fn(usize, &T, &T) -> Ordering>(&self, order: &O, a: usize, b: usize) -> bool {
        less(order, self.h, self.nodes, self.payload, a, b)
    }

    /// Swap nodes `a` and `b` and point their records at their new places.
    #[inline(always)]
    fn swap(&mut self, a: usize, b: usize) {
        self.nodes.swap(a, b);
        self.pos[self.nodes[a] * self.stride + self.h] = a;
        self.pos[self.nodes[b] * self.stride + self.h] = b;
    }

    fn sift_up<O: Fn(usize, &T, &T) -> Ordering>(&mut self, order: &O, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.less(order, at, parent) {
                break;
            }
            self.swap(at, parent);
            at = parent;
        }
    }

    fn sift_down<O: Fn(usize, &T, &T) -> Ordering>(&mut self, order: &O, mut at: usize) {
        let n = self.nodes.len();
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut smallest = at;
            if l < n && self.less(order, l, smallest) {
                smallest = l;
            }
            if r < n && self.less(order, r, smallest) {
                smallest = r;
            }
            if smallest == at {
                break;
            }
            self.swap(at, smallest);
            at = smallest;
        }
    }
}

/// Lazy sorted iteration over one component of a [`ConnectedHeap`].
///
/// The component is itself a binary heap, so its `k` smallest records are
/// reachable from the root through at most `k` parent links: the iterator
/// keeps a *frontier* — a small min-heap of node positions whose parents
/// were all yielded already — pops its minimum and pushes that node's two
/// children. The first `k` elements cost `O(k log k)` comparisons and
/// never touch the other `n − k` nodes (no copy of the component).
pub struct SortedIter<'a, T, O, S = Vec<usize>> {
    h: usize,
    nodes: &'a [usize],
    payload: &'a [Option<T>],
    order: &'a O,
    /// Min-heap (by the component's order) of node positions inside it.
    frontier: S,
}

impl<'a, T, O, S> Iterator for SortedIter<'a, T, O, S>
where
    O: Fn(usize, &T, &T) -> Ordering,
    S: AsMut<Vec<usize>>,
{
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let (nodes, payload) = (self.nodes, self.payload);
        let less = |a: usize, b: usize| less(self.order, self.h, nodes, payload, a, b);
        let f = self.frontier.as_mut();
        if f.is_empty() {
            return None;
        }
        let top = f.swap_remove(0);
        // Restore the frontier's heap property below the moved-up last node.
        let mut at = 0usize;
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut smallest = at;
            if l < f.len() && less(f[l], f[smallest]) {
                smallest = l;
            }
            if r < f.len() && less(f[r], f[smallest]) {
                smallest = r;
            }
            if smallest == at {
                break;
            }
            f.swap(at, smallest);
            at = smallest;
        }
        for child in [2 * top + 1, 2 * top + 2] {
            if child >= nodes.len() {
                break;
            }
            f.push(child);
            let mut at = f.len() - 1;
            while at > 0 && less(f[at], f[(at - 1) / 2]) {
                f.swap(at, (at - 1) / 2);
                at = (at - 1) / 2;
            }
        }
        Some(payload[nodes[top]].as_ref().expect("live record"))
    }
}

/// The baseline of the paper's Sec. 8.2 experiment: the same multi-order
/// container, but without back pointers — removing a record popped from one
/// heap requires a *linear search* through every other heap.
pub struct UnconnectedHeaps<T, C>
where
    C: Fn(usize, &T, &T) -> Ordering,
{
    arena: Vec<Option<T>>,
    free: Vec<usize>,
    heaps: Vec<Vec<usize>>,
    cmp: C,
    len: usize,
}

impl<T, C> UnconnectedHeaps<T, C>
where
    C: Fn(usize, &T, &T) -> Ordering,
{
    /// Create with `h` component orders.
    pub fn new(h: usize, cmp: C) -> Self {
        assert!(h >= 1);
        UnconnectedHeaps {
            arena: Vec::new(),
            free: Vec::new(),
            heaps: vec![Vec::new(); h],
            cmp,
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn payload(&self, rec: usize) -> &T {
        self.arena[rec].as_ref().expect("live record")
    }

    fn less(&self, h: usize, a: usize, b: usize) -> bool {
        (self.cmp)(h, self.payload(a), self.payload(b)) == Ordering::Less
    }

    /// Insert into every heap.
    pub fn insert(&mut self, item: T) -> RecordId {
        let rec = match self.free.pop() {
            Some(i) => {
                self.arena[i] = Some(item);
                i
            }
            None => {
                self.arena.push(Some(item));
                self.arena.len() - 1
            }
        };
        for h in 0..self.heaps.len() {
            self.heaps[h].push(rec);
            let at = self.heaps[h].len() - 1;
            self.sift_up(h, at);
        }
        self.len += 1;
        RecordId(rec)
    }

    /// Smallest element of heap `h`.
    pub fn peek(&self, h: usize) -> Option<&T> {
        self.heaps[h].first().map(|&r| self.payload(r))
    }

    /// Pop the root of heap `h`; other heaps are purged by linear search
    /// (the `O(n)` baseline the connected heap eliminates).
    pub fn pop(&mut self, h: usize) -> Option<T> {
        let &rec = self.heaps[h].first()?;
        for hh in 0..self.heaps.len() {
            let at = if hh == h {
                0
            } else {
                // Linear search: this is the point of the experiment.
                self.heaps[hh]
                    .iter()
                    .position(|&r| r == rec)
                    .expect("record present in all heaps")
            };
            let last = self.heaps[hh].len() - 1;
            self.heaps[hh].swap(at, last);
            self.heaps[hh].pop();
            if at < self.heaps[hh].len() {
                self.sift_down(hh, at);
                self.sift_up(hh, at);
            }
        }
        self.len -= 1;
        self.free.push(rec);
        self.arena[rec].take()
    }

    fn sift_up(&mut self, h: usize, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.less(h, self.heaps[h][at], self.heaps[h][parent]) {
                self.heaps[h].swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, h: usize, mut at: usize) {
        let n = self.heaps[h].len();
        loop {
            let (l, r) = (2 * at + 1, 2 * at + 2);
            let mut smallest = at;
            if l < n && self.less(h, self.heaps[h][l], self.heaps[h][smallest]) {
                smallest = l;
            }
            if r < n && self.less(h, self.heaps[h][r], self.heaps[h][smallest]) {
                smallest = r;
            }
            if smallest == at {
                break;
            }
            self.heaps[h].swap(at, smallest);
            at = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_key_cmp(h: usize, a: &(i64, i64, i64), b: &(i64, i64, i64)) -> Ordering {
        match h {
            0 => a.0.cmp(&b.0),
            1 => a.1.cmp(&b.1),
            _ => b.2.cmp(&a.2), // heap 2 is a max-heap on the third key
        }
    }

    #[test]
    fn paper_example_8() {
        // Tuples t1=(1,3), t2=(2,6), t3=(3,2), t4=(4,1); h1 sorted on the
        // first attribute, h2 on the second. Popping h1 removes t1 from h2.
        let mut ch = ConnectedHeap::new(2, |h, a: &(i64, i64), b: &(i64, i64)| match h {
            0 => a.0.cmp(&b.0),
            _ => a.1.cmp(&b.1),
        });
        for t in [(1, 3), (2, 6), (3, 2), (4, 1)] {
            ch.insert(t);
        }
        assert_eq!(ch.peek(0), Some(&(1, 3)));
        assert_eq!(ch.peek(1), Some(&(4, 1)));
        assert_eq!(ch.pop(0), Some((1, 3)));
        assert!(ch.validate());
        assert_eq!(ch.peek(0), Some(&(2, 6)));
        assert_eq!(ch.peek(1), Some(&(4, 1)));
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn pop_each_component_in_order() {
        let mut ch = ConnectedHeap::new(3, three_key_cmp);
        let items = [(5, 50, 500), (1, 40, 900), (3, 10, 100), (2, 20, 700)];
        for it in items {
            ch.insert(it);
        }
        assert_eq!(ch.peek(0).unwrap().0, 1);
        assert_eq!(ch.peek(1).unwrap().1, 10);
        assert_eq!(ch.peek(2).unwrap().2, 900);
        // Pop everything from heap 0: ascending first keys.
        let mut firsts = Vec::new();
        while let Some(t) = ch.pop(0) {
            firsts.push(t.0);
            assert!(ch.validate());
        }
        assert_eq!(firsts, vec![1, 2, 3, 5]);
    }

    #[test]
    fn remove_by_id() {
        let mut ch = ConnectedHeap::new(2, |h, a: &(i64, i64), b: &(i64, i64)| match h {
            0 => a.0.cmp(&b.0),
            _ => a.1.cmp(&b.1),
        });
        let _a = ch.insert((1, 9));
        let b = ch.insert((2, 1));
        let _c = ch.insert((3, 5));
        assert_eq!(ch.remove(b), Some((2, 1)));
        assert!(ch.validate());
        assert_eq!(ch.remove(b), None, "double remove is a no-op");
        assert_eq!(ch.peek(1), Some(&(3, 5)));
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn sorted_iter_does_not_mutate() {
        let mut ch = ConnectedHeap::new(2, |h, a: &(i64, i64), b: &(i64, i64)| match h {
            0 => a.0.cmp(&b.0),
            _ => a.1.cmp(&b.1),
        });
        for i in 0..20i64 {
            ch.insert((i * 7 % 20, i * 13 % 20));
        }
        let snd: Vec<i64> = ch.sorted_iter(1).map(|t| t.1).collect();
        let mut sorted = snd.clone();
        sorted.sort();
        assert_eq!(snd, sorted);
        assert_eq!(ch.len(), 20);
        assert!(ch.validate());
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut ch = ConnectedHeap::new(1, |_, a: &i64, b: &i64| a.cmp(b));
        for i in 0..100 {
            ch.insert(i);
        }
        for _ in 0..50 {
            ch.pop(0);
        }
        for i in 0..50 {
            ch.insert(i);
        }
        assert!(ch.validate());
        assert_eq!(ch.len(), 100);
        // No more than 100 arena slots should ever have been allocated.
        assert!(ch.payload.len() <= 100);
        assert_eq!(ch.pos.len(), ch.payload.len() * ch.components());
    }

    #[test]
    fn unconnected_baseline_agrees_with_connected() {
        let mut con = ConnectedHeap::new(3, three_key_cmp);
        let mut unc = UnconnectedHeaps::new(3, three_key_cmp);
        // Prime moduli larger than the item count keep every key column
        // tie-free, so both structures must pop identical elements.
        let items: Vec<(i64, i64, i64)> = (0..200)
            .map(|i: i64| (i * 37 % 211, i * 53 % 223, i * 71 % 227))
            .collect();
        for &it in &items {
            con.insert(it);
            unc.insert(it);
        }
        for round in 0..items.len() {
            let h = round % 3;
            assert_eq!(con.peek(h), unc.peek(h), "round {round}");
            assert_eq!(con.pop(h), unc.pop(h), "round {round}");
        }
        assert!(con.is_empty() && unc.is_empty());
    }
}
