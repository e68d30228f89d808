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
//! cheap. The preliminary experiment of Sec. 8.2 (reproduced by
//! `repro-heaps`) shows 1.7×–10× gains over unconnected heaps.
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
//!
//! The window sweep's pool compares *words*: its [`HeapOrder`] gives each
//! record a `u64` per component that orders ahead of the full comparison,
//! and reads the records it orders — owned by the sweep, not the heap — only
//! where two words tie. That order is passed per call ([`ConnectedHeap::insert_with`]
//! and its siblings), since it borrows state the heap cannot own.

use std::cmp::Ordering;

/// Stable handle to a record stored in a [`ConnectedHeap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecordId(usize);

/// The `H` orders of a [`ConnectedHeap`]: `cmp(h, a, b)` is a total order
/// per component heap `h`. Every `Fn(usize, &T, &T) -> Ordering` is one; a
/// heap held in a struct field names a type of its own instead
/// ([`ConnectedHeap::with_order`]), whose `cmp` inlines into the sifts
/// where a `fn` pointer is an indirect call per comparison.
///
/// An order may also give a record one **word** per component, a `u64`
/// that orders ahead of `cmp`: `word(h, a) < word(h, b)` implies
/// `cmp(h, a, b) == Less`. The heap keeps each node's word beside the node
/// and compares words; `cmp` — and the record behind a node — is read only
/// where two words are equal, so a word need not be exact (the first eight
/// bytes of a longer key are one). An order without words (`WORDS =
/// false`, the default, and every closure) stores and compares none.
pub trait HeapOrder<T> {
    /// Whether [`HeapOrder::word`] is an image of the order. A constant, so
    /// the word stores and compares compile away where it is `false`.
    const WORDS: bool = false;

    /// The word of `item` in component heap `h`, monotone in
    /// [`HeapOrder::cmp`]; read only when [`HeapOrder::WORDS`].
    fn word(&self, h: usize, item: &T) -> u64 {
        let _ = (h, item);
        0
    }

    /// Compare two records in component heap `h`.
    fn cmp(&self, h: usize, a: &T, b: &T) -> Ordering;
}

impl<T, F: Fn(usize, &T, &T) -> Ordering> HeapOrder<T> for F {
    #[inline]
    fn cmp(&self, h: usize, a: &T, b: &T) -> Ordering {
        self(h, a, b)
    }
}

/// A set of `H` min-heaps over one shared record arena with back pointers.
///
/// Back pointers live in **one flat stride-`H` vector** (`pos[rec * H + h]`
/// = node index of record `rec` inside component heap `h`) rather than a
/// `Vec<usize>` per record: inserting a record costs zero allocations once
/// the arena has warmed up (amortized one `Vec` growth each), and the
/// pointer updates in `sift_up`/`sift_down` hit one contiguous cache line
/// per record instead of chasing a heap-allocated side vector.
///
/// The heap owns an order `C` that `insert`, `pop`, `remove`, `sorted_iter*`
/// and `validate` use — or owns `()` and is handed one per call
/// (`insert_with`, `pop_with`, `sorted_iter_with`): an
/// order that reads state outside the heap, such as the item arena of the
/// struct that owns it. Every call on such a heap passes the same order.
pub struct ConnectedHeap<T, C> {
    arena: Arena<T>,
    order: C,
}

/// Everything of a [`ConnectedHeap`] but its owned order, so an owned and
/// a borrowed order drive the same code.
struct Arena<T> {
    payload: Vec<Option<T>>,
    /// Flat back pointers, stride `heaps.len()`.
    pos: Vec<usize>,
    free: Vec<usize>,
    /// Per component: heap position → record index.
    heaps: Vec<Vec<usize>>,
    /// Per component: heap position → that node's order word (empty under
    /// an order without words).
    words: Vec<Vec<u64>>,
    len: usize,
}

// The closure constructors keep the `Fn` bound: a closure literal's
// parameter types are inferred from it, not from `HeapOrder`'s blanket impl.
impl<T, C> ConnectedHeap<T, C>
where
    C: Fn(usize, &T, &T) -> Ordering,
{
    /// Create a connected heap with `h` component orders.
    pub fn new(h: usize, cmp: C) -> Self {
        Self::with_order(h, 0, cmp)
    }

    /// Create with capacity for `cap` simultaneous records (no further
    /// allocation until the live count first exceeds `cap`).
    pub fn with_capacity(h: usize, cap: usize, cmp: C) -> Self {
        Self::with_order(h, cap, cmp)
    }
}

impl<T, C> ConnectedHeap<T, C> {
    /// [`ConnectedHeap::with_capacity`] for any [`HeapOrder`] — or `()`, for
    /// a heap whose every call passes its order.
    pub fn with_order(h: usize, cap: usize, order: C) -> Self {
        assert!(h >= 1, "need at least one component heap");
        let arena = Arena {
            payload: Vec::with_capacity(cap),
            pos: Vec::with_capacity(cap * h),
            free: Vec::with_capacity(cap),
            heaps: vec![Vec::with_capacity(cap); h],
            words: vec![Vec::new(); h],
            len: 0,
        };
        ConnectedHeap { arena, order }
    }

    /// Number of component heaps `H`.
    pub fn components(&self) -> usize {
        self.arena.heaps.len()
    }

    /// Arena slots currently allocated (live + free). Together with
    /// [`ConnectedHeap::len`] this exposes how much of the arena a
    /// long-lived heap is actually reusing.
    pub fn arena_slots(&self) -> usize {
        self.arena.payload.len()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.arena.len
    }

    /// True iff no records are stored.
    pub fn is_empty(&self) -> bool {
        self.arena.len == 0
    }

    /// Smallest element of component heap `h` in `O(1)`.
    pub fn peek(&self, h: usize) -> Option<&T> {
        let arena = &self.arena;
        arena.heaps[h].first().map(|&rec| arena.payload(rec))
    }

    /// Borrow a record by id.
    pub fn get(&self, id: RecordId) -> Option<&T> {
        self.arena.payload.get(id.0).and_then(|s| s.as_ref())
    }
}

/// A heap that owns no order (`()`) is ordered per call — and only so: a
/// heap that owns one cannot be driven by another.
impl<T> ConnectedHeap<T, ()> {
    /// [`ConnectedHeap::insert`] under `order`.
    pub fn insert_with<O: HeapOrder<T>>(&mut self, item: T, order: &O) -> RecordId {
        self.arena.insert(item, order)
    }

    /// [`ConnectedHeap::pop`] under `order`.
    pub fn pop_with<O: HeapOrder<T>>(&mut self, h: usize, order: &O) -> Option<T> {
        self.arena.pop(h, order)
    }

    /// [`ConnectedHeap::sorted_iter_in`] under `order`.
    pub fn sorted_iter_with<'a, O: HeapOrder<T>>(
        &'a self,
        h: usize,
        scratch: &'a mut Vec<usize>,
        order: &'a O,
    ) -> SortedIter<'a, T, O, &'a mut Vec<usize>> {
        self.arena.sorted_iter(h, scratch, order)
    }
}

impl<T, C> ConnectedHeap<T, C>
where
    C: HeapOrder<T>,
{
    /// Insert a record into every component heap in `O(H log n)` — and
    /// zero allocations when a freed arena slot is available.
    pub fn insert(&mut self, item: T) -> RecordId {
        self.arena.insert(item, &self.order)
    }

    /// Pop the root of component heap `h`, removing the record from every
    /// other heap via its back pointers (`O(H log n)`).
    pub fn pop(&mut self, h: usize) -> Option<T> {
        self.arena.pop(h, &self.order)
    }

    /// Remove a specific record from all heaps.
    pub fn remove(&mut self, id: RecordId) -> Option<T> {
        self.get(id)?;
        self.arena.remove(id.0, &self.order)
    }

    /// Iterate component heap `h` in sorted order without disturbing the
    /// structure. Allocates a fresh frontier per call; loops that scan a
    /// component again and again use [`ConnectedHeap::sorted_iter_in`].
    pub fn sorted_iter(&self, h: usize) -> SortedIter<'_, T, C> {
        self.arena.sorted_iter(h, Vec::new(), &self.order)
    }

    /// [`ConnectedHeap::sorted_iter`] through a caller-owned scratch buffer
    /// (cleared first; its capacity is reused, so a warmed-up buffer makes
    /// the scan allocation-free). The min-k / max-k pool scans of the
    /// window algorithm run this twice per closing window.
    pub fn sorted_iter_in<'a>(
        &'a self,
        h: usize,
        scratch: &'a mut Vec<usize>,
    ) -> SortedIter<'a, T, C, &'a mut Vec<usize>> {
        self.arena.sorted_iter(h, scratch, &self.order)
    }

    /// Debug validation: every back pointer agrees with the heap arrays,
    /// every stored word with the order, and every component satisfies the
    /// heap property.
    pub fn validate(&self) -> bool {
        self.arena.validate(&self.order)
    }
}

impl<T> Arena<T> {
    fn payload(&self, rec: usize) -> &T {
        self.payload[rec].as_ref().expect("live record")
    }

    #[inline]
    fn pos_of(&self, rec: usize, h: usize) -> usize {
        self.pos[rec * self.heaps.len() + h]
    }

    /// Component `h`, borrowed apart from the rest of the arena: what a
    /// sift moves through.
    #[inline]
    fn component(&mut self, h: usize) -> Component<'_, T> {
        Component {
            h,
            stride: self.heaps.len(),
            nodes: &mut self.heaps[h],
            words: &mut self.words[h],
            pos: &mut self.pos,
            payload: &self.payload,
        }
    }

    fn insert<O: HeapOrder<T>>(&mut self, item: T, order: &O) -> RecordId {
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
            if O::WORDS {
                let word = order.word(h, self.payload(rec));
                self.words[h].push(word);
            }
            self.pos[rec * hn + h] = at;
            self.component(h).sift_up(order, at);
        }
        self.len += 1;
        RecordId(rec)
    }

    fn pop<O: HeapOrder<T>>(&mut self, h: usize, order: &O) -> Option<T> {
        let &rec = self.heaps[h].first()?;
        self.remove(rec, order)
    }

    fn remove<O: HeapOrder<T>>(&mut self, rec: usize, order: &O) -> Option<T> {
        for h in 0..self.heaps.len() {
            let at = self.pos_of(rec, h);
            debug_assert!(self.heaps[h][at] == rec);
            let last = self.heaps[h].len() - 1;
            self.component(h).swap::<O>(at, last);
            self.heaps[h].pop();
            if O::WORDS {
                self.words[h].pop();
            }
            if at < last {
                // The replacement may violate the heap property either
                // upward or downward (never both; see paper Sec. 8.2).
                let mut component = self.component(h);
                component.sift_down(order, at);
                component.sift_up(order, at);
            }
        }
        self.len -= 1;
        self.free.push(rec);
        self.payload[rec].take()
    }

    fn sorted_iter<'a, O: HeapOrder<T>, S: AsMut<Vec<usize>>>(
        &'a self,
        h: usize,
        mut frontier: S,
        order: &'a O,
    ) -> SortedIter<'a, T, O, S> {
        let f = frontier.as_mut();
        f.clear();
        if !self.heaps[h].is_empty() {
            f.push(0);
        }
        SortedIter {
            h,
            nodes: &self.heaps[h],
            words: &self.words[h],
            payload: &self.payload,
            order,
            frontier,
        }
    }

    fn validate<O: HeapOrder<T>>(&self, order: &O) -> bool {
        for (h, (nodes, words)) in self.heaps.iter().zip(&self.words).enumerate() {
            if nodes.len() != self.len || (O::WORDS && words.len() != self.len) {
                return false;
            }
            for (i, &rec) in nodes.iter().enumerate() {
                let Some(item) = &self.payload[rec] else {
                    return false;
                };
                if self.pos_of(rec, h) != i || (O::WORDS && words[i] != order.word(h, item)) {
                    return false;
                }
                if i > 0 && less(order, h, nodes, words, &self.payload, i, (i - 1) / 2) {
                    return false;
                }
            }
        }
        true
    }
}

/// Does node `a` of component `h` — records `nodes`, their words `words` —
/// order before node `b`? The words decide unless equal; the records only
/// then.
#[inline(always)]
fn less<T, O: HeapOrder<T>>(
    order: &O,
    h: usize,
    nodes: &[usize],
    words: &[u64],
    payload: &[Option<T>],
    a: usize,
    b: usize,
) -> bool {
    if O::WORDS && words[a] != words[b] {
        return words[a] < words[b];
    }
    let record = |i: usize| payload[nodes[i]].as_ref().expect("live record");
    order.cmp(h, record(a), record(b)) == Ordering::Less
}

/// One component heap of an [`Arena`] and the back pointers into it,
/// borrowed apart: a sift reads and writes no other state.
struct Component<'a, T> {
    h: usize,
    /// Back pointers per record (`heaps.len()`).
    stride: usize,
    nodes: &'a mut Vec<usize>,
    words: &'a mut Vec<u64>,
    pos: &'a mut Vec<usize>,
    payload: &'a [Option<T>],
}

impl<T> Component<'_, T> {
    #[inline]
    fn less<O: HeapOrder<T>>(&self, order: &O, a: usize, b: usize) -> bool {
        less(order, self.h, self.nodes, self.words, self.payload, a, b)
    }

    /// Swap nodes `a` and `b`, their words with them, and point their
    /// records at their new places.
    #[inline(always)]
    fn swap<O: HeapOrder<T>>(&mut self, a: usize, b: usize) {
        self.nodes.swap(a, b);
        if O::WORDS {
            self.words.swap(a, b);
        }
        self.pos[self.nodes[a] * self.stride + self.h] = a;
        self.pos[self.nodes[b] * self.stride + self.h] = b;
    }

    fn sift_up<O: HeapOrder<T>>(&mut self, order: &O, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if !self.less(order, at, parent) {
                break;
            }
            self.swap::<O>(at, parent);
            at = parent;
        }
    }

    fn sift_down<O: HeapOrder<T>>(&mut self, order: &O, mut at: usize) {
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
            self.swap::<O>(at, smallest);
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
    words: &'a [u64],
    payload: &'a [Option<T>],
    order: &'a O,
    /// Min-heap (by the component's order) of node positions inside it.
    frontier: S,
}

impl<'a, T, O, S> Iterator for SortedIter<'a, T, O, S>
where
    O: HeapOrder<T>,
    S: AsMut<Vec<usize>>,
{
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let (nodes, words, payload) = (self.nodes, self.words, self.payload);
        let less = |a: usize, b: usize| less(self.order, self.h, nodes, words, payload, a, b);
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
    use proptest::prelude::*;

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
        assert!(ch.arena.payload.len() <= 100);
        assert_eq!(ch.arena.pos.len(), ch.arena.payload.len() * ch.components());
    }

    type Triple = (i64, i64, i64);

    /// The window pool's shape of order — two components ascending, one
    /// descending, each made total by the other keys — with words that are
    /// a lossy image of it: the leading key's sign-flipped bits past their
    /// lowest byte, so keys within 256 of each other tie on their words.
    struct Lossy;

    fn total3(h: usize, a: &Triple, b: &Triple) -> Ordering {
        match h {
            0 => a.cmp(b),
            1 => (a.1, a.2, a.0).cmp(&(b.1, b.2, b.0)),
            _ => (b.2, a.0, a.1).cmp(&(a.2, b.0, b.1)),
        }
    }

    impl HeapOrder<Triple> for Lossy {
        const WORDS: bool = true;

        fn word(&self, h: usize, a: &Triple) -> u64 {
            let flip = |key: i64| (key as u64) ^ (1 << 63);
            match h {
                0 => flip(a.0) >> 8,
                1 => flip(a.1) >> 8,
                _ => !flip(a.2) >> 8,
            }
        }

        fn cmp(&self, h: usize, a: &Triple, b: &Triple) -> Ordering {
            total3(h, a, b)
        }
    }

    #[derive(Clone, Debug)]
    enum Step {
        Insert(Triple),
        Pop(usize),
        Remove(usize),
    }

    fn step() -> impl Strategy<Value = Step> {
        // Keys over five words each; eight inserts to three pops to three
        // removals.
        (0u8..14, -600i64..600, -600i64..600, -600i64..600).prop_map(|(pick, a, b, c)| match pick {
            0..=2 => Step::Pop(pick as usize),
            3..=5 => Step::Remove(a.unsigned_abs() as usize),
            _ => Step::Insert((a, b, c)),
        })
    }

    proptest! {
        // Sized for Miri (CI runs this crate's unit tests under it).
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Words that tie more often than not change nothing: the same
        /// interleaved inserts, pops and removals through a heap that owns
        /// the lossy order and one handed it per call pop, remove and
        /// sorted-iterate exactly what the order without words does, and
        /// every heap validates after every step.
        #[test]
        fn lossy_words_order_like_no_words(steps in proptest::collection::vec(step(), 1..40)) {
            let mut plain = ConnectedHeap::new(3, total3);
            let mut owned = ConnectedHeap::with_order(3, 0, Lossy);
            let mut per_call = ConnectedHeap::with_order(3, 0, ());
            let mut live: Vec<RecordId> = Vec::new();
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            for step in steps {
                match step {
                    Step::Insert(item) => {
                        let id = plain.insert(item);
                        prop_assert_eq!(owned.insert(item), id);
                        prop_assert_eq!(per_call.insert_with(item, &Lossy), id);
                        live.push(id);
                    }
                    Step::Pop(h) => {
                        let want = plain.pop(h);
                        prop_assert_eq!(owned.pop(h), want);
                        prop_assert_eq!(per_call.pop_with(h, &Lossy), want);
                        live.retain(|&id| plain.get(id).is_some());
                    }
                    Step::Remove(k) if !live.is_empty() => {
                        let id = live.swap_remove(k % live.len());
                        let want = plain.remove(id);
                        prop_assert!(want.is_some());
                        prop_assert_eq!(owned.remove(id), want);
                        prop_assert_eq!(per_call.arena.remove(id.0, &Lossy), want);
                    }
                    Step::Remove(_) => {}
                }
                prop_assert!(plain.validate() && owned.validate() && per_call.arena.validate(&Lossy));
                prop_assert_eq!((owned.len(), per_call.len()), (plain.len(), plain.len()));
                for h in 0..3 {
                    let want: Vec<Triple> = plain.sorted_iter_in(h, &mut a).copied().collect();
                    let got: Vec<Triple> = owned.sorted_iter_in(h, &mut b).copied().collect();
                    prop_assert_eq!(&got, &want);
                    let got: Vec<Triple> =
                        per_call.sorted_iter_with(h, &mut c, &Lossy).copied().collect();
                    prop_assert_eq!(&got, &want);
                }
            }
        }
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
