//! # audb-conheap — connected heaps (paper Sec. 8.2)
//!
//! `H` min-heaps, one per order, over one shared arena of records: the
//! structure of the paper's Sec. 8.2 preliminary experiment (`repro
//! heaps`). Popping the root of one heap also removes its record from the
//! other `H − 1`, and the experiment's two arms differ only in how they
//! find it there:
//!
//! * [`ConnectedHeap`] keeps *back pointers* — each record's node position
//!   inside every component — so a pop costs `O(H · log n)`;
//! * [`UnconnectedHeaps`], the baseline, keeps none and finds the record
//!   by a linear search through every other component, `O(H · n)`.
//!
//! Both are [`Heaps`]: insertion, the sifts and the arena are one code
//! path, and the const flag decides only whether a swap writes back
//! pointers and where `pop` looks for the record. The paper's
//! windowed-aggregation algorithm (Sec. 8.3) motivated the structure; the
//! native window sweep keeps no heap — it walks one `τ↑` order and two
//! rankings of its pool (`audb_native::maintain`).
//!
//! ```
//! use audb_conheap::ConnectedHeap;
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

/// `H` min-heaps over one record arena; `cmp(h, a, b)` is a total order per
/// component heap `h`. `CONNECTED` picks the deletion policy of [`pop`].
///
/// Connected, back pointers live in **one flat stride-`H` vector**
/// (`pos[rec * H + h]` = node index of record `rec` inside component `h`):
/// an insert allocates nothing once the arena has warmed up, and a sift's
/// pointer updates hit one contiguous line per record. Unconnected, `pos`
/// stays empty and no swap writes to it.
///
/// [`pop`]: Heaps::pop
pub struct Heaps<T, C, const CONNECTED: bool> {
    payload: Vec<Option<T>>,
    /// Flat back pointers, stride `heaps.len()`; empty unless connected.
    pos: Vec<usize>,
    free: Vec<usize>,
    /// Per component: heap position → record index.
    heaps: Vec<Vec<usize>>,
    len: usize,
    order: C,
}

/// The experiment's structure: a pop deletes through back pointers.
pub type ConnectedHeap<T, C> = Heaps<T, C, true>;

/// The experiment's baseline: a pop deletes by linear search.
pub type UnconnectedHeaps<T, C> = Heaps<T, C, false>;

impl<T, C, const CONNECTED: bool> Heaps<T, C, CONNECTED>
where
    C: Fn(usize, &T, &T) -> Ordering,
{
    /// Create with `h` component orders.
    pub fn new(h: usize, cmp: C) -> Self {
        Self::with_capacity(h, 0, cmp)
    }

    /// Create with capacity for `cap` simultaneous records (no further
    /// allocation until the live count first exceeds `cap`).
    pub fn with_capacity(h: usize, cap: usize, cmp: C) -> Self {
        assert!(h >= 1, "need at least one component heap");
        Heaps {
            payload: Vec::with_capacity(cap),
            pos: Vec::with_capacity(if CONNECTED { cap * h } else { 0 }),
            free: Vec::with_capacity(cap),
            heaps: vec![Vec::with_capacity(cap); h],
            len: 0,
            order: cmp,
        }
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
        self.heaps[h].first().map(|&rec| live(&self.payload, rec))
    }

    /// Component `h`, borrowed apart from the rest of the heap — what a
    /// sift moves through — and the order it sifts by.
    #[inline]
    fn component(&mut self, h: usize) -> (Component<'_, T, CONNECTED>, &C) {
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
    pub fn insert(&mut self, item: T) {
        let hn = self.heaps.len();
        let rec = match self.free.pop() {
            Some(i) => {
                self.payload[i] = Some(item);
                i
            }
            None => {
                self.payload.push(Some(item));
                if CONNECTED {
                    self.pos.resize(self.payload.len() * hn, usize::MAX);
                }
                self.payload.len() - 1
            }
        };
        for h in 0..hn {
            let at = self.heaps[h].len();
            self.heaps[h].push(rec);
            if CONNECTED {
                self.pos[rec * hn + h] = at;
            }
            let (mut component, order) = self.component(h);
            component.sift_up(order, at);
        }
        self.len += 1;
    }

    /// Pop the root of component heap `h` and remove its record from every
    /// other component: through its back pointers (`O(H log n)`) when
    /// connected, else by a linear search of each (`O(H · n)`, the cost the
    /// connected heap eliminates).
    pub fn pop(&mut self, h: usize) -> Option<T> {
        let &rec = self.heaps[h].first()?;
        let hn = self.heaps.len();
        for c in 0..hn {
            let at = if CONNECTED {
                self.pos[rec * hn + c]
            } else if c == h {
                0
            } else {
                self.heaps[c]
                    .iter()
                    .position(|&r| r == rec)
                    .expect("record present in all heaps")
            };
            let last = self.heaps[c].len() - 1;
            let (mut component, order) = self.component(c);
            component.swap(at, last);
            component.nodes.pop();
            if at < last {
                // The replacement may violate the heap property either
                // upward or downward (never both; see paper Sec. 8.2).
                component.sift_down(order, at);
                component.sift_up(order, at);
            }
        }
        self.len -= 1;
        self.free.push(rec);
        self.payload[rec].take()
    }

    /// Debug validation: every component holds `len` live records and
    /// satisfies the heap property, and — connected — every back pointer
    /// agrees with the node arrays.
    pub fn validate(&self) -> bool {
        let hn = self.heaps.len();
        self.heaps.iter().enumerate().all(|(h, nodes)| {
            nodes.len() == self.len
                && nodes.iter().enumerate().all(|(i, &rec)| {
                    self.payload[rec].is_some()
                        && (!CONNECTED || self.pos[rec * hn + h] == i)
                        && (i == 0 || !less(&self.order, h, nodes, &self.payload, i, (i - 1) / 2))
                })
        })
    }
}

/// The record in arena slot `rec`, which must be live.
#[inline(always)]
fn live<T>(payload: &[Option<T>], rec: usize) -> &T {
    payload[rec].as_ref().expect("live record")
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
    order(h, live(payload, nodes[a]), live(payload, nodes[b])) == Ordering::Less
}

/// One component heap and the back pointers into it, borrowed apart: a
/// sift reads and writes no other state.
struct Component<'a, T, const CONNECTED: bool> {
    h: usize,
    /// Back pointers per record (`heaps.len()`).
    stride: usize,
    nodes: &'a mut Vec<usize>,
    pos: &'a mut [usize],
    payload: &'a [Option<T>],
}

impl<T, const CONNECTED: bool> Component<'_, T, CONNECTED> {
    #[inline]
    fn less<O: Fn(usize, &T, &T) -> Ordering>(&self, order: &O, a: usize, b: usize) -> bool {
        less(order, self.h, self.nodes, self.payload, a, b)
    }

    /// Swap nodes `a` and `b` and, connected, point their records at their
    /// new places.
    #[inline(always)]
    fn swap(&mut self, a: usize, b: usize) {
        self.nodes.swap(a, b);
        if CONNECTED {
            self.pos[self.nodes[a] * self.stride + self.h] = a;
            self.pos[self.nodes[b] * self.stride + self.h] = b;
        }
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
        assert_eq!(ch.pos.len(), ch.payload.len() * ch.heaps.len());
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
            assert!(con.validate() && unc.validate(), "round {round}");
        }
        assert!(con.is_empty() && unc.is_empty());
        // The baseline keeps no back pointers at all.
        assert!(unc.pos.is_empty());
    }
}
