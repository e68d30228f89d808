//! Model-based property tests: a connected heap must behave like a sorted
//! multiset under arbitrary interleavings of inserts and pops, across all
//! component orders, and its internal invariants must hold throughout.

use audb_conheap::{ConnectedHeap, UnconnectedHeaps};
use proptest::prelude::*;
use std::cmp::Ordering;

#[derive(Clone, Debug)]
enum Op {
    Insert(i64, i64),
    Pop(u8),
}

fn cmp2(h: usize, a: &(i64, i64), b: &(i64, i64)) -> Ordering {
    // Tie-break with the other key so the order is total — pops are then
    // fully deterministic and comparable against the model.
    match h {
        0 => a.cmp(b),
        _ => (a.1, a.0).cmp(&(b.1, b.0)),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-50i64..50, -50i64..50).prop_map(|(a, b)| Op::Insert(a, b)),
        (0u8..2).prop_map(Op::Pop),
    ]
}

/// Three orders over a triple — the window pool's shape: two ascending,
/// one descending, each made total by the remaining keys.
fn cmp3(h: usize, a: &(i64, i64, i64), b: &(i64, i64, i64)) -> Ordering {
    match h {
        0 => a.cmp(b),
        1 => (a.1, a.2, a.0).cmp(&(b.1, b.2, b.0)),
        _ => (b.2, a.0, a.1).cmp(&(a.2, b.0, b.1)),
    }
}

#[derive(Clone, Debug)]
enum Op3 {
    Insert(i64, i64, i64),
    Pop(u8),
}

fn op3_strategy() -> impl Strategy<Value = Op3> {
    // Two inserts to one pop.
    (0u8..15, -20i64..20, -20i64..20, -20i64..20).prop_map(|(pick, a, b, c)| match pick {
        0..=4 => Op3::Pop(pick % 3),
        _ => Op3::Insert(a, b, c),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scratch-reusing sorted iteration yields exactly what
    /// `sorted_iter` yields — the component's contents in order — after
    /// every step of an interleaved insert/pop history, through one
    /// scratch buffer reused for all of them, and disturbs nothing.
    #[test]
    fn sorted_iter_in_matches_sorted_iter(ops in proptest::collection::vec(op3_strategy(), 1..100)) {
        let mut ch = ConnectedHeap::new(3, cmp3);
        let mut model: Vec<(i64, i64, i64)> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for op in ops {
            match op {
                Op3::Insert(a, b, c) => {
                    ch.insert((a, b, c));
                    model.push((a, b, c));
                }
                Op3::Pop(h) => {
                    if let Some(x) = ch.pop(h as usize) {
                        let idx = model.iter().position(|&m| m == x).unwrap();
                        model.swap_remove(idx);
                    }
                }
            }
            for h in 0..3 {
                let through_scratch: Vec<_> = ch.sorted_iter_in(h, &mut scratch).cloned().collect();
                let fresh: Vec<_> = ch.sorted_iter(h).cloned().collect();
                prop_assert_eq!(&through_scratch, &fresh);
                model.sort_by(|a, b| cmp3(h, a, b));
                prop_assert_eq!(&through_scratch, &model);
            }
            prop_assert!(ch.validate(), "heap invariants violated");
            prop_assert_eq!(ch.len(), model.len());
        }
    }

    /// The connected heap agrees with a plain sorted-vector model on every
    /// peek/pop, under both component orders, and `validate()` never fails.
    #[test]
    fn connected_heap_matches_multiset_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut ch = ConnectedHeap::new(2, cmp2);
        let mut model: Vec<(i64, i64)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(a, b) => {
                    ch.insert((a, b));
                    model.push((a, b));
                }
                Op::Pop(h) => {
                    let h = h as usize;
                    let expect = model
                        .iter()
                        .cloned()
                        .min_by(|x, y| cmp2(h, x, y));
                    prop_assert_eq!(ch.peek(h).cloned(), expect);
                    let got = ch.pop(h);
                    prop_assert_eq!(got, expect);
                    if let Some(e) = expect {
                        let idx = model.iter().position(|&x| x == e).unwrap();
                        model.swap_remove(idx);
                    }
                }
            }
            prop_assert!(ch.validate(), "heap invariants violated");
            prop_assert_eq!(ch.len(), model.len());
        }
        // Drain and check the full sorted order on component 0.
        let mut drained = Vec::new();
        while let Some(x) = ch.pop(0) {
            drained.push(x);
        }
        model.sort();
        prop_assert_eq!(drained, model);
    }

    /// Connected and unconnected (linear-search) heaps are observationally
    /// identical — the paper's Sec. 8.2 experiment varies only performance.
    #[test]
    fn connected_equals_unconnected(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut ch = ConnectedHeap::new(2, cmp2);
        let mut uh = UnconnectedHeaps::new(2, cmp2);
        for op in ops {
            match op {
                Op::Insert(a, b) => {
                    ch.insert((a, b));
                    uh.insert((a, b));
                }
                Op::Pop(h) => {
                    prop_assert_eq!(ch.pop(h as usize), uh.pop(h as usize));
                }
            }
            prop_assert_eq!(ch.len(), uh.len());
        }
    }

    /// `sorted_iter` yields each component's full contents in order without
    /// consuming the heap.
    #[test]
    fn sorted_iter_is_sorted_and_nondestructive(items in proptest::collection::vec((-50i64..50, -50i64..50), 0..60)) {
        let mut ch = ConnectedHeap::new(2, cmp2);
        for &it in &items {
            ch.insert(it);
        }
        for h in 0..2 {
            let out: Vec<(i64, i64)> = ch.sorted_iter(h).cloned().collect();
            prop_assert_eq!(out.len(), items.len());
            for w in out.windows(2) {
                prop_assert_ne!(cmp2(h, &w[0], &w[1]), Ordering::Greater);
            }
        }
        prop_assert_eq!(ch.len(), items.len());
        prop_assert!(ch.validate());
    }
}

/// A full-size scan of each component warms the scratch buffer up; later
/// scans of the same heap, full or partial, reuse its capacity.
#[test]
fn sorted_iter_in_scratch_stops_growing() {
    let mut ch = ConnectedHeap::new(3, cmp3);
    for i in 0..500i64 {
        ch.insert((i * 37 % 211, i * 53 % 223, i * 71 % 227));
    }
    let mut scratch: Vec<usize> = Vec::new();
    for h in 0..3 {
        assert_eq!(ch.sorted_iter_in(h, &mut scratch).count(), 500);
    }
    let warmed = scratch.capacity();
    assert!(warmed > 0 && warmed <= 500);
    for round in 0..10 {
        for h in 0..3 {
            let taken = ch
                .sorted_iter_in(h, &mut scratch)
                .take(500 - 50 * round)
                .count();
            assert_eq!(taken, 500 - 50 * round);
            assert_eq!(scratch.capacity(), warmed, "round {round}, component {h}");
        }
    }
    assert!(ch.validate());
}
