//! Model-based property tests: a connected heap must behave like a sorted
//! multiset under arbitrary interleavings of inserts and pops, across all
//! component orders, and its internal invariants must hold throughout — on
//! both arms of the Sec. 8.2 experiment.

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

    /// Three orders — the window pool's shape — under an interleaved
    /// insert/pop history: every pop and every component's root agree with
    /// a multiset model after every step, on both arms, and `validate()`
    /// and `len` hold throughout.
    #[test]
    fn three_orders_match_the_multiset_model(ops in proptest::collection::vec(op3_strategy(), 1..100)) {
        let mut ch = ConnectedHeap::new(3, cmp3);
        let mut uh = UnconnectedHeaps::new(3, cmp3);
        let mut model: Vec<(i64, i64, i64)> = Vec::new();
        for op in ops {
            match op {
                Op3::Insert(a, b, c) => {
                    ch.insert((a, b, c));
                    uh.insert((a, b, c));
                    model.push((a, b, c));
                }
                Op3::Pop(h) => {
                    let h = h as usize;
                    let expect = model.iter().copied().min_by(|x, y| cmp3(h, x, y));
                    prop_assert_eq!(ch.pop(h), expect);
                    prop_assert_eq!(uh.pop(h), expect);
                    if let Some(e) = expect {
                        let idx = model.iter().position(|&m| m == e).unwrap();
                        model.swap_remove(idx);
                    }
                }
            }
            for h in 0..3 {
                let root = model.iter().min_by(|x, y| cmp3(h, x, y));
                prop_assert_eq!(ch.peek(h), root);
                prop_assert_eq!(uh.peek(h), root);
            }
            prop_assert!(ch.validate() && uh.validate(), "heap invariants violated");
            prop_assert_eq!(ch.len(), model.len());
            prop_assert_eq!(uh.len(), model.len());
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
            prop_assert!(ch.validate(), "connected invariants violated");
            prop_assert!(uh.validate(), "unconnected invariants violated");
        }
    }
}
