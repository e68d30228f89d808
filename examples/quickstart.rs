//! Five-minute tour: build an uncertain relation, ask for bound-preserving
//! top-k and windowed-aggregation answers — every query goes through the
//! unified engine, which plans it once, explains it, and can execute it on
//! all three interchangeable backends (reference / native / rewrite) while
//! asserting their bounds agree.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use audb::core::{AuRelation, AuTuple, Mult3, RangeExpr, RangeValue};
use audb::engine::{Agg, Engine, Query, Session, WindowSpec};
use audb::rel::Schema;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An uncertain product table: price ranges come from conflicting
    // sources; the middle value is the curator's best guess. One row may
    // not exist at all (multiplicity lower bound 0).
    let products = AuRelation::from_rows(
        Schema::new(["sku", "price"]),
        [
            (
                AuTuple::from([RangeValue::certain(1i64), RangeValue::new(9, 10, 12)]),
                Mult3::ONE,
            ),
            (
                AuTuple::from([RangeValue::certain(2i64), RangeValue::new(8, 11, 11)]),
                Mult3::ONE,
            ),
            (
                AuTuple::from([RangeValue::certain(3i64), RangeValue::new(15, 15, 15)]),
                Mult3::new(0, 1, 1), // possibly a duplicate entry
            ),
            (
                AuTuple::from([RangeValue::certain(4i64), RangeValue::new(7, 7, 7)]),
                Mult3::ONE,
            ),
        ],
    );
    println!("Uncertain products:\n{products}");

    let engine = Engine::native();

    // Top-2 cheapest products under €14. Column references are validated
    // when the plan is built — a typo'd name or a colliding output column
    // is a structured PlanError here, not a panic deep inside an operator.
    let top2_plan = Query::scan(products.clone())
        .select(RangeExpr::col(1).lt(RangeExpr::lit(14)))
        .sort_by_as(["price"], "rank")
        .topk(2)
        .build()?;
    // The explain's `exec:` block shows the physical pipeline plan: the
    // selection fuses into the scan pipeline (`fuse(select)`), the top-k
    // is the pipeline breaker that materializes.
    println!("How the engine runs it:\n{}", engine.explain(&top2_plan));

    // Execute on every backend and assert the bounds agree — the paper's
    // "same semantics, interchangeable implementations" invariant, checked
    // on the fly. Multiplicity triples tell you which answers are certain
    // (lb = 1), in the best-guess world (sg = 1), or merely possible
    // (ub = 1); the rank attribute carries position bounds.
    let top2 = engine.run_all(&top2_plan)?;
    println!("{top2}");
    println!(
        "Top-2 by price (certain / guess / possible):\n{}",
        top2.output
    );

    // A rolling sum over the price-sorted order: each bound covers every
    // possible world the input admits.
    let rolling_plan = Query::scan(products)
        .window(
            WindowSpec::rows(-1, 0)
                .order_by(["price"])
                .aggregate(Agg::sum("price"))
                .output("rolling_sum"),
        )
        .build()?;
    let rolling = engine.run_all(&rolling_plan)?;
    println!("{rolling}");
    println!(
        "Rolling price sum (window = previous + current row):\n{}",
        rolling.output
    );

    // The same queries, as text: register the relation in a session and
    // the SQL frontend compiles onto the identical plans (see
    // examples/sql_tour.rs for the full tour).
    let session = Session::new(engine);
    session.register(
        "products",
        rolling_plan.source_columns().contiguous().to_rows(),
    );
    let top2_sql =
        session.sql("SELECT * FROM products WHERE price < 14 ORDER BY price AS rank LIMIT 2")?;
    assert!(top2_sql.bag_eq(&top2.output.to_rows()));
    println!(
        "SQL says the same:\n  SELECT * FROM products WHERE price < 14 \
         ORDER BY price AS rank LIMIT 2\n{top2_sql}"
    );

    // Every range is a guarantee: in no possible world does a value escape
    // its printed bounds — that is the bound-preservation theorem the
    // test-suite checks against exhaustive world enumeration.
    Ok(())
}
