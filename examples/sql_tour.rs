//! The SQL front door: register uncertain relations in a session catalog,
//! then drive ranking and window queries as text — parse → bind (every
//! `PlanError` check included) → execute on any backend, explain with the
//! originating SQL, prepare for reuse, and round-trip plans back to SQL.
//!
//! ```sh
//! cargo run --example sql_tour
//! ```

use audb::core::{AuRelation, AuTuple, Mult3, RangeValue};
use audb::engine::{Engine, Query, Session};
use audb::rel::Schema;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The quickstart's uncertain product table, now behind a name.
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
                Mult3::new(0, 1, 1),
            ),
            (
                AuTuple::from([RangeValue::certain(4i64), RangeValue::new(7, 7, 7)]),
                Mult3::ONE,
            ),
        ],
    );
    let session = Session::new(Engine::native());
    session.register("products", products.clone());

    // 1. Text in, bounds out. ORDER BY is the AU-DB sort: it appends a
    //    position-range column (here named `rank`), LIMIT caps it to a
    //    top-k.
    let sql = "SELECT * FROM products ORDER BY price AS rank LIMIT 2";
    println!("{sql}\n{}", session.sql(sql)?.normalize());

    // 2. explain_sql shows the query text, the chosen backend (with any
    //    fallback reason) and the operator chain it compiled to.
    println!("{}", session.explain_sql(sql)?);

    // 3. Uncertainty-aware predicates: RANGE(lb, sg, ub) literals compare
    //    under the bound-preserving semantics, so WHERE keeps every row
    //    that *possibly* matches (with its multiplicity saying how sure).
    let cheap = session
        .sql("SELECT sku, price FROM products WHERE price < RANGE(9, 9, 16) ORDER BY price")?;
    println!("possibly-cheap products:\n{}", cheap.normalize());

    // 4. Prepare once, run many times; the plan shares the catalog's
    //    relation (no copies) and remembers its SQL.
    let prepared = session.prepare(
        "SELECT *, SUM(price) OVER (ORDER BY price \
         ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS rolling FROM products",
    )?;
    let first = session.execute(&prepared)?.to_rows();
    let second = session.execute(&prepared)?.to_rows();
    assert!(first.bag_eq(&second));
    println!("prepared [{}]:\n{}", prepared.sql(), first.normalize());

    // 5. Every builder plan round-trips through SQL: print it, reparse it,
    //    and the engine sees the identical operator chain.
    let plan = Query::scan(products)
        .sort_by_as(["price"], "rank")
        .topk(2)
        .build()?;
    let printed = plan.to_sql("products");
    println!("builder plan prints as: {printed}");
    let reparsed = session.prepare(&printed)?;
    assert!(plan.same_shape(reparsed.plan()), "parse ∘ print = id");

    // 6. And SQL queries keep the cross-backend agreement invariant: one
    //    call runs reference, native and rewrite, asserting bag-equal
    //    bounds.
    let all = session.run_all_sql(sql)?;
    println!("{all}");
    Ok(())
}
