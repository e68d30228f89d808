//! End-to-end real-world-style pipeline on the Chicago-crimes simulator:
//! rank the worst days (top-3 by incident count) and compute the
//! neighbouring-crime window query, comparing the AU-DB method against
//! MCDB sampling and the exact ground truth.
//!
//! ```sh
//! cargo run --release --example crime_hotspots
//! ```

use audb::engine::Engine;
use audb::workloads::metrics::aggregate_quality;
use audb::workloads::runner::{self, Method};
use audb::workloads::{crimes, RealDataset};

fn main() {
    // 1% of the paper's 1.45M rows keeps this example snappy.
    let ds: RealDataset = crimes(0.01, 7);
    println!(
        "Crimes simulator: {} base rows, {:.1}% uncertain",
        ds.rows,
        ds.uncertainty * 100.0
    );

    // --- Rank: top-3 days by count (pre-aggregated, Sec. 9.2). ---
    // The AU-DB methods build one logical plan and run it through the
    // engine; here we additionally run the same plan on *every* backend and
    // let run_all assert that reference, native and rewrite bounds agree on
    // this real-world-shaped data.
    let rq = &ds.rank;
    let plan = runner::sort_plan(rq.table.to_au_relation(), &rq.order, rq.k);
    let agreement = Engine::native().run_all(&plan).expect("backends agree");
    println!("cross-backend check on the rank query: {agreement}");

    let imp = Method::Imp.sort(rq);
    let det = Method::Det.sort(rq);
    let mc = Method::Mcdb { samples: 20 }.sort(rq);
    println!(
        "\nTop-{} days by incident count over {} aggregated days:",
        rq.k.expect("a top-k"),
        rq.table.len()
    );
    println!("  Det   {:>10?}   (one world, no guarantees)", det.elapsed);
    println!(
        "  Imp   {:>10?}   (bounds on certain & possible top-3)",
        imp.elapsed
    );
    println!("  MCDB20{:>10?}   (sampled envelope)", mc.elapsed);
    let answers = imp.value.iter().flatten().count();
    println!("  Imp returns {answers} candidate days (possible answers ⊇ certain answers)");

    // --- Window: min(year) among latitude neighbours, 2016 slice. ---
    let wq = &ds.window;
    let window = |m: Method| m.window(wq).expect("a window answer");
    let imp = window(Method::Imp);
    let mc = window(Method::Mcdb { samples: 20 });
    let tight = window(Method::Symb);
    println!(
        "\nWindow query (min(year) over latitude ±1) on {} rows:",
        wq.table.len()
    );
    println!("  Imp    {:>10?}", imp.elapsed);
    println!("  MCDB20 {:>10?}", mc.elapsed);
    println!("  exact  {:>10?}", tight.elapsed);

    let pair = |a: &runner::Bounds| {
        a.iter()
            .zip(&tight.value)
            .filter_map(|(x, t)| Some(((*x)?, (*t)?)))
            .collect::<Vec<_>>()
    };
    let qi = aggregate_quality(pair(&imp.value));
    let qm = aggregate_quality(pair(&mc.value));
    println!(
        "  quality vs exact: Imp recall {:.3} (never misses a possible answer), MCDB20 recall {:.3}",
        qi.recall, qm.recall
    );
    println!(
        "                    Imp accuracy {:.3}, MCDB20 accuracy {:.3}",
        qi.accuracy, qm.accuracy
    );
}
