//! A tournament leaderboard with disputed scores: every uncertain top-k
//! semantics from the paper's related work, side by side, on the same data
//! (U-Top, U-Rank, Global-Topk, expected rank, PT-k, and AU-DB bounds).
//!
//! ```sh
//! cargo run --example leaderboard
//! ```

use audb::competitors::{
    expected_ranks, global_topk, ptk_certain, ptk_possible, ptk_topk_probs, urank, utop,
};
use audb::engine::{Engine, Session};
use audb::rel::{Schema, Tuple, Value};
use audb::worlds::{Alternative, XTuple, XTupleTable};

fn main() {
    let players = ["ada", "grace", "edsger", "barbara", "donald"];
    // Scores under dispute: (resolved outcomes, probability). Lower = better
    // rank here (golf scoring); k = 2 podium places.
    let score_sets: [&[(i64, f64)]; 5] = [
        &[(68, 0.6), (72, 0.4)], // ada: one contested hole
        &[(70, 1.0)],            // grace: clean card
        &[(66, 0.3), (74, 0.7)], // edsger: big dispute
        &[(71, 0.5), (69, 0.5)], // barbara: coin-flip ruling
        &[(75, 0.9)],            // donald: may be disqualified
    ];
    let table = XTupleTable::new(
        Schema::new(["score", "player"]),
        score_sets
            .iter()
            .enumerate()
            .map(|(i, alts)| {
                XTuple::new(
                    alts.iter()
                        .map(|&(s, p)| Alternative {
                            tuple: Tuple::new([Value::Int(s), Value::Int(i as i64)]),
                            prob: p,
                        })
                        .collect(),
                )
            })
            .collect(),
    );
    let k = 2;
    let name = |i: usize| players[i];

    println!("Who makes the podium (top-{k} lowest scores)?\n");

    let seq = utop(&table, &[0], k, 10_000);
    println!(
        "U-Top        most likely podium sequence: {:?}",
        seq.iter()
            .map(|t| name(t.get(1).as_i64().unwrap() as usize))
            .collect::<Vec<_>>()
    );

    let ur = urank(&table, &[0], k);
    println!(
        "U-Rank       most likely per place:       {:?}",
        ur.iter().map(|o| o.map(name)).collect::<Vec<_>>()
    );

    let gt = global_topk(&table, &[0], k);
    println!(
        "Global-Topk  highest Pr[podium]:          {:?}",
        gt.iter().map(|&i| name(i)).collect::<Vec<_>>()
    );

    let er = expected_ranks(&table, &[0]);
    println!(
        "Exp. rank    per player:                  {:?}",
        er.iter()
            .enumerate()
            .map(|(i, r)| format!("{} {:.2}", name(i), r))
            .collect::<Vec<_>>()
    );

    let probs = ptk_topk_probs(&table, &[0], k);
    println!(
        "PT-k         Pr[podium]:                  {:?}",
        probs
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{} {:.2}", name(i), p))
            .collect::<Vec<_>>()
    );
    println!(
        "             certain: {:?}   possible: {:?}",
        ptk_certain(&table, &[0], k)
            .iter()
            .map(|&i| name(i))
            .collect::<Vec<_>>(),
        ptk_possible(&table, &[0], k)
            .iter()
            .map(|&i| name(i))
            .collect::<Vec<_>>()
    );

    // And the AU-DB answer: one relation carrying certain AND possible
    // membership plus rank bounds, still queryable further — issued as
    // SQL through a session, executed on every engine backend with bound
    // agreement asserted (run_all).
    let session = Session::new(Engine::native());
    session.register("scores", table.to_au_relation());
    let all = session
        .run_all_sql(&format!(
            "SELECT * FROM scores ORDER BY score AS rank LIMIT {k}"
        ))
        .expect("backends agree");
    let podium = all.output.to_rows();
    println!("\nAU-DB top-{k} (score range, player, rank range, certainty):");
    for row in podium.rows() {
        let player = name(row.tuple.get(1).sg.as_i64().unwrap() as usize);
        println!(
            "  {player:8} score {:12} rank {:10} multiplicity {}",
            row.tuple.get(0).to_string(),
            row.tuple.get(2).to_string(),
            row.mult
        );
    }
}
