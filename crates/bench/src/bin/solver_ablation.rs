//! §6 ablation — the specialised binding solver vs the generic
//! simplex/branch-and-bound MILP stack (the "CPLEX stand-in"), plus the
//! effect of the pre-processing conflicts on synthesis time (the paper
//! notes pre-processing "can also speed up the process of finding the
//! optimal crossbar configuration").

use stbus_bench::{paper_suite, suite_params};
use stbus_core::{Exact, Pipeline, Synthesizer};
use stbus_milp::{crossbar, SolveLimits};
use stbus_report::Table;
use std::time::Instant;

fn main() {
    // --- Specialised vs generic solver on the Mat2 feasibility MILP. ---
    let app = paper_suite()
        .into_iter()
        .find(|a| a.name() == "Mat2")
        .expect("Mat2 present");
    let params = suite_params(app.name());
    let collected = Pipeline::collect(&app, &params);
    let analyzed = collected.analyze(&params);
    let pre = analyzed.pre_it();

    let mut table = Table::new(vec!["buses", "specialised", "generic MILP", "agree"]);
    for buses in 2..=4usize {
        let problem = pre.binding_problem(buses);
        let t0 = Instant::now();
        let fast = problem
            .find_feasible(&SolveLimits::default())
            .expect("within limits");
        let fast_time = t0.elapsed();
        let t0 = Instant::now();
        let slow = crossbar::solve_feasibility_milp(&problem);
        let slow_time = t0.elapsed();
        table.row(vec![
            format!("{buses}"),
            format!("{:?} ({fast_time:.2?})", fast.is_some()),
            format!("{:?} ({slow_time:.2?})", slow.is_some()),
            format!("{}", fast.is_some() == slow.is_some()),
        ]);
    }
    println!("Solver ablation on Mat2 IT feasibility (MILP-1):\n\n{table}");

    // --- Pre-processing on/off synthesis time. ---
    let mut table = Table::new(vec![
        "Application",
        "with conflicts",
        "without conflicts",
        "same size",
    ]);
    for app in paper_suite() {
        let params = suite_params(app.name());
        // One collection, two analyses: with conflicts and with the
        // threshold opened to the 50% cap (conflict-free pre-processing).
        let collected = Pipeline::collect(&app, &params);
        let analyzed = collected.analyze(&params);
        let t0 = Instant::now();
        let with = Exact::default()
            .synthesize(analyzed.pre_it(), &params)
            .expect("ok");
        let with_time = t0.elapsed();

        let no_conflict_params = params.clone().with_overlap_threshold(0.5);
        let analyzed2 = collected.analyze(&no_conflict_params);
        let t0 = Instant::now();
        let without = Exact::default()
            .synthesize(analyzed2.pre_it(), &no_conflict_params)
            .expect("ok");
        let without_time = t0.elapsed();
        table.row(vec![
            app.name().to_string(),
            format!("{} buses ({with_time:.2?})", with.num_buses),
            format!("{} buses ({without_time:.2?})", without.num_buses),
            format!("{}", with.num_buses == without.num_buses),
        ]);
    }
    println!("\nPre-processing ablation (IT direction):\n\n{table}");
}
