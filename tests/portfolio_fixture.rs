//! The budgeted `Portfolio` path pinned byte for byte.
//!
//! `soc_frontier` designs 32-, 48- and 96-target SoCs with a
//! 50 000-node `Portfolio`, and most of its directions exhaust the exact
//! budget and fall back to the annealing heuristic; the 48-target
//! instance runs both failing and succeeding repair anneals. Neither
//! `suite_rows.json` (exact only) nor any other fixture covers that
//! fallback, so `tests/fixtures/soc_portfolio.jsonl` holds both
//! directions' `to_json("portfolio")` for each size, one line per size.
//!
//! The three designs take a few seconds optimised and minutes
//! unoptimised, so the test runs in release builds only (CI's release
//! equivalence step runs this file). Re-record only on a deliberate
//! design change: `fixture_lines()` is the recorder.

use stbus::core::{DesignParams, Pipeline, Portfolio, Synthesizer};
use stbus::milp::SolveLimits;
use stbus::traffic::workloads::synthetic;

const FIXTURE: &str = include_str!("fixtures/soc_portfolio.jsonl");

/// One line per SoC size: `{"targets":n,"it":{…},"ti":{…}}`.
fn fixture_lines() -> Vec<String> {
    let params = DesignParams::default()
        .with_overlap_threshold(0.12)
        .with_window_size(2_000)
        .with_maxtb(6);
    let strategy = Portfolio::with_budget(SolveLimits::nodes(50_000));
    [32, 48, 96]
        .into_iter()
        .map(|targets| {
            let app = synthetic::scaled_soc(targets, 0xDA7E_2005);
            let analyzed = Pipeline::collect(&app, &params).analyze(&params);
            let designed = analyzed
                .synthesize(&strategy as &dyn Synthesizer)
                .expect("the portfolio always answers");
            format!(
                "{{\"targets\":{targets},\"it\":{},\"ti\":{}}}",
                designed.it.to_json("portfolio"),
                designed.ti.to_json("portfolio"),
            )
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: minutes unoptimised")]
fn portfolio_soc_designs_match_the_fixture() {
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual = fixture_lines();
    assert_eq!(actual.len(), expected.len(), "one line per SoC size");
    for (line, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "line {line} of soc_portfolio.jsonl");
    }
}
