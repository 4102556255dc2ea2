//! Umbrella crate for the STbus crossbar generation toolkit — a
//! reproduction of Murali & De Micheli, *"An Application-Specific Design
//! Methodology for STbus Crossbar Generation"*, DATE 2005.
//!
//! This crate re-exports the workspace members under one roof:
//!
//! * [`traffic`] — traces, window analysis, conflicts, workloads;
//! * [`milp`] — exact MILP/binding solvers;
//! * [`sim`] — the cycle-accurate STbus interconnect simulator;
//! * [`core`] — the four-phase design methodology and baselines;
//! * [`exec`] — the process-wide work-stealing executor every parallel
//!   layer (batch stages, phase 3's two crossbar directions, annealer
//!   restarts) runs on;
//! * [`gateway`] — the long-running HTTP+JSON synthesis service
//!   (`stbus serve`): bounded admission, tenant-fair scheduling,
//!   content-addressed artifact caching, per-request cancellation;
//! * [`journal`] — the gateway's append-only event journal: snapshots,
//!   crash recovery, and the deterministic replay driver behind
//!   `stbus replay`;
//! * [`report`] — tables and series for result presentation.
//!
//! # Quick start
//!
//! The core API is a staged pipeline: collect traffic once (phase 1, the
//! expensive reference simulation), then analyze / synthesize / validate
//! as often as the exploration needs:
//!
//! ```
//! use stbus::core::{DesignParams, Exact, Pipeline};
//! use stbus::traffic::workloads;
//!
//! let app = workloads::matrix::mat2(42);
//! let params = DesignParams::default();
//! let collected = Pipeline::collect(&app, &params);   // phase 1
//! let analyzed = collected.analyze(&params);          // phase 2
//! let report = analyzed
//!     .synthesize(&Exact::default())                  // phase 3
//!     .expect("synthesis succeeds")
//!     .report()                                       // phase 4
//!     .expect("validation succeeds");
//! println!(
//!     "{}: {} buses (full crossbar: {}), {:.1}x saving",
//!     report.app_name,
//!     report.designed.total_buses(),
//!     report.full.total_buses(),
//!     report.component_saving(),
//! );
//! ```
//!
//! `stbus::core::Batch` sweeps `apps × parameter grid` in parallel,
//! reusing each application's collected traffic across the whole grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_report;

pub use stbus_core as core;
pub use stbus_exec as exec;
pub use stbus_gateway as gateway;
pub use stbus_journal as journal;
pub use stbus_milp as milp;
pub use stbus_report as report;
pub use stbus_sim as sim;
pub use stbus_traffic as traffic;
