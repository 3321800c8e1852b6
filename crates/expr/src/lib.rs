//! Experiment harness reproducing the paper's evaluation (§VII).
//!
//! Each module maps to one group of figures:
//!
//! | Module | Figures | Question |
//! |---|---|---|
//! | [`schedulable`] | 1, 2, 3 | schedulable ratio vs. #channels / #flows |
//! | [`efficiency`] | 4, 5 | Tx/channel and reuse hop-count distributions |
//! | [`exectime`] | 6 | scheduler execution time vs. #flows |
//! | [`reliability`] | 8, 9 | PDR box plots and Tx/channel on the testbed sim |
//! | [`detection`] | 10, 11 | classifying reuse-degraded vs. external links |
//!
//! The harness is deterministic: every experiment takes explicit seeds, and
//! the figure binaries in `wsan-bench` print the same series the paper
//! plots (plus JSON dumps under `results/`).
//!
//! Sweeps run on the [`campaign`] engine — deterministic parallel
//! execution with per-point checkpoints and resume — and the [`campaigns`]
//! catalog names each figure's sweep for the `wsan campaign` subcommand
//! and the figure binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
pub mod campaign;
pub mod campaigns;
pub mod churn;
pub mod detection;
pub mod efficiency;
pub mod exectime;
pub mod recovery;
pub mod reliability;
pub mod schedulable;
pub mod sharding;
pub mod table;

pub use algo::Algorithm;
