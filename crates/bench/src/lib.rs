//! Experiment harness for the HPCA'17 HAM reproduction.
//!
//! One module per table/figure of the paper's evaluation section; the
//! `ham-experiments` binary runs them and prints paper-style rows (plus a
//! JSON dump per experiment under `results/`). The `ham-search-bench`
//! binary times the software simulator's own kernels.
//!
//! | Experiment | Module | Paper reference |
//! |---|---|---|
//! | Accuracy vs distance error | [`exp::fig1`] | Fig. 1 |
//! | D-HAM energy/area partition | [`exp::table1`] | Table I |
//! | Switching activity | [`exp::table2`] | Table II |
//! | ML discharge waveforms | [`exp::fig4`] | Fig. 4 |
//! | Sampling vs voltage overscaling | [`exp::fig5`] | Fig. 5 |
//! | A-HAM minimum detectable distance | [`exp::fig7`] | Fig. 7 |
//! | Accuracy vs dimensionality | [`exp::table3`] | Table III |
//! | Dimension scaling | [`exp::fig9`] | Fig. 9 |
//! | Class scaling | [`exp::fig10`] | Fig. 10 |
//! | EDP vs tolerated error | [`exp::fig11`] | Fig. 11 |
//! | Area comparison | [`exp::fig12`] | Fig. 12 |
//! | Variation study | [`exp::fig13`] | Fig. 13 |
//! | Component ablations | [`exp::ablations`] | extension |
//! | Sampling ↔ error equivalence | [`exp::equivalence`] | extension |
//! | Retraining recovery | [`exp::retraining`] | extension |
//! | Operating-point comparison | [`exp::operating_points`] | extension |
//! | Fault-rate resilience sweep | [`exp::resilience`] | extension |
//! | Online learning while serving | [`exp::online`] | extension |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod exp;
pub mod report;

pub use crate::context::{Workload, WorkloadScale};
pub use crate::report::Report;
