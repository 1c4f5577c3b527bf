//! Experiment harness for the F3R reproduction.
//!
//! Each module regenerates one table or figure of the paper (the README's
//! "Experiments and benchmarks" section is the index); the binaries under
//! `src/bin/` are thin wrappers that run a module at the scale selected by the `F3R_SCALE`
//! environment variable (`tiny`, `small` — default —, `medium`) and write
//! text + CSV reports under `target/experiments/`.

#![warn(missing_docs)]

pub mod autotune;
pub mod cost_model_exp;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod relative;
pub mod report;
pub mod runner;
pub mod suite;
pub mod sweep;
pub mod table2;
pub mod table3;

pub use report::{output_dir, Table};
pub use runner::{NodeConfig, RunBudget, SolverKind, SolverOutcome, VariantKind};
pub use suite::{full_suite, nonsymmetric_suite, symmetric_suite, SuiteScale, TestProblem};
