//! # dtdbd-bench
//!
//! Shared machinery for the experiment binaries that regenerate every table
//! and figure of the paper. Each binary (`table1` … `table9`, `figure2`,
//! `figure3`) is a thin wrapper around the helpers in [`experiments`]:
//! corpus loading, model construction by name, training, evaluation and
//! result-row formatting.
//!
//! All binaries accept:
//!
//! * `--quick` — subsample the corpora and shorten training so the table
//!   regenerates in a couple of minutes (the shape of the results is
//!   preserved; EXPERIMENTS.md records which mode produced the recorded
//!   numbers);
//! * `--seed N` — change the global seed (default 42);
//! * `--epochs N` — override the number of training epochs.
//!
//! Any other argument, or a value that is not a non-negative integer,
//! prints the error and a usage line and exits with status 2.

pub mod experiments;
pub mod harness;

pub use experiments::{
    baseline_names, build_baseline, chinese_split, english_split, run_baseline, train_config,
    train_dtdbd, CleanTeacherKind, EvalRow, RunOptions, StudentArch,
};
