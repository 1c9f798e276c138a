//! # dtdbd-bench
//!
//! Shared machinery for the experiment binaries that regenerate every table
//! and figure of the paper. Each binary (`table1` … `table9`, `figure2`,
//! `figure3`) is a thin wrapper around the helpers in [`experiments`]:
//! corpus loading, model construction by name, training, evaluation and
//! result-row formatting.
//!
//! ## Which model each row is
//!
//! The training binaries read every model from one [`Pipeline`] per run. It
//! trains each model the first time a row asks for it and never again, and
//! every DTDBD row distils from the pipeline's own frozen teachers. A
//! model's initialisation seed is the run seed XORed with a salt:
//!
//! | rows | model | salt |
//! |---|---|---|
//! | MDFEND, M3FEND, Teacher(M3) | the clean teacher of Our(MD) / Our(M3), shared by both student architectures | `0xC1EA` |
//! | Student+DAT-IE | the unbiased teacher of every DTDBD row of its architecture | `0x0B1A` |
//! | Student+DAT | the DAT-IE student's initialisation, classic DAT objective | `0x0B1A` |
//! | Student | the DTDBD student's initialisation, trained on labels alone | `0x57D` |
//! | Our(MD), Our(M3), Student+DND, Student+ADD, w/o DAA | a student distilled from both teachers | `0x57D` |
//! | every other baseline | trained on labels | `0xBA5E` |
//!
//! ## Options
//!
//! All binaries accept:
//!
//! * `--quick` — subsample the corpora and shorten training to 2 epochs, so
//!   a table regenerates in seconds;
//! * `--seed N` — change the global seed (default 42);
//! * `--epochs N` — override the number of training epochs.
//!
//! Any other argument, or a value that is not a non-negative integer,
//! prints the error and a usage line and exits with status 2. The
//! `kernels`, `serving` and `serving_http` benchmark binaries accept
//! `--quick` alone and reject anything else the same way
//! ([`harness::quick_from_args`]).

pub mod experiments;
pub mod harness;

pub use experiments::{
    baseline_names, build_baseline, chinese_split, english_split, train_config, Ablation,
    CleanTeacherKind, EvalRow, Pipeline, Role, RunOptions, StudentArch,
};
