//! # dtdbd-core
//!
//! The paper's primary contribution: the **Dual-Teacher De-biasing
//! Distillation (DTDBD)** framework, plus the single-model training and
//! evaluation machinery shared by every experiment.
//!
//! The crate is organised around the stages of Algorithm 1:
//!
//! 1. [`trainer`] — generic supervised training and evaluation of any
//!    [`dtdbd_models::FakeNewsModel`] (the "Student" and every baseline row
//!    of Tables VI/VII).
//! 2. [`dat`] — domain-adversarial training of the *unbiased teacher*, with
//!    either the classic DAT objective or the paper's DAT-IE objective that
//!    adds the information-entropy regularizer (Eq. 10–11, Table IX).
//! 3. [`distill`] — the dual-teacher distillation itself: adversarial
//!    de-biasing distillation from the unbiased teacher (Eq. 5–6), domain
//!    knowledge distillation from the clean teacher (Eq. 12), and the
//!    combined objective (Eq. 13).
//! 4. [`daa`] — the momentum-based dynamic adjustment algorithm that
//!    balances the two teachers from epoch to epoch (Eq. 14–15).

pub mod daa;
pub mod dat;
pub mod distill;
pub mod trainer;

pub use daa::DynamicAdjuster;
pub use dat::{AdversarialStudent, DatConfig, DatMode};
pub use distill::{Ablation, DistillConfig, DistillReport, DtdbdTrainer};
pub use trainer::{
    evaluate, extract_features, predict_fake_probs, train_model, train_step, TrainConfig,
    TrainReport,
};
