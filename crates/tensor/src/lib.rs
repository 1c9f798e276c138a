//! # dtdbd-tensor
//!
//! A small, dependency-light dense tensor library with reverse-mode automatic
//! differentiation. It is the training substrate on which the whole DTDBD
//! reproduction is built: every baseline model, both teachers, and the student
//! are trained with the tape-based [`Graph`] defined here.
//!
//! The design is deliberately simple:
//!
//! * [`Tensor`] is a row-major, contiguous `Vec<f32>` with an explicit shape.
//! * [`ParamStore`] owns the trainable parameters of a model together with
//!   their accumulated gradients.
//! * [`Graph`] is a per-forward-pass tape. Building an op evaluates it
//!   eagerly and records a node; [`Graph::backward`] walks the tape in reverse
//!   and accumulates gradients into the `ParamStore`.
//! * [`optim`] provides the Adam optimizer.
//! * [`losses`] provides the loss compositions used in the paper: the
//!   softened KL knowledge-distillation loss, the information entropy
//!   regularizer of DAT-IE, and the pairwise-distance "unbiased
//!   distribution" knowledge used by adversarial de-biasing distillation
//!   (cross-entropy is the graph op [`Graph::cross_entropy_logits`]).
//!
//! The op set is closed (an enum) and only contains what the paper's models
//! need, which keeps the engine easy to verify: every op has a unit test and
//! the whole engine is checked against finite differences (see [`gradcheck`]).

pub mod gradcheck;
pub mod graph;
pub mod init;
pub mod kernels;
pub mod losses;
pub mod optim;
pub mod par;
pub mod params;
pub mod pool;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod timers;

pub use graph::{Graph, Var};
pub use params::{Param, ParamId, ParamStore};
pub use pool::BufferPool;
pub use quant::QuantizedMatrix;
pub use tensor::Tensor;
pub use timers::{KernelSpan, KernelTimers};
