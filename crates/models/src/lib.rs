//! # dtdbd-models
//!
//! The model zoo of the DTDBD reproduction: every baseline the paper compares
//! against (Tables VI and VII), plus the student networks (TextCNN-S /
//! TextCNN-U and BiGRU-S) used inside the DTDBD framework.
//!
//! All models implement the [`traits::FakeNewsModel`] trait: construction
//! registers parameters in a caller-owned [`dtdbd_tensor::ParamStore`], and
//! `forward` maps a [`dtdbd_data::Batch`] to a [`traits::ModelOutput`]
//! containing classification logits, the intermediate feature used for
//! distillation / visualization, and (for domain-adversarial models) domain
//! logits.
//!
//! | Module | Models | Paper reference |
//! |--------|--------|-----------------|
//! | [`bert_mlp`] | BERT / RoBERTa frozen encoder + MLP | Sec. VI-A2 |
//! | [`textcnn`] | TextCNN baseline, TextCNN-S / TextCNN-U student | Sec. VI-A2/A4 |
//! | [`bigru`] | BiGRU baseline, BiGRU-S student | Sec. VI-A2/A4 |
//! | [`style`] | StyleLSTM, DualEmo | Sec. VI-A2 |
//! | [`moe_models`] | MMoE, MoSE | Sec. VI-A2 |
//! | [`eann`] | EANN and EANN_NoDAT | Sec. VI-A2 |
//! | [`eddfn`] | EDDFN and EDDFN_NoDAT | Sec. VI-A2 |
//! | [`mdfend`] | MDFEND (clean teacher #1) | Sec. VI-A2 |
//! | [`m3fend`] | M3FEND (clean teacher #2) | Sec. VI-A2 |
//! | [`mod@registry`] | functional comparison metadata (Table II) | Sec. II |
//!
//! Two serialization helpers also live here: [`codec`] (the little-endian
//! byte codec with bit-exact `f32` round trips, re-exported by `dtdbd-serve`
//! for its checkpoint container) and [`side_state`] (the tagged opaque-chunk
//! transport for trained state outside the `ParamStore`, such as M3FEND's
//! domain memory bank — see [`FakeNewsModel::export_side_state`]).
//!
//! [`build`] is the one map from a model's name to its constructor.

pub mod bert_mlp;
pub mod bigru;
pub mod codec;
pub mod config;
pub mod eann;
pub mod eddfn;
pub mod m3fend;
pub mod mdfend;
pub mod moe_models;
pub mod pretrained;
pub mod registry;
pub mod side_state;
pub mod style;
pub mod textcnn;
pub mod traits;

pub use bert_mlp::BertMlp;
pub use bigru::BiGruModel;
pub use config::ModelConfig;
pub use eann::Eann;
pub use eddfn::Eddfn;
pub use m3fend::M3Fend;
pub use mdfend::Mdfend;
pub use moe_models::{Mmoe, Mose};
pub use registry::{registry, MethodInfo};
pub use side_state::{is_container_tag, SideState, SideStateError, CONTAINER_TAG_PREFIX};
pub use style::{DualEmo, StyleLstm};
pub use textcnn::TextCnnModel;
pub use traits::{FakeNewsModel, ModelOutput};

use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::ParamStore;

/// Build the model `name` names (its [`FakeNewsModel::name`]), registering
/// fresh parameters drawn from `rng` in `store`; `None` for an unknown name.
pub fn build(
    name: &str,
    store: &mut ParamStore,
    config: &ModelConfig,
    rng: &mut Prng,
) -> Option<Box<dyn FakeNewsModel + Send>> {
    Some(match name {
        "BiGRU" => Box::new(BiGruModel::baseline(store, config, rng)),
        "BiGRU-S" => Box::new(BiGruModel::student(store, config, rng)),
        "TextCNN" => Box::new(TextCnnModel::baseline(store, config, rng)),
        "TextCNN-S" => Box::new(TextCnnModel::student(store, config, rng)),
        "BERT" => Box::new(BertMlp::bert(store, config, rng)),
        "RoBERTa" => Box::new(BertMlp::roberta(store, config, rng)),
        "StyleLSTM" => Box::new(StyleLstm::new(store, config, rng)),
        "DualEmo" => Box::new(DualEmo::new(store, config, rng)),
        "EANN" => Box::new(Eann::with_dat(store, config, rng)),
        "EANN_NoDAT" => Box::new(Eann::without_dat(store, config, rng)),
        "MMoE" => Box::new(Mmoe::new(store, config, rng)),
        "MoSE" => Box::new(Mose::new(store, config, rng)),
        "EDDFN" => Box::new(Eddfn::with_dat(store, config, rng)),
        "EDDFN_NoDAT" => Box::new(Eddfn::without_dat(store, config, rng)),
        "MDFEND" => Box::new(Mdfend::new(store, config, rng)),
        "M3FEND" => Box::new(M3Fend::new(store, config, rng)),
        _ => return None,
    })
}
