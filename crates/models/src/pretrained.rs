//! The simulated pre-trained text encoder.
//!
//! The paper feeds every model the activations of a *frozen* BERT / RoBERTa
//! encoder. The property the downstream models rely on is that the frozen
//! encoder places semantically related tokens close together: all
//! "sensational claim" words live in one region of the space, all
//! "attribution / sourcing" words in another, topicly related words cluster
//! by topic, and so on. A table of i.i.d. random vectors does *not* have this
//! property (160 cue tokens are not linearly separable from 1,000 others in a
//! 32-dimensional random embedding), so here we build a structured frozen
//! table: each token's vector is the sum of
//!
//! * a small token-specific random component (tokens stay distinguishable),
//! * a *class direction* shared by its semantic family — one direction for
//!   fake cues, one for real cues, one per topic group, one per domain
//!   dialect.
//!
//! This is exactly the substitution documented in DESIGN.md: a fixed,
//! information-preserving featurisation in which the relevant semantic
//! families are recoverable by the small trainable encoders that sit on top,
//! just as they are from real PLM activations.

use dtdbd_data::vocab::TokenKind;
use dtdbd_data::Vocabulary;
use dtdbd_nn::Embedding;
use dtdbd_tensor::rng::Prng;
use dtdbd_tensor::{ParamStore, Tensor};
use std::sync::{Mutex, PoisonError};

/// Strength (vector norm) of the shared class direction.
const CLASS_STRENGTH: f32 = 0.6;
/// Strength (vector norm) of the token-specific random component.
const TOKEN_STRENGTH: f32 = 0.45;

/// The last table built in this process, with the `(vocab, dim, seed)` key
/// it was built for.
type CachedTable = (Vocabulary, usize, u64, Tensor);

static LAST_TABLE: Mutex<Option<CachedTable>> = Mutex::new(None);

/// The structured frozen embedding table for a vocabulary.
///
/// The table is a pure function of `(vocab, dim, seed)`, and a process
/// builds the same one for every model it constructs (a trained model, each
/// serving worker, a reload). So the last table built is kept, keyed by the
/// whole triple, and a repeated key gets a clone of it instead of a second
/// round of draws. Every value has the same bits as a fresh build.
pub fn pretrained_table(vocab: &Vocabulary, dim: usize, seed: u64) -> Tensor {
    let mut last = LAST_TABLE.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((v, d, s, table)) = last.as_ref() {
        if (v, *d, *s) == (vocab, dim, seed) {
            return table.clone();
        }
    }
    let table = build_table(vocab, dim, seed);
    *last = Some((vocab.clone(), dim, seed, table.clone()));
    table
}

/// Draw the table for `(vocab, dim, seed)` from scratch.
fn build_table(vocab: &Vocabulary, dim: usize, seed: u64) -> Tensor {
    let mut rng = Prng::new(seed);
    let unit = |rng: &mut Prng| -> Vec<f32> {
        let v: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        v.into_iter().map(|x| x / norm).collect()
    };
    // Shared semantic directions.
    let fake_dir = unit(&mut rng);
    let real_dir = unit(&mut rng);
    let topic_dirs: Vec<Vec<f32>> = (0..vocab.n_topic_groups())
        .map(|_| unit(&mut rng))
        .collect();
    let domain_dirs: Vec<Vec<f32>> = (0..vocab.n_domains()).map(|_| unit(&mut rng)).collect();

    let size = vocab.size();
    let mut data = vec![0.0f32; size * dim];
    for token in 0..size {
        // Token-specific component: a random direction of norm TOKEN_STRENGTH,
        // so the class direction (norm CLASS_STRENGTH) dominates the geometry
        // regardless of the embedding width.
        let token_dir = unit(&mut rng);
        let row = &mut data[token * dim..(token + 1) * dim];
        for (r, t) in row.iter_mut().zip(token_dir.iter()) {
            *r = TOKEN_STRENGTH * t;
        }
        let mut add = |dir: &[f32], scale: f32| {
            for (r, d) in row.iter_mut().zip(dir.iter()) {
                *r += scale * d;
            }
        };
        match vocab.kind(token as u32) {
            TokenKind::Pad | TokenKind::Noise => {}
            TokenKind::SharedFakeCue => add(&fake_dir, CLASS_STRENGTH),
            TokenKind::SharedRealCue => add(&real_dir, CLASS_STRENGTH),
            TokenKind::DomainFakeCue(d) => {
                add(&fake_dir, CLASS_STRENGTH * 0.7);
                add(&domain_dirs[d], CLASS_STRENGTH * 0.7);
            }
            TokenKind::DomainRealCue(d) => {
                add(&real_dir, CLASS_STRENGTH * 0.7);
                add(&domain_dirs[d], CLASS_STRENGTH * 0.7);
            }
            TokenKind::Topic(t) => add(&topic_dirs[t], CLASS_STRENGTH),
        }
    }
    // The padding token embeds to zero.
    for r in &mut data[..dim] {
        *r = 0.0;
    }
    Tensor::new(vec![size, dim], data)
}

/// Install the simulated frozen pre-trained encoder into a model's parameter
/// store. Every model built from the same `(vocab, dim, seed)` triple shares
/// identical frozen vectors, mirroring how all the paper's models share the
/// same frozen BERT; the table behind them is built once per key per
/// process (see [`pretrained_table`]).
pub fn pretrained_embedding(
    store: &mut ParamStore,
    name: &str,
    vocab: &Vocabulary,
    dim: usize,
    seed: u64,
) -> Embedding {
    let table = pretrained_table(vocab, dim, seed);
    Embedding::frozen_from_table(store, name, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        dot / (na * nb).max(1e-9)
    }

    #[test]
    fn same_family_tokens_are_more_similar_than_cross_family() {
        let vocab = Vocabulary::standard(9, 9);
        let table = pretrained_table(&vocab, 32, 7);
        let row = |t: u32| table.row(t as usize);
        let fake_fake = cosine(row(vocab.shared_fake_cue(0)), row(vocab.shared_fake_cue(5)));
        let fake_real = cosine(row(vocab.shared_fake_cue(0)), row(vocab.shared_real_cue(5)));
        let noise_noise = cosine(row(vocab.noise_token(0)), row(vocab.noise_token(5)));
        assert!(fake_fake > 0.4, "fake cues should cluster: {fake_fake}");
        assert!(fake_fake > fake_real + 0.2);
        assert!(
            noise_noise.abs() < 0.4,
            "noise tokens should not cluster strongly"
        );
    }

    #[test]
    fn topic_groups_cluster_and_pad_is_zero() {
        let vocab = Vocabulary::standard(3, 3);
        let table = pretrained_table(&vocab, 24, 9);
        let same = cosine(
            table.row(vocab.topic_token(1, 0) as usize),
            table.row(vocab.topic_token(1, 7) as usize),
        );
        let different = cosine(
            table.row(vocab.topic_token(1, 0) as usize),
            table.row(vocab.topic_token(2, 7) as usize),
        );
        assert!(same > different);
        assert!(table.row(0).iter().all(|&v| v == 0.0));
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn table_is_deterministic_in_the_seed() {
        let (v3, v4) = (Vocabulary::standard(3, 3), Vocabulary::standard(4, 3));
        // Alternate A, B, A in each part of the key, so that the third call
        // follows a miss on another key and a stale slot would show.
        let keys = [
            [(&v3, 16, 1), (&v4, 16, 1), (&v3, 16, 1)],
            [(&v3, 16, 1), (&v3, 24, 1), (&v3, 16, 1)],
            [(&v3, 16, 1), (&v3, 16, 2), (&v3, 16, 1)],
        ];
        for (vocab, dim, seed) in keys.into_iter().flatten() {
            let table = pretrained_table(vocab, dim, seed);
            assert!(
                same_bits(&table, &build_table(vocab, dim, seed)),
                "{} tokens, dim {dim}, seed {seed}",
                vocab.size()
            );
        }
        assert_ne!(pretrained_table(&v3, 16, 1), pretrained_table(&v3, 16, 2));
    }

    #[test]
    fn installed_embedding_is_frozen_with_right_geometry() {
        let vocab = Vocabulary::standard(3, 3);
        let mut store = ParamStore::new();
        let emb = pretrained_embedding(&mut store, "plm", &vocab, 16, 3);
        assert!(emb.is_frozen());
        assert_eq!(emb.vocab(), vocab.size());
        assert_eq!(emb.dim(), 16);
        assert_eq!(store.num_trainable_scalars(), 0);
    }
}
