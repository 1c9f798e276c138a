//! Synthetic multi-domain news generation.
//!
//! Each generated item consists of a fixed-length token sequence plus style
//! and emotion side-features. The generative process is designed so that the
//! corpus exhibits exactly the structure the paper studies; see the crate
//! docs and DESIGN.md for the full rationale.

use crate::dataset::MultiDomainDataset;
use crate::domain::CorpusSpec;
use crate::vocab::Vocabulary;
use dtdbd_tensor::rng::Prng;

/// Dimensionality of the style side-feature vector.
pub const STYLE_DIM: usize = 8;
/// Dimensionality of the emotion side-feature vector.
pub const EMOTION_DIM: usize = 8;

/// A single synthetic news item.
#[derive(Debug, Clone)]
pub struct NewsItem {
    /// Token-id sequence of length [`GeneratorConfig::seq_len`].
    pub tokens: Vec<u32>,
    /// Veracity label: `0` = real, `1` = fake.
    pub label: usize,
    /// Hard domain label (index into the corpus spec's domains).
    pub domain: usize,
    /// Style side-features (sensationalism, punctuation density, hedging, ...).
    pub style: [f32; STYLE_DIM],
    /// Emotion side-features (arousal, negativity, fear, joy, ...).
    pub emotion: [f32; EMOTION_DIM],
    /// Whether this item was generated as content-ambiguous (weak cues).
    pub ambiguous: bool,
    /// Stable per-corpus identifier (generation order before shuffling).
    pub id: usize,
}

impl NewsItem {
    /// `true` if the item is labelled fake.
    pub fn is_fake(&self) -> bool {
        self.label == 1
    }

    /// A short human-readable description used by the case-study figure.
    pub fn describe(&self, domain_name: &str) -> String {
        format!(
            "[{}] {} news #{} ({})",
            domain_name,
            if self.is_fake() { "fake" } else { "real" },
            self.id,
            if self.ambiguous {
                "ambiguous content"
            } else {
                "clear content"
            }
        )
    }
}

/// Tunable parameters of the generative process.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Token sequence length of every item.
    pub seq_len: usize,
    /// Number of slots reserved for veracity cue tokens.
    pub cue_slots: usize,
    /// Number of slots reserved for topic tokens.
    pub topic_slots: usize,
    /// Fraction of items whose cues are unreliable ("ambiguous" items); these
    /// are the items on which a biased model falls back to the domain prior.
    pub ambiguous_rate: f32,
    /// Cue reliability of ambiguous items (probability a cue slot carries a
    /// label-consistent cue).
    pub ambiguous_reliability: f32,
    /// Cue reliability range of clear items.
    pub clear_reliability: (f32, f32),
    /// Fraction of label-consistent cues drawn from the domain's dialect
    /// rather than the shared cue vocabulary.
    pub dialect_rate: f32,
    /// Scale of the noise added to style/emotion features.
    pub side_feature_noise: f32,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seq_len: 24,
            cue_slots: 6,
            topic_slots: 10,
            ambiguous_rate: 0.35,
            ambiguous_reliability: 0.15,
            clear_reliability: (0.55, 0.85),
            dialect_rate: 0.40,
            side_feature_noise: 0.6,
        }
    }
}

impl GeneratorConfig {
    /// A reduced configuration for fast tests (shorter sequences).
    pub fn tiny() -> Self {
        Self {
            seq_len: 12,
            cue_slots: 4,
            topic_slots: 5,
            ..Self::default()
        }
    }
}

/// Deterministic generator of multi-domain corpora.
#[derive(Debug, Clone)]
pub struct NewsGenerator {
    config: GeneratorConfig,
    vocab: Vocabulary,
    spec: CorpusSpec,
}

impl NewsGenerator {
    /// Create a generator for a corpus specification.
    pub fn new(spec: CorpusSpec, config: GeneratorConfig) -> Self {
        let vocab = Vocabulary::standard(spec.n_domains(), spec.n_topic_groups);
        Self {
            config,
            vocab,
            spec,
        }
    }

    /// The vocabulary layout used by this generator.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The corpus specification.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// The generator configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate the full corpus deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> MultiDomainDataset {
        let mut rng = Prng::new(seed);
        let mut items = Vec::with_capacity(self.spec.total());
        let mut id = 0usize;
        for (domain_idx, domain) in self.spec.domains.iter().enumerate() {
            for _ in 0..domain.fake {
                items.push(self.generate_item(domain_idx, 1, id, &mut rng));
                id += 1;
            }
            for _ in 0..domain.real {
                items.push(self.generate_item(domain_idx, 0, id, &mut rng));
                id += 1;
            }
        }
        rng.shuffle(&mut items);
        MultiDomainDataset::new(
            self.spec.clone(),
            self.vocab.clone(),
            self.config.seq_len,
            items,
        )
    }

    /// Generate a corpus whose per-domain counts are scaled by `fraction`
    /// (keeping at least 8 items per class per domain). Used by the `--quick`
    /// mode of the experiment binaries.
    pub fn generate_scaled(&self, seed: u64, fraction: f64) -> MultiDomainDataset {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let mut scaled = self.spec.clone();
        for d in &mut scaled.domains {
            d.fake = ((d.fake as f64 * fraction).round() as usize).max(8);
            d.real = ((d.real as f64 * fraction).round() as usize).max(8);
        }
        let scaled_gen = NewsGenerator::new(scaled, self.config.clone());
        scaled_gen.generate(seed)
    }

    fn generate_item(&self, domain: usize, label: usize, id: usize, rng: &mut Prng) -> NewsItem {
        let cfg = &self.config;
        let ambiguous = rng.chance(cfg.ambiguous_rate);
        let reliability = if ambiguous {
            cfg.ambiguous_reliability
        } else {
            rng.uniform(cfg.clear_reliability.0, cfg.clear_reliability.1)
        };

        let mut tokens = Vec::with_capacity(cfg.seq_len);
        // Cue slots: with probability `reliability` a label-consistent cue,
        // otherwise an uninformative token (noise or a random cue from either
        // class, which carries no net signal).
        for _ in 0..cfg.cue_slots {
            if rng.chance(reliability) {
                tokens.push(self.consistent_cue(domain, label, rng));
            } else if rng.chance(0.5) {
                tokens.push(self.vocab.noise_token(rng.below(self.vocab.noise_tokens())));
            } else {
                // A random cue of a random class: equally likely to mislead as
                // to help, so carries no usable evidence in expectation.
                let random_label = usize::from(rng.chance(0.5));
                tokens.push(self.consistent_cue(domain, random_label, rng));
            }
        }
        // Topic slots: draw topic groups from the domain's mixture with
        // geometrically decreasing weight, creating cross-domain overlap.
        let groups = self.spec.domains[domain].topic_groups;
        for _ in 0..cfg.topic_slots.min(cfg.seq_len - tokens.len()) {
            let g_idx = sample_geometric(rng, groups.len());
            let group = groups[g_idx];
            tokens.push(
                self.vocab
                    .topic_token(group, rng.below(self.vocab.topic_tokens_per_group())),
            );
        }
        // Remaining slots: noise.
        while tokens.len() < cfg.seq_len {
            tokens.push(self.vocab.noise_token(rng.below(self.vocab.noise_tokens())));
        }
        rng.shuffle(&mut tokens);

        let style = self.side_features(domain, label, reliability, 0.0, rng);
        let emotion = self.side_features(domain, label, reliability, 1.0, rng);

        NewsItem {
            tokens,
            label,
            domain,
            style,
            emotion,
            ambiguous,
            id,
        }
    }

    fn consistent_cue(&self, domain: usize, label: usize, rng: &mut Prng) -> u32 {
        let use_dialect = rng.chance(self.config.dialect_rate);
        match (label, use_dialect) {
            (1, false) => self
                .vocab
                .shared_fake_cue(rng.below(self.vocab.shared_cues_per_class())),
            (0, false) => self
                .vocab
                .shared_real_cue(rng.below(self.vocab.shared_cues_per_class())),
            (1, true) => self
                .vocab
                .domain_fake_cue(domain, rng.below(self.vocab.domain_cues_per_class())),
            (0, true) => self
                .vocab
                .domain_real_cue(domain, rng.below(self.vocab.domain_cues_per_class())),
            _ => unreachable!("label is binary"),
        }
    }

    /// One side-feature vector, drawn in index order. `phase` is 0 for
    /// style and 1 for emotion.
    fn side_features<const DIM: usize>(
        &self,
        domain: usize,
        label: usize,
        reliability: f32,
        phase: f32,
        rng: &mut Prng,
    ) -> [f32; DIM] {
        // The label signal lives in the first half of the vector and scales
        // with content reliability; the second half carries a domain-specific
        // offset; everything is perturbed by noise.
        let sign = if label == 1 { 1.0 } else { -1.0 };
        std::array::from_fn(|k| {
            let label_part = if k < DIM / 2 {
                sign * reliability * (1.0 + 0.3 * ((k as f32 + phase) * 1.3).sin())
            } else {
                0.0
            };
            let domain_part = if k >= DIM / 2 {
                0.5 * ((domain as f32 + 1.0) * (k as f32 + 1.0 + phase) * 0.7).sin()
            } else {
                0.0
            };
            label_part + domain_part + self.config.side_feature_noise * rng.normal()
        })
    }
}

/// Sample an index in `[0, n)` with geometrically decreasing probability
/// (ratio 1/2), so the first topic group dominates but later ones appear.
fn sample_geometric(rng: &mut Prng, n: usize) -> usize {
    debug_assert!(n > 0);
    let weights: Vec<f32> = (0..n).map(|i| 0.5f32.powi(i as i32)).collect();
    rng.weighted(&weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{english_spec, weibo21_spec};
    use crate::vocab::TokenKind;

    fn small_weibo() -> MultiDomainDataset {
        let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny());
        generator.generate_scaled(7, 0.1)
    }

    #[test]
    fn full_generation_matches_spec_counts() {
        let generator = NewsGenerator::new(english_spec(), GeneratorConfig::tiny());
        let ds = generator.generate(42);
        assert_eq!(ds.len(), 28_764);
        let stats = ds.stats();
        assert_eq!(stats.per_domain[0].fake, 5067);
        assert_eq!(stats.per_domain[1].total(), 826);
        assert_eq!(stats.per_domain[2].real, 4750);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny());
        let a = generator.generate_scaled(3, 0.05);
        let b = generator.generate_scaled(3, 0.05);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.items().iter().zip(b.items().iter()) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.label, y.label);
            assert_eq!(x.domain, y.domain);
        }
        let c = generator.generate_scaled(4, 0.05);
        assert!(a
            .items()
            .iter()
            .zip(c.items().iter())
            .any(|(x, y)| x.tokens != y.tokens));
    }

    #[test]
    fn items_have_expected_shape_and_ranges() {
        let ds = small_weibo();
        let cfg = GeneratorConfig::tiny();
        let vocab_size = ds.vocabulary().size() as u32;
        for item in ds.items() {
            assert_eq!(item.tokens.len(), cfg.seq_len);
            assert!(item.tokens.iter().all(|&t| t < vocab_size));
            assert!(item.label <= 1);
            assert!(item.domain < 9);
        }
    }

    #[test]
    fn fake_items_carry_more_fake_cues_than_real_items() {
        let ds = small_weibo();
        let vocab = ds.vocabulary();
        let mut fake_cue_counts = (0usize, 0usize); // (in fake items, in real items)
        let mut item_counts = (0usize, 0usize);
        for item in ds.items() {
            let n_fake_cues = item
                .tokens
                .iter()
                .filter(|&&t| {
                    matches!(
                        vocab.kind(t),
                        TokenKind::SharedFakeCue | TokenKind::DomainFakeCue(_)
                    )
                })
                .count();
            if item.is_fake() {
                fake_cue_counts.0 += n_fake_cues;
                item_counts.0 += 1;
            } else {
                fake_cue_counts.1 += n_fake_cues;
                item_counts.1 += 1;
            }
        }
        let avg_fake = fake_cue_counts.0 as f32 / item_counts.0 as f32;
        let avg_real = fake_cue_counts.1 as f32 / item_counts.1 as f32;
        assert!(
            avg_fake > avg_real + 0.5,
            "fake items should carry more fake cues: {avg_fake} vs {avg_real}"
        );
    }

    #[test]
    fn ambiguous_rate_is_close_to_configured_value() {
        let ds = small_weibo();
        let rate = ds.items().iter().filter(|i| i.ambiguous).count() as f32 / ds.len() as f32;
        assert!((rate - 0.35).abs() < 0.08, "ambiguous rate {rate}");
    }

    #[test]
    fn topic_tokens_mostly_come_from_home_group() {
        let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny());
        let ds = generator.generate_scaled(11, 0.1);
        let vocab = ds.vocabulary();
        // For the Science domain (home group 0) topic tokens of group 0 should
        // dominate but not be exclusive.
        let mut home = 0usize;
        let mut other = 0usize;
        for item in ds.items().iter().filter(|i| i.domain == 0) {
            for &t in &item.tokens {
                if let TokenKind::Topic(gr) = vocab.kind(t) {
                    if gr == 0 {
                        home += 1;
                    } else {
                        other += 1;
                    }
                }
            }
        }
        assert!(home > other, "home {home} other {other}");
        assert!(other > 0, "expected cross-domain topic overlap");
    }

    #[test]
    fn emotion_signal_separates_labels_on_clear_items() {
        let ds = small_weibo();
        let mean_first = |fake: bool| {
            let sel: Vec<&NewsItem> = ds
                .items()
                .iter()
                .filter(|i| i.is_fake() == fake && !i.ambiguous)
                .collect();
            sel.iter().map(|i| i.emotion[0]).sum::<f32>() / sel.len() as f32
        };
        assert!(mean_first(true) > mean_first(false) + 0.3);
    }

    #[test]
    fn scaled_generation_respects_minimum_counts() {
        let generator = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny());
        let ds = generator.generate_scaled(5, 0.001);
        let stats = ds.stats();
        for d in &stats.per_domain {
            assert!(d.fake >= 8 && d.real >= 8);
        }
    }

    #[test]
    fn describe_mentions_domain_and_label() {
        let ds = small_weibo();
        let item = &ds.items()[0];
        let name = ds.spec().domains[item.domain].name;
        let s = item.describe(name);
        assert!(s.contains(name));
        assert!(s.contains("news"));
    }
}
