//! Dataset containers, splits and statistics.

use crate::domain::CorpusSpec;
use crate::generator::NewsItem;
use crate::vocab::Vocabulary;
use dtdbd_tensor::rng::Prng;

/// Per-domain item counts (used to reproduce Tables I, IV and V).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainCount {
    /// Domain name.
    pub name: String,
    /// Number of fake items.
    pub fake: usize,
    /// Number of real items.
    pub real: usize,
}

impl DomainCount {
    /// Total number of items in the domain.
    pub fn total(&self) -> usize {
        self.fake + self.real
    }

    /// Percentage of items in the domain that are fake.
    pub fn fake_pct(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.fake as f64 / self.total() as f64
        }
    }
}

/// Aggregate statistics of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Per-domain counts, in the corpus spec's domain order.
    pub per_domain: Vec<DomainCount>,
}

impl DatasetStats {
    /// Total number of items.
    pub fn total(&self) -> usize {
        self.per_domain.iter().map(DomainCount::total).sum()
    }

    /// Total number of fake items.
    pub fn total_fake(&self) -> usize {
        self.per_domain.iter().map(|d| d.fake).sum()
    }

    /// Percentage of the corpus belonging to each domain (`%News` in
    /// Table I).
    pub fn news_share_pct(&self) -> Vec<f64> {
        let total = self.total() as f64;
        self.per_domain
            .iter()
            .map(|d| 100.0 * d.total() as f64 / total)
            .collect()
    }

    /// Per-domain fake percentage (`%Fake` in Table I).
    pub fn fake_pct(&self) -> Vec<f64> {
        self.per_domain.iter().map(DomainCount::fake_pct).collect()
    }

    /// Unweighted mean of the per-domain fake percentages (the "Average"
    /// column of Table I).
    pub fn mean_fake_pct(&self) -> f64 {
        let v = self.fake_pct();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A multi-domain news dataset: items plus the metadata needed to interpret
/// them (corpus spec, vocabulary, sequence length).
#[derive(Debug, Clone)]
pub struct MultiDomainDataset {
    spec: CorpusSpec,
    vocab: Vocabulary,
    seq_len: usize,
    items: Vec<NewsItem>,
}

/// A train/validation/test split of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training portion.
    pub train: MultiDomainDataset,
    /// Validation portion (used by DTDBD's dynamic adjustment algorithm).
    pub val: MultiDomainDataset,
    /// Held-out test portion (all tables report on this).
    pub test: MultiDomainDataset,
}

impl MultiDomainDataset {
    /// Assemble a dataset from parts (normally called by the generator).
    pub fn new(spec: CorpusSpec, vocab: Vocabulary, seq_len: usize, items: Vec<NewsItem>) -> Self {
        Self {
            spec,
            vocab,
            seq_len,
            items,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when the dataset holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the items.
    pub fn items(&self) -> &[NewsItem] {
        &self.items
    }

    /// Corpus specification the dataset was generated from.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// Vocabulary layout.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Token sequence length of every item.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.spec.n_domains()
    }

    /// Domain names in order.
    pub fn domain_names(&self) -> Vec<&'static str> {
        self.spec.domain_names()
    }

    /// Compute per-domain counts.
    pub fn stats(&self) -> DatasetStats {
        let mut per_domain: Vec<DomainCount> = self
            .spec
            .domains
            .iter()
            .map(|d| DomainCount {
                name: d.name.to_string(),
                fake: 0,
                real: 0,
            })
            .collect();
        for item in &self.items {
            if item.is_fake() {
                per_domain[item.domain].fake += 1;
            } else {
                per_domain[item.domain].real += 1;
            }
        }
        DatasetStats { per_domain }
    }

    /// Stratified split by (domain, label): each stratum is shuffled and cut
    /// into `train_frac` / `val_frac` / remainder portions, so every split
    /// preserves the per-domain fake rates.
    ///
    /// The split consumes the corpus: each item moves into its portion, so
    /// one copy of the items exists before and after. A caller that still
    /// needs the whole corpus splits a clone, `ds.clone().split(..)`. The
    /// portions share the corpus spec, vocabulary and sequence length, so
    /// `split.train` stands in for the parent wherever only those are read
    /// (a `ModelConfig`, say).
    ///
    /// # Panics
    /// Panics if the fractions are not in `(0, 1)` or sum to ≥ 1.
    pub fn split(self, train_frac: f64, val_frac: f64, seed: u64) -> Split {
        assert!(train_frac > 0.0 && val_frac > 0.0 && train_frac + val_frac < 1.0);
        let mut rng = Prng::new(seed);
        let n_domains = self.n_domains();
        let mut strata: Vec<Vec<usize>> = vec![Vec::new(); n_domains * 2];
        for (idx, item) in self.items.iter().enumerate() {
            strata[item.domain * 2 + item.label].push(idx);
        }
        let mut train_idx = Vec::new();
        let mut val_idx = Vec::new();
        let mut test_idx = Vec::new();
        for stratum in &mut strata {
            rng.shuffle(stratum);
            let n = stratum.len();
            let n_train = ((n as f64) * train_frac).round() as usize;
            let n_val = ((n as f64) * val_frac).round() as usize;
            for (i, &idx) in stratum.iter().enumerate() {
                if i < n_train {
                    train_idx.push(idx);
                } else if i < n_train + n_val {
                    val_idx.push(idx);
                } else {
                    test_idx.push(idx);
                }
            }
        }
        // Same size as `NewsItem` (the `tokens` pointer is the niche), so
        // this collects in place.
        let mut slots: Vec<Option<NewsItem>> = self.items.into_iter().map(Some).collect();
        let mut build = |indices: &mut Vec<usize>| {
            rng.shuffle(indices);
            let items = indices
                .iter()
                .map(|&i| slots[i].take().expect("every index is in one portion"))
                .collect();
            MultiDomainDataset::new(self.spec.clone(), self.vocab.clone(), self.seq_len, items)
        };
        Split {
            train: build(&mut train_idx),
            val: build(&mut val_idx),
            test: build(&mut test_idx),
        }
    }

    /// A deterministic random subsample containing roughly `fraction` of the
    /// items (stratified by domain and label, at least one item per
    /// non-empty stratum).
    pub fn subsample(&self, fraction: f64, seed: u64) -> MultiDomainDataset {
        assert!(fraction > 0.0 && fraction <= 1.0);
        if fraction >= 1.0 {
            return self.clone();
        }
        let mut rng = Prng::new(seed);
        let n_domains = self.n_domains();
        let mut strata: Vec<Vec<usize>> = vec![Vec::new(); n_domains * 2];
        for (idx, item) in self.items.iter().enumerate() {
            strata[item.domain * 2 + item.label].push(idx);
        }
        let mut keep = Vec::new();
        for stratum in &mut strata {
            if stratum.is_empty() {
                continue;
            }
            rng.shuffle(stratum);
            let n = ((stratum.len() as f64 * fraction).round() as usize).max(1);
            keep.extend_from_slice(&stratum[..n.min(stratum.len())]);
        }
        rng.shuffle(&mut keep);
        let items = keep.iter().map(|&i| self.items[i].clone()).collect();
        MultiDomainDataset::new(self.spec.clone(), self.vocab.clone(), self.seq_len, items)
    }

    /// Indices of the items belonging to a given domain.
    pub fn domain_indices(&self, domain: usize) -> Vec<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, it)| it.domain == domain)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::weibo21_spec;
    use crate::generator::{GeneratorConfig, NewsGenerator};

    fn dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(1, 0.15)
    }

    #[test]
    fn stats_sum_to_dataset_size() {
        let ds = dataset();
        let stats = ds.stats();
        assert_eq!(stats.total(), ds.len());
        assert_eq!(stats.per_domain.len(), 9);
        let shares = stats.news_share_pct();
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn full_corpus_stats_match_table_i_percentages() {
        let ds = NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate(2);
        let stats = ds.stats();
        let fake_pct = stats.fake_pct();
        // Table I: Science 39.4, Disaster 76.1, Finance 27.4, Society 55.1.
        assert!((fake_pct[0] - 39.4).abs() < 0.5);
        assert!((fake_pct[3] - 76.1).abs() < 0.5);
        assert!((fake_pct[6] - 27.4).abs() < 0.5);
        assert!((fake_pct[8] - 55.1).abs() < 0.5);
        let shares = stats.news_share_pct();
        // Table I: Science 2.6%, Society 29.2% of the corpus.
        assert!((shares[0] - 2.6).abs() < 0.2);
        assert!((shares[8] - 29.2).abs() < 0.3);
        assert!((stats.mean_fake_pct() - 51.0).abs() < 1.5);
    }

    #[test]
    fn split_is_disjoint_and_covers_everything() {
        let ds = dataset();
        let n = ds.len();
        let split = ds.split(0.6, 0.2, 3);
        let total = split.train.len() + split.val.len() + split.test.len();
        assert_eq!(total, n);
        // Id sets must be disjoint.
        let mut ids: Vec<usize> = split
            .train
            .items()
            .iter()
            .chain(split.val.items())
            .chain(split.test.items())
            .map(|i| i.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn split_preserves_per_domain_fake_rates() {
        let ds = dataset();
        let full = ds.stats();
        let split = ds.split(0.6, 0.2, 4);
        let train = split.train.stats();
        for (f, t) in full.per_domain.iter().zip(train.per_domain.iter()) {
            assert!(
                (f.fake_pct() - t.fake_pct()).abs() < 12.0,
                "{}: {} vs {}",
                f.name,
                f.fake_pct(),
                t.fake_pct()
            );
        }
    }

    #[test]
    fn split_is_deterministic() {
        let ds = dataset();
        let a = ds.clone().split(0.6, 0.2, 9);
        let b = ds.split(0.6, 0.2, 9);
        let ids = |d: &MultiDomainDataset| d.items().iter().map(|i| i.id).collect::<Vec<_>>();
        assert_eq!(ids(&a.test), ids(&b.test));
    }

    #[test]
    fn subsample_preserves_structure() {
        let ds = dataset();
        let sub = ds.subsample(0.3, 5);
        assert!(sub.len() < ds.len());
        assert!(sub.len() > ds.len() / 5);
        assert_eq!(sub.n_domains(), ds.n_domains());
        // Every domain still present.
        let stats = sub.stats();
        for d in &stats.per_domain {
            assert!(d.total() > 0, "domain {} lost all items", d.name);
        }
    }

    #[test]
    fn domain_indices_select_the_right_items() {
        let ds = dataset();
        for (d, _) in ds.spec().domains.iter().enumerate() {
            for idx in ds.domain_indices(d) {
                assert_eq!(ds.items()[idx].domain, d);
            }
        }
    }
}
