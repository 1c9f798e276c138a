//! Per-domain evaluation and the FPED/FNED bias metrics (Eq. 16–17).

use crate::confusion::ConfusionMatrix;

/// Metrics of a single domain.
#[derive(Debug, Clone)]
pub struct DomainMetrics {
    /// Domain name.
    pub name: String,
    /// Confusion matrix restricted to the domain.
    pub confusion: ConfusionMatrix,
}

impl DomainMetrics {
    /// Macro F1 within the domain.
    pub fn f1(&self) -> f64 {
        self.confusion.f1_macro()
    }

    /// False negative rate within the domain.
    pub fn fnr(&self) -> f64 {
        self.confusion.fnr()
    }

    /// False positive rate within the domain.
    pub fn fpr(&self) -> f64 {
        self.confusion.fpr()
    }

    /// Number of evaluated items in the domain.
    pub fn count(&self) -> usize {
        self.confusion.total()
    }
}

/// The bias metrics of the paper: FNED, FPED and their sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasMetrics {
    /// False negative equality difference: `Σ_d |FNR − FNR_d|`.
    pub fned: f64,
    /// False positive equality difference: `Σ_d |FPR − FPR_d|`.
    pub fped: f64,
}

impl BiasMetrics {
    /// `FNED + FPED`, the "Total" column of Tables VI–IX.
    pub fn total(&self) -> f64 {
        self.fned + self.fped
    }
}

/// Full evaluation of a model's predictions on a multi-domain test set.
#[derive(Debug, Clone)]
pub struct DomainEvaluation {
    overall: ConfusionMatrix,
    domains: Vec<DomainMetrics>,
}

impl DomainEvaluation {
    /// Evaluate predictions against labels with per-item domain assignments.
    ///
    /// # Panics
    /// Panics if slice lengths disagree, a domain index is out of range, or
    /// `domain_names` is empty.
    pub fn new(
        predictions: &[usize],
        labels: &[usize],
        domains: &[usize],
        domain_names: &[String],
    ) -> Self {
        assert!(!domain_names.is_empty(), "no domains given");
        assert_eq!(predictions.len(), labels.len(), "length mismatch");
        assert_eq!(predictions.len(), domains.len(), "length mismatch");
        let mut overall = ConfusionMatrix::new();
        let mut per_domain = vec![ConfusionMatrix::new(); domain_names.len()];
        for ((&p, &y), &d) in predictions.iter().zip(labels.iter()).zip(domains.iter()) {
            assert!(d < domain_names.len(), "domain index {d} out of range");
            overall.record(p, y);
            per_domain[d].record(p, y);
        }
        let domains = domain_names
            .iter()
            .zip(per_domain)
            .map(|(name, confusion)| DomainMetrics {
                name: name.clone(),
                confusion,
            })
            .collect();
        Self { overall, domains }
    }

    /// Convenience constructor from `&str` domain names.
    pub fn from_names(
        predictions: &[usize],
        labels: &[usize],
        domains: &[usize],
        domain_names: &[&str],
    ) -> Self {
        let owned: Vec<String> = domain_names.iter().map(|s| s.to_string()).collect();
        Self::new(predictions, labels, domains, &owned)
    }

    /// Overall confusion matrix across all domains.
    pub fn overall(&self) -> &ConfusionMatrix {
        &self.overall
    }

    /// Overall macro F1.
    pub fn overall_f1(&self) -> f64 {
        self.overall.f1_macro()
    }

    /// Per-domain metrics in domain order.
    pub fn domains(&self) -> &[DomainMetrics] {
        &self.domains
    }

    /// Per-domain macro F1 values in domain order.
    pub fn domain_f1(&self) -> Vec<f64> {
        self.domains.iter().map(DomainMetrics::f1).collect()
    }

    /// Whether every prediction falls in one class (or there are none). Such
    /// a predictor has the same FNR and FPR (each 0 or 1) in every domain
    /// that holds both classes, so its FNED and FPED are 0 by construction:
    /// a low [`DomainEvaluation::bias`] then says nothing about fairness,
    /// and tables should not rank it.
    pub fn predicts_one_class(&self) -> bool {
        let o = &self.overall;
        o.tp + o.fp == 0 || o.tn + o.fn_ == 0
    }

    /// The FPED / FNED bias metrics (Eq. 16–17). Domains with no evaluated
    /// items are skipped (they carry no evidence of bias). A collapsed
    /// predictor scores 0 here whenever every domain holds both classes;
    /// check [`DomainEvaluation::predicts_one_class`] before reading a low
    /// score as unbiased.
    pub fn bias(&self) -> BiasMetrics {
        let overall_fnr = self.overall.fnr();
        let overall_fpr = self.overall.fpr();
        let mut fned = 0.0;
        let mut fped = 0.0;
        for d in &self.domains {
            if d.count() == 0 {
                continue;
            }
            fned += (overall_fnr - d.fnr()).abs();
            fped += (overall_fpr - d.fpr()).abs();
        }
        BiasMetrics { fned, fped }
    }

    /// Verify the domain disparate-mistreatment constraint (Definition 3 /
    /// Eq. 3–4) up to a tolerance: every pair of domains must have FNR and
    /// FPR within `tolerance` of each other.
    pub fn satisfies_disparate_mistreatment(&self, tolerance: f64) -> bool {
        let active: Vec<&DomainMetrics> = self.domains.iter().filter(|d| d.count() > 0).collect();
        for a in &active {
            for b in &active {
                if (a.fnr() - b.fnr()).abs() > tolerance || (a.fpr() - b.fpr()).abs() > tolerance {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["A", "B", "C"];

    #[test]
    fn unbiased_predictor_has_zero_equality_difference() {
        // Same error profile in every domain: one FP and one FN per domain.
        let labels = vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0];
        let domains = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        let preds = vec![0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0];
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
        let bias = eval.bias();
        assert!(bias.fned.abs() < 1e-9);
        assert!(bias.fped.abs() < 1e-9);
        assert!(bias.total().abs() < 1e-9);
        assert!(eval.satisfies_disparate_mistreatment(1e-9));
    }

    #[test]
    fn biased_predictor_accumulates_equality_difference() {
        // Domain 0: perfect. Domain 1: all real items flagged fake (FPR 1).
        let labels = vec![1, 0, 1, 0, /* domain 1 */ 1, 0, 1, 0];
        let domains = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let preds = vec![1, 0, 1, 0, 1, 1, 1, 1];
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &["A", "B"]);
        let bias = eval.bias();
        // Overall FPR = 2/4 = 0.5; |0.5-0| + |0.5-1| = 1.0
        assert!((bias.fped - 1.0).abs() < 1e-9);
        assert!(bias.fned.abs() < 1e-9);
        assert!((bias.total() - 1.0).abs() < 1e-9);
        assert!(!eval.satisfies_disparate_mistreatment(0.1));
    }

    #[test]
    fn per_domain_f1_reflects_domain_accuracy() {
        let labels = vec![1, 0, 1, 0, 1, 0];
        let domains = vec![0, 0, 1, 1, 2, 2];
        let preds = vec![1, 0, 0, 1, 1, 0]; // domain 0 and 2 perfect, domain 1 inverted
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
        let f1 = eval.domain_f1();
        assert!((f1[0] - 1.0).abs() < 1e-9);
        assert!(f1[1] < 0.01);
        assert!((f1[2] - 1.0).abs() < 1e-9);
        assert!(eval.overall_f1() < 1.0);
        assert!(eval.overall_f1() > 0.5);
    }

    #[test]
    fn empty_domains_are_ignored_in_bias() {
        let labels = vec![1, 0];
        let domains = vec![0, 0];
        let preds = vec![1, 0];
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
        assert_eq!(eval.domains()[1].count(), 0);
        assert!(eval.bias().total().abs() < 1e-9);
    }

    #[test]
    fn overall_matches_sum_of_domains() {
        let labels = vec![1, 0, 1, 1, 0, 0];
        let domains = vec![0, 1, 2, 0, 1, 2];
        let preds = vec![1, 1, 0, 1, 0, 0];
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
        let sum: usize = eval.domains().iter().map(DomainMetrics::count).sum();
        assert_eq!(sum, eval.overall().total());
    }

    #[test]
    fn single_class_predictors_are_flagged_despite_zero_bias() {
        let labels = vec![1, 0, 0, 1, 1, 0];
        let domains = vec![0, 0, 1, 1, 2, 2];
        for constant in [1, 0] {
            let preds = vec![constant; labels.len()];
            let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
            assert!(eval.predicts_one_class(), "all-{constant} predictor");
            assert_eq!(eval.bias().total(), 0.0, "zero by construction");
        }
        let preds = vec![1, 0, 1, 1, 0, 1];
        let eval = DomainEvaluation::from_names(&preds, &labels, &domains, &NAMES);
        assert!(!eval.predicts_one_class());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_domain_panics() {
        let _ = DomainEvaluation::from_names(&[1], &[1], &[7], &NAMES);
    }
}
