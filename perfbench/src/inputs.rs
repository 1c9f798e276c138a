//! Workload inputs, all derived from the run's seed: request contents,
//! Zipf-skewed key draws and Poisson arrival schedules.

use dtdbd_data::{weibo21_spec, GeneratorConfig, InferenceRequest, NewsGenerator};
use dtdbd_tensor::rng::Prng;
use std::collections::HashSet;

/// Mix a run seed with a stream tag so independent streams never share
/// draws (splitmix64 finaliser).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw from `[0, 1)` with 53 random bits.
fn unit(rng: &mut Prng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Distinct requests with the Weibo21-like corpus's content and imbalanced
/// domain mix. Each request is a corpus item with two token positions
/// redrawn; a request equal to any earlier one from the same source is
/// redrawn, so a source never repeats itself.
pub struct RequestSource {
    templates: Vec<InferenceRequest>,
    vocab_size: u32,
    seen: HashSet<(Vec<u32>, usize)>,
    rng: Prng,
}

impl RequestSource {
    /// A source seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        let corpus = NewsGenerator::new(weibo21_spec(), GeneratorConfig::default())
            .generate_scaled(derive_seed(seed, 1), 1.0);
        let templates = corpus
            .items()
            .iter()
            .map(|item| InferenceRequest::new(item.tokens.clone(), item.domain))
            .collect();
        Self {
            templates,
            vocab_size: u32::try_from(corpus.vocabulary().size()).expect("vocabulary fits u32"),
            seen: HashSet::new(),
            rng: Prng::new(derive_seed(seed, 2)),
        }
    }

    /// The next request never produced before by this source.
    pub fn next_unique(&mut self) -> InferenceRequest {
        loop {
            let template = &self.templates[self.rng.below(self.templates.len())];
            let mut tokens = template.tokens.clone();
            for _ in 0..2 {
                let pos = self.rng.below(tokens.len());
                tokens[pos] = self.rng.below(self.vocab_size as usize) as u32;
            }
            if self.seen.insert((tokens.clone(), template.domain)) {
                return InferenceRequest::new(tokens, template.domain);
            }
        }
    }

    /// `n` requests, each never produced before by this source.
    pub fn take(&mut self, n: usize) -> Vec<InferenceRequest> {
        (0..n).map(|_| self.next_unique()).collect()
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: Prng,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`, seeded from `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += (k as f64).powf(-s);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Self {
            cdf,
            rng: Prng::new(seed),
        }
    }

    /// The next rank.
    pub fn sample(&mut self) -> usize {
        let u = unit(&mut self.rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second,
/// covering `[0, seconds)`.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = Prng::new(seed);
    let mut t = 0.0;
    let mut offsets = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - unit(&mut rng)).ln() / rate;
        if t >= seconds {
            return offsets;
        }
        offsets.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_and_poisson_repeat_exactly_for_a_seed() {
        let draws = |seed| {
            let mut z = Zipf::new(8192, 0.7, seed);
            (0..2_000).map(|_| z.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert_eq!(
            poisson_schedule(1_000.0, 2.0, 3),
            poisson_schedule(1_000.0, 2.0, 3)
        );
        assert_ne!(
            poisson_schedule(1_000.0, 2.0, 3),
            poisson_schedule(1_000.0, 2.0, 4)
        );
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let mut z = Zipf::new(100, 1.0, 11);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample()] += 1;
        }
        assert!(counts[0] > 4 * counts[9]);
        assert!(counts[9] > counts[99]);
        assert!(counts[99] > 0);
    }

    #[test]
    fn poisson_schedule_matches_its_rate() {
        let offsets = poisson_schedule(2_000.0, 5.0, 1);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
        assert!(*offsets.last().unwrap() < 5.0);
        let n = offsets.len() as f64;
        // 10,000 expected arrivals; the standard deviation is 100.
        assert!((n - 10_000.0).abs() < 500.0, "{n} arrivals");
    }

    #[test]
    fn request_source_repeats_for_a_seed_and_never_repeats_itself() {
        let mut a = RequestSource::new(5);
        let mut b = RequestSource::new(5);
        let xs = a.take(3_000);
        let ys = b.take(3_000);
        let key = |r: &InferenceRequest| (r.tokens.clone(), r.domain);
        assert!(xs.iter().zip(&ys).all(|(x, y)| key(x) == key(y)));
        let distinct: HashSet<_> = xs.iter().map(key).collect();
        assert_eq!(distinct.len(), xs.len());
    }
}
