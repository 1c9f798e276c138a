//! Vocabulary layout of the synthetic corpora.
//!
//! The vocabulary is partitioned into functional regions; the generator draws
//! from those regions and the models only ever see opaque token ids, exactly
//! as a tokenizer would produce. Knowing the layout lets tests reason about
//! what signal each token carries.

/// Token-id layout for a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    n_domains: usize,
    n_topic_groups: usize,
    shared_cues_per_class: usize,
    domain_cues_per_class: usize,
    topic_tokens_per_group: usize,
    noise_tokens: usize,
}

/// The categories a token id can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// The padding token (id 0).
    Pad,
    /// A corpus-wide cue indicating fake content.
    SharedFakeCue,
    /// A corpus-wide cue indicating real content.
    SharedRealCue,
    /// A fake cue in one domain's dialect.
    DomainFakeCue(usize),
    /// A real cue in one domain's dialect.
    DomainRealCue(usize),
    /// A topic token of one topic group.
    Topic(usize),
    /// An uninformative filler token.
    Noise,
}

impl Vocabulary {
    /// Standard layout used by both corpora.
    pub fn standard(n_domains: usize, n_topic_groups: usize) -> Self {
        Self {
            n_domains,
            n_topic_groups,
            shared_cues_per_class: 80,
            domain_cues_per_class: 20,
            topic_tokens_per_group: 40,
            noise_tokens: 200,
        }
    }

    /// Reassemble a vocabulary from explicitly recorded region sizes.
    ///
    /// This is the checkpoint-restore constructor: a serialized model must
    /// reproduce its token-id layout exactly even if the standard layout's
    /// constants change in a later version, so the codec stores all six
    /// fields and rebuilds through here.
    pub fn from_parts(
        n_domains: usize,
        n_topic_groups: usize,
        shared_cues_per_class: usize,
        domain_cues_per_class: usize,
        topic_tokens_per_group: usize,
        noise_tokens: usize,
    ) -> Self {
        Self {
            n_domains,
            n_topic_groups,
            shared_cues_per_class,
            domain_cues_per_class,
            topic_tokens_per_group,
            noise_tokens,
        }
    }

    /// The padding token id.
    pub const PAD: u32 = 0;

    /// Number of domains covered by the dialect regions.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Number of topic groups.
    pub fn n_topic_groups(&self) -> usize {
        self.n_topic_groups
    }

    fn shared_fake_start(&self) -> u32 {
        1
    }

    fn shared_real_start(&self) -> u32 {
        self.shared_fake_start() + self.shared_cues_per_class as u32
    }

    fn domain_fake_start(&self, domain: usize) -> u32 {
        self.shared_real_start()
            + self.shared_cues_per_class as u32
            + (domain * 2 * self.domain_cues_per_class) as u32
    }

    fn domain_real_start(&self, domain: usize) -> u32 {
        self.domain_fake_start(domain) + self.domain_cues_per_class as u32
    }

    fn topic_start(&self, group: usize) -> u32 {
        self.domain_fake_start(self.n_domains) + (group * self.topic_tokens_per_group) as u32
    }

    fn noise_start(&self) -> u32 {
        self.topic_start(self.n_topic_groups)
    }

    /// Total vocabulary size (exclusive upper bound on token ids).
    pub fn size(&self) -> usize {
        self.noise_start() as usize + self.noise_tokens
    }

    /// A shared fake-cue token, indexed by `i` (wraps around).
    pub fn shared_fake_cue(&self, i: usize) -> u32 {
        self.shared_fake_start() + (i % self.shared_cues_per_class) as u32
    }

    /// A shared real-cue token.
    pub fn shared_real_cue(&self, i: usize) -> u32 {
        self.shared_real_start() + (i % self.shared_cues_per_class) as u32
    }

    /// A fake-cue token in `domain`'s dialect.
    pub fn domain_fake_cue(&self, domain: usize, i: usize) -> u32 {
        assert!(domain < self.n_domains);
        self.domain_fake_start(domain) + (i % self.domain_cues_per_class) as u32
    }

    /// A real-cue token in `domain`'s dialect.
    pub fn domain_real_cue(&self, domain: usize, i: usize) -> u32 {
        assert!(domain < self.n_domains);
        self.domain_real_start(domain) + (i % self.domain_cues_per_class) as u32
    }

    /// A topic token of the given topic group.
    pub fn topic_token(&self, group: usize, i: usize) -> u32 {
        assert!(group < self.n_topic_groups);
        self.topic_start(group) + (i % self.topic_tokens_per_group) as u32
    }

    /// A noise token.
    pub fn noise_token(&self, i: usize) -> u32 {
        self.noise_start() + (i % self.noise_tokens) as u32
    }

    /// Number of distinct cue tokens per class in the shared region.
    pub fn shared_cues_per_class(&self) -> usize {
        self.shared_cues_per_class
    }

    /// Number of distinct cue tokens per class in each domain dialect.
    pub fn domain_cues_per_class(&self) -> usize {
        self.domain_cues_per_class
    }

    /// Number of topic tokens per topic group.
    pub fn topic_tokens_per_group(&self) -> usize {
        self.topic_tokens_per_group
    }

    /// Number of noise tokens.
    pub fn noise_tokens(&self) -> usize {
        self.noise_tokens
    }

    /// Classify a token id back into its [`TokenKind`] (useful for tests and
    /// for the case-study rendering of Figure 3).
    pub fn kind(&self, token: u32) -> TokenKind {
        if token == Self::PAD {
            return TokenKind::Pad;
        }
        if token < self.shared_real_start() {
            return TokenKind::SharedFakeCue;
        }
        if token < self.domain_fake_start(0) {
            return TokenKind::SharedRealCue;
        }
        if token < self.topic_start(0) {
            let rel = (token - self.domain_fake_start(0)) as usize;
            let domain = rel / (2 * self.domain_cues_per_class);
            let within = rel % (2 * self.domain_cues_per_class);
            return if within < self.domain_cues_per_class {
                TokenKind::DomainFakeCue(domain)
            } else {
                TokenKind::DomainRealCue(domain)
            };
        }
        if token < self.noise_start() {
            let group = (token - self.topic_start(0)) as usize / self.topic_tokens_per_group;
            return TokenKind::Topic(group);
        }
        TokenKind::Noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let v = Vocabulary::standard(9, 9);
        // Walk every region accessor and check the round-trip classification.
        assert_eq!(v.kind(Vocabulary::PAD), TokenKind::Pad);
        assert_eq!(v.kind(v.shared_fake_cue(0)), TokenKind::SharedFakeCue);
        assert_eq!(v.kind(v.shared_fake_cue(79)), TokenKind::SharedFakeCue);
        assert_eq!(v.kind(v.shared_real_cue(0)), TokenKind::SharedRealCue);
        for d in 0..9 {
            assert_eq!(v.kind(v.domain_fake_cue(d, 3)), TokenKind::DomainFakeCue(d));
            assert_eq!(
                v.kind(v.domain_real_cue(d, 19)),
                TokenKind::DomainRealCue(d)
            );
        }
        for t in 0..9 {
            assert_eq!(v.kind(v.topic_token(t, 5)), TokenKind::Topic(t));
        }
        assert_eq!(v.kind(v.noise_token(0)), TokenKind::Noise);
        assert_eq!(v.kind(v.noise_token(199)), TokenKind::Noise);
    }

    #[test]
    fn all_tokens_are_below_vocab_size() {
        let v = Vocabulary::standard(9, 9);
        let max = [
            v.shared_fake_cue(1000),
            v.shared_real_cue(1000),
            v.domain_fake_cue(8, 1000),
            v.domain_real_cue(8, 1000),
            v.topic_token(8, 1000),
            v.noise_token(1000),
        ]
        .into_iter()
        .max()
        .unwrap();
        assert!((max as usize) < v.size());
    }

    #[test]
    fn vocab_size_is_reasonable() {
        let v9 = Vocabulary::standard(9, 9);
        let v3 = Vocabulary::standard(3, 3);
        assert!(v9.size() > v3.size());
        assert!(v9.size() < 2500, "vocab unexpectedly large: {}", v9.size());
    }

    #[test]
    fn indices_wrap_instead_of_escaping_region() {
        let v = Vocabulary::standard(3, 3);
        assert_eq!(
            v.shared_fake_cue(0),
            v.shared_fake_cue(v.shared_cues_per_class())
        );
        assert_eq!(
            v.topic_token(1, 0),
            v.topic_token(1, v.topic_tokens_per_group())
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_domain_panics() {
        let v = Vocabulary::standard(3, 3);
        let _ = v.domain_fake_cue(5, 0);
    }
}
