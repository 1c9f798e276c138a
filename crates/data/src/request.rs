//! Single-item tokenization for serving requests.
//!
//! Training data arrives pre-shaped from the corpus generator, but a serving
//! process receives one item at a time, with token sequences of arbitrary
//! length and often without side-features. [`RequestEncoder`] validates each
//! raw request against the corpus geometry (vocabulary size, domain count),
//! pads or truncates it to the model's fixed sequence length, fills in
//! neutral side-features, and assembles any number of encoded requests into
//! the exact [`Batch`] form every model consumes — which is what lets the
//! micro-batching server coalesce single predictions into one forward pass.

use crate::batch::Batch;
use crate::dataset::MultiDomainDataset;
use crate::domain::CorpusSpec;
use crate::generator::{EMOTION_DIM, STYLE_DIM};
use crate::vocab::Vocabulary;
use dtdbd_tensor::Tensor;
use std::fmt;

/// A raw prediction request as a client would submit it.
#[derive(Debug, Clone, Default)]
pub struct InferenceRequest {
    /// Token ids of the news item (any length ≥ 1; padded / truncated by the
    /// encoder).
    pub tokens: Vec<u32>,
    /// Hard domain label. Required because the domain-aware models (MDFEND,
    /// M3FEND, ...) consume it as an input.
    pub domain: usize,
    /// Optional style side-features (`STYLE_DIM` values); neutral zeros when
    /// absent.
    pub style: Option<Vec<f32>>,
    /// Optional emotion side-features (`EMOTION_DIM` values); neutral zeros
    /// when absent.
    pub emotion: Option<Vec<f32>>,
}

impl InferenceRequest {
    /// A minimal request: tokens plus domain.
    pub fn new(tokens: Vec<u32>, domain: usize) -> Self {
        Self {
            tokens,
            domain,
            style: None,
            emotion: None,
        }
    }

    /// Domain extraction on the request path: build a request from a
    /// *named* domain, resolved (case-insensitively) against the corpus
    /// specification — what an API gateway does when clients send
    /// `"Society"` instead of a numeric label. `None` when the corpus has
    /// no domain of that name (callers map this to a
    /// [`RequestError::DomainOutOfRange`]-style rejection).
    pub fn for_named_domain(tokens: Vec<u32>, domain: &str, spec: &CorpusSpec) -> Option<Self> {
        spec.domain_index(domain)
            .map(|domain| Self::new(tokens, domain))
    }
}

/// Why a raw request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The token sequence was empty.
    EmptyTokens,
    /// A token id exceeds the vocabulary.
    TokenOutOfRange {
        /// The offending token id.
        token: u32,
        /// Exclusive vocabulary bound.
        vocab_size: usize,
    },
    /// The domain label exceeds the corpus's domain count.
    DomainOutOfRange {
        /// The offending domain label.
        domain: usize,
        /// Number of domains.
        n_domains: usize,
    },
    /// A side-feature vector has the wrong length.
    SideFeatureLength {
        /// `"style"` or `"emotion"`.
        which: &'static str,
        /// Received length.
        got: usize,
        /// Required length.
        expected: usize,
    },
    /// A side-feature value is NaN or infinite.
    SideFeatureNonFinite {
        /// `"style"` or `"emotion"`.
        which: &'static str,
    },
}

impl RequestError {
    /// Stable machine-readable code for this rejection, as carried in the
    /// `"error"` field of the HTTP front-end's JSON error bodies. These are
    /// wire protocol: never renamed, only added to.
    pub fn wire_code(&self) -> &'static str {
        match self {
            Self::EmptyTokens => "empty_tokens",
            Self::TokenOutOfRange { .. } => "token_out_of_range",
            Self::DomainOutOfRange { .. } => "domain_out_of_range",
            Self::SideFeatureLength { .. } => "side_feature_length",
            Self::SideFeatureNonFinite { .. } => "side_feature_non_finite",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTokens => write!(f, "request has no tokens"),
            Self::TokenOutOfRange { token, vocab_size } => {
                write!(f, "token id {token} out of vocabulary ({vocab_size})")
            }
            Self::DomainOutOfRange { domain, n_domains } => {
                write!(f, "domain {domain} out of range ({n_domains} domains)")
            }
            Self::SideFeatureLength {
                which,
                got,
                expected,
            } => {
                write!(f, "{which} features have length {got}, expected {expected}")
            }
            Self::SideFeatureNonFinite { which } => {
                write!(f, "{which} features contain a non-finite value")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// A validated request, shaped to the corpus geometry and ready to batch.
#[derive(Debug, Clone)]
pub struct EncodedRequest {
    tokens: Vec<u32>,
    domain: usize,
    style: Vec<f32>,
    emotion: Vec<f32>,
}

impl EncodedRequest {
    /// The padded / truncated token sequence (`seq_len` entries).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The validated domain label.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// The shaped style side-features (`STYLE_DIM` values, zeros when the
    /// request carried none).
    pub fn style(&self) -> &[f32] {
        &self.style
    }

    /// The shaped emotion side-features (`EMOTION_DIM` values, zeros when
    /// the request carried none).
    pub fn emotion(&self) -> &[f32] {
        &self.emotion
    }
}

/// Validates and shapes raw requests for a particular corpus geometry.
#[derive(Debug, Clone)]
pub struct RequestEncoder {
    vocab_size: usize,
    seq_len: usize,
    n_domains: usize,
}

impl RequestEncoder {
    /// An encoder for an explicit geometry.
    pub fn new(vocab_size: usize, seq_len: usize, n_domains: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        Self {
            vocab_size,
            seq_len,
            n_domains,
        }
    }

    /// An encoder matching a dataset's geometry.
    pub fn for_dataset(dataset: &MultiDomainDataset) -> Self {
        Self::new(
            dataset.vocabulary().size(),
            dataset.seq_len(),
            dataset.n_domains(),
        )
    }

    /// The fixed sequence length requests are shaped to.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Number of domains a request may name.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Validate a raw request and shape it: tokens are truncated to
    /// `seq_len` or right-padded with [`Vocabulary::PAD`], absent
    /// side-features become neutral zeros.
    pub fn encode(&self, request: &InferenceRequest) -> Result<EncodedRequest, RequestError> {
        if request.tokens.is_empty() {
            return Err(RequestError::EmptyTokens);
        }
        if let Some(&token) = request
            .tokens
            .iter()
            .find(|&&t| t as usize >= self.vocab_size)
        {
            return Err(RequestError::TokenOutOfRange {
                token,
                vocab_size: self.vocab_size,
            });
        }
        if request.domain >= self.n_domains {
            return Err(RequestError::DomainOutOfRange {
                domain: request.domain,
                n_domains: self.n_domains,
            });
        }
        let style = Self::side_feature("style", request.style.as_deref(), STYLE_DIM)?;
        let emotion = Self::side_feature("emotion", request.emotion.as_deref(), EMOTION_DIM)?;
        // Sized once: a clone of the raw tokens would be reallocated by the
        // padding.
        let kept = &request.tokens[..request.tokens.len().min(self.seq_len)];
        let mut tokens = Vec::with_capacity(self.seq_len);
        tokens.extend_from_slice(kept);
        tokens.resize(self.seq_len, Vocabulary::PAD);
        Ok(EncodedRequest {
            tokens,
            domain: request.domain,
            style,
            emotion,
        })
    }

    fn side_feature(
        which: &'static str,
        given: Option<&[f32]>,
        dim: usize,
    ) -> Result<Vec<f32>, RequestError> {
        match given {
            None => Ok(vec![0.0; dim]),
            Some(values) => {
                if values.len() != dim {
                    return Err(RequestError::SideFeatureLength {
                        which,
                        got: values.len(),
                        expected: dim,
                    });
                }
                if values.iter().any(|v| !v.is_finite()) {
                    return Err(RequestError::SideFeatureNonFinite { which });
                }
                Ok(values.to_vec())
            }
        }
    }

    /// Assemble encoded requests into the [`Batch`] form the models consume.
    /// Veracity labels are unknown at serving time and filled with zeros
    /// (they only feed training losses, never a forward pass).
    ///
    /// The requests are borrowed from any slice, `Vec` or iterator of
    /// references, so the caller copies none of them.
    ///
    /// # Panics
    /// Panics when given no request.
    pub fn batch<'r>(&self, requests: impl IntoIterator<Item = &'r EncodedRequest>) -> Batch {
        let requests = requests.into_iter();
        let hint = requests.size_hint().0;
        let mut token_ids = Vec::with_capacity(hint * self.seq_len);
        let mut domains = Vec::with_capacity(hint);
        let mut style = Vec::with_capacity(hint * STYLE_DIM);
        let mut emotion = Vec::with_capacity(hint * EMOTION_DIM);
        for request in requests {
            debug_assert_eq!(request.tokens.len(), self.seq_len);
            token_ids.extend_from_slice(&request.tokens);
            domains.push(request.domain);
            style.extend_from_slice(&request.style);
            emotion.extend_from_slice(&request.emotion);
        }
        let batch_size = domains.len();
        assert!(batch_size > 0, "cannot batch zero requests");
        Batch {
            token_ids,
            batch_size,
            seq_len: self.seq_len,
            labels: vec![0; batch_size],
            domains,
            style: Tensor::new(vec![batch_size, STYLE_DIM], style),
            emotion: Tensor::new(vec![batch_size, EMOTION_DIM], emotion),
            indices: (0..batch_size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> RequestEncoder {
        RequestEncoder::new(100, 8, 3)
    }

    #[test]
    fn short_sequences_are_padded_and_long_ones_truncated() {
        let enc = encoder();
        let short = enc.encode(&InferenceRequest::new(vec![5, 6], 1)).unwrap();
        assert_eq!(short.tokens(), &[5, 6, 0, 0, 0, 0, 0, 0]);
        let long = enc
            .encode(&InferenceRequest::new((1..=20).collect(), 2))
            .unwrap();
        assert_eq!(long.tokens().len(), 8);
        assert_eq!(long.tokens()[7], 8);
    }

    #[test]
    fn invalid_requests_are_rejected_with_the_right_error() {
        let enc = encoder();
        assert_eq!(
            enc.encode(&InferenceRequest::new(vec![], 0)).unwrap_err(),
            RequestError::EmptyTokens
        );
        assert_eq!(
            enc.encode(&InferenceRequest::new(vec![100], 0))
                .unwrap_err(),
            RequestError::TokenOutOfRange {
                token: 100,
                vocab_size: 100
            }
        );
        assert_eq!(
            enc.encode(&InferenceRequest::new(vec![1], 3)).unwrap_err(),
            RequestError::DomainOutOfRange {
                domain: 3,
                n_domains: 3
            }
        );
        let bad_style = InferenceRequest {
            style: Some(vec![0.0; 3]),
            ..InferenceRequest::new(vec![1], 0)
        };
        assert!(matches!(
            enc.encode(&bad_style),
            Err(RequestError::SideFeatureLength { which: "style", .. })
        ));
        let bad_emotion = InferenceRequest {
            emotion: Some(vec![f32::NAN; EMOTION_DIM]),
            ..InferenceRequest::new(vec![1], 0)
        };
        assert!(matches!(
            enc.encode(&bad_emotion),
            Err(RequestError::SideFeatureNonFinite { which: "emotion" })
        ));
    }

    #[test]
    fn wire_codes_are_distinct_and_stable() {
        let errors = [
            RequestError::EmptyTokens,
            RequestError::TokenOutOfRange {
                token: 1,
                vocab_size: 1,
            },
            RequestError::DomainOutOfRange {
                domain: 1,
                n_domains: 1,
            },
            RequestError::SideFeatureLength {
                which: "style",
                got: 1,
                expected: 2,
            },
            RequestError::SideFeatureNonFinite { which: "emotion" },
        ];
        let codes: Vec<&str> = errors.iter().map(RequestError::wire_code).collect();
        assert_eq!(
            codes,
            vec![
                "empty_tokens",
                "token_out_of_range",
                "domain_out_of_range",
                "side_feature_length",
                "side_feature_non_finite",
            ]
        );
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn batch_has_the_exact_training_shape() {
        let enc = encoder();
        let reqs: Vec<EncodedRequest> = (0..5)
            .map(|i| {
                enc.encode(&InferenceRequest::new(vec![i + 1], i as usize % 3))
                    .unwrap()
            })
            .collect();
        let batch = enc.batch(&reqs);
        assert_eq!(batch.batch_size, 5);
        assert_eq!(batch.seq_len, 8);
        assert_eq!(batch.token_ids.len(), 40);
        assert_eq!(batch.domains, vec![0, 1, 2, 0, 1]);
        assert_eq!(batch.labels, vec![0; 5]);
        assert_eq!(batch.style.shape(), &[5, STYLE_DIM]);
        assert_eq!(batch.emotion.shape(), &[5, EMOTION_DIM]);
        assert_eq!(batch.indices, vec![0, 1, 2, 3, 4]);

        // Borrowed requests picked by an iterator batch the same as a slice.
        let picked = enc.batch(reqs.iter().rev().step_by(2));
        let copied: Vec<EncodedRequest> = [4, 2, 0].iter().map(|&i| reqs[i].clone()).collect();
        let reference = enc.batch(&copied);
        assert_eq!(picked.batch_size, 3);
        assert_eq!(picked.token_ids, reference.token_ids);
        assert_eq!(picked.domains, reference.domains);
        assert_eq!(picked.style.data(), reference.style.data());
        assert_eq!(picked.emotion.data(), reference.emotion.data());
    }

    #[test]
    #[should_panic(expected = "cannot batch zero requests")]
    fn batching_no_request_panics() {
        encoder().batch(&[]);
    }

    #[test]
    fn provided_side_features_are_carried_through() {
        let enc = encoder();
        let style: Vec<f32> = (0..STYLE_DIM).map(|i| i as f32).collect();
        let req = InferenceRequest {
            style: Some(style.clone()),
            ..InferenceRequest::new(vec![1], 0)
        };
        let encoded = enc.encode(&req).unwrap();
        let batch = enc.batch(std::slice::from_ref(&encoded));
        assert_eq!(batch.style.row(0), style.as_slice());
        assert!(batch.emotion.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn named_domains_resolve_against_the_corpus_spec() {
        use crate::domain::weibo21_spec;
        let spec = weibo21_spec();
        let request = InferenceRequest::for_named_domain(vec![1, 2], "Society", &spec).unwrap();
        assert_eq!(request.domain, 8);
        assert_eq!(request.tokens, vec![1, 2]);
        // Case-insensitive, like CorpusSpec::domain_index.
        let lower = InferenceRequest::for_named_domain(vec![1], "sOcIeTy", &spec).unwrap();
        assert_eq!(lower.domain, 8);
        assert!(InferenceRequest::for_named_domain(vec![1], "Sports", &spec).is_none());
    }

    #[test]
    fn encoder_matches_dataset_geometry() {
        use crate::domain::weibo21_spec;
        use crate::generator::{GeneratorConfig, NewsGenerator};
        let ds =
            NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(1, 0.02);
        let enc = RequestEncoder::for_dataset(&ds);
        assert_eq!(enc.seq_len(), ds.seq_len());
        assert_eq!(enc.n_domains(), 9);
        // Every real item of the corpus is encodable as a request.
        let item = &ds.items()[0];
        let encoded = enc
            .encode(&InferenceRequest::new(item.tokens.clone(), item.domain))
            .unwrap();
        assert_eq!(encoded.tokens(), item.tokens.as_slice());
    }
}
