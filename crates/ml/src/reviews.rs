//! Synthetic Amazon-style product review corpus.
//!
//! The paper trains on the public Amazon product review dataset (90 GB
//! featurized). That dataset cannot ship with this reproduction, so this
//! module generates a statistically similar stand-in: Zipf-distributed
//! vocabulary, a sentiment lexicon whose presence drives the star rating,
//! and configurable document lengths. The generator is deterministic in
//! its seed, and its *learnability* matters more than its realism: the
//! paper's experiment only needs "a corpus on which the MLP's loss falls".

use faasim_simcore::SimRng;

/// One synthetic review.
#[derive(Clone, Debug, PartialEq)]
pub struct Review {
    /// Review text (space-joined tokens).
    pub text: String,
    /// Star rating in `[1.0, 5.0]`.
    pub rating: f32,
}

/// Corpus generator configuration.
#[derive(Clone, Debug)]
pub struct ReviewGenConfig {
    /// Vocabulary size (neutral filler words).
    pub vocab_size: usize,
    /// Number of positive sentiment words.
    pub positive_words: usize,
    /// Number of negative sentiment words.
    pub negative_words: usize,
    /// Tokens per review (min, max).
    pub doc_len: (usize, usize),
    /// Rating noise standard deviation (stars).
    pub rating_noise: f32,
}

impl Default for ReviewGenConfig {
    fn default() -> Self {
        ReviewGenConfig {
            vocab_size: 6_000,
            positive_words: 400,
            negative_words: 400,
            doc_len: (20, 120),
            rating_noise: 0.4,
        }
    }
}

/// Deterministic review generator.
#[derive(Clone, Debug)]
pub struct ReviewGenerator {
    cfg: ReviewGenConfig,
    rng: SimRng,
}

impl ReviewGenerator {
    /// Create a generator with the given seed.
    pub fn new(cfg: ReviewGenConfig, seed: u64) -> ReviewGenerator {
        ReviewGenerator {
            cfg,
            rng: SimRng::from_seed(seed),
        }
    }

    fn zipf_rank(&mut self, n: usize) -> usize {
        // Simple inverse-power sampling, adequate for corpus shape.
        let u = self.rng.unit_f64().max(1e-12);
        let x = (n as f64).powf(u) - 1.0;
        (x as usize).min(n - 1)
    }

    /// Generate one review.
    pub fn generate(&mut self) -> Review {
        let (lo, hi) = self.cfg.doc_len;
        let len = self.rng.range_usize(lo..hi.max(lo) + 1);
        // Sentiment of this review in [-1, 1].
        let polarity = self.rng.uniform(-1.0, 1.0) as f32;
        let mut tokens: Vec<String> = Vec::with_capacity(len);
        let mut sentiment_sum = 0.0f32;
        let mut sentiment_count = 0u32;
        for _ in 0..len {
            let r = self.rng.unit_f64() as f32;
            // ~25% of tokens carry sentiment, biased by the polarity.
            if r < 0.25 {
                let positive = (self.rng.unit_f64() as f32) < (polarity + 1.0) / 2.0;
                if positive {
                    let w = self.rng.range_usize(0..self.cfg.positive_words);
                    tokens.push(format!("good{w}"));
                    sentiment_sum += 1.0;
                } else {
                    let w = self.rng.range_usize(0..self.cfg.negative_words);
                    tokens.push(format!("bad{w}"));
                    sentiment_sum -= 1.0;
                }
                sentiment_count += 1;
            } else {
                let w = self.zipf_rank(self.cfg.vocab_size);
                tokens.push(format!("word{w}"));
            }
        }
        let mean_sentiment = if sentiment_count > 0 {
            sentiment_sum / sentiment_count as f32
        } else {
            0.0
        };
        let noise: f32 = {
            // Cheap normal-ish noise: mean of 4 uniforms.
            let mut acc = 0.0f32;
            for _ in 0..4 {
                acc += self.rng.unit_f64() as f32 - 0.5;
            }
            acc * self.cfg.rating_noise * (12.0f32 / 4.0).sqrt()
        };
        let rating = (3.0 + 2.0 * mean_sentiment + noise).clamp(1.0, 5.0);
        Review {
            text: tokens.join(" "),
            rating,
        }
    }

    /// Generate a batch of reviews.
    pub fn generate_batch(&mut self, n: usize) -> Vec<Review> {
        (0..n).map(|_| self.generate()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::Trainer;
    use crate::featurize::BagOfWords;

    #[test]
    fn generation_is_deterministic() {
        let mut a = ReviewGenerator::new(ReviewGenConfig::default(), 1);
        let mut b = ReviewGenerator::new(ReviewGenConfig::default(), 1);
        let mut c = ReviewGenerator::new(ReviewGenConfig::default(), 2);
        assert_eq!(a.generate_batch(5), b.generate_batch(5));
        assert_ne!(a.generate(), c.generate());
    }

    #[test]
    fn ratings_in_range_and_varied() {
        let mut g = ReviewGenerator::new(ReviewGenConfig::default(), 3);
        let reviews = g.generate_batch(500);
        assert!(reviews.iter().all(|r| (1.0..=5.0).contains(&r.rating)));
        let mean: f32 = reviews.iter().map(|r| r.rating).sum::<f32>() / 500.0;
        assert!((2.0..4.0).contains(&mean), "mean rating {mean}");
        let lows = reviews.iter().filter(|r| r.rating < 2.0).count();
        let highs = reviews.iter().filter(|r| r.rating > 4.0).count();
        assert!(lows > 10 && highs > 10, "lows {lows}, highs {highs}");
    }

    #[test]
    fn doc_lengths_respect_bounds() {
        let cfg = ReviewGenConfig {
            doc_len: (5, 10),
            ..Default::default()
        };
        let mut g = ReviewGenerator::new(cfg, 4);
        for r in g.generate_batch(100) {
            let n = r.text.split(' ').count();
            assert!((5..=10).contains(&n), "len {n}");
        }
    }

    #[test]
    fn corpus_is_learnable_by_paper_model_shape() {
        // End-to-end sanity: featurize a small corpus and check the MLP's
        // training loss falls substantially — the property the paper's
        // case study relies on.
        let mut g = ReviewGenerator::new(ReviewGenConfig::default(), 5);
        let train = g.generate_batch(400);
        let texts: Vec<&str> = train.iter().map(|r| r.text.as_str()).collect();
        let bow = BagOfWords::fit(texts.iter().copied(), 2_000);
        let xs = bow.transform_batch(texts.iter().copied());
        let ys: Vec<f32> = train.iter().map(|r| r.rating).collect();
        let mut trainer = Trainer::new(&[bow.dim(), 10, 10, 1], 0.01, 6);
        let first = trainer.train_batch(&xs, &ys);
        let mut last = first;
        for _ in 0..60 {
            last = trainer.train_batch(&xs, &ys);
        }
        assert!(
            last < first * 0.25,
            "loss did not fall: {first} -> {last}"
        );
    }
}
