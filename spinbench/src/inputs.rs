//! Workload inputs, generated from the run's seed. The program under test
//! receives only what is built here: template banks, query vectors and
//! the tenant-registration documents.

use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spinamm_core::amm::{AmmConfig, Fidelity};
use spinamm_data::dataset::{DatasetConfig, FaceDataset};
use spinamm_data::image::Resolution;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_server::registry::DeploymentSpec;
use std::fmt::Write as _;

/// A derived seed for one purpose (`stream`) of the run's seed.
#[must_use]
pub fn derive(seed: u64, stream: u64) -> u64 {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Labelled query vectors.
pub type Queries = Vec<(usize, Vec<u32>)>;

/// A template bank with its labelled, shuffled queries and the module
/// configuration the tenant is built with.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Stored templates.
    pub patterns: Vec<Vec<u32>>,
    /// Queries in seeded order, labelled with the matching template.
    pub queries: Queries,
    /// Module configuration (fidelity and device seed).
    pub config: AmmConfig,
}

impl Bank {
    /// The flat deployment spec of this bank.
    #[must_use]
    pub fn flat_spec(&self) -> DeploymentSpec {
        DeploymentSpec::Flat {
            patterns: self.patterns.clone(),
            config: self.config,
        }
    }
}

/// The paper's application: 40 synthetic-face templates at 16×8, 5-bit
/// (a 128×40 crossbar), queried with the 400 labelled face images. The
/// face set and the device are the paper's fixed ones; the seed orders
/// the queries, so consecutive queries do not favour solver warm starts.
///
/// # Errors
///
/// Propagates dataset errors.
pub fn faces(seed: u64, fidelity: Fidelity) -> Result<Bank, spinamm_data::DataError> {
    let data = FaceDataset::generate(&DatasetConfig::default())?;
    let target = Resolution::new(16, 8)?;
    let patterns = data.templates(target, 5)?;
    let mut queries = data.test_vectors(target, 5)?;
    queries.shuffle(&mut ChaCha8Rng::seed_from_u64(derive(seed, 2)));
    Ok(Bank {
        patterns,
        queries,
        config: AmmConfig {
            fidelity,
            ..AmmConfig::default()
        },
    })
}

/// Synthetic templates of 128 five-bit elements, with noisy labelled
/// queries (30 % of elements moved by up to 2 levels).
///
/// # Errors
///
/// Propagates workload-generation errors.
pub fn patterns(seed: u64, count: usize, queries: usize) -> Result<Bank, spinamm_data::DataError> {
    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: count,
        vector_len: 128,
        bits: 5,
        query_count: queries,
        query_noise: 0.3,
        noise_magnitude: 2,
        similarity: 0.0,
        seed,
    })?;
    let mut queries = w.queries;
    queries.shuffle(&mut ChaCha8Rng::seed_from_u64(derive(seed, 2)));
    Ok(Bank {
        patterns: w.patterns,
        queries,
        config: AmmConfig {
            seed: derive(seed, 3),
            ..AmmConfig::default()
        },
    })
}

/// Renders a `POST /v1/tenants` document for `bank`. `extra` holds
/// additional `"key": value` members (tiling, engine sizing).
#[must_use]
pub fn registration(name: &str, kind: &str, bank: &Bank, extra: &str) -> String {
    let fidelity = match bank.config.fidelity {
        Fidelity::Ideal => "ideal",
        Fidelity::Driven => "driven",
        Fidelity::Parasitic => "parasitic",
    };
    let mut out = String::with_capacity(bank.patterns.len() * bank.patterns[0].len() * 3 + 256);
    let _ = write!(
        out,
        "{{\"tenant\":\"{name}\",\"kind\":\"{kind}\",\"fidelity\":\"{fidelity}\",\"seed\":{},{extra},\"patterns\":[",
        bank.config.seed
    );
    for (i, row) in bank.patterns.iter().enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = patterns(5, 12, 20).expect("bank");
        let b = patterns(5, 12, 20).expect("bank");
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.config.seed, b.config.seed);
        let c = patterns(6, 12, 20).expect("bank");
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn registration_document_parses() {
        let bank = patterns(1, 3, 2).expect("bank");
        let doc = registration("t", "flat", &bank, "\"workers\":2");
        let parsed = spinamm_telemetry::json::parse(&doc).expect("json");
        assert_eq!(
            parsed
                .get("patterns")
                .and_then(|p| p.as_array())
                .map(<[_]>::len),
            Some(3)
        );
        assert_eq!(parsed.get("workers").and_then(|w| w.as_u64()), Some(2));
    }
}
