//! Detector configuration.

use bed_pbe::{Pbe1, Pbe1Config, Pbe2, Pbe2Config};
use bed_sketch::{RetentionPolicy, SketchParams};
use bed_stream::StreamError;

use crate::cell::PbeCell;

/// Which persistent burstiness estimator backs each cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PbeVariant {
    /// PBE-1: buffered optimal staircase; `η` points kept per `n_buf`-point
    /// buffer (Fig. 8's knobs).
    Pbe1 {
        /// Buffer capacity in staircase corner points.
        n_buf: usize,
        /// Points retained per buffer.
        eta: usize,
    },
    /// PBE-2: online PLA with pointwise error `γ` (Fig. 9's knob).
    Pbe2 {
        /// Maximum deviation at constraint points.
        gamma: f64,
        /// Vertex cap of the live polygon.
        max_vertices: usize,
    },
}

impl PbeVariant {
    /// PBE-1 with the paper's default buffer size (n = 1,500).
    pub fn pbe1(eta: usize) -> Self {
        PbeVariant::Pbe1 { n_buf: 1_500, eta }
    }

    /// PBE-2 with the default vertex cap.
    pub fn pbe2(gamma: f64) -> Self {
        PbeVariant::Pbe2 { gamma, max_vertices: 64 }
    }

    /// Validates the variant parameters.
    pub fn validate(&self) -> Result<(), StreamError> {
        match *self {
            PbeVariant::Pbe1 { n_buf, eta } => Pbe1Config { n_buf, eta }.validate(),
            PbeVariant::Pbe2 { gamma, max_vertices } => {
                Pbe2Config { gamma, max_vertices }.validate()
            }
        }
    }

    /// Builds one cell of this variant (panics on invalid config; the
    /// builder validates first).
    pub(crate) fn make_cell(&self) -> PbeCell {
        match *self {
            PbeVariant::Pbe1 { n_buf, eta } => {
                PbeCell::One(Pbe1::new(Pbe1Config { n_buf, eta }).expect("validated"))
            }
            PbeVariant::Pbe2 { gamma, max_vertices } => {
                PbeCell::Two(Pbe2::new(Pbe2Config { gamma, max_vertices }).expect("validated"))
            }
        }
    }
}

/// Full configuration of a [`crate::BurstDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Cell variant.
    pub variant: PbeVariant,
    /// Count-Min accuracy (ignored in single-event mode).
    pub sketch: SketchParams,
    /// Event universe size K for mixed streams; `None` = single-event mode
    /// (one PBE, no hashing).
    pub universe: Option<u32>,
    /// Maintain the dyadic hierarchy for bursty event queries. Costs
    /// `O(log K)` extra CM-PBEs; a [`crate::QueryRequest::BurstyEvents`]
    /// under [`crate::QueryStrategy::Pruned`] searches it (a flat detector
    /// scans instead).
    pub hierarchical: bool,
    /// Seed for all hash functions.
    pub seed: u64,
    /// Tiered retention policy (`None` = unbounded full-resolution
    /// history). When set, the detector folds live PBE state into frozen
    /// Hokusai-style tiers every `compact_every` arrivals, bounding memory
    /// to `O(budget · log₂ horizon)` knees per cell. Shapes the summary,
    /// so it is persisted, diffed, and checked on restore.
    pub retention: Option<RetentionPolicy>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            variant: PbeVariant::pbe2(8.0),
            sketch: SketchParams::PAPER,
            universe: None,
            hierarchical: true,
            seed: 0xBED,
            retention: None,
        }
    }
}

/// Maps the sketch-layer policy invariants onto [`StreamError`] for the
/// builder/`from_config` validation path.
pub(crate) fn validate_retention(p: &RetentionPolicy) -> Result<(), StreamError> {
    for (parameter, got) in [
        ("retention window", p.window),
        ("retention budget", u64::from(p.budget)),
        ("retention compact cadence", p.compact_every),
    ] {
        if got == 0 {
            return Err(StreamError::BudgetTooSmall { parameter, got: 0, min: 1 });
        }
    }
    Ok(())
}

impl DetectorConfig {
    /// Human-readable diff of the configurations, one `field: self vs
    /// other` clause per mismatch; `None` when they match. Powers the `bed
    /// restore` config-mismatch error, so a user sees *which* knob diverged
    /// instead of a mixed-state detector.
    pub fn diff(&self, other: &DetectorConfig) -> Option<String> {
        let mut clauses = Vec::new();
        if self.variant != other.variant {
            clauses.push(format!("variant: {:?} vs {:?}", self.variant, other.variant));
        }
        if self.sketch.epsilon != other.sketch.epsilon {
            clauses.push(format!("epsilon: {} vs {}", self.sketch.epsilon, other.sketch.epsilon));
        }
        if self.sketch.delta != other.sketch.delta {
            clauses.push(format!("delta: {} vs {}", self.sketch.delta, other.sketch.delta));
        }
        if self.universe != other.universe {
            clauses.push(format!("universe: {:?} vs {:?}", self.universe, other.universe));
        }
        if self.hierarchical != other.hierarchical {
            clauses.push(format!("hierarchical: {} vs {}", self.hierarchical, other.hierarchical));
        }
        if self.seed != other.seed {
            clauses.push(format!("seed: {} vs {}", self.seed, other.seed));
        }
        if self.retention != other.retention {
            let fmt = |r: &Option<RetentionPolicy>| match r {
                Some(p) => p.to_string(),
                None => "none".to_string(),
            };
            clauses.push(format!(
                "retention: {} vs {}",
                fmt(&self.retention),
                fmt(&other.retention)
            ));
        }
        if clauses.is_empty() {
            None
        } else {
            Some(clauses.join("; "))
        }
    }
}

/// Persistence of the summary-shaping configuration. The field order is
/// exactly the `BEDD` v1 header layout (variant, ε, δ, universe,
/// hierarchy, seed, retention), so [`crate::BurstDetector`]'s codec and
/// the WAL header share one definition and stay byte-compatible.
impl bed_stream::Codec for DetectorConfig {
    fn encode(&self, w: &mut bed_stream::codec::Writer) {
        self.variant.encode(w);
        w.f64(self.sketch.epsilon);
        w.f64(self.sketch.delta);
        match self.universe {
            Some(k) => {
                w.u8(1);
                w.u32(k);
            }
            None => w.u8(0),
        }
        w.u8(u8::from(self.hierarchical));
        w.u64(self.seed);
        match &self.retention {
            Some(p) => {
                w.u8(1);
                p.encode(w);
            }
            None => w.u8(0),
        }
    }

    fn decode(r: &mut bed_stream::codec::Reader<'_>) -> Result<Self, bed_stream::CodecError> {
        use bed_stream::CodecError;
        let variant = PbeVariant::decode(r)?;
        let sketch =
            SketchParams { epsilon: r.f64("config epsilon")?, delta: r.f64("config delta")? };
        sketch.validate().map_err(|_| CodecError::Invalid { context: "sketch params" })?;
        let universe = match r.u8("config universe flag")? {
            0 => None,
            1 => Some(r.u32("config universe")?),
            _ => return Err(CodecError::Invalid { context: "config universe flag" }),
        };
        let hierarchical = match r.u8("config hierarchy flag")? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid { context: "config hierarchy flag" }),
        };
        let seed = r.u64("config seed")?;
        let retention = match r.u8("config retention flag")? {
            0 => None,
            1 => Some(RetentionPolicy::decode(r)?),
            _ => return Err(CodecError::Invalid { context: "config retention flag" }),
        };
        Ok(DetectorConfig { variant, sketch, universe, hierarchical, seed, retention })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_validation() {
        assert!(PbeVariant::pbe1(2).validate().is_ok());
        assert!(PbeVariant::Pbe1 { n_buf: 4, eta: 8 }.validate().is_err());
        assert!(PbeVariant::pbe2(1.0).validate().is_ok());
        assert!(PbeVariant::pbe2(0.0).validate().is_err());
    }

    #[test]
    fn make_cell_matches_variant() {
        assert!(matches!(PbeVariant::pbe1(8).make_cell(), PbeCell::One(_)));
        assert!(matches!(PbeVariant::pbe2(2.0).make_cell(), PbeCell::Two(_)));
    }

    #[test]
    fn default_config_is_valid() {
        let c = DetectorConfig::default();
        assert!(c.variant.validate().is_ok());
        assert!(c.sketch.validate().is_ok());
        assert!(c.hierarchical);
    }
}
