//! # vcaml-datasets — corpus generation
//!
//! Builds the paper's two evaluation corpora plus the synthetic
//! sensitivity sweeps, standing in for the unavailable originals:
//!
//! * [`inlab`] — calls under NDT-trace-driven emulated conditions
//!   (paper §4.2, mean speeds < 10 Mbps, per-second replay);
//! * [`realworld`] — a 15-household deployment model with ISP speed
//!   tiers, mostly-good conditions, and a tail of degraded calls
//!   (§4.2: higher and stabler QoE than the lab corpus);
//! * [`sweeps`] — the Table A.6 single-impairment grid, four calls per
//!   cell (§5.4);
//! * [`convert`] — [`vcaml_vcasim::SessionTrace`] → [`vcaml::Trace`]
//!   adaptation;
//! * [`oracle`] — whole-trace batch forms of the heuristics, of
//!   end-time windowing and of the ML features: the references parity
//!   tests hold the streaming engines to, and the frame ids the Fig 4
//!   error taxonomy reads.
//!
//! All corpora are deterministic given their seed.

pub mod convert;
pub mod inlab;
pub mod oracle;
pub mod realworld;
mod semantics;
pub mod sweeps;
mod window;

pub use convert::to_core_trace;
pub use inlab::inlab_corpus;
pub use realworld::realworld_corpus;
pub use sweeps::{sweep_corpus, sweep_value_corpus};

/// Size/duration knobs for corpus generation.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Number of calls to simulate.
    pub n_calls: usize,
    /// Minimum call duration, seconds.
    pub min_secs: u32,
    /// Maximum call duration, seconds.
    pub max_secs: u32,
    /// Master seed.
    pub seed: u64,
}

impl CorpusConfig {
    /// A small corpus for tests and quick runs.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            n_calls: 6,
            min_secs: 20,
            max_secs: 30,
            seed,
        }
    }

    /// The default in-lab corpus scale (paper: 11k–15k seconds per VCA;
    /// scaled down to keep the full reproduction tractable).
    pub fn inlab_default(seed: u64) -> Self {
        CorpusConfig {
            n_calls: 36,
            min_secs: 45,
            max_secs: 90,
            seed,
        }
    }

    /// One fixed-length call, as used per cell by the
    /// `vcaml-scenario` impairment grid: every cell sees exactly
    /// `secs` seconds of traffic so scorecards stay comparable.
    pub fn scenario_cell(secs: u32, seed: u64) -> Self {
        CorpusConfig {
            n_calls: 1,
            min_secs: secs,
            max_secs: secs,
            seed,
        }
    }

    /// The default real-world corpus scale (paper: 15–25 s calls).
    pub fn realworld_default(seed: u64) -> Self {
        CorpusConfig {
            n_calls: 60,
            min_secs: 15,
            max_secs: 25,
            seed,
        }
    }
}
