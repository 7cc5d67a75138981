//! # vcaml-bench — experiment harness
//!
//! Regenerates every table and figure of the paper from simulated corpora.
//! The `repro` binary dispatches to [`experiments`]; [`ctx`] caches the
//! generated corpora and fitted sample sets so one invocation can run the
//! whole suite without recomputation; [`report`] renders paper-style
//! tables and CDFs.
//!
//! The evaluation itself lives here too, not in the `vcaml` product:
//! [`pipeline`] cross-validates and scores models on `vcaml`'s window
//! samples, [`errors`] is the heuristic error taxonomy of Fig. 4, and
//! [`modes`] the application-mode analysis of §7.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "the experiment harness fails fast: artifact IO and corpus invariants are fatal here"
)]

pub mod ctx;
pub mod errors;
pub mod experiments;
pub mod modes;
pub mod pipeline;
pub mod report;
