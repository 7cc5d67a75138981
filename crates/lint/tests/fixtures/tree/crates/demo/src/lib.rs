//! Fixture crate root: `stability-surface` seeded violations.

pub mod annotations;
pub mod engine;
pub mod events;
pub mod lockgraph;
pub mod locks;
pub mod noise;
pub mod unwraps;

pub use engine::EngineConfig; // clean: marked `Stability: stable`
pub use engine::FlowTable; // FINDING: unstable item re-exported
pub use engine::ReplayHarness as Harness; // FINDING: rename does not launder stability
