//! End-to-end and per-layer benchmark of the anton2 MD engine and of the
//! Anton machine model that prices its work.
//!
//! Two seeded workloads (`dhfr`, `dhfr_shards`) are timed untraced for the
//! end-to-end metrics; a traced run adds in-memory spans around every call
//! into the program and a per-layer sweep, the machine model's layers
//! included. See [`metrics`] for the names and what each should move.

pub mod dhfr;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod smoke;
pub mod stats;
pub mod trace;
