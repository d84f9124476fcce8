//! Determinism contract of the force pipeline (DESIGN.md, "Threading and
//! determinism model"): every stage decomposes into fixed chunks, planes or
//! lines reduced in a fixed order, and `Parallelism::Serial` runs that same
//! decomposition in order on one thread. So
//!
//! 1. serial and parallel short- and long-range forces are **bitwise**
//!    equal, and the parallel forces are bitwise independent of
//!    `RAYON_NUM_THREADS`;
//! 2. whole trajectories — through a barostat-driven fresh neighbor build
//!    and RESPA k-space steps — end on the same checkpoint digest serially
//!    and in parallel at 3 and 5 threads.
//!
//! Everything lives in one `#[test]` so the `RAYON_NUM_THREADS` mutations
//! can never race another test in this binary.

use anton2_md::builders::solvated_protein;
use anton2_md::engine::{Engine, EngineConfig, Parallelism};
use anton2_md::integrate::RespaSchedule;
use anton2_md::pressure::BerendsenBarostat;
use anton2_md::telemetry::TelemetryLevel;

fn force_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.short_forces()
        .iter()
        .chain(e.long_forces())
        .map(|f| (f.x.to_bits(), f.y.to_bits(), f.z.to_bits()))
        .collect()
}

fn build(parallelism: Parallelism) -> Engine {
    // Protein beads give the bonded kernel real bonds/angles/dihedrals to
    // chunk; the waters exercise the pair and k-space paths.
    let mut sys = solvated_protein(120, 500, 3);
    sys.thermalize(300.0, 4);
    let mut cfg = EngineConfig::quick();
    cfg.parallelism = parallelism;
    // k-space every other step, and a box rescale every third step, which
    // forces a fresh neighbor build.
    cfg.respa = RespaSchedule { kspace_interval: 2 };
    cfg.barostat = Some(BerendsenBarostat::water(1.0, 100.0));
    cfg.barostat_period = 3;
    Engine::builder()
        .system(sys)
        .config(cfg)
        .telemetry(TelemetryLevel::Counters)
        .build()
        .unwrap()
}

/// Checkpoint digest after a short trajectory, checking the run covered a
/// fresh neighbor build beyond the initial one (the barostat's).
fn trajectory_digest(parallelism: Parallelism) -> u64 {
    let mut e = build(parallelism);
    e.run(6);
    let rows_rebuilt = e.profile().counters.rows_rebuilt;
    assert!(
        rows_rebuilt > e.system.n_atoms() as u64,
        "no fresh neighbor build in the window"
    );
    e.checkpoint().digest
}

#[test]
fn serial_and_parallel_are_bitwise_equal_at_any_thread_count() {
    std::env::set_var("RAYON_NUM_THREADS", "3");
    let serial = build(Parallelism::Serial);
    let par3 = build(Parallelism::Parallel);
    assert_eq!(
        force_bits(&serial),
        force_bits(&par3),
        "serial and parallel forces differ"
    );
    let serial_digest = trajectory_digest(Parallelism::Serial);
    assert_eq!(
        serial_digest,
        trajectory_digest(Parallelism::Parallel),
        "serial and 3-thread trajectories diverge"
    );

    std::env::set_var("RAYON_NUM_THREADS", "5");
    let par5 = build(Parallelism::Parallel);
    assert_eq!(
        force_bits(&par3),
        force_bits(&par5),
        "forces depend on RAYON_NUM_THREADS"
    );
    assert_eq!(
        serial_digest,
        trajectory_digest(Parallelism::Parallel),
        "serial and 5-thread trajectories diverge"
    );

    std::env::remove_var("RAYON_NUM_THREADS");
}
