//! The engine workloads: DHFR on the single-image engine (`dhfr`) and
//! through a 2×2×2 shard grid (`dhfr_shards`).
//!
//! A run sets up [`STARTS`] starts of the seeded DHFR structure in turn,
//! each with velocities of its own (see [`dhfr_system`]). Set-up builds
//! the system and the engine and runs two warm-up steps (one serial, one
//! parallel) so both paths have built their stream and scratch. The warmed
//! state is checkpointed, and each timed window restores it and runs
//! [`WINDOW_STEPS`] steps, `Parallelism::Serial` and then
//! `Parallelism::Parallel`. Every window of one start and mode therefore
//! does the same work, fresh neighbor builds included at their natural
//! cadence, and must end on the same checkpoint digest.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{span, Tracer};
use anton2_md::builders::dhfr_benchmark;
use anton2_md::prelude::*;
use serde::Value;
use std::time::{Duration, Instant};

/// MD timestep of every workload, fs.
pub const DT_FS: f64 = 2.5;
/// RESPA schedule of every workload: k-space every second step.
pub const RESPA: RespaSchedule = RespaSchedule { kspace_interval: 2 };
/// Steps per timed window: one RESPA cycle, one k-space step and one
/// inner step.
pub const WINDOW_STEPS: usize = 2;
/// Starts each run sets up and times; see [`dhfr_system`].
pub const STARTS: usize = 14;

/// Start `start` of a run with `seed`: the seeded DHFR structure at
/// 300 K, with velocities of its own. Which steps need a fresh neighbor
/// build depends on the fastest atoms, so one start rebuilds every step
/// where another rebuilds every second step (about one DHFR start in
/// three is in the every-step phase). A run is timed over all its starts,
/// so its figure moves with the share of such starts, which averages out
/// over [`STARTS`] of them; the traced run reports the cadence itself.
pub fn dhfr_system(seed: u64, start: usize) -> System {
    let mut system = dhfr_benchmark(seed);
    system.thermalize(
        300.0,
        seed.wrapping_mul(STARTS as u64).wrapping_add(start as u64),
    );
    system
}

/// The engine as `examples/dhfr_headline.rs` configures it: NVE, 2.5 fs,
/// k-space every second step.
pub fn build_engine(system: System, grid: ShardGrid, level: TelemetryLevel) -> Engine {
    Engine::builder()
        .system(system)
        .dt_fs(DT_FS)
        .respa(RESPA)
        .decomposition(grid)
        .parallelism(Parallelism::Parallel)
        .telemetry(level)
        .build()
        .expect("the DHFR configuration is valid for every seed")
}

/// One serial and one parallel step, so both paths have built their
/// stream and scratch before anything is timed.
pub fn warm_up(engine: &mut Engine) {
    for mode in [Parallelism::Serial, Parallelism::Parallel] {
        engine.cfg.parallelism = mode;
        engine.step();
    }
}

/// Digest of the physics state of a checkpoint: positions, velocities,
/// forces, energies, neighbor epochs and RNG. Telemetry, the version and
/// the shard images are normalized away, so single-image and sharded
/// engines at any telemetry level can be compared.
pub fn physics_digest(cp: &Checkpoint) -> u64 {
    let mut cp = cp.clone();
    cp.version = CHECKPOINT_VERSION;
    cp.shards.clear();
    cp.telemetry = StepProfile::default();
    cp.compute_digest()
}

/// Simulated ns per wall-clock day for `steps` steps taking `seconds`.
pub fn ns_per_day(steps: usize, seconds: f64) -> f64 {
    steps as f64 * DT_FS * 1e-6 * 86_400.0 / seconds
}

/// What one timed window left behind.
pub struct Window {
    pub seconds: f64,
    pub digest: u64,
    pub finite: bool,
    pub profile: StepProfile,
}

/// Restore `start`, run `steps` steps in `mode`, and digest the result.
/// Only the steps are timed.
pub fn window(
    engine: &mut Engine,
    start: &Checkpoint,
    mode: Parallelism,
    steps: usize,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Window, EngineError> {
    engine.restore(start)?;
    engine.cfg.parallelism = mode;
    let t0 = Instant::now();
    for _ in 0..steps {
        span(tracer, "engine.step", || engine.step());
    }
    let seconds = t0.elapsed().as_secs_f64();
    Ok(Window {
        seconds,
        digest: physics_digest(&engine.checkpoint()),
        finite: engine.energies().total().is_finite(),
        profile: engine.profile(),
    })
}

/// Run `f` with the rayon stand-in limited to `threads` workers (the
/// stand-in re-reads `RAYON_NUM_THREADS` on every parallel call), then put
/// the variable back as it was.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let before = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

fn hex(d: u64) -> Value {
    Value::String(format!("{d:016x}"))
}

/// Serial then parallel windows from `start`, until `budget` is spent
/// (at least one of each). Every window of one mode must end on the same
/// digest.
fn time_start(
    engine: &mut Engine,
    start: &Checkpoint,
    budget: Duration,
    tracer: &mut Option<&mut Tracer>,
    out: &mut Outcome,
) -> (Vec<Window>, Vec<Window>) {
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut failed = false;
    while !failed {
        for (mode, name, into) in [
            (Parallelism::Serial, "window.serial", &mut serial),
            (Parallelism::Parallel, "window.parallel", &mut parallel),
        ] {
            let w = match tracer {
                Some(t) => t.span(name, |t| {
                    window(engine, start, mode, WINDOW_STEPS, &mut Some(t))
                }),
                None => window(engine, start, mode, WINDOW_STEPS, &mut None),
            };
            match w {
                Ok(w) => {
                    let first = into.first().map_or(w.digest, |f: &Window| f.digest);
                    out.check(w.finite && w.digest == first, || {
                        format!(
                            "{name}: energies finite {}, digest {:016x} vs first window {first:016x}",
                            w.finite, w.digest
                        )
                    });
                    into.push(w);
                }
                Err(e) => {
                    out.check(false, || format!("{name}: restore failed: {e}"));
                    failed = true;
                }
            }
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    (serial, parallel)
}

/// Run one engine workload for `seconds` of timed windows, split evenly
/// over [`STARTS`] starts.
pub fn run(seed: u64, seconds: f64, grid: ShardGrid, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let threads = rayon::current_num_threads();
    let budget = Duration::from_secs_f64(seconds / STARTS as f64);

    let mut setup = Vec::new();
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let mut digests = Vec::new();
    for i in 0..STARTS {
        let t0 = Instant::now();
        let system = span(&mut tracer, "builders.dhfr_benchmark", || {
            dhfr_system(seed, i)
        });
        let mut engine = span(&mut tracer, "engine.build", || {
            build_engine(system, grid, TelemetryLevel::Off)
        });
        span(&mut tracer, "engine.warm_up", || warm_up(&mut engine));
        setup.push(t0.elapsed().as_secs_f64());
        let start = engine.checkpoint();

        let (s, p) = time_start(&mut engine, &start, budget, &mut tracer, &mut out);
        drop(engine);
        let (Some(s0), Some(p0)) = (s.first(), p.first()) else {
            return out;
        };
        digests.push(Value::Array(vec![hex(s0.digest), hex(p0.digest)]));
        if i == 0 {
            // Output checks beyond run-to-run repetition, on the first start.
            let profile = if grid.is_single() {
                verify_single(seed, &start, p0.digest, &mut out)
            } else {
                verify_sharded(seed, grid, &start, s0.digest, p0.digest, &mut out)
            };
            if let Some(p) = profile {
                record_counts(&p, &mut out);
            }
        }
        serial.push(s.iter().map(|w| w.seconds).collect::<Vec<f64>>());
        parallel.push(p.iter().map(|w| w.seconds).collect::<Vec<f64>>());
    }

    // The serial path differs from the parallel one by floating-point
    // regrouping (DESIGN.md, "Threading and determinism model"), which
    // `serial_matches_parallel` checks at one state, so whole windows are
    // not expected to agree bitwise: each start records both digests.
    out.detail("digests_serial_parallel", Value::Array(digests));
    let as_json = |v: &[Vec<f64>]| {
        Value::Array(
            v.iter()
                .map(|w| Value::Array(w.iter().map(|&x| Value::Float(x)).collect()))
                .collect(),
        )
    };
    out.detail(
        "window_seconds",
        Value::Object(vec![
            ("serial".into(), as_json(&serial)),
            ("parallel".into(), as_json(&parallel)),
        ]),
    );
    out.detail(
        "setup_seconds",
        Value::Array(setup.iter().map(|&x| Value::Float(x)).collect()),
    );
    // Each start's mean window, summed over the starts: the run's steps
    // at their natural mix of fresh-build and patch steps, each start
    // weighted alike however many repeats its budget allowed.
    let total = |v: &[Vec<f64>]| {
        v.iter()
            .map(|w| w.iter().sum::<f64>() / w.len() as f64)
            .sum::<f64>()
    };
    let (s, p) = (total(&serial), total(&parallel));
    let steps = WINDOW_STEPS * serial.len();
    out.metric("ns_per_day", ns_per_day(steps, p), threads);
    out.metric("ns_per_day_1t", ns_per_day(steps, s), 1);
    out.metric("sim_steps_per_s", steps as f64 / p, threads);
    out.metric("setup_s", median(&setup), threads);
    out
}

/// Single image: the parallel window replayed with one worker thread must
/// give the same bits (thread-count independence). Runs on a
/// counters-level engine, whose profile supplies the exact counts.
fn verify_single(
    seed: u64,
    start: &Checkpoint,
    parallel_digest: u64,
    out: &mut Outcome,
) -> Option<StepProfile> {
    let mut e = build_engine(
        dhfr_system(seed, 0),
        ShardGrid::single(),
        TelemetryLevel::Counters,
    );
    serial_matches_parallel(&mut e, start, out);
    let w = with_threads(1, || {
        window(
            &mut e,
            start,
            Parallelism::Parallel,
            WINDOW_STEPS,
            &mut None,
        )
    });
    match w {
        Ok(w) => {
            out.check(w.finite && w.digest == parallel_digest, || {
                format!(
                    "parallel window at 1 thread: digest {:016x} vs {parallel_digest:016x} at all threads",
                    w.digest
                )
            });
            Some(w.profile)
        }
        Err(e) => {
            out.check(false, || format!("thread-count check: restore failed: {e}"));
            None
        }
    }
}

/// The engine's serial/parallel contract at one state: evaluated at the
/// same positions, short-range forces agree to 1e-10 per component and
/// k-space forces bitwise. Whole windows diverge from there, so they are
/// compared across thread counts only. The compared step is one that
/// evaluates k-space.
fn serial_matches_parallel(e: &mut Engine, start: &Checkpoint, out: &mut Outcome) {
    let from = match window(e, start, Parallelism::Serial, 1, &mut None) {
        Ok(_) if RESPA.kspace_due(e.step_count() + 1) => e.checkpoint(),
        Ok(_) => start.clone(),
        Err(err) => return out.check(false, || format!("serial/parallel check: {err}")),
    };
    let mut forces = Vec::new();
    for mode in [Parallelism::Serial, Parallelism::Parallel] {
        if let Err(err) = window(e, &from, mode, 1, &mut None) {
            return out.check(false, || format!("serial/parallel check: {err}"));
        }
        forces.push((e.short_forces().to_vec(), e.long_forces().to_vec()));
    }
    let (s, p) = (&forces[0], &forces[1]);
    let short =
        s.0.iter()
            .zip(&p.0)
            .all(|(a, b)| (0..3).all(|c| (a[c] - b[c]).abs() <= 1e-10 * (1.0 + b[c].abs())));
    let long =
        s.1.iter()
            .zip(&p.1)
            .all(|(a, b)| (0..3).all(|c| a[c].to_bits() == b[c].to_bits()));
    out.check(short && long, || {
        format!("serial vs parallel forces at one state: short within 1e-10 {short}, k-space bitwise {long}")
    });
}

/// Sharded: the single-image engine restored from the same checkpoint
/// must reach the same digests, serial and parallel, and the sharded
/// parallel window must not depend on the thread count.
fn verify_sharded(
    seed: u64,
    grid: ShardGrid,
    start: &Checkpoint,
    serial_digest: u64,
    parallel_digest: u64,
    out: &mut Outcome,
) -> Option<StepProfile> {
    let mut reference = build_engine(
        dhfr_system(seed, 0),
        ShardGrid::single(),
        TelemetryLevel::Counters,
    );
    let mut profile = None;
    for (mode, want) in [
        (Parallelism::Serial, serial_digest),
        (Parallelism::Parallel, parallel_digest),
    ] {
        match window(&mut reference, start, mode, WINDOW_STEPS, &mut None) {
            Ok(w) => {
                out.check(w.finite && w.digest == want, || {
                    format!(
                        "single image {mode:?}: digest {:016x} vs sharded {want:016x}",
                        w.digest
                    )
                });
                profile = Some(w.profile);
            }
            Err(e) => out.check(false, || {
                format!("single-image reference: restore failed: {e}")
            }),
        }
    }
    drop(reference);

    let mut sharded = build_engine(dhfr_system(seed, 0), grid, TelemetryLevel::Counters);
    let summary = with_threads(1, || -> Result<RunSummary, EngineError> {
        sharded.restore(start)?;
        sharded.cfg.parallelism = Parallelism::Parallel;
        Ok(sharded.run(WINDOW_STEPS))
    });
    match summary {
        Ok(s) => {
            let digest = physics_digest(&sharded.checkpoint());
            out.check(digest == parallel_digest, || {
                format!("sharded parallel window at 1 thread: digest {digest:016x} vs {parallel_digest:016x}")
            });
            for sh in &s.shards {
                out.count(
                    &format!("shard.{}.pairs_evaluated", sh.shard),
                    sh.counters.pairs_evaluated,
                );
            }
        }
        Err(e) => out.check(false, || {
            format!("sharded thread-count check: restore failed: {e}")
        }),
    }
    profile
}

/// The exact counts of one parallel window from the warmed checkpoint.
fn record_counts(p: &StepProfile, out: &mut Outcome) {
    let c = &p.counters;
    out.count("window.pairs_evaluated", c.pairs_evaluated);
    out.count("window.neighbor_rebuilds", c.neighbor_rebuilds);
    out.count("window.rows_rebuilt", c.rows_rebuilt);
    out.count("window.rows_patched", c.rows_patched);
    out.count("window.fft_lines", c.fft_lines);
    out.count("window.spread_points", c.spread_points);
    out.count("window.interp_points", c.interp_points);
}
