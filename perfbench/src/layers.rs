//! The per-layer sweep of a traced run.
//!
//! Every layer is timed from this crate, by a span around a call into its
//! public functions, on the inputs the workloads use: the warmed DHFR
//! snapshot for the engine's layers, the seeded DHFR and capacity systems
//! for the machine model's. Unit costs divide a span's median by an exact
//! count the program reports for the same call (pairs, grid points, FFT
//! lines, tasks, messages).

use crate::dhfr::{build_engine, dhfr_system, warm_up, DT_FS, RESPA};
use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use anton2_core::schedule::{build_step_graph, execute};
use anton2_core::{ExecPolicy, Machine, MachineConfig, StepPlan};
use anton2_fft::{Fft3, Fft3Scratch, Grid3};
use anton2_md::bonded::{all_bonded_forces, all_bonded_forces_parallel, BONDED_CHUNKS};
use anton2_md::builders::{dhfr_benchmark, scaled_benchmark};
use anton2_md::constraints::ConstraintSet;
use anton2_md::gse::{Gse, GseParams, GseWorkspace};
use anton2_md::prelude::*;
use anton2_md::settle::{settle_positions, settle_velocities, SettleParams};
use anton2_md::stream::{
    nonbonded_forces_streamed, nonbonded_forces_streamed_profiled, NonbondedWorkspace,
};
use anton2_md::units::fs_to_internal;
use anton2_net::{FaultPlan, Network, RetryConfig};
use rayon::prelude::*;
use serde::Value;
use std::hint::black_box;

/// Atoms of the capacity point.
const CAPACITY_ATOMS: usize = 262_144;
/// Link CRC error rate of the fault point.
const CRC_RATE: f64 = 0.05;
/// Repetitions of each replayed engine-layer call.
const REPS: usize = 5;
/// Repetitions of the empty fork/join.
const FORK_JOIN_REPS: usize = 200;
/// Steps per engine window of the sweep: two RESPA cycles.
const ENGINE_WINDOW_STEPS: usize = 4;
/// Rounds of the telemetry-level comparison; each round runs one window
/// per level.
const LEVEL_ROUNDS: usize = 3;
/// Displacement applied before the patch replay, Å: well under the
/// neighbor list's skin margin.
const PATCH_JITTER: f64 = 0.05;

/// Median duration of the spans called `name`, seconds.
fn med(t: &Tracer, name: &str) -> f64 {
    median(&t.seconds(name))
}

/// Run `f` `n` times, each in a span called `name`.
fn repeat(t: &mut Tracer, n: usize, name: &str, mut f: impl FnMut()) {
    for _ in 0..n {
        t.span(name, |_| f());
    }
}

/// A deterministic displacement of every atom by at most `amp` per axis.
fn jitter(system: &System, amp: f64, seed: u64) -> System {
    let mut s = system.clone();
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    for p in &mut s.positions {
        *p += Vec3::new(next(), next(), next()) * amp;
    }
    s.wrap_positions();
    s
}

/// The warmed DHFR state every engine-layer replay starts from.
pub struct Snapshot {
    pub start: Checkpoint,
    pub system: System,
    /// Pairs the engine evaluated in its last warm-up step, whose forces
    /// are the ones at `system`'s positions.
    pub engine_pairs: u64,
}

/// Warm a counters-level engine the way the workloads do and keep its
/// state and its own pair count for the last step.
pub fn warmed_snapshot(seed: u64) -> Snapshot {
    let mut engine = build_engine(
        dhfr_system(seed, 0),
        ShardGrid::single(),
        TelemetryLevel::Counters,
    );
    engine.cfg.parallelism = Parallelism::Serial;
    engine.step();
    let before = engine.profile().counters;
    engine.cfg.parallelism = Parallelism::Parallel;
    engine.step();
    Snapshot {
        engine_pairs: engine.profile().counters.since(&before).pairs_evaluated,
        start: engine.checkpoint(),
        system: engine.system.clone(),
    }
}

/// Pairs a replayed serial `nonbonded_forces_streamed` call evaluates on
/// `system`, from a freshly built stream.
pub fn replayed_pairs(system: &System) -> u64 {
    let table = system.pair_table();
    let mut ws = NonbondedWorkspace::new();
    let mut f = vec![Vec3::ZERO; system.n_atoms()];
    let mut tel = Telemetry::new(TelemetryLevel::Counters);
    nonbonded_forces_streamed_profiled(system, &table, &mut ws, &mut f, false, &mut tel);
    tel.profile().counters.pairs_evaluated
}

/// Measure every per-layer metric. The same sweep runs on every workload.
pub fn sweep(seed: u64, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let all = rayon::current_num_threads();

    // The engine layers replay the first start an engine run sets up.
    let Snapshot {
        start,
        system: sys,
        engine_pairs,
    } = t.span("layers.snapshot", |_| warmed_snapshot(seed));
    let stream = t.span("layers.stream", |t| {
        stream_layer(&sys, seed, engine_pairs, t, &mut out)
    });
    let kspace = t.span("layers.gse", |t| gse_layers(&sys, t, &mut out));
    t.span("layers.bonded", |t| bonded_layers(&sys, t, &mut out));
    t.span("layers.constraints", |t| {
        constraint_layers(&sys, t, &mut out)
    });
    t.span("layers.rayon", |t| {
        let mut chunks: Vec<Vec<u8>> = vec![Vec::new(); 64];
        repeat(t, FORK_JOIN_REPS, "rayon.par_iter_mut.64", || {
            chunks.par_iter_mut().for_each(|c| {
                black_box(c);
            })
        });
        out.metric(
            "rayon.fork_join_us",
            med(t, "rayon.par_iter_mut.64") * 1e6,
            all,
        );
    });
    t.span("layers.engine", |t| {
        engine_layers(seed, &start, &stream, kspace, t, &mut out)
    });
    t.span("layers.shard", |t| shard_layers(seed, t, &mut out));
    t.span("layers.machine", |t| machine_layers(seed, t, &mut out));
    out
}

/// Unit costs of the stream layer the engine-window metrics build on.
struct StreamCosts {
    fresh_build_s: f64,
    patch_s: f64,
    streamed_1t_s: f64,
    n_rows: u64,
}

fn stream_layer(
    sys: &System,
    seed: u64,
    engine_pairs: u64,
    t: &mut Tracer,
    out: &mut Outcome,
) -> StreamCosts {
    let all = rayon::current_num_threads();
    let table = sys.pair_table();
    let mut ws = NonbondedWorkspace::new();
    let mut f = vec![Vec3::ZERO; sys.n_atoms()];
    repeat(t, REPS, "stream.rebuild_at_epoch", || {
        ws.rebuild_at_epoch(sys)
    });
    let moved = jitter(sys, PATCH_JITTER, seed);
    for _ in 0..REPS {
        ws.rebuild_at_epoch(sys);
        t.span("stream.patch_at_epoch", |_| ws.patch_at_epoch(&moved));
    }
    ws.rebuild_at_epoch(sys);

    // Replay fidelity: the replayed call evaluates the pairs the engine
    // evaluated at this snapshot.
    let replay_pairs = replayed_pairs(sys);
    out.check(replay_pairs == engine_pairs && replay_pairs > 0, || {
        format!(
            "replayed streamed kernel evaluated {replay_pairs} pairs, the engine {engine_pairs}"
        )
    });
    out.count("stream.pairs_evaluated", replay_pairs);

    for (parallel, name) in [
        (false, "stream.nonbonded_forces_streamed.serial"),
        (true, "stream.nonbonded_forces_streamed.parallel"),
    ] {
        repeat(t, REPS, name, || {
            f.iter_mut().for_each(|x| *x = Vec3::ZERO);
            black_box(nonbonded_forces_streamed(
                sys, &table, &mut ws, &mut f, parallel,
            ));
        });
    }
    let n_pairs = ws.stream().n_pairs() as f64;
    let costs = StreamCosts {
        fresh_build_s: med(t, "stream.rebuild_at_epoch"),
        patch_s: med(t, "stream.patch_at_epoch"),
        streamed_1t_s: med(t, "stream.nonbonded_forces_streamed.serial"),
        n_rows: sys.n_atoms() as u64,
    };
    out.metric("stream.fresh_build_ms", costs.fresh_build_s * 1e3, all);
    out.metric("stream.patch_ms", costs.patch_s * 1e3, all);
    out.metric(
        "stream.ns_per_pair_1t",
        costs.streamed_1t_s * 1e9 / n_pairs,
        1,
    );
    out.metric(
        "stream.ns_per_pair",
        med(t, "stream.nonbonded_forces_streamed.parallel") * 1e9 / n_pairs,
        all,
    );
    out.metric("stream.pairs", n_pairs, 1);
    out.metric("stream.ext_pairs", ws.stream().n_ext_pairs() as f64, 1);
    out.count("stream.pairs", ws.stream().n_pairs() as u64);
    out.count("stream.ext_pairs", ws.stream().n_ext_pairs() as u64);
    costs
}

/// Spread, interpolation, the whole k-space call and the FFT round trip.
/// Returns the serial k-space time, seconds.
fn gse_layers(sys: &System, t: &mut Tracer, out: &mut Outcome) -> f64 {
    let all = rayon::current_num_threads();
    let alpha = sys.nb.ewald_alpha;
    let pbc = sys.pbc;
    let gse = t.span("gse.Gse::new", |_| {
        Gse::new(alpha, pbc, GseParams::for_box(alpha, &pbc))
    });
    let (pos, q) = (&sys.positions, &sys.topology.charges);
    let p = gse.params;

    // Exact work counts of one evaluation.
    let mut gws = GseWorkspace::for_gse(&gse);
    let mut f = vec![Vec3::ZERO; sys.n_atoms()];
    let mut tel = Telemetry::new(TelemetryLevel::Counters);
    gse.energy_forces_profiled(pos, q, &mut f, &mut gws, false, &mut tel);
    let c = tel.profile().counters;
    out.count("gse.spread_points", c.spread_points);
    out.count("gse.interp_points", c.interp_points);
    out.count("fft.lines", c.fft_lines);

    let mut rho = Grid3::zeros(p.nx, p.ny, p.nz);
    for (name, parallel) in [
        ("gse.spread_into", false),
        ("gse.spread_into_parallel", true),
    ] {
        for _ in 0..REPS {
            rho.clear();
            t.span(name, |_| {
                if parallel {
                    gse.spread_into_parallel(pos, q, &mut rho)
                } else {
                    gse.spread_into(pos, q, &mut rho)
                }
            });
        }
    }
    for (name, parallel) in [
        ("gse.energy_forces_with.serial", false),
        ("gse.energy_forces_with.parallel", true),
    ] {
        repeat(t, REPS, name, || {
            f.iter_mut().for_each(|x| *x = Vec3::ZERO);
            black_box(gse.energy_forces_with(pos, q, &mut f, &mut gws, parallel));
        });
    }
    let phi = gws.phi().clone();
    repeat(t, REPS, "gse.interpolate_forces", || {
        f.iter_mut().for_each(|x| *x = Vec3::ZERO);
        gse.interpolate_forces(&phi, pos, q, &mut f);
    });

    let fft = Fft3::new(p.nx, p.ny, p.nz);
    let mut scratch = Fft3Scratch::for_grid(p.nx, p.ny, p.nz);
    let mut grid = gws.rho().clone();
    for (name, parallel) in [
        ("fft.round_trip.serial", false),
        ("fft.round_trip.parallel", true),
    ] {
        repeat(t, REPS, name, || {
            fft.forward_with(&mut grid, &mut scratch, parallel);
            fft.inverse_with(&mut grid, &mut scratch, parallel);
        });
    }

    let (spread, interp, lines) = (
        c.spread_points as f64,
        c.interp_points as f64,
        c.fft_lines as f64,
    );
    out.metric(
        "gse.spread_ns_per_point_1t",
        med(t, "gse.spread_into") * 1e9 / spread,
        1,
    );
    out.metric(
        "gse.spread_ns_per_point",
        med(t, "gse.spread_into_parallel") * 1e9 / spread,
        all,
    );
    out.metric(
        "gse.interp_ns_per_point_1t",
        med(t, "gse.interpolate_forces") * 1e9 / interp,
        1,
    );
    let kspace_1t = med(t, "gse.energy_forces_with.serial");
    out.metric("gse.kspace_ms_1t", kspace_1t * 1e3, 1);
    out.metric(
        "gse.kspace_ms",
        med(t, "gse.energy_forces_with.parallel") * 1e3,
        all,
    );
    out.metric(
        "fft.ns_per_line_1t",
        med(t, "fft.round_trip.serial") * 1e9 / lines,
        1,
    );
    out.metric(
        "fft.ns_per_line",
        med(t, "fft.round_trip.parallel") * 1e9 / lines,
        all,
    );
    out.metric("gse.spread_points", spread, 1);
    out.metric("fft.lines", lines, 1);
    kspace_1t
}

fn bonded_layers(sys: &System, t: &mut Tracer, out: &mut Outcome) {
    let all = rayon::current_num_threads();
    let (top, pbc, pos) = (&sys.topology, &sys.pbc, &sys.positions);
    let mut f = vec![Vec3::ZERO; sys.n_atoms()];
    let mut bufs: Vec<Vec<Vec3>> = vec![Vec::new(); BONDED_CHUNKS];
    repeat(t, REPS, "bonded.all_bonded_forces", || {
        f.iter_mut().for_each(|x| *x = Vec3::ZERO);
        black_box(all_bonded_forces(top, pbc, pos, &mut f));
    });
    repeat(t, REPS, "bonded.all_bonded_forces_parallel", || {
        f.iter_mut().for_each(|x| *x = Vec3::ZERO);
        black_box(all_bonded_forces_parallel(top, pbc, pos, &mut f, &mut bufs));
    });
    out.metric("bonded.ms_1t", med(t, "bonded.all_bonded_forces") * 1e3, 1);
    out.metric(
        "bonded.ms",
        med(t, "bonded.all_bonded_forces_parallel") * 1e3,
        all,
    );
}

/// SETTLE over every water and SHAKE over the remaining constraints, on
/// the positions one unconstrained drift of a timestep produces.
fn constraint_layers(sys: &System, t: &mut Tracer, out: &mut Outcome) {
    let dt = fs_to_internal(DT_FS);
    let drift: Vec<Vec3> = sys
        .positions
        .iter()
        .zip(&sys.velocities)
        .map(|(p, v)| *p + *v * dt)
        .collect();
    let params = SettleParams::tip3p();
    let waters = &sys.topology.waters;
    for _ in 0..REPS {
        let mut p = drift.clone();
        t.span("settle.settle_positions", |_| {
            for w in waters {
                let old = [
                    sys.positions[w[0]],
                    sys.positions[w[1]],
                    sys.positions[w[2]],
                ];
                let mut new = [p[w[0]], p[w[1]], p[w[2]]];
                settle_positions(&params, &sys.pbc, old, &mut new);
                for (k, &a) in w.iter().enumerate() {
                    p[a] = new[k];
                }
            }
        });
        black_box(&p);
    }
    // The velocity half of the constraint phase, on the constrained
    // positions of one step.
    let mut vel = sys.velocities.clone();
    repeat(t, REPS, "settle.settle_velocities", || {
        for w in waters {
            let pos = [
                sys.positions[w[0]],
                sys.positions[w[1]],
                sys.positions[w[2]],
            ];
            let mut v = [vel[w[0]], vel[w[1]], vel[w[2]]];
            settle_velocities(&params, &sys.pbc, pos, &mut v);
            for (k, &a) in w.iter().enumerate() {
                vel[a] = v[k];
            }
        }
        black_box(&vel);
    });
    let shake = ConstraintSet::from_topology(&sys.topology, false, params.d_oh, params.d_hh);
    for _ in 0..REPS {
        let mut p = drift.clone();
        t.span("constraints.shake_positions", |_| {
            black_box(shake.shake_positions(&sys.pbc, &sys.positions, &mut p, 1e-8, 500))
        });
    }
    out.count("settle.waters", waters.len() as u64);
    out.count("shake.constraints", shake.len() as u64);
    out.metric("settle.ms", med(t, "settle.settle_positions") * 1e3, 1);
    out.metric(
        "settle.velocities_ms",
        med(t, "settle.settle_velocities") * 1e3,
        1,
    );
    out.metric("shake.ms", med(t, "constraints.shake_positions") * 1e3, 1);
}

/// Serial windows from the warmed snapshot at each telemetry level: step
/// medians, the tail, the neighbor-build cadence, the telemetry overheads
/// and how much of the measured step the replayed layers account for.
fn engine_layers(
    seed: u64,
    start: &Checkpoint,
    stream: &StreamCosts,
    kspace_1t_s: f64,
    t: &mut Tracer,
    out: &mut Outcome,
) {
    let levels = [
        ("off", TelemetryLevel::Off),
        ("counters", TelemetryLevel::Counters),
        ("phases", TelemetryLevel::Phases),
    ];
    let mut engines: Vec<Engine> = levels
        .iter()
        .map(|&(_, level)| build_engine(dhfr_system(seed, 0), ShardGrid::single(), level))
        .collect();
    let mut window_s: Vec<Vec<f64>> = vec![Vec::new(); levels.len()];
    let (mut outer, mut inner) = (Vec::new(), Vec::new());
    let mut counted = StepProfile::default();
    let mut phased = StepProfile::default();
    // Each round brackets the instrumented levels between two windows at
    // `Off`, which also supplies the step samples for the medians and tail.
    for _ in 0..LEVEL_ROUNDS {
        for i in [0, 1, 2, 0] {
            let (name, e) = (levels[i].0, &mut engines[i]);
            if let Err(err) = e.restore(start) {
                out.check(false, || {
                    format!("engine window at {name}: restore failed: {err}")
                });
                continue;
            }
            e.cfg.parallelism = Parallelism::Serial;
            let span_name = format!("engine.step.{name}");
            let mut total = 0.0;
            for _ in 0..ENGINE_WINDOW_STEPS {
                let kspace = RESPA.kspace_due(e.step_count() + 1);
                t.span(&span_name, |_| e.step());
                let s = t.spans().last().expect("span just recorded").seconds();
                total += s;
                if i == 0 {
                    if kspace { &mut outer } else { &mut inner }.push(s);
                }
            }
            window_s[i].push(total);
            // The profile restarts from the checkpoint's on every restore.
            match i {
                1 => counted = e.profile().since(&start.telemetry),
                2 => phased = e.profile().since(&start.telemetry),
                _ => {}
            }
        }
    }
    drop(engines);
    if window_s.iter().any(|w| w.is_empty()) || outer.is_empty() || inner.is_empty() {
        return;
    }

    let off = median(&window_s[0]);
    out.metric("engine.outer_step_ms_1t", median(&outer) * 1e3, 1);
    out.metric("engine.inner_step_ms_1t", median(&inner) * 1e3, 1);
    let steps: Vec<f64> = outer.iter().chain(&inner).copied().collect();
    let (pct, tail_s) = tail(&steps).unwrap_or((100.0, steps.iter().copied().fold(0.0, f64::max)));
    out.metric("engine.step_ms_tail_1t", tail_s * 1e3, 1);
    out.detail("engine.step_tail_percentile", Value::Float(pct));
    out.detail("engine.step_samples", Value::UInt(steps.len() as u64));
    out.metric(
        "telemetry.counters_overhead_pct",
        (median(&window_s[1]) / off - 1.0) * 100.0,
        1,
    );
    out.metric(
        "telemetry.phases_overhead_pct",
        (median(&window_s[2]) / off - 1.0) * 100.0,
        1,
    );

    // Neighbor-build cadence over one window. A fresh build rebuilds every
    // row.
    let c = counted.counters;
    let per_step = 1.0 / ENGINE_WINDOW_STEPS as f64;
    let fresh = c.rows_rebuilt as f64 / stream.n_rows as f64;
    let patches = c.rows_patched as f64 / stream.n_rows as f64;
    out.metric(
        "stream.fresh_builds_per_100_steps",
        fresh * per_step * 100.0,
        1,
    );
    let touched = c.rows_patched + c.rows_rebuilt;
    out.metric(
        "stream.patched_row_frac",
        if touched == 0 {
            0.0
        } else {
            c.rows_patched as f64 / touched as f64
        },
        1,
    );

    // Replayed layer time per serial step over the measured serial step.
    let bonded = med(t, "bonded.all_bonded_forces");
    let settle = med(t, "settle.settle_positions") + med(t, "settle.settle_velocities");
    let shake = med(t, "constraints.shake_positions");
    let layers_per_step = (fresh * stream.fresh_build_s + patches * stream.patch_s) * per_step
        + stream.streamed_1t_s
        + bonded
        + kspace_1t_s / RESPA.kspace_interval as f64
        + settle
        + shake;
    out.metric("layers.coverage_1t", layers_per_step / (off * per_step), 1);

    // The engine's own phase breakdown, beside the spans as a cross-check.
    let phases = phased.phases_us();
    let per_step_us = |x: f64| Value::Float(x * per_step);
    out.detail(
        "phases_us_per_step",
        Value::Object(vec![
            (
                "neighbor_rebuild".into(),
                per_step_us(phases.neighbor_rebuild),
            ),
            ("short_range".into(), per_step_us(phases.short_range)),
            ("gse_spread".into(), per_step_us(phases.gse_spread)),
            ("fft".into(), per_step_us(phases.fft)),
            ("interpolate".into(), per_step_us(phases.interpolate)),
            ("bonded".into(), per_step_us(phases.bonded)),
            ("constraints".into(), per_step_us(phases.constraints)),
            ("integration".into(), per_step_us(phases.integration)),
            ("thermostat".into(), per_step_us(phases.thermostat)),
            ("exchange".into(), per_step_us(phases.exchange)),
            (
                "coverage".into(),
                Value::Float(phases.total() * 1e-6 / median(&window_s[2])),
            ),
        ]),
    );
}

/// Per-shard pair balance and halo traffic of the 2×2×2 grid.
fn shard_layers(seed: u64, t: &mut Tracer, out: &mut Outcome) {
    let all = rayon::current_num_threads();
    let mut e = build_engine(
        dhfr_system(seed, 0),
        ShardGrid::new(2, 2, 2),
        TelemetryLevel::Counters,
    );
    warm_up(&mut e);
    let s = t.span("engine.run.sharded", |_| e.run(ENGINE_WINDOW_STEPS));
    let pairs: Vec<f64> = s
        .shards
        .iter()
        .map(|sh| sh.counters.pairs_evaluated as f64)
        .collect();
    let mean = pairs.iter().sum::<f64>() / pairs.len().max(1) as f64;
    let max = pairs.iter().copied().fold(0.0, f64::max);
    let steps = s.steps.max(1) as f64;
    out.metric("shard.pair_imbalance", max / mean, all);
    out.metric(
        "exchange.bytes_per_step",
        s.counters.exchange_bytes as f64 / steps,
        all,
    );
    out.metric(
        "exchange.atoms_imported_per_step",
        s.counters.atoms_imported as f64 / steps,
        all,
    );
}

/// Plan building, one RESPA cycle per machine point, the network traffic
/// of a 512-node cycle, the task-graph executor, and the exclusion build.
fn machine_layers(seed: u64, t: &mut Tracer, out: &mut Outcome) {
    let dhfr = dhfr_benchmark(seed);
    let capacity = scaled_benchmark(CAPACITY_ATOMS, seed);
    let a512 = MachineConfig::anton2(512);

    // The exclusion build on a clone of the DHFR and the capacity
    // topologies: O(N²) in the atom count, it dominates the capacity
    // system's set-up.
    let mut excl = 0.0;
    for mut top in [dhfr.topology.clone(), capacity.topology.clone()] {
        t.span("topology.build_exclusions", |_| top.build_exclusions());
        excl += t.spans().last().expect("span just recorded").seconds();
    }
    out.metric("topology.exclusions_s", excl, 1);

    repeat(t, 3, "plan.StepPlan::build.n512", || {
        black_box(StepPlan::build(&dhfr, &a512));
    });
    out.metric(
        "plan.build_ms",
        med(t, "plan.StepPlan::build.n512") * 1e3,
        1,
    );

    let points: [(&str, &System, MachineConfig, bool, usize); 5] = [
        ("n64", &dhfr, MachineConfig::anton2(64), false, 5),
        ("n512", &dhfr, a512, false, 2),
        (
            "bsp512",
            &dhfr,
            a512.with_exec(ExecPolicy::BulkSynchronous),
            false,
            2,
        ),
        ("faults512", &dhfr, a512, true, 2),
        ("cap262k", &capacity, a512, false, 2),
    ];
    for (name, sys, cfg, faults, reps) in points {
        let plan = StepPlan::build(sys, &cfg);
        let span_name = format!("machine.simulate_respa_cycle.{name}");
        for _ in 0..reps {
            let mut m = Machine::new(cfg);
            if faults {
                m.net.fault = Some(FaultPlan::new(seed).with_crc_rate(CRC_RATE));
                m.net.retry = RetryConfig::default();
            }
            t.span(&span_name, |_| {
                black_box(m.simulate_respa_cycle(&plan, RESPA.kspace_interval))
            });
            if name == "n512" {
                let s = t.spans().last().expect("span just recorded").seconds();
                out.count("n512.net.messages", m.net.messages);
                out.count("n512.net.payload_bytes", m.net.payload_bytes);
                out.detail(
                    "net.msgs_per_host_s.sample",
                    Value::Float(m.net.messages as f64 / s),
                );
            }
        }
        out.metric(
            match name {
                "n64" => "machine.cycle_ms.n64",
                "n512" => "machine.cycle_ms.n512",
                "bsp512" => "machine.cycle_ms.bsp512",
                "faults512" => "machine.cycle_ms.faults512",
                _ => "machine.cycle_ms.cap262k",
            },
            med(t, &span_name) * 1e3,
            1,
        );
    }
    let msgs = out.counts["n512.net.messages"] as f64;
    out.metric("net.messages_per_cycle", msgs, 1);
    out.metric(
        "net.bytes_per_cycle",
        out.counts["n512.net.payload_bytes"] as f64,
        1,
    );
    out.metric(
        "net.msgs_per_host_s",
        msgs / med(t, "machine.simulate_respa_cycle.n512"),
        1,
    );

    let plan = StepPlan::build(&dhfr, &a512);
    let graph = build_step_graph(&plan, &a512.node, true);
    let mut executed = 0;
    repeat(t, 3, "schedule.execute", || {
        let mut net = Network::new(a512.torus, a512.link);
        executed = execute(&graph, &mut net, &a512.node).executed;
    });
    out.check(executed == graph.len(), || {
        format!("DAG executed {executed} of {} tasks", graph.len())
    });
    let exec_s = med(t, "schedule.execute");
    out.count("schedule.tasks_executed", executed as u64);
    out.metric("schedule.execute_ms", exec_s * 1e3, 1);
    out.metric("schedule.tasks_per_host_s", executed as f64 / exec_s, 1);
    out.metric("schedule.tasks", executed as f64, 1);
}
