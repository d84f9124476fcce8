//! Measured step-phase breakdowns from the real engine's telemetry layer.
//!
//! Runs the reference engine at `TelemetryLevel::Phases` over a size sweep
//! and writes `BENCH_phases.json` at the workspace root: per-phase per-step
//! times (the detailed taxonomy), the same profile folded into the machine
//! model's `BreakdownUs` schema, the work counters, and the fraction of the
//! run's wall-clock the timed phases account for. The coverage number is
//! the honesty check — the phase taxonomy is meant to tile the whole step,
//! so anything far below 1.0 means untimed work crept in.
//!
//! Also times a telemetry-off run of the same system so the instrumentation
//! overhead is visible (it should disappear into run-to-run noise), and
//! measures the separable GSE kernels directly against the retained fused
//! `*_reference` kernels (`gse_spread_speedup` / `interpolate_speedup`,
//! serial, same thread-pinning discipline as the nonbonded sweep) so the
//! long-range rework's before/after ratio is recorded next to the phase
//! numbers it explains.

use anton2_md::builders::water_box;
use anton2_md::engine::{Engine, RunSummary};
use anton2_md::gse::{Gse, GseParams};
use anton2_md::system::System;
use anton2_md::telemetry::{Counters, MeasuredBreakdownUs, PhaseBreakdownUs, TelemetryLevel};
use anton2_md::vec3::Vec3;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::time::Instant;

/// Water cubes of 3·side³ atoms: 375 / 1536 / 20577 atoms — the small sizes
/// keep the sweep fast and match the committed history; the ~20k point is
/// the scale the nonbonded sweep tops out at, where the engine's Auto
/// parallelism is active.
const SIDES: [usize; 3] = [5, 8, 19];
const STEPS: usize = 20;

/// Worker threads for the parallel sections (same discipline as the
/// nonbonded sweep: the rayon shim spawns this many real OS threads per
/// parallel call regardless of host CPUs — on a 1-CPU host they time-slice,
/// so `cpus` in the report disambiguates wall-clock claims).
const PARALLEL_THREADS: usize = 4;

/// Direct-kernel timing repetitions (the fused reference at 20k atoms costs
/// hundreds of ms per pass, so keep this small).
const KERNEL_REPS: usize = 3;

fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

#[derive(Serialize)]
struct PhaseRecord {
    atoms: usize,
    steps: u64,
    /// Mean wall-clock per step, µs, with phase timing on.
    step_us_timed: f64,
    /// Mean wall-clock per step, µs, with telemetry off (overhead baseline).
    step_us_off: f64,
    /// Per-phase totals over the run, µs.
    phases_us: PhaseBreakdownUs,
    /// Per-step average folded into the machine model's schema.
    breakdown: MeasuredBreakdownUs,
    counters: Counters,
    /// `phases_us.total()` over the timed run's wall-clock.
    phase_coverage: f64,
    /// Fused reference spread over separable serial spread (1 thread).
    gse_spread_speedup: f64,
    /// Fused reference interpolation over separable serial interpolation
    /// (1 thread).
    interpolate_speedup: f64,
}

#[derive(Serialize)]
struct Report {
    steps: usize,
    /// Worker threads used for the parallel engine sections.
    threads: usize,
    /// Host logical CPUs when the sweep ran (wall-clock context).
    cpus: usize,
    sizes: Vec<PhaseRecord>,
}

fn build_system(side: usize) -> System {
    let mut sys = water_box(side, side, side, 31);
    sys.thermalize(300.0, 32);
    sys
}

fn run_with(sys: &System, level: TelemetryLevel) -> RunSummary {
    let mut engine = Engine::builder()
        .system(sys.clone())
        .quick()
        .telemetry(level)
        .build()
        .expect("valid bench configuration");
    engine.run(STEPS)
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up: size buffers, fill tables
    let t0 = Instant::now();
    for _ in 0..KERNEL_REPS {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / KERNEL_REPS as f64
}

/// Direct before/after measurement of the two reworked GSE kernels on this
/// system's own charge configuration, serial (1 thread), fused reference
/// vs. separable.
fn gse_kernel_speedups(sys: &System) -> (f64, f64) {
    set_threads(1);
    let alpha = sys.nb.ewald_alpha;
    let gse = Gse::new(alpha, sys.pbc, GseParams::for_box(alpha, &sys.pbc));
    let mut rho = gse.spread(&sys.positions, &sys.topology.charges);

    let spread_ref_ms = time_ms(|| {
        rho.clear();
        gse.spread_into_reference(&sys.positions, &sys.topology.charges, &mut rho);
        std::hint::black_box(&rho);
    });
    let spread_sep_ms = time_ms(|| {
        rho.clear();
        gse.spread_into(&sys.positions, &sys.topology.charges, &mut rho);
        std::hint::black_box(&rho);
    });

    rho.clear();
    gse.spread_into(&sys.positions, &sys.topology.charges, &mut rho);
    let phi = gse.solve_potential(&rho);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    let interp_ref_ms = time_ms(|| {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        gse.interpolate_forces_reference(&phi, &sys.positions, &sys.topology.charges, &mut forces);
        std::hint::black_box(&forces);
    });
    let interp_sep_ms = time_ms(|| {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        gse.interpolate_forces(&phi, &sys.positions, &sys.topology.charges, &mut forces);
        std::hint::black_box(&forces);
    });

    (spread_ref_ms / spread_sep_ms, interp_ref_ms / interp_sep_ms)
}

fn sweep_one(side: usize) -> PhaseRecord {
    let sys = build_system(side);
    // Engine runs under the parallel thread setting: sizes past the Auto
    // threshold spread planes over threads, smaller ones walk the same
    // planes in order — both bitwise identical by construction.
    set_threads(PARALLEL_THREADS);
    let timed = run_with(&sys, TelemetryLevel::Phases);
    let off = run_with(&sys, TelemetryLevel::Off);
    let (gse_spread_speedup, interpolate_speedup) = gse_kernel_speedups(&sys);
    PhaseRecord {
        atoms: timed.atoms,
        steps: timed.steps,
        step_us_timed: timed.wall_s * 1e6 / timed.steps as f64,
        step_us_off: off.wall_s * 1e6 / off.steps as f64,
        phases_us: timed.phases,
        breakdown: timed.breakdown,
        counters: timed.counters,
        phase_coverage: timed.phase_coverage(),
        gse_spread_speedup,
        interpolate_speedup,
    }
}

/// Measured phase breakdowns at each size, written to `BENCH_phases.json`.
fn report_phase_breakdown(_c: &mut Criterion) {
    set_threads(PARALLEL_THREADS);
    let threads = rayon::current_num_threads();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let report = Report {
        steps: STEPS,
        threads,
        cpus,
        sizes: SIDES.iter().map(|&side| sweep_one(side)).collect(),
    };
    for r in &report.sizes {
        let b = &r.breakdown;
        println!(
            "phases {} atoms: {:.1} µs/step timed ({:.1} off), coverage {:.0}% — \
             import {:.1}  pairs {:.1}  bonded {:.1}  kspace {:.1}  integrate {:.1} µs/step; \
             {} pairs, {} FFT lines, {} spread points; \
             GSE kernels vs fused: spread {:.2}x, interp {:.2}x",
            r.atoms,
            r.step_us_timed,
            r.step_us_off,
            r.phase_coverage * 100.0,
            b.import_comm,
            b.htis,
            b.bonded,
            b.kspace,
            b.integrate,
            r.counters.pairs_evaluated,
            r.counters.fft_lines,
            r.counters.spread_points,
            r.gse_spread_speedup,
            r.interpolate_speedup
        );
        assert!(
            r.phase_coverage > 0.95,
            "timed phases cover only {:.1}% of the step at {} atoms",
            r.phase_coverage * 100.0,
            r.atoms
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phases.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, json).expect("write BENCH_phases.json");
    println!("wrote {path}");
}

criterion_group!(benches, report_phase_breakdown);
criterion_main!(benches);
