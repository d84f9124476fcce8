//! Streaming nonbonded-engine benchmarks: the reference row-ordered kernel
//! against the PPIM-style streamed kernel (serial and fixed-chunk
//! parallel), and a fresh stream build (`rebuild_at_epoch`) against the
//! in-place patch (`patch_at_epoch`) — the two refreshes the engine runs. `report_streaming_speedup` sweeps thread counts — serial
//! sections pinned to 1 worker, parallel sections run at
//! [`PARALLEL_THREADS`] real OS threads (the rayon shim spawns one thread
//! per chunk and re-reads `RAYON_NUM_THREADS` per call) — prints the
//! headline ratios, and writes the sweep to `BENCH_nonbonded.json` at the
//! workspace root together with the recorded thread count and host CPUs.

use std::time::Instant;

use anton2_md::builders::water_box;
use anton2_md::pairkernel::nonbonded_forces;
use anton2_md::stream::{nonbonded_forces_streamed, NonbondedStream, NonbondedWorkspace};
use anton2_md::system::System;
use anton2_md::vec3::Vec3;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use serde::Serialize;

/// Water cubes of 3·side³ atoms: 1536, 6591, and 20577 (≥ 20k) atoms.
const SIDES: [usize; 3] = [8, 13, 19];

/// Worker threads for the parallel sections of the sweep. The rayon shim
/// spawns this many real OS threads per parallel call regardless of host
/// core count, so the recorded numbers are genuine multi-thread timings
/// even on a single-CPU runner (where they measure overhead, not
/// wall-clock speedup — `cpus` in the report disambiguates).
const PARALLEL_THREADS: usize = 4;

/// Pin the rayon shim's worker count for subsequent parallel calls. The
/// shim re-reads `RAYON_NUM_THREADS` on every call, so flipping the env
/// var between sweep sections genuinely changes how many OS threads the
/// next parallel terminal spawns.
fn set_threads(n: usize) {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
}

fn bench_nonbonded_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("nonbonded_kernel");
    g.sample_size(10);
    for side in SIDES {
        let s = water_box(side, side, side, 21);
        let pairs = NonbondedStream::build(&s).pairs();
        let table = s.pair_table();
        g.throughput(Throughput::Elements(s.n_atoms() as u64));
        g.bench_with_input(
            BenchmarkId::new("reference_serial", s.n_atoms()),
            &s,
            |b, s| {
                let mut forces = vec![Vec3::ZERO; s.n_atoms()];
                b.iter(|| {
                    forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
                    black_box(nonbonded_forces(s, &pairs, &mut forces))
                });
            },
        );
        for parallel in [false, true] {
            let label = if parallel {
                "streamed_parallel"
            } else {
                "streamed_serial"
            };
            g.bench_with_input(BenchmarkId::new(label, s.n_atoms()), &s, |b, s| {
                let mut ws = NonbondedWorkspace::new();
                let mut forces = vec![Vec3::ZERO; s.n_atoms()];
                // Build the stream once so iterations measure steady state.
                nonbonded_forces_streamed(s, &table, &mut ws, &mut forces, parallel);
                b.iter(|| {
                    forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
                    black_box(nonbonded_forces_streamed(
                        s,
                        &table,
                        &mut ws,
                        &mut forces,
                        parallel,
                    ))
                });
            });
        }
    }
    g.finish();
}

fn bench_neighbor_rebuild(c: &mut Criterion) {
    let mut g = c.benchmark_group("neighbor_rebuild");
    g.sample_size(10);
    for side in SIDES {
        let s = water_box(side, side, side, 22);
        g.throughput(Throughput::Elements(s.n_atoms() as u64));
        g.bench_with_input(BenchmarkId::new("fresh", s.n_atoms()), &s, |b, s| {
            let mut ws = NonbondedWorkspace::new();
            b.iter(|| {
                ws.rebuild_at_epoch(s);
                black_box(ws.stream().n_pairs())
            });
        });
        g.bench_with_input(BenchmarkId::new("in_place", s.n_atoms()), &s, |b, s| {
            let mut ws = NonbondedWorkspace::new();
            ws.rebuild_at_epoch(s);
            b.iter(|| {
                ws.patch_at_epoch(s);
                black_box(ws.stream().n_pairs())
            });
        });
    }
    g.finish();
}

#[derive(Serialize)]
struct SizeRecord {
    atoms: usize,
    pairs: usize,
    ext_pairs: usize,
    reference_serial_ms: f64,
    streamed_serial_ms: f64,
    streamed_parallel_ms: f64,
    serial_speedup: f64,
    parallel_speedup: f64,
    parallel_vs_serial: f64,
    fresh_build_ms: f64,
    fresh_build_parallel_ms: f64,
    in_place_rebuild_ms: f64,
}

#[derive(Serialize)]
struct Report {
    /// Real worker-thread count recorded from the rayon shim while the
    /// parallel sections ran (not the requested value).
    threads: usize,
    /// Host logical CPUs: on a 1-CPU runner the parallel timings measure
    /// coordination overhead, not wall-clock speedup.
    cpus: usize,
    sizes: Vec<SizeRecord>,
}

fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: size buffers, build streams
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn sweep_one(side: usize) -> SizeRecord {
    const REPS: usize = 5;
    let s: System = water_box(side, side, side, 23);
    let pairs = NonbondedStream::build(&s).pairs();
    let table = s.pair_table();
    let mut forces = vec![Vec3::ZERO; s.n_atoms()];

    set_threads(1);
    let reference_serial_ms = time_ms(REPS, || {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        black_box(nonbonded_forces(&s, &pairs, &mut forces));
    });
    let mut ws = NonbondedWorkspace::new();
    let streamed_serial_ms = time_ms(REPS, || {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        black_box(nonbonded_forces_streamed(
            &s,
            &table,
            &mut ws,
            &mut forces,
            false,
        ));
    });
    set_threads(PARALLEL_THREADS);
    let mut wsp = NonbondedWorkspace::new();
    let streamed_parallel_ms = time_ms(REPS, || {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        black_box(nonbonded_forces_streamed(
            &s,
            &table,
            &mut wsp,
            &mut forces,
            true,
        ));
    });

    let mut fresh = NonbondedWorkspace::new();
    set_threads(1);
    let fresh_build_ms = time_ms(REPS, || {
        fresh.rebuild_at_epoch(&s);
        black_box(fresh.stream().n_pairs());
    });
    set_threads(PARALLEL_THREADS);
    let fresh_build_parallel_ms = time_ms(REPS, || {
        fresh.rebuild_at_epoch(&s);
        black_box(fresh.stream().n_pairs());
    });
    // The patch re-filters the retained extended list at the current
    // positions (no cell rescan, no re-permutation) — the refresh an MD run
    // takes on most skin-exceeded steps.
    set_threads(1);
    let in_place_rebuild_ms = time_ms(REPS, || {
        fresh.patch_at_epoch(&s);
        black_box(fresh.stream().n_pairs());
    });

    SizeRecord {
        atoms: s.n_atoms(),
        pairs: wsp.stream().n_pairs(),
        ext_pairs: wsp.stream().n_ext_pairs(),
        reference_serial_ms,
        streamed_serial_ms,
        streamed_parallel_ms,
        serial_speedup: reference_serial_ms / streamed_serial_ms,
        parallel_speedup: reference_serial_ms / streamed_parallel_ms,
        parallel_vs_serial: streamed_serial_ms / streamed_parallel_ms,
        fresh_build_ms,
        fresh_build_parallel_ms,
        in_place_rebuild_ms,
    }
}

/// Headline numbers: streamed-vs-reference kernel speedup (serial and at
/// [`PARALLEL_THREADS`] real threads) and in-place rebuild savings at each
/// size, written to `BENCH_nonbonded.json`.
fn report_streaming_speedup(_c: &mut Criterion) {
    set_threads(PARALLEL_THREADS);
    let threads = rayon::current_num_threads();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let report = Report {
        threads,
        cpus,
        sizes: SIDES.iter().map(|&side| sweep_one(side)).collect(),
    };
    println!(
        "thread sweep: serial sections at 1 thread, parallel at {threads} (host: {cpus} cpus)"
    );
    for r in &report.sizes {
        println!(
            "nonbonded {} atoms ({} pairs, {} ext): reference {:.2} ms, streamed serial {:.2} ms \
             ({:.2}x), streamed parallel {:.2} ms ({:.2}x vs reference, {:.2}x vs serial); stream \
             build fresh {:.2} ms serial / {:.2} ms parallel vs patch {:.2} ms",
            r.atoms,
            r.pairs,
            r.ext_pairs,
            r.reference_serial_ms,
            r.streamed_serial_ms,
            r.serial_speedup,
            r.streamed_parallel_ms,
            r.parallel_speedup,
            r.parallel_vs_serial,
            r.fresh_build_ms,
            r.fresh_build_parallel_ms,
            r.in_place_rebuild_ms
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_nonbonded.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, json).expect("write BENCH_nonbonded.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    bench_nonbonded_kernel,
    bench_neighbor_rebuild,
    report_streaming_speedup
);
criterion_main!(benches);
