//! Microbenchmarks of the hot MD kernels: the arithmetic a PPIM pipeline
//! (pair kernel) and the geometry cores (constraints, neighbor search,
//! erfc) perform.

use anton2_md::builders::water_box;
use anton2_md::constraints::ConstraintSet;
use anton2_md::erfc::erfc;
use anton2_md::pairkernel::nonbonded_forces;
use anton2_md::settle::{settle_positions, SettleParams};
use anton2_md::stream::{NonbondedStream, NonbondedWorkspace};
use anton2_md::vec3::{v3, Vec3};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_pair_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("pair_kernel");
    for waters in [64usize, 216, 512] {
        let side = (waters as f64).cbrt() as usize;
        let s = water_box(side, side, side, 1);
        let pairs = NonbondedStream::build(&s).pairs();
        let cutoff_sq = s.nb.cutoff * s.nb.cutoff;
        let interactions = pairs
            .iter()
            .filter(|&&(i, j)| {
                s.pbc
                    .dist_sq(s.positions[i as usize], s.positions[j as usize])
                    < cutoff_sq
            })
            .count();
        g.throughput(Throughput::Elements(interactions as u64));
        g.bench_with_input(BenchmarkId::new("serial", s.n_atoms()), &s, |b, s| {
            let mut forces = vec![Vec3::ZERO; s.n_atoms()];
            b.iter(|| {
                forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
                black_box(nonbonded_forces(s, &pairs, &mut forces))
            });
        });
    }
    g.finish();
}

fn bench_neighbor_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("neighbor_build");
    for side in [6usize, 10, 14] {
        let s = water_box(side, side, side, 2);
        g.throughput(Throughput::Elements(s.n_atoms() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(s.n_atoms()), &s, |b, s| {
            let mut ws = NonbondedWorkspace::new();
            b.iter(|| {
                ws.rebuild_at_epoch(s);
                black_box(ws.stream().n_pairs())
            });
        });
    }
    g.finish();
}

fn bench_constraints(c: &mut Criterion) {
    let p = SettleParams::tip3p();
    let pbc = anton2_md::pbc::PbcBox::cubic(20.0);
    let old = [
        v3(10.0, 10.0 + p.ra, 10.0),
        v3(10.0 - p.rc, 10.0 - p.rb, 10.0),
        v3(10.0 + p.rc, 10.0 - p.rb, 10.0),
    ];
    let displaced = [
        old[0] + v3(0.02, -0.03, 0.01),
        old[1] + v3(-0.04, 0.02, 0.03),
        old[2] + v3(0.01, 0.04, -0.02),
    ];
    c.bench_function("settle_one_water", |b| {
        b.iter(|| {
            let mut newp = displaced;
            settle_positions(&p, &pbc, old, &mut newp);
            black_box(newp)
        });
    });
    // SHAKE on the same water, for the analytic-vs-iterative comparison.
    let top = anton2_md::topology::Topology {
        masses: vec![p.m_o, p.m_h, p.m_h],
        charges: vec![0.0; 3],
        lj_types: vec![0; 3],
        waters: vec![[0, 1, 2]],
        ..Default::default()
    };
    let cs = ConstraintSet::from_topology(&top, true, p.d_oh, p.d_hh);
    c.bench_function("shake_one_water", |b| {
        b.iter(|| {
            let mut newp = displaced.to_vec();
            cs.shake_positions(&pbc, &old, &mut newp, 1e-10, 500);
            black_box(newp)
        });
    });
}

fn bench_erfc(c: &mut Criterion) {
    c.bench_function("erfc_series_branch", |b| {
        b.iter(|| black_box(erfc(black_box(1.3))));
    });
    c.bench_function("erfc_cf_branch", |b| {
        b.iter(|| black_box(erfc(black_box(3.1))));
    });
    c.bench_function("erfc_exp_fast_table", |b| {
        b.iter(|| black_box(anton2_md::erfc::erfc_exp_fast(black_box(1.3))));
    });
}

criterion_group!(
    benches,
    bench_pair_kernel,
    bench_neighbor_build,
    bench_constraints,
    bench_erfc
);
criterion_main!(benches);
