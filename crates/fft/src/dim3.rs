//! 3D FFT over a dense grid, the shape used by the k-space electrostatics
//! solver (Gaussian-split Ewald) in `anton2-md`.

// Indexed loops below walk several parallel per-node arrays in lockstep;
// iterator zips would obscure which node each access refers to.
#![allow(clippy::needless_range_loop)]

use crate::complex::C64;
use crate::radix::Fft;
use rayon::prelude::*;
use rayon::ParallelSliceMut;

/// A dense 3D complex grid with `z` as the fastest-varying axis.
#[derive(Clone, Debug)]
pub struct Grid3 {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<C64>,
}

impl Grid3 {
    /// A zero-filled grid of the given dimensions.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Grid3 {
            nx,
            ny,
            nz,
            data: vec![C64::ZERO; nx * ny * nz],
        }
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(ix, iy, iz)`.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        (ix * self.ny + iy) * self.nz + iz
    }

    #[inline]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> C64 {
        self.data[self.idx(ix, iy, iz)]
    }

    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize, v: C64) {
        let i = self.idx(ix, iy, iz);
        self.data[i] = v;
    }

    /// Add `v` at `(ix, iy, iz)`.
    #[inline]
    pub fn add(&mut self, ix: usize, iy: usize, iz: usize, v: C64) {
        let i = self.idx(ix, iy, iz);
        self.data[i] += v;
    }

    /// Reset every point to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(C64::ZERO);
    }
}

/// Reusable scratch for [`Fft3`] transforms: holding one keeps the 3D
/// transform allocation-free after construction, which the MD engine's
/// steady-state step loop relies on.
///
/// There is one line-pass transform, so one scratch serves both the serial
/// and the parallel mode of the same grid shape.
#[derive(Clone, Debug)]
pub struct Fft3Scratch {
    nx: usize,
    ny: usize,
    nz: usize,
    /// One y-line gather row per x-slab.
    rows: Vec<C64>,
    /// Full-grid transpose buffer for the x pass: x-lines laid out
    /// contiguously so each transforms in place.
    lines: Vec<C64>,
}

impl Fft3Scratch {
    /// Scratch sized for an `nx × ny × nz` grid.
    pub fn for_grid(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3Scratch {
            nx,
            ny,
            nz,
            rows: vec![C64::ZERO; nx * ny],
            lines: vec![C64::ZERO; nx * ny * nz],
        }
    }
}

/// Which 1D transform a line pass runs (the inverse unscaled; the 3D
/// inverse applies `1/N` once at the end).
#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Inverse,
}

/// A reusable plan for 3D transforms of one grid shape.
#[derive(Clone, Debug)]
pub struct Fft3 {
    fx: Fft,
    fy: Fft,
    fz: Fft,
}

impl Fft3 {
    /// Plan transforms for an `nx × ny × nz` grid (each a power of two).
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Fft3 {
            fx: Fft::new(nx),
            fy: Fft::new(ny),
            fz: Fft::new(nz),
        }
    }

    /// Forward 3D DFT in place (no scaling), serial. Allocates transient
    /// scratch; use [`Fft3::forward_with`] on a hot path.
    pub fn forward(&self, g: &mut Grid3) {
        self.forward_with(g, &mut Fft3Scratch::for_grid(g.nx, g.ny, g.nz), false);
    }

    /// Inverse 3D DFT in place, scaled by `1/(nx·ny·nz)`, serial. Allocates
    /// transient scratch; use [`Fft3::inverse_with`] on a hot path.
    pub fn inverse(&self, g: &mut Grid3) {
        self.inverse_with(g, &mut Fft3Scratch::for_grid(g.nx, g.ny, g.nz), false);
    }

    /// Forward 3D DFT in place against caller-owned scratch. `parallel`
    /// fans the independent 1D line transforms of each dimension pass out
    /// across threads, and serial walks the same lines in order: every line
    /// sees the same arithmetic, so the two are bitwise identical.
    pub fn forward_with(&self, g: &mut Grid3, scratch: &mut Fft3Scratch, parallel: bool) {
        self.check(g);
        check_scratch(g, scratch);
        self.transform(g, scratch, Direction::Forward, parallel);
    }

    /// Inverse 3D DFT in place against caller-owned scratch, scaled by
    /// `1/(nx·ny·nz)`. See [`Fft3::forward_with`] for the `parallel`
    /// contract.
    pub fn inverse_with(&self, g: &mut Grid3, scratch: &mut Fft3Scratch, parallel: bool) {
        self.check(g);
        check_scratch(g, scratch);
        self.transform(g, scratch, Direction::Inverse, parallel);
        let s = 1.0 / g.len() as f64;
        for_each_chunk(&mut g.data, g.nz, parallel, |_, line| {
            line.iter_mut().for_each(|z| *z = z.scale(s));
        });
    }

    fn check(&self, g: &Grid3) {
        assert_eq!(self.fx.len(), g.nx);
        assert_eq!(self.fy.len(), g.ny);
        assert_eq!(self.fz.len(), g.nz);
    }

    #[inline]
    fn run(&self, plan: &Fft, line: &mut [C64], dir: Direction) {
        // Type-qualified calls: anton2-lint's call graph then resolves them
        // to `Fft` alone, not to every method named `forward`, which would
        // pull the allocating `Fft3::forward` into the hot set.
        match dir {
            Direction::Forward => Fft::forward(plan, line),
            Direction::Inverse => Fft::inverse_unscaled(plan, line),
        }
    }

    /// The 3D transform as three line passes. Every 1D line is independent,
    /// so each pass walks its lines against disjoint memory — over threads
    /// with `parallel`, in order on the caller's thread otherwise. The z
    /// pass splits the grid into contiguous z-lines; the y pass hands each
    /// x-slab its own gather row; the x pass (whose lines stride `ny·nz`)
    /// transposes the lines into `scratch.lines`, transforms them
    /// contiguously, and scatters back by x-slab.
    fn transform(&self, g: &mut Grid3, scratch: &mut Fft3Scratch, dir: Direction, parallel: bool) {
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        let slab = ny * nz;

        // z pass: contiguous disjoint lines.
        for_each_chunk(&mut g.data, nz, parallel, |_, line| {
            self.run(&self.fz, line, dir)
        });

        // y pass: one x-slab per task, each with its own gather row.
        let y_slab = |(slab_data, line): (&mut [C64], &mut [C64])| {
            for iz in 0..nz {
                for iy in 0..ny {
                    line[iy] = slab_data[iy * nz + iz];
                }
                self.run(&self.fy, line, dir);
                for iy in 0..ny {
                    slab_data[iy * nz + iz] = line[iy];
                }
            }
        };
        if parallel {
            g.data
                .par_chunks_mut(slab)
                .zip(scratch.rows.par_chunks_mut(ny))
                .for_each(y_slab);
        } else {
            g.data
                .chunks_mut(slab)
                .zip(scratch.rows.chunks_mut(ny))
                .for_each(y_slab);
        }

        // x pass, stage 1: gather every x-line into the transpose buffer
        // (line index li = iy·nz + iz; element ix lives at ix·slab + li)
        // and transform it where it now lies contiguously.
        let data = &g.data;
        for_each_chunk(&mut scratch.lines, nx, parallel, |li, line| {
            for (ix, v) in line.iter_mut().enumerate() {
                *v = data[ix * slab + li];
            }
            self.run(&self.fx, line, dir);
        });

        // x pass, stage 2: scatter back, one x-slab per task.
        let lines = &scratch.lines;
        for_each_chunk(&mut g.data, slab, parallel, |ix, block| {
            for (li, out) in block.iter_mut().enumerate() {
                *out = lines[li * nx + ix];
            }
        });
    }
}

fn check_scratch(g: &Grid3, s: &Fft3Scratch) {
    assert!(
        s.nx == g.nx && s.ny == g.ny && s.nz == g.nz,
        "Fft3Scratch sized for {}x{}x{}, grid is {}x{}x{}",
        s.nx,
        s.ny,
        s.nz,
        g.nx,
        g.ny,
        g.nz
    );
}

/// Run `f(i, chunk)` on every `size`-long chunk of `data`: fanned out over
/// threads with `parallel`, in index order on the caller's thread
/// otherwise. The chunks are disjoint, so the two modes write the same bits.
fn for_each_chunk<T, F>(data: &mut [T], size: usize, parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync + Send,
{
    if parallel {
        data.par_chunks_mut(size)
            .enumerate()
            .for_each(|(i, c)| f(i, c));
    } else {
        data.chunks_mut(size).enumerate().for_each(|(i, c)| f(i, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(nx: usize, ny: usize, nz: usize) -> Grid3 {
        let mut g = Grid3::zeros(nx, ny, nz);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let v = C64::new(
                        ((ix * 31 + iy * 7 + iz) as f64).sin(),
                        ((ix + iy * 13 + iz * 3) as f64).cos(),
                    );
                    g.set(ix, iy, iz, v);
                }
            }
        }
        g
    }

    #[test]
    fn roundtrip_identity_nonuniform_dims() {
        let (nx, ny, nz) = (8, 4, 16);
        let plan = Fft3::new(nx, ny, nz);
        let orig = filled(nx, ny, nz);
        let mut g = orig.clone();
        plan.forward(&mut g);
        plan.inverse(&mut g);
        let err = g
            .data
            .iter()
            .zip(&orig.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10, "roundtrip error {err}");
    }

    #[test]
    fn impulse_is_flat_spectrum() {
        let plan = Fft3::new(4, 4, 4);
        let mut g = Grid3::zeros(4, 4, 4);
        g.set(0, 0, 0, C64::ONE);
        plan.forward(&mut g);
        for z in &g.data {
            assert!((*z - C64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn separable_tone_lands_in_one_bin() {
        let (nx, ny, nz) = (8, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let (kx, ky, kz) = (2, 3, 5);
        let mut g = Grid3::zeros(nx, ny, nz);
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let ph = 2.0 * std::f64::consts::PI * (kx * ix) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * iy) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * iz) as f64 / nz as f64;
                    g.set(ix, iy, iz, C64::cis(ph));
                }
            }
        }
        plan.forward(&mut g);
        let total = (nx * ny * nz) as f64;
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let mag = g.get(ix, iy, iz).abs();
                    if (ix, iy, iz) == (kx, ky, kz) {
                        assert!((mag - total).abs() < 1e-8);
                    } else {
                        assert!(mag < 1e-8, "leakage at ({ix},{iy},{iz})");
                    }
                }
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let (nx, ny, nz) = (8, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let orig = filled(nx, ny, nz);
        let te: f64 = orig.data.iter().map(|z| z.norm_sqr()).sum();
        let mut g = orig.clone();
        plan.forward(&mut g);
        let fe: f64 = g.data.iter().map(|z| z.norm_sqr()).sum::<f64>() / (nx * ny * nz) as f64;
        assert!((te - fe).abs() < 1e-8 * te);
    }

    /// The `_with` entry points — serial and parallel — must reproduce the
    /// allocating transform bit for bit: every 1D line sees the same
    /// arithmetic regardless of scheduling.
    #[test]
    fn with_scratch_matches_plain_bitwise() {
        let (nx, ny, nz) = (8, 4, 16);
        let plan = Fft3::new(nx, ny, nz);
        let mut scratch = Fft3Scratch::for_grid(nx, ny, nz);
        let orig = filled(nx, ny, nz);

        let mut reference = orig.clone();
        plan.forward(&mut reference);
        plan.inverse(&mut reference);

        for parallel in [false, true] {
            let mut g = orig.clone();
            plan.forward_with(&mut g, &mut scratch, parallel);
            plan.inverse_with(&mut g, &mut scratch, parallel);
            for (a, b) in g.data.iter().zip(&reference.data) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "parallel={parallel}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "parallel={parallel}");
            }
        }
    }

    /// Scratch reuse across calls must not leak state between transforms.
    #[test]
    fn scratch_reuse_is_clean() {
        let (nx, ny, nz) = (4, 8, 8);
        let plan = Fft3::new(nx, ny, nz);
        let mut scratch = Fft3Scratch::for_grid(nx, ny, nz);
        let orig = filled(nx, ny, nz);

        let mut first = orig.clone();
        plan.forward_with(&mut first, &mut scratch, true);
        // Dirty the scratch with a second, different transform...
        let mut other = Grid3::zeros(nx, ny, nz);
        other.set(1, 2, 3, C64::ONE);
        plan.forward_with(&mut other, &mut scratch, true);
        // ...then repeat the first and demand bitwise agreement.
        let mut again = orig.clone();
        plan.forward_with(&mut again, &mut scratch, true);
        for (a, b) in first.data.iter().zip(&again.data) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "Fft3Scratch sized for")]
    fn mismatched_scratch_rejected() {
        let plan = Fft3::new(8, 8, 8);
        let mut scratch = Fft3Scratch::for_grid(4, 4, 4);
        let mut g = Grid3::zeros(8, 8, 8);
        plan.forward_with(&mut g, &mut scratch, false);
    }

    #[test]
    fn grid_indexing_roundtrip() {
        let g = Grid3::zeros(4, 8, 16);
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(0, 0, 1), 1);
        assert_eq!(g.idx(0, 1, 0), 16);
        assert_eq!(g.idx(1, 0, 0), 128);
        assert_eq!(g.len(), 4 * 8 * 16);
    }

    #[test]
    fn linearity() {
        let (nx, ny, nz) = (4, 4, 8);
        let plan = Fft3::new(nx, ny, nz);
        let a = filled(nx, ny, nz);
        let mut b = filled(nx, ny, nz);
        for z in b.data.iter_mut() {
            *z = z.scale(0.5) + C64::new(0.1, -0.2);
        }
        // F(a + 2b) == F(a) + 2 F(b)
        let mut sum = a.clone();
        for (s, bv) in sum.data.iter_mut().zip(&b.data) {
            *s += bv.scale(2.0);
        }
        plan.forward(&mut sum);
        let mut fa = a.clone();
        plan.forward(&mut fa);
        let mut fb = b.clone();
        plan.forward(&mut fb);
        let err = sum
            .data
            .iter()
            .zip(fa.data.iter().zip(&fb.data))
            .map(|(s, (x, y))| (*s - (*x + y.scale(2.0))).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9);
    }
}
