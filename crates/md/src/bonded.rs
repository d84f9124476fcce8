//! Bonded force-field terms: harmonic bonds, harmonic angles, and periodic
//! dihedrals. On Anton 2 these run on the geometry cores of the flexible
//! subsystem; here the same functions serve both the serial reference engine
//! and the machine co-simulator.

use crate::pbc::PbcBox;
use crate::topology::{Angle, Bond, Dihedral, Improper, UreyBradley};
use crate::vec3::Vec3;

/// Energies from the bonded terms, kcal/mol.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BondedEnergy {
    pub bond: f64,
    pub angle: f64,
    pub dihedral: f64,
    pub urey_bradley: f64,
    pub improper: f64,
}

impl BondedEnergy {
    pub fn total(&self) -> f64 {
        self.bond + self.angle + self.dihedral + self.urey_bradley + self.improper
    }
}

/// Evaluate all harmonic bonds, accumulating forces; returns the energy.
pub fn bond_forces(bonds: &[Bond], pbc: &PbcBox, positions: &[Vec3], forces: &mut [Vec3]) -> f64 {
    let mut energy = 0.0;
    for b in bonds {
        let d = pbc.min_image(positions[b.i], positions[b.j]);
        let r = d.norm();
        let dr = r - b.r0;
        energy += b.k * dr * dr;
        // F_i = −dE/dr · r̂ = −2k(r−r0)·d/r
        let f = d * (-2.0 * b.k * dr / r);
        forces[b.i] += f;
        forces[b.j] -= f;
    }
    energy
}

/// Evaluate all harmonic angles, accumulating forces; returns the energy.
pub fn angle_forces(
    angles: &[Angle],
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
) -> f64 {
    let mut energy = 0.0;
    for a in angles {
        let rij = pbc.min_image(positions[a.i], positions[a.j]);
        let rkj = pbc.min_image(positions[a.k], positions[a.j]);
        let nij = rij.norm();
        let nkj = rkj.norm();
        let cos_t = (rij.dot(rkj) / (nij * nkj)).clamp(-1.0, 1.0);
        let theta = cos_t.acos();
        let dt = theta - a.theta0;
        energy += a.k_theta * dt * dt;

        let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-8);
        let de_dtheta = 2.0 * a.k_theta * dt;
        let coeff = de_dtheta / sin_t;
        let uij = rij / nij;
        let ukj = rkj / nkj;
        let fi = (ukj - uij * cos_t) * (coeff / nij);
        let fk = (uij - ukj * cos_t) * (coeff / nkj);
        forces[a.i] += fi;
        forces[a.k] += fk;
        forces[a.j] -= fi + fk;
    }
    energy
}

/// Signed dihedral angle over `i–j–k–l` (IUPAC convention, radians in
/// `(−π, π]`).
pub fn dihedral_angle(pbc: &PbcBox, ri: Vec3, rj: Vec3, rk: Vec3, rl: Vec3) -> f64 {
    let b1 = pbc.min_image(rj, ri);
    let b2 = pbc.min_image(rk, rj);
    let b3 = pbc.min_image(rl, rk);
    let n1 = b1.cross(b2);
    let n2 = b2.cross(b3);
    let x = n1.dot(n2);
    let y = n1.cross(n2).dot(b2 / b2.norm());
    y.atan2(x)
}

/// Torsion angle and the forces produced by a generalized torque
/// `−dE/dφ = −de_dphi` on the four atoms, via the Blondel–Karplus analytic
/// gradients:
///   ∂φ/∂r_i = −(|b2|/|n1|²) n1,  ∂φ/∂r_l = (|b2|/|n2|²) n2,
///   ∂φ/∂r_j = −(1 + b1·b2/|b2|²) ∂φ/∂r_i + (b3·b2/|b2|²) ∂φ/∂r_l.
fn torsion_phi_and_forces(
    pbc: &PbcBox,
    r: [Vec3; 4],
    de_dphi: impl Fn(f64) -> f64,
) -> (f64, f64, [Vec3; 4]) {
    let b1 = pbc.min_image(r[1], r[0]);
    let b2 = pbc.min_image(r[2], r[1]);
    let b3 = pbc.min_image(r[3], r[2]);
    let n1 = b1.cross(b2);
    let n2 = b2.cross(b3);
    let nb2 = b2.norm();
    let phi = n1.cross(n2).dot(b2 / nb2).atan2(n1.dot(n2));
    let g = de_dphi(phi);
    let fi = n1 * (g * nb2 / n1.norm_sq());
    let fl = n2 * (-g * nb2 / n2.norm_sq());
    let t = b1.dot(b2) / (nb2 * nb2);
    let s = b3.dot(b2) / (nb2 * nb2);
    let fj = -fi * (1.0 + t) + fl * s;
    let fk = -(fi + fj + fl);
    (phi, g, [fi, fj, fk, fl])
}

/// Evaluate all periodic dihedrals, accumulating forces; returns the energy.
pub fn dihedral_forces(
    dihedrals: &[Dihedral],
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
) -> f64 {
    let mut energy = 0.0;
    for d in dihedrals {
        let (phi, _, f) = torsion_phi_and_forces(
            pbc,
            [
                positions[d.i],
                positions[d.j],
                positions[d.k],
                positions[d.l],
            ],
            |phi| -d.k_phi * d.n as f64 * (d.n as f64 * phi - d.delta).sin(),
        );
        energy += d.k_phi * (1.0 + (d.n as f64 * phi - d.delta).cos());
        forces[d.i] += f[0];
        forces[d.j] += f[1];
        forces[d.k] += f[2];
        forces[d.l] += f[3];
    }
    energy
}

/// Evaluate all Urey–Bradley 1–3 springs, accumulating forces.
pub fn urey_bradley_forces(
    terms: &[UreyBradley],
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
) -> f64 {
    let mut energy = 0.0;
    for u in terms {
        let d = pbc.min_image(positions[u.i], positions[u.k_atom]);
        let r = d.norm();
        let dr = r - u.r0;
        energy += u.k_ub * dr * dr;
        let f = d * (-2.0 * u.k_ub * dr / r);
        forces[u.i] += f;
        forces[u.k_atom] -= f;
    }
    energy
}

/// Evaluate all harmonic improper dihedrals, accumulating forces.
///
/// The deviation `φ − φ0` is wrapped into `(−π, π]` so an improper near ±π
/// does not see an artificial 2π jump.
pub fn improper_forces(
    impropers: &[Improper],
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
) -> f64 {
    let wrap = |x: f64| {
        let mut v = x;
        while v > std::f64::consts::PI {
            v -= 2.0 * std::f64::consts::PI;
        }
        while v <= -std::f64::consts::PI {
            v += 2.0 * std::f64::consts::PI;
        }
        v
    };
    let mut energy = 0.0;
    for im in impropers {
        let (phi, _, f) = torsion_phi_and_forces(
            pbc,
            [
                positions[im.i],
                positions[im.j],
                positions[im.k],
                positions[im.l],
            ],
            |phi| {
                let dphi = wrap(phi - im.phi0);
                2.0 * im.k_imp * dphi
            },
        );
        let dphi = wrap(phi - im.phi0);
        energy += im.k_imp * dphi * dphi;
        forces[im.i] += f[0];
        forces[im.j] += f[1];
        forces[im.k] += f[2];
        forces[im.l] += f[3];
    }
    energy
}

/// Evaluate every bonded term of a topology into `forces`: one unchunked
/// pass over each term list, the oracle the engine's chunked pass
/// ([`all_bonded_forces_parallel`]) is checked against.
pub fn all_bonded_forces(
    topology: &crate::topology::Topology,
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
) -> BondedEnergy {
    BondedEnergy {
        bond: bond_forces(&topology.bonds, pbc, positions, forces),
        angle: angle_forces(&topology.angles, pbc, positions, forces),
        dihedral: dihedral_forces(&topology.dihedrals, pbc, positions, forces),
        urey_bradley: urey_bradley_forces(&topology.urey_bradleys, pbc, positions, forces),
        improper: improper_forces(&topology.impropers, pbc, positions, forces),
    }
}

/// Fixed chunk count for [`all_bonded_forces_parallel`]. Independent of the
/// thread count, so a given system always gets the same term grouping and
/// therefore the same floating-point result for any `RAYON_NUM_THREADS`.
pub const BONDED_CHUNKS: usize = 16;

/// Upper bound on `buffers.len()` in [`all_bonded_forces_parallel`]: the
/// per-chunk energy slots live in a stack array of this size so the
/// steady-state parallel path never touches the allocator.
pub const MAX_BONDED_CHUNKS: usize = 64;

/// Parallel [`all_bonded_forces`]: each of the `buffers.len()` fixed chunks
/// takes a contiguous slice of every term list, accumulates into its own
/// whole-system force buffer, and the buffers are reduced per atom in chunk
/// order. Energies likewise sum in chunk order. Results are bitwise the
/// same for any thread count, and equal to the engine's serial pass over
/// the same chunks; they differ from the unchunked [`all_bonded_forces`]
/// only by floating-point regrouping (≲1e-12 relative).
///
/// `buffers` (one per chunk, normally [`BONDED_CHUNKS`]) come from the
/// caller so a steady-state step loop can reuse them without allocating.
pub fn all_bonded_forces_parallel(
    topology: &crate::topology::Topology,
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
    buffers: &mut [Vec<Vec3>],
) -> BondedEnergy {
    all_bonded_forces_chunked(topology, pbc, positions, forces, buffers, true)
}

/// The engine's bonded pass over the `buffers.len()` fixed chunks of
/// [`all_bonded_forces_parallel`]: chunks and the per-atom reduction run
/// over threads with `parallel`, in order on the caller's thread
/// otherwise. Every chunk and every atom's sum sees the same arithmetic
/// either way, so the two modes are bitwise equal.
pub(crate) fn all_bonded_forces_chunked(
    topology: &crate::topology::Topology,
    pbc: &PbcBox,
    positions: &[Vec3],
    forces: &mut [Vec3],
    buffers: &mut [Vec<Vec3>],
    parallel: bool,
) -> BondedEnergy {
    use rayon::prelude::*;

    let n = positions.len();
    let chunks = buffers.len().max(1);
    assert!(
        buffers.len() <= MAX_BONDED_CHUNKS,
        "at most {MAX_BONDED_CHUNKS} bonded chunks (got {})",
        buffers.len()
    );
    let chunk = |(c, (buf, slot)): (usize, (&mut Vec<Vec3>, &mut BondedEnergy))| {
        buf.clear();
        buf.resize(n, Vec3::ZERO);
        *slot = BondedEnergy {
            bond: bond_forces(share(&topology.bonds, c, chunks), pbc, positions, buf),
            angle: angle_forces(share(&topology.angles, c, chunks), pbc, positions, buf),
            dihedral: dihedral_forces(share(&topology.dihedrals, c, chunks), pbc, positions, buf),
            urey_bradley: urey_bradley_forces(
                share(&topology.urey_bradleys, c, chunks),
                pbc,
                positions,
                buf,
            ),
            improper: improper_forces(share(&topology.impropers, c, chunks), pbc, positions, buf),
        };
    };

    // Per-chunk energy slots on the stack: the steady-state path must not
    // touch the allocator (zero-alloc rule).
    let mut energies = [BondedEnergy::default(); MAX_BONDED_CHUNKS];
    if parallel {
        buffers
            .par_iter_mut()
            .zip(&mut energies[..])
            .enumerate()
            .for_each(chunk);
    } else {
        buffers
            .iter_mut()
            .zip(&mut energies[..])
            .enumerate()
            .for_each(chunk);
    }

    // Ordered per-atom reduction: every atom sums its chunk contributions
    // in chunk order, independent of how threads were scheduled.
    let buffers = &*buffers;
    let reduce = |(i, f): (usize, &mut Vec3)| {
        let mut acc = Vec3::ZERO;
        for buf in buffers {
            acc += buf[i];
        }
        *f += acc;
    };
    if parallel {
        forces.par_iter_mut().enumerate().for_each(reduce);
    } else {
        forces.iter_mut().enumerate().for_each(reduce);
    }

    let mut total = BondedEnergy::default();
    for e in &energies[..buffers.len()] {
        total.bond += e.bond;
        total.angle += e.angle;
        total.dihedral += e.dihedral;
        total.urey_bradley += e.urey_bradley;
        total.improper += e.improper;
    }
    total
}

/// Chunk `c`'s contiguous share of a term list split into `chunks` parts.
fn share<T>(terms: &[T], c: usize, chunks: usize) -> &[T] {
    let per = terms.len().div_ceil(chunks).max(1);
    let start = (c * per).min(terms.len());
    &terms[start..(start + per).min(terms.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    const BOX: f64 = 50.0;

    fn numerical_forces(positions: &[Vec3], energy_fn: &dyn Fn(&[Vec3]) -> f64) -> Vec<Vec3> {
        let h = 1e-6;
        let mut out = vec![Vec3::ZERO; positions.len()];
        let mut p = positions.to_vec();
        for a in 0..positions.len() {
            for c in 0..3 {
                let orig = p[a][c];
                p[a][c] = orig + h;
                let ep = energy_fn(&p);
                p[a][c] = orig - h;
                let em = energy_fn(&p);
                p[a][c] = orig;
                out[a][c] = -(ep - em) / (2.0 * h);
            }
        }
        out
    }

    fn assert_forces_match(analytic: &[Vec3], numeric: &[Vec3], tol: f64) {
        for (a, (fa, fn_)) in analytic.iter().zip(numeric).enumerate() {
            assert!(
                (*fa - *fn_).norm() < tol * (1.0 + fn_.norm()),
                "atom {a}: analytic {fa:?} vs numeric {fn_:?}"
            );
        }
    }

    #[test]
    fn bond_force_matches_gradient() {
        let pbc = PbcBox::cubic(BOX);
        let bonds = vec![Bond {
            i: 0,
            j: 1,
            k: 340.0,
            r0: 1.53,
        }];
        let pos = vec![v3(10.0, 10.0, 10.0), v3(11.7, 10.4, 9.8)];
        let mut f = vec![Vec3::ZERO; 2];
        bond_forces(&bonds, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 2];
            bond_forces(&bonds, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-5);
    }

    #[test]
    fn bond_energy_zero_at_equilibrium() {
        let pbc = PbcBox::cubic(BOX);
        let bonds = vec![Bond {
            i: 0,
            j: 1,
            k: 340.0,
            r0: 1.5,
        }];
        let pos = vec![v3(10.0, 10.0, 10.0), v3(11.5, 10.0, 10.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bond_forces(&bonds, &pbc, &pos, &mut f);
        assert!(e.abs() < 1e-12);
        assert!(f[0].norm() < 1e-9);
    }

    #[test]
    fn bond_respects_periodic_images() {
        let pbc = PbcBox::cubic(BOX);
        let bonds = vec![Bond {
            i: 0,
            j: 1,
            k: 100.0,
            r0: 1.5,
        }];
        // Across the boundary: true separation is 1.5 through the wall.
        let pos = vec![v3(0.5, 10.0, 10.0), v3(49.0, 10.0, 10.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bond_forces(&bonds, &pbc, &pos, &mut f);
        assert!(
            e.abs() < 1e-12,
            "periodic bond should be at equilibrium, E={e}"
        );
    }

    #[test]
    fn angle_force_matches_gradient() {
        let pbc = PbcBox::cubic(BOX);
        let angles = vec![Angle {
            i: 0,
            j: 1,
            k: 2,
            k_theta: 50.0,
            theta0: 109.5f64.to_radians(),
        }];
        let pos = vec![
            v3(10.0, 10.0, 10.0),
            v3(11.5, 10.0, 10.0),
            v3(12.2, 11.3, 9.7),
        ];
        let mut f = vec![Vec3::ZERO; 3];
        angle_forces(&angles, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 3];
            angle_forces(&angles, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-5);
    }

    #[test]
    fn angle_forces_sum_to_zero_and_no_torque() {
        let pbc = PbcBox::cubic(BOX);
        let angles = vec![Angle {
            i: 0,
            j: 1,
            k: 2,
            k_theta: 35.0,
            theta0: 1.9,
        }];
        let pos = vec![
            v3(9.0, 10.5, 10.0),
            v3(11.5, 10.0, 10.0),
            v3(12.0, 12.3, 10.4),
        ];
        let mut f = vec![Vec3::ZERO; 3];
        angle_forces(&angles, &pbc, &pos, &mut f);
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10);
        // Net torque about the vertex must vanish for an internal force.
        let torque: Vec3 = (0..3).map(|a| (pos[a] - pos[1]).cross(f[a])).sum();
        assert!(torque.norm() < 1e-9, "torque {torque:?}");
    }

    #[test]
    fn dihedral_angle_known_geometries() {
        let pbc = PbcBox::cubic(BOX);
        // cis (φ = 0): all four atoms planar, l on the same side as i.
        let phi = dihedral_angle(
            &pbc,
            v3(0.0, 1.0, 0.0),
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(1.0, 1.0, 0.0),
        );
        assert!(phi.abs() < 1e-12, "cis should be 0, got {phi}");
        // trans (φ = π): l opposite side.
        let phi = dihedral_angle(
            &pbc,
            v3(0.0, 1.0, 0.0),
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(1.0, -1.0, 0.0),
        );
        assert!((phi.abs() - std::f64::consts::PI).abs() < 1e-12);
        // +90°.
        let phi = dihedral_angle(
            &pbc,
            v3(0.0, 1.0, 0.0),
            v3(0.0, 0.0, 0.0),
            v3(1.0, 0.0, 0.0),
            v3(1.0, 0.0, 1.0),
        );
        assert!(
            (phi - std::f64::consts::FRAC_PI_2).abs() < 1e-12,
            "got {phi}"
        );
    }

    #[test]
    fn dihedral_force_matches_gradient() {
        let pbc = PbcBox::cubic(BOX);
        let dihedrals = vec![Dihedral {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            k_phi: 1.4,
            n: 3,
            delta: 0.0,
        }];
        let pos = vec![
            v3(10.0, 10.0, 10.0),
            v3(11.5, 10.2, 9.9),
            v3(12.1, 11.6, 10.3),
            v3(13.6, 11.7, 10.9),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        dihedral_forces(&dihedrals, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 4];
            dihedral_forces(&dihedrals, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-4);
    }

    #[test]
    fn dihedral_force_matches_gradient_with_phase() {
        // A nonzero phase δ makes E(φ) asymmetric, pinning the φ sign
        // convention: a flipped convention would pass δ=0 but fail here.
        let pbc = PbcBox::cubic(BOX);
        let dihedrals = vec![Dihedral {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            k_phi: 2.3,
            n: 1,
            delta: 0.7,
        }];
        let pos = vec![
            v3(10.0, 10.0, 10.0),
            v3(11.5, 10.2, 9.9),
            v3(12.1, 11.6, 10.3),
            v3(13.6, 11.7, 10.9),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        dihedral_forces(&dihedrals, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 4];
            dihedral_forces(&dihedrals, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-4);
    }

    #[test]
    fn dihedral_forces_sum_to_zero() {
        let pbc = PbcBox::cubic(BOX);
        let dihedrals = vec![Dihedral {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            k_phi: 2.0,
            n: 2,
            delta: 0.5,
        }];
        let pos = vec![
            v3(10.0, 10.0, 10.0),
            v3(11.4, 10.5, 10.1),
            v3(12.0, 11.8, 9.6),
            v3(13.1, 12.0, 10.8),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        dihedral_forces(&dihedrals, &pbc, &pos, &mut f);
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10);
    }

    #[test]
    fn urey_bradley_force_matches_gradient() {
        let pbc = PbcBox::cubic(BOX);
        let terms = vec![UreyBradley {
            i: 0,
            k_atom: 1,
            k_ub: 30.0,
            r0: 2.5,
        }];
        let pos = vec![v3(10.0, 10.0, 10.0), v3(12.1, 10.7, 9.6)];
        let mut f = vec![Vec3::ZERO; 2];
        urey_bradley_forces(&terms, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 2];
            urey_bradley_forces(&terms, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-5);
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn urey_bradley_zero_at_equilibrium() {
        let pbc = PbcBox::cubic(BOX);
        let terms = vec![UreyBradley {
            i: 0,
            k_atom: 1,
            k_ub: 30.0,
            r0: 2.5,
        }];
        let pos = vec![v3(10.0, 10.0, 10.0), v3(12.5, 10.0, 10.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = urey_bradley_forces(&terms, &pbc, &pos, &mut f);
        assert!(e.abs() < 1e-12);
        assert!(f[0].norm() < 1e-9);
    }

    #[test]
    fn improper_force_matches_gradient() {
        let pbc = PbcBox::cubic(BOX);
        let terms = vec![Improper {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            k_imp: 15.0,
            phi0: 0.3,
        }];
        let pos = vec![
            v3(10.0, 10.0, 10.0),
            v3(11.4, 10.3, 9.8),
            v3(12.0, 11.7, 10.2),
            v3(13.4, 11.9, 10.9),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        improper_forces(&terms, &pbc, &pos, &mut f);
        let num = numerical_forces(&pos, &|p| {
            let mut scratch = vec![Vec3::ZERO; 4];
            improper_forces(&terms, &pbc, p, &mut scratch)
        });
        assert_forces_match(&f, &num, 1e-4);
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10);
    }

    #[test]
    fn improper_restores_target_angle() {
        // Energy zero exactly at phi0, positive elsewhere, and the wrap
        // keeps deviations near ±π continuous.
        let pbc = PbcBox::cubic(BOX);
        let at_angle = |ang: f64| {
            vec![
                v3(0.0, 1.0, 0.0),
                v3(0.0, 0.0, 0.0),
                v3(1.0, 0.0, 0.0),
                v3(1.0, ang.cos(), ang.sin()),
            ]
        };
        let phi0 = std::f64::consts::PI; // trans-planar improper
        let terms = vec![Improper {
            i: 0,
            j: 1,
            k: 2,
            l: 3,
            k_imp: 10.0,
            phi0,
        }];
        let mut f = vec![Vec3::ZERO; 4];
        let e_at_min = improper_forces(&terms, &pbc, &at_angle(std::f64::consts::PI), &mut f);
        assert!(e_at_min.abs() < 1e-12, "E(φ0) = {e_at_min}");
        // Just past −π (equivalent to just below +π): the wrap must keep the
        // energy small, not ~k(2π)².
        let mut f = vec![Vec3::ZERO; 4];
        let e_wrap = improper_forces(
            &terms,
            &pbc,
            &at_angle(-std::f64::consts::PI + 0.05),
            &mut f,
        );
        assert!(
            e_wrap < 10.0 * 0.06f64.powi(2) + 1e-9,
            "wrap failed: {e_wrap}"
        );
    }

    #[test]
    fn dihedral_energy_range() {
        // E = k(1 + cos(nφ−δ)) ∈ [0, 2k].
        let pbc = PbcBox::cubic(BOX);
        for step in 0..24 {
            let ang = step as f64 * 15f64.to_radians();
            let pos = vec![
                v3(0.0, 1.0, 0.0),
                v3(0.0, 0.0, 0.0),
                v3(1.0, 0.0, 0.0),
                v3(1.0, ang.cos(), ang.sin()),
            ];
            let dihedrals = vec![Dihedral {
                i: 0,
                j: 1,
                k: 2,
                l: 3,
                k_phi: 1.0,
                n: 1,
                delta: 0.0,
            }];
            let mut f = vec![Vec3::ZERO; 4];
            let e = dihedral_forces(&dihedrals, &pbc, &pos, &mut f);
            assert!((0.0..=2.0 + 1e-12).contains(&e), "E={e} at φ={ang}");
        }
    }

    /// The chunked pass regroups floating-point sums, so it stays within
    /// summation noise of the unchunked oracle; its serial and parallel
    /// modes are bitwise equal, and reusing the buffers changes nothing.
    #[test]
    fn chunked_pass_matches_oracle_and_is_bitwise_in_both_modes() {
        let s = crate::builders::solvated_protein(60, 40, 7);
        let mut f_oracle = vec![Vec3::ZERO; s.n_atoms()];
        let e_oracle = all_bonded_forces(&s.topology, &s.pbc, &s.positions, &mut f_oracle);

        let mut buffers: Vec<Vec<Vec3>> = (0..BONDED_CHUNKS).map(|_| Vec::new()).collect();
        let mut runs = Vec::new();
        for parallel in [false, true, false, true] {
            let mut f = vec![Vec3::ZERO; s.n_atoms()];
            let e = all_bonded_forces_chunked(
                &s.topology,
                &s.pbc,
                &s.positions,
                &mut f,
                &mut buffers,
                parallel,
            );
            assert!(
                (e.total() - e_oracle.total()).abs() < 1e-10 * e_oracle.total().abs().max(1.0),
                "parallel={parallel}: {} vs {}",
                e.total(),
                e_oracle.total()
            );
            for (i, (a, b)) in f.iter().zip(&f_oracle).enumerate() {
                assert!(
                    (*a - *b).norm() < 1e-10 * (1.0 + b.norm()),
                    "parallel={parallel} atom {i}: {a:?} vs {b:?}"
                );
            }
            let bits: Vec<u64> = f
                .iter()
                .flat_map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()])
                .chain([e.total().to_bits()])
                .collect();
            runs.push(bits);
        }
        assert!(runs.iter().all(|r| *r == runs[0]), "modes or rounds differ");
    }
}
