//! Property test for the stream's verify-and-patch refresh: after ANY
//! sequence of displacements — jitter within the patch budget,
//! cell-crossing jumps, barostat-style box rescales — the working list the
//! streamed kernel refreshed to must be exactly the brute-force set of
//! non-excluded pairs within `cutoff + skin`, whether the refresh patched
//! the retained extended list or rebuilt it fresh.

use anton2_md::forcefield::{ForceField, NonbondedSettings};
use anton2_md::pbc::PbcBox;
use anton2_md::stream::{
    brute_force_pairs, nonbonded_forces_streamed, NonbondedWorkspace, StreamBuild,
};
use anton2_md::system::System;
use anton2_md::topology::{Bond, Topology};
use anton2_md::vec3::{v3, Vec3};
use proptest::prelude::*;

/// Small deterministic generator for displacement noise; proptest supplies
/// only the seed, keeping case generation cheap.
struct Lcg(u64);

impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn unit(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }

    /// A random direction (never the zero vector in practice).
    fn direction(&mut self) -> Vec3 {
        v3(self.unit(), self.unit(), self.unit()).normalized()
    }
}

/// `n_mol` bent three-atom molecules (bonds 0–1 and 1–2) at random places
/// in a cubic box of edge `l`. The 1–2 and 1–3 exclusions are within the
/// list range, so the stream must bake each of them out.
fn molecules(seed: u64, n_mol: usize, l: f64) -> System {
    let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
    let n = 3 * n_mol;
    let mut positions = Vec::with_capacity(n);
    let mut bonds = Vec::with_capacity(2 * n_mol);
    for m in 0..n_mol {
        let c = v3(rng.next_f64() * l, rng.next_f64() * l, rng.next_f64() * l);
        positions.push(c + rng.direction() * 1.2);
        positions.push(c);
        positions.push(c + rng.direction() * 1.2);
        let a = 3 * m;
        for (i, j) in [(a, a + 1), (a + 1, a + 2)] {
            bonds.push(Bond {
                i,
                j,
                k: 100.0,
                r0: 1.2,
            });
        }
    }
    let mut topology = Topology {
        masses: vec![12.0; n],
        charges: (0..n).map(|i| [-0.4, 0.8, -0.4][i % 3]).collect(),
        lj_types: vec![0; n],
        bonds,
        ..Default::default()
    };
    topology.build_exclusions();
    System::new(
        topology,
        ForceField::standard(),
        NonbondedSettings::default(),
        PbcBox::cubic(l),
        positions,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 48 Å box at range 10 → 4 cells of width 12 per axis: the extended
    /// list carries a 2 Å margin, i.e. a ~1 Å patch budget against the
    /// 0.5 Å skin/2 trigger. Mode 0 moves every atom 0.55–0.75 Å (stale,
    /// but within the budget, so the forced first round must patch),
    /// mode 1 kicks every fifth atom ≥ 4 Å across cell boundaries (must
    /// rebuild fresh), mode 2 rescales the box (must rebuild fresh). Every
    /// round refreshes the stream.
    #[test]
    fn refreshed_list_equals_brute_force(
        seed in 0u64..10_000,
        n_mol in 16usize..43,
        modes in proptest::collection::vec(0u8..3, 2..7),
    ) {
        let mut s = molecules(seed, n_mol, 48.0);
        prop_assert!(s.topology.exclusions.n_excluded_pairs() > 0);
        let mut rng = Lcg(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut forces = vec![Vec3::ZERO; s.n_atoms()];
        nonbonded_forces_streamed(&s, &table, &mut ws, &mut forces, false);
        let mut patched = 0u32;
        let mut fresh = 0u32;
        let forced_fresh = modes.iter().any(|&m| m != 0);
        for &mode in std::iter::once(&0u8).chain(&modes) {
            match mode {
                0 => {
                    for p in &mut s.positions {
                        *p += rng.direction() * (0.55 + 0.2 * rng.next_f64());
                    }
                }
                1 => {
                    for p in s.positions.iter_mut().step_by(5) {
                        *p += v3(
                            4.0 + 2.0 * rng.next_f64(),
                            2.0 * rng.unit(),
                            2.0 * rng.unit(),
                        );
                    }
                }
                _ => {
                    let mu = 1.0 + 0.002 + 0.004 * rng.next_f64();
                    let b = s.pbc;
                    s.pbc = PbcBox::new(b.lx * mu, b.ly * mu, b.lz * mu);
                    for p in &mut s.positions {
                        *p = *p * mu;
                    }
                }
            }
            nonbonded_forces_streamed(&s, &table, &mut ws, &mut forces, false);
            let stream = ws.stream();
            prop_assert_eq!(stream.ref_positions(), &s.positions[..], "round did not refresh");
            match stream.last_build() {
                StreamBuild::Patched => patched += 1,
                StreamBuild::Fresh { .. } => fresh += 1,
            }
            let want = brute_force_pairs(&s, s.nb.cutoff + s.nb.skin);
            prop_assert_eq!(stream.pairs(), want, "working list diverged");
        }
        prop_assert!(patched >= 1, "schedule never exercised the patch path");
        if forced_fresh {
            prop_assert!(fresh >= 1, "cell-crossing/box rounds must build fresh");
        }
    }
}
