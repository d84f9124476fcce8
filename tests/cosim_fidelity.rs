//! Cross-crate fidelity: the machine's distributed computation reproduces
//! the serial engine's numbers (DESIGN.md experiment F7), and the
//! fixed-point path is bitwise deterministic (F9).

use anton2::core::cosim;
use anton2::core::{Decomposition, MachineConfig, StepPlan};
use anton2::md::builders::{solvated_protein, water_box};
use anton2::md::gse::{Gse, GseParams};
use anton2::md::vec3::Vec3;
use anton2::net::Torus;

#[test]
fn distributed_pair_forces_match_serial_to_quantization() {
    let s = water_box(5, 5, 5, 3);
    for nodes in [1u32, 8, 27] {
        let out = cosim::verify_pair_forces(&s, nodes, 7);
        assert!(
            out.max_force_error < 1e-4,
            "{nodes} nodes: max error {}",
            out.max_force_error
        );
    }
}

#[test]
fn force_checksums_identical_across_decompositions() {
    let s = solvated_protein(60, 180, 9);
    let reference = cosim::force_checksum(&s, 1, 0);
    for nodes in [8u32, 64] {
        for scramble in [0u64, 31337] {
            assert_eq!(cosim::force_checksum(&s, nodes, scramble), reference);
        }
    }
}

#[test]
fn distributed_kspace_energy_matches_serial_gse() {
    let s = water_box(4, 4, 4, 5);
    let serial = {
        let gse = Gse::new(
            s.nb.ewald_alpha,
            s.pbc,
            GseParams::for_box(s.nb.ewald_alpha, &s.pbc),
        );
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        gse.energy_forces(&s.positions, &s.topology.charges, &mut f)
    };
    let dist = cosim::distributed_kspace_energy(&s, 8);
    assert!(
        (dist - serial).abs() < 1e-8 * serial.abs().max(1.0),
        "{dist} vs {serial}"
    );
}

#[test]
fn plan_pair_estimate_tracks_real_interaction_count() {
    let s = water_box(6, 6, 6, 2);
    let plan = StepPlan::build(&s, &MachineConfig::anton2(8));
    let real = anton2::md::stream::brute_force_pairs(&s, s.nb.cutoff).len();
    let est = plan.total_pairs();
    let ratio = est as f64 / real as f64;
    assert!((0.8..1.3).contains(&ratio), "estimate {est} vs real {real}");
}

#[test]
fn pair_assignment_covers_every_interaction_once() {
    let s = water_box(5, 5, 5, 11);
    let decomp = Decomposition::new(Torus::for_nodes(27), s.pbc);
    let per_node = cosim::assign_pairs(&s, &decomp);
    let total: usize = per_node.iter().map(|v| v.len()).sum();
    let serial = anton2::md::stream::brute_force_pairs(&s, s.nb.cutoff).len();
    assert_eq!(total, serial);
}
