//! Functional model of the HTIS match units.
//!
//! In the silicon, each node's match units stream its **tower** atoms
//! against its **plate** atoms and emit every pair within the cutoff whose
//! match criteria select *this* node — an all-pairs distance filter in
//! hardware. This module reproduces that: [`gather_zones`] assembles each
//! node's tower and plate from the NT import region, and [`match_pairs`]
//! runs the tower×plate scan with the neutral-territory match criterion.
//!
//! The validation theorem (asserted in tests): the union over all nodes of
//! the match-unit output equals the global in-range pair set, each pair
//! found **exactly once**, and it is identical to the list produced by the
//! top-down assignment rule [`crate::ntmethod::nt_node_for_pair`].

use crate::decomp::Decomposition;
use crate::ntmethod::nt_node_for_pair;
use anton2_md::system::System;
use anton2_md::vec3::Vec3;
use anton2_net::{Coord, NodeId};

/// An atom as the HTIS sees it: global id + position.
pub type ZoneAtom = (u32, Vec3);

/// Per-node tower and plate atom sets.
#[derive(Clone, Debug, Default)]
pub struct Zones {
    pub tower: Vec<ZoneAtom>,
    pub plate: Vec<ZoneAtom>,
}

fn ring_delta(a: u32, b: u32, n: u32) -> i32 {
    let fwd = (b + n - a) % n;
    let bwd = n - fwd;
    if fwd == 0 {
        0
    } else if fwd <= bwd {
        fwd as i32
    } else {
        -(bwd as i32)
    }
}

/// Assemble every node's tower (own column ± reach.z, including the home
/// box) and plate (own slab half-plane within reach, including the home
/// box) — the exact contents the position imports deliver.
pub fn gather_zones(system: &System, decomp: &Decomposition) -> Vec<Zones> {
    let torus = decomp.torus;
    let n_nodes = torus.n_nodes();
    let b = decomp.node_box_dims();
    let rc = system.nb.cutoff;
    let reach = (
        (rc / b.x).ceil() as i32,
        (rc / b.y).ceil() as i32,
        (rc / b.z).ceil() as i32,
    );
    let mut zones = vec![Zones::default(); n_nodes as usize];
    for (a, &p) in system.positions.iter().enumerate() {
        let home = torus.coord(decomp.owner(p));
        // The atom lands in the tower of every node in its column within
        // reach.z, and in the plate of the nodes whose half-plane covers it.
        for node in 0..n_nodes {
            let c = torus.coord(node);
            let dx = ring_delta(c.x, home.x, torus.nx);
            let dy = ring_delta(c.y, home.y, torus.ny);
            let dz = ring_delta(c.z, home.z, torus.nz);
            let in_tower = dx == 0 && dy == 0 && dz.abs() <= reach.2;
            let in_plate = dz == 0
                && dx.abs() <= reach.0
                && dy.abs() <= reach.1
                && (dy > 0 || (dy == 0 && dx >= 0)); // home box included
            if in_tower {
                zones[node as usize].tower.push((a as u32, p));
            }
            if in_plate {
                zones[node as usize].plate.push((a as u32, p));
            }
        }
    }
    zones
}

/// The tower×plate scan of one node's match units: every in-range,
/// non-excluded pair whose NT match criterion selects `node`, each emitted
/// once with the lower id first.
pub fn match_pairs(
    system: &System,
    decomp: &Decomposition,
    node: NodeId,
    zones: &Zones,
) -> Vec<(u32, u32)> {
    let cutoff_sq = system.nb.cutoff * system.nb.cutoff;
    let mut out = Vec::new();
    for &(a, pa) in &zones.tower {
        for &(b, pb) in &zones.plate {
            if a == b {
                continue;
            }
            if system.pbc.dist_sq(pa, pb) >= cutoff_sq {
                continue;
            }
            if system
                .topology
                .exclusions
                .is_excluded(a as usize, b as usize)
            {
                continue;
            }
            // Match criterion: this node is the pair's neutral territory.
            if nt_node_for_pair(decomp, pa, pb) == node {
                out.push((a.min(b), a.max(b)));
            }
        }
    }
    // Home-box pairs appear under both role orders; dedupe locally (the
    // hardware's match criteria do the equivalent suppression in-pipeline).
    out.sort_unstable();
    out.dedup();
    out
}

/// Which torus coordinate a node id has (convenience for reports).
pub fn node_coord(decomp: &Decomposition, node: NodeId) -> Coord {
    decomp.torus.coord(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::assign_pairs_nt;
    use anton2_md::builders::{solvated_protein, water_box};
    use anton2_net::Torus;

    fn all_matched(system: &System, nodes: u32) -> Vec<Vec<(u32, u32)>> {
        let decomp = Decomposition::new(Torus::for_nodes(nodes), system.pbc);
        let zones = gather_zones(system, &decomp);
        (0..nodes)
            .map(|n| match_pairs(system, &decomp, n, &zones[n as usize]))
            .collect()
    }

    #[test]
    fn match_units_reproduce_nt_assignment_exactly() {
        // The bottom-up hardware scan and the top-down assignment rule must
        // produce identical per-node pair lists.
        let s = water_box(5, 5, 5, 3);
        for nodes in [8u32, 27] {
            let decomp = Decomposition::new(Torus::for_nodes(nodes), s.pbc);
            let top_down = assign_pairs_nt(&s, &decomp);
            let bottom_up = all_matched(&s, nodes);
            for node in 0..nodes as usize {
                let mut want: Vec<(u32, u32)> = top_down[node]
                    .iter()
                    .map(|&(i, j)| (i.min(j), i.max(j)))
                    .collect();
                want.sort_unstable();
                assert_eq!(
                    bottom_up[node], want,
                    "node {node} of {nodes}: match units disagree with NT rule"
                );
            }
        }
    }

    #[test]
    fn every_pair_found_exactly_once_across_the_machine() {
        let s = solvated_protein(60, 180, 4);
        let nodes = 8u32;
        let per_node = all_matched(&s, nodes);
        let mut all: Vec<(u32, u32)> = per_node.into_iter().flatten().collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "a pair was matched on two nodes");
        // And the total equals the brute-force in-range count.
        let serial = anton2_md::stream::brute_force_pairs(&s, s.nb.cutoff).len();
        assert_eq!(all.len(), serial);
    }

    #[test]
    fn zone_sizes_match_the_import_model_scale() {
        // Tower + plate atom counts per node should track the analytic
        // import-volume estimate (owned + imported).
        let s = water_box(8, 8, 8, 5);
        let nodes = 64u32;
        let decomp = Decomposition::new(Torus::for_nodes(nodes), s.pbc);
        let zones = gather_zones(&s, &decomp);
        let b = decomp.node_box_dims();
        let imported = crate::ntmethod::import_atoms(
            crate::config::ImportMethod::NeutralTerritory,
            b,
            s.nb.cutoff,
            s.density(),
        );
        let owned = s.n_atoms() as f64 / nodes as f64;
        let expect = owned * 2.0 + imported; // home box is in both zones
        let mean: f64 = zones
            .iter()
            .map(|z| (z.tower.len() + z.plate.len()) as f64)
            .sum::<f64>()
            / nodes as f64;
        let ratio = mean / expect;
        assert!(
            (0.5..2.0).contains(&ratio),
            "mean zone size {mean:.1} vs model {expect:.1}"
        );
    }

    #[test]
    fn home_box_atoms_appear_in_both_zones() {
        let s = water_box(4, 4, 4, 7);
        let decomp = Decomposition::new(Torus::for_nodes(8), s.pbc);
        let zones = gather_zones(&s, &decomp);
        let owned = decomp.assign(&s);
        for node in 0..8usize {
            let tower_ids: std::collections::BTreeSet<u32> =
                zones[node].tower.iter().map(|&(a, _)| a).collect();
            let plate_ids: std::collections::BTreeSet<u32> =
                zones[node].plate.iter().map(|&(a, _)| a).collect();
            for &a in &owned[node] {
                assert!(tower_ids.contains(&a), "owned atom {a} missing from tower");
                assert!(plate_ids.contains(&a), "owned atom {a} missing from plate");
            }
        }
    }
}
