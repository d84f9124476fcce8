//! Spatial decomposition of the simulation box onto the torus.
//!
//! Each node owns a rectangular sub-box; the torus coordinates map directly
//! to spatial coordinates, so spatial neighbors are network neighbors —
//! the property Anton's whole communication architecture is built around.

use anton2_md::pbc::PbcBox;
use anton2_md::system::System;
use anton2_md::vec3::Vec3;
use anton2_net::{Coord, NodeId, Torus};

/// The mapping between space and nodes.
#[derive(Clone, Copy, Debug)]
pub struct Decomposition {
    pub torus: Torus,
    pub pbc: PbcBox,
}

impl Decomposition {
    pub fn new(torus: Torus, pbc: PbcBox) -> Self {
        Decomposition { torus, pbc }
    }

    /// Edge lengths of one node's box, Å.
    pub fn node_box_dims(&self) -> Vec3 {
        Vec3::new(
            self.pbc.lx / self.torus.nx as f64,
            self.pbc.ly / self.torus.ny as f64,
            self.pbc.lz / self.torus.nz as f64,
        )
    }

    /// The node owning (wrapped) position `p`.
    pub fn owner(&self, p: Vec3) -> NodeId {
        let w = self.pbc.wrap(p);
        let d = self.node_box_dims();
        let cx = ((w.x / d.x) as u32).min(self.torus.nx - 1);
        let cy = ((w.y / d.y) as u32).min(self.torus.ny - 1);
        let cz = ((w.z / d.z) as u32).min(self.torus.nz - 1);
        self.torus.id(Coord {
            x: cx,
            y: cy,
            z: cz,
        })
    }

    /// Lower corner of a node's box.
    pub fn node_origin(&self, node: NodeId) -> Vec3 {
        let c = self.torus.coord(node);
        let d = self.node_box_dims();
        Vec3::new(c.x as f64 * d.x, c.y as f64 * d.y, c.z as f64 * d.z)
    }

    /// Assign every atom of `system` to its owner; returns per-node atom
    /// index lists (deterministic: ascending atom index within a node).
    pub fn assign(&self, system: &System) -> Vec<Vec<u32>> {
        let mut owned = vec![Vec::new(); self.torus.n_nodes() as usize];
        for (i, &p) in system.positions.iter().enumerate() {
            owned[self.owner(p) as usize].push(i as u32);
        }
        owned
    }

    /// Per-node owned-atom counts without materializing the lists.
    pub fn counts(&self, system: &System) -> Vec<u32> {
        let mut counts = vec![0u32; self.torus.n_nodes() as usize];
        for &p in &system.positions {
            counts[self.owner(p) as usize] += 1;
        }
        counts
    }

    /// Load imbalance: max over mean of per-node atom counts.
    pub fn imbalance(&self, system: &System) -> f64 {
        let counts = self.counts(system);
        let max = *counts.iter().max().unwrap_or(&0) as f64;
        let mean = system.n_atoms() as f64 / counts.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton2_md::builders::water_box;

    fn setup(nodes: u32) -> (Decomposition, System) {
        let s = water_box(6, 6, 6, 3);
        (Decomposition::new(Torus::for_nodes(nodes), s.pbc), s)
    }

    #[test]
    fn every_atom_assigned_exactly_once() {
        let (d, s) = setup(8);
        let owned = d.assign(&s);
        let total: usize = owned.iter().map(|v| v.len()).sum();
        assert_eq!(total, s.n_atoms());
        let mut seen = vec![false; s.n_atoms()];
        for list in &owned {
            for &a in list {
                assert!(!seen[a as usize]);
                seen[a as usize] = true;
            }
        }
    }

    #[test]
    fn owner_consistent_with_box_geometry() {
        let (d, s) = setup(8);
        let dims = d.node_box_dims();
        for (i, &p) in s.positions.iter().enumerate().take(200) {
            let node = d.owner(p);
            let origin = d.node_origin(node);
            let w = s.pbc.wrap(p);
            assert!(
                w.x >= origin.x - 1e-9 && w.x < origin.x + dims.x + 1e-9,
                "atom {i} x={} outside [{}, {})",
                w.x,
                origin.x,
                origin.x + dims.x
            );
        }
    }

    #[test]
    fn counts_match_assign() {
        let (d, s) = setup(27);
        let owned = d.assign(&s);
        let counts = d.counts(&s);
        for (list, &c) in owned.iter().zip(&counts) {
            assert_eq!(list.len() as u32, c);
        }
    }

    #[test]
    fn uniform_water_is_roughly_balanced() {
        let (d, s) = setup(8);
        let imb = d.imbalance(&s);
        assert!(imb < 1.5, "imbalance {imb}");
    }

    #[test]
    fn single_node_owns_everything() {
        let (d, s) = setup(1);
        assert_eq!(d.counts(&s)[0] as usize, s.n_atoms());
        assert_eq!(d.imbalance(&s), 1.0);
    }

    #[test]
    fn spatial_neighbors_are_torus_neighbors() {
        let (d, _s) = setup(8); // 2×2×2
                                // Node at (0,0,0) and the node one box over in +x are torus
                                // neighbors.
        let a = d.torus.id(Coord { x: 0, y: 0, z: 0 });
        let b = d.torus.id(Coord { x: 1, y: 0, z: 0 });
        assert_eq!(d.torus.hops(a, b), 1);
    }
}
