//! Per-step work and communication planning.
//!
//! Converts (system, decomposition, machine config) into the
//! machine-visible plan for one timestep: how much of each kind of work
//! every node performs, and every message the step sends. The timing
//! simulator in [`crate::machine`] executes this plan; the functional
//! co-simulator in [`crate::cosim`] checks that the *numbers* the plan's
//! distributed computation produces match the serial engine.

// Indexed loops below walk several parallel per-node arrays in lockstep;
// iterator zips would obscure which node each access refers to.
#![allow(clippy::needless_range_loop)]

use crate::config::MachineConfig;
use crate::decomp::Decomposition;
use crate::ntmethod::{
    import_atoms, import_offsets, BYTES_PER_FORCE_RETURN, BYTES_PER_IMPORT_ATOM,
};
use anton2_md::gse::GseParams;
use anton2_md::system::System;
use anton2_net::{Coord, HealthMap, NodeId, Torus, DIM_ORDERS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Spreading/interpolation stencil half-width in grid points used by the
/// *machine work model*: production spreading kernels touch a 5×5×5-class
/// window per atom (PME order-4/5, Anton's optimized dual interpolation).
/// The functional GSE in `anton2-md` uses a wider, accuracy-safe Gaussian
/// window; the machine is modeled at production cost. See DESIGN.md §6.
pub const MODEL_SPREAD_MARGIN: u64 = 2;

/// Bytes per migrated atom (position, velocity, id, type, charge).
pub const BYTES_PER_MIGRATED_ATOM: f64 = 64.0;

/// Bytes per grid point shipped during charge spreading (value + index).
pub const BYTES_PER_SPREAD_POINT: f64 = 12.0;
/// Bytes per grid point returned during force interpolation.
pub const BYTES_PER_RETURN_POINT: f64 = 8.0;
/// Bytes per complex grid point in FFT transposes.
pub const BYTES_PER_FFT_POINT: u32 = 16;

/// Work one node performs in one step.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct NodeWork {
    pub owned_atoms: u64,
    pub imported_atoms: u64,
    pub pair_interactions: u64,
    pub bonded_terms: u64,
    pub spread_points: u64,
    pub interp_points: u64,
    pub integrate_atoms: u64,
    pub constraints: u64,
}

/// The pencil-FFT rank layout over the machine.
///
/// Because the charge grid is spatial, the process grid is aligned with the
/// torus whenever divisibility allows: grid x-blocks map to torus x-columns
/// and y-blocks to (y, z) planes, so spreading, transposes, and grid
/// returns are all short-range network traffic — exactly how Anton places
/// its k-space computation. A strided fallback covers exotic shapes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PencilLayout {
    pub px: u32,
    pub py: u32,
    /// Rank → hosting node.
    hosts: Vec<NodeId>,
    /// Node → rank (-1 if the node hosts no pencil).
    rank_of: Vec<i32>,
}

impl PencilLayout {
    pub fn ranks(&self) -> u32 {
        self.px * self.py
    }

    /// Node hosting pencil rank `r`.
    #[inline]
    pub fn node_of(&self, r: u32) -> NodeId {
        self.hosts[r as usize]
    }

    /// Pencil rank hosted by `node`, if any.
    #[inline]
    pub fn rank_of(&self, node: NodeId) -> Option<u32> {
        let r = self.rank_of[node as usize];
        if r < 0 {
            None
        } else {
            Some(r as u32)
        }
    }

    fn from_hosts(px: u32, py: u32, hosts: Vec<NodeId>, n_nodes: u32) -> Self {
        let mut rank_of = vec![-1i32; n_nodes as usize];
        for (r, &h) in hosts.iter().enumerate() {
            debug_assert_eq!(rank_of[h as usize], -1, "two ranks on one node");
            rank_of[h as usize] = r as i32;
        }
        PencilLayout {
            px,
            py,
            hosts,
            rank_of,
        }
    }

    /// Choose a process grid for `torus` and grid dims, preferring the
    /// torus-aligned layout.
    pub fn choose(torus: Torus, gx: usize, gy: usize, gz: usize) -> Self {
        let n_nodes = torus.n_nodes();
        let (tx, ty, tz) = (torus.nx as usize, torus.ny as usize, torus.nz as usize);
        // Torus-aligned: px = torus.nx, py = torus.ny·torus.nz.
        let py_t = ty * tz;
        if tx <= gx.min(gy)
            && py_t <= gy.min(gz)
            && gx.is_multiple_of(tx)
            && gy.is_multiple_of(tx)
            && gy.is_multiple_of(py_t)
            && gz.is_multiple_of(py_t)
        {
            let mut hosts = Vec::with_capacity(n_nodes as usize);
            for rx in 0..tx as u32 {
                for ry in 0..py_t as u32 {
                    // Grid y-block ry covers spatial y ≈ ry/tz of the box.
                    let y = ry / tz as u32;
                    let z = ry % tz as u32;
                    hosts.push(torus.id(Coord { x: rx, y, z }));
                }
            }
            return Self::from_hosts(tx as u32, py_t as u32, hosts, n_nodes);
        }
        // Fallback: the largest power-of-two process grid that divides the
        // node count, ranks strided across node ids.
        let mut best = (1u32, 1u32);
        let mut best_ranks = 1;
        let mut px = 1u32;
        while px as usize <= gx.min(gy) {
            let mut py = 1u32;
            while py as usize <= gy.min(gz) {
                let ranks = px * py;
                if ranks <= n_nodes
                    && n_nodes.is_multiple_of(ranks)
                    && gx.is_multiple_of(px as usize)
                    && gy.is_multiple_of(px as usize)
                    && gy.is_multiple_of(py as usize)
                    && gz.is_multiple_of(py as usize)
                {
                    let balanced = (px as i64 - py as i64).abs();
                    let cur = (best.0 as i64 - best.1 as i64).abs();
                    if ranks > best_ranks || (ranks == best_ranks && balanced < cur) {
                        best_ranks = ranks;
                        best = (px, py);
                    }
                }
                py *= 2;
            }
            px *= 2;
        }
        let stride = n_nodes / best_ranks;
        let hosts = (0..best_ranks).map(|r| r * stride).collect();
        Self::from_hosts(best.0, best.1, hosts, n_nodes)
    }

    /// Like [`PencilLayout::choose`], but hosts ranks only on nodes outside
    /// `dead` — the re-hosting path a health-driven replan takes when a
    /// pencil host is evicted. Returns `None` only when no live node
    /// remains. With `dead` empty this is exactly [`PencilLayout::choose`].
    pub fn choose_excluding(
        torus: Torus,
        gx: usize,
        gy: usize,
        gz: usize,
        dead: &BTreeSet<NodeId>,
    ) -> Option<Self> {
        if dead.is_empty() {
            return Some(Self::choose(torus, gx, gy, gz));
        }
        let n_nodes = torus.n_nodes();
        let live: Vec<NodeId> = (0..n_nodes).filter(|n| !dead.contains(n)).collect();
        if live.is_empty() {
            return None;
        }
        let n_live = live.len() as u32;
        // Largest power-of-two process grid that fits the live node count
        // and divides the grid dims (the live count need not divide evenly
        // — ranks are spread across the live list by stride instead).
        let mut best = (1u32, 1u32);
        let mut best_ranks = 1u32;
        let mut px = 1u32;
        while px as usize <= gx.min(gy) {
            let mut py = 1u32;
            while py as usize <= gy.min(gz) {
                let ranks = px * py;
                if ranks <= n_live
                    && gx.is_multiple_of(px as usize)
                    && gy.is_multiple_of(px as usize)
                    && gy.is_multiple_of(py as usize)
                    && gz.is_multiple_of(py as usize)
                {
                    let balanced = (px as i64 - py as i64).abs();
                    let cur = (best.0 as i64 - best.1 as i64).abs();
                    if ranks > best_ranks || (ranks == best_ranks && balanced < cur) {
                        best_ranks = ranks;
                        best = (px, py);
                    }
                }
                py *= 2;
            }
            px *= 2;
        }
        let stride = (n_live / best_ranks).max(1);
        let hosts: Vec<NodeId> = (0..best_ranks)
            .map(|r| live[(r * stride) as usize])
            .collect();
        Some(Self::from_hosts(best.0, best.1, hosts, n_nodes))
    }
}

/// All messages one step sends.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CommPlan {
    /// Per node: destinations of its position export.
    pub import_dsts: Vec<Vec<NodeId>>,
    /// Per node: payload bytes. With `import_multicast`, this is the whole
    /// payload replicated along the tree; otherwise the per-destination
    /// unicast size (the boundary slab each neighbor actually needs).
    pub import_bytes: Vec<u32>,
    /// Whether position exports use network multicast (node boxes at or
    /// below the cutoff: every neighbor needs the whole box) or per-slab
    /// unicasts (large boxes: neighbors need only the boundary region).
    pub import_multicast: bool,
    /// Per node: how many import messages it expects to receive.
    pub import_msgs_in: Vec<u32>,
    /// Per node: force-return unicasts `(dst, bytes)`.
    pub force_returns: Vec<Vec<(NodeId, u32)>>,
    /// Per node: atom-migration unicasts to the six face neighbors,
    /// sent after integration `(dst, bytes)`.
    pub migrations: Vec<Vec<(NodeId, u32)>>,
    /// Per node: spread-contribution unicasts `(dst, bytes)`.
    pub spread_msgs: Vec<Vec<(NodeId, u32)>>,
    /// Per pencil rank (indexed by rank): grid-return unicasts `(dst, bytes)`.
    pub grid_returns: Vec<Vec<(NodeId, u32)>>,
    /// FFT transpose messages (node ids): forward y, forward x, inverse y,
    /// inverse z.
    pub fft_transposes: [Vec<(NodeId, NodeId, u32)>; 4],
}

/// The complete plan for one timestep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StepPlan {
    pub work: Vec<NodeWork>,
    pub comm: CommPlan,
    pub pencil: PencilLayout,
    /// Butterflies per FFT rank per 1D stage (all six stages equal here:
    /// uniform power-of-two grid).
    pub butterflies_per_rank: u64,
    /// Influence-function multiply points per rank.
    pub influence_points_per_rank: u64,
    /// Grid dimensions used for k-space.
    pub grid: (usize, usize, usize),
    /// Atom number density, atoms/Å³ (for reporting).
    pub density: f64,
}

impl StepPlan {
    /// Build the plan for `system` on `machine` with the default production
    /// timestep (2.5 fs) for the migration-flux estimate.
    pub fn build(system: &System, machine: &MachineConfig) -> Self {
        Self::build_with_dt(system, machine, 2.5)
    }

    /// Build the plan for `system` on `machine`; `dt_fs` sets the per-step
    /// atom-migration flux.
    pub fn build_with_dt(system: &System, machine: &MachineConfig, dt_fs: f64) -> Self {
        let torus = machine.torus;
        let decomp = Decomposition::new(torus, system.pbc);
        let n_nodes = torus.n_nodes() as usize;
        let counts = decomp.counts(system);
        let density = system.density();
        let b = decomp.node_box_dims();
        let rc = system.nb.cutoff;

        // --- Per-node work ---
        let total_atoms = system.n_atoms() as u64;
        let total_pairs = {
            // Mean neighbors within rc at this density, half-counted.
            let shell = 4.0 / 3.0 * std::f64::consts::PI * rc.powi(3);
            (total_atoms as f64 * density * shell / 2.0) as u64
        };
        let total_bonded = (system.topology.bonds.len()
            + system.topology.angles.len()
            + system.topology.dihedrals.len()
            + system.topology.urey_bradleys.len()
            + system.topology.impropers.len()) as u64;
        let total_constraints =
            (system.topology.constraints.len() + 3 * system.topology.waters.len()) as u64;

        let gse_params = GseParams::for_box(system.nb.ewald_alpha, &system.pbc);
        let grid = (gse_params.nx, gse_params.ny, gse_params.nz);
        let window = {
            let m = MODEL_SPREAD_MARGIN * 2 + 1;
            m * m * m
        };
        let imported = import_atoms(machine.import, b, rc, density).ceil() as u64;

        let work: Vec<NodeWork> = counts
            .iter()
            .map(|&c| {
                let frac = c as f64 / total_atoms.max(1) as f64;
                let owned = c as u64;
                NodeWork {
                    owned_atoms: owned,
                    imported_atoms: imported,
                    pair_interactions: (total_pairs as f64 * frac).ceil() as u64,
                    bonded_terms: (total_bonded as f64 * frac).ceil() as u64,
                    spread_points: owned * window,
                    interp_points: owned * window,
                    integrate_atoms: owned,
                    constraints: (total_constraints as f64 * frac).ceil() as u64,
                }
            })
            .collect();

        // --- Import multicast ---
        let offsets = import_offsets(machine.import, b, rc);
        let shift = |node: NodeId, (dx, dy, dz): (i32, i32, i32)| -> NodeId {
            let c = torus.coord(node);
            let wrap = |v: u32, d: i32, n: u32| -> u32 {
                ((v as i64 + d as i64).rem_euclid(n as i64)) as u32
            };
            torus.id(Coord {
                x: wrap(c.x, dx, torus.nx),
                y: wrap(c.y, dy, torus.ny),
                z: wrap(c.z, dz, torus.nz),
            })
        };
        let mut import_dsts = vec![Vec::new(); n_nodes];
        let mut import_msgs_in = vec![0u32; n_nodes];
        for node in 0..n_nodes as u32 {
            // I import from node+o for each offset o; so node+o exports to
            // me; equivalently, my exports go to node−o.
            let mut dsts: Vec<NodeId> = offsets
                .iter()
                .map(|&(dx, dy, dz)| shift(node, (-dx, -dy, -dz)))
                .filter(|&d| d != node)
                .collect();
            dsts.sort_unstable();
            dsts.dedup();
            for &d in &dsts {
                import_msgs_in[d as usize] += 1;
            }
            import_dsts[node as usize] = dsts;
        }
        // When boxes shrink to the cutoff (large machines), every import
        // neighbor needs essentially the whole box → hardware multicast.
        // On small machines the boxes are large and each neighbor needs
        // only a boundary slab → per-destination unicasts.
        let import_multicast = b.x.min(b.y).min(b.z) <= rc;
        let n_offsets = offsets.len().max(1) as f64;
        let import_bytes: Vec<u32> = counts
            .iter()
            .map(|&c| {
                let whole_box = c as f64 * BYTES_PER_IMPORT_ATOM;
                if import_multicast {
                    (whole_box as u32).max(16)
                } else {
                    let per_dst =
                        (imported as f64 * BYTES_PER_IMPORT_ATOM / n_offsets).min(whole_box);
                    (per_dst as u32).max(16)
                }
            })
            .collect();

        // --- Force returns: reverse the imports ---
        let mut force_returns: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n_nodes];
        for node in 0..n_nodes {
            // Sources I received positions from get partial forces back.
            let srcs: Vec<NodeId> = offsets
                .iter()
                .map(|&(dx, dy, dz)| shift(node as u32, (dx, dy, dz)))
                .filter(|&s| s != node as u32)
                .collect();
            let per_src = if srcs.is_empty() {
                0
            } else {
                ((imported as f64 * BYTES_PER_FORCE_RETURN / srcs.len() as f64) as u32).max(16)
            };
            let mut v: Vec<(NodeId, u32)> = srcs.into_iter().map(|s| (s, per_src)).collect();
            v.sort_unstable();
            v.dedup();
            force_returns[node] = v;
        }

        // --- K-space: pencil layout, spread, transposes, return ---
        let pencil = PencilLayout::choose(torus, grid.0, grid.1, grid.2);
        let ranks = pencil.ranks() as usize;
        let (spread_msgs, grid_returns) = kspace_messages(torus, &pencil, grid);

        // Atom migration: kinetic-theory one-way flux through the six box
        // faces, Φ = ρ·sqrt(kB·T/2πm̄) per unit area, at T = 300 K and the
        // mean atomic mass. Fractions of an atom per step are real — they
        // are the *rate* the handoff messages carry on average.
        let mean_mass = system.topology.masses.iter().sum::<f64>() / system.n_atoms().max(1) as f64;
        let v_flux =
            (anton2_md::units::KB * 300.0 / (2.0 * std::f64::consts::PI * mean_mass)).sqrt(); // Å per internal time unit
        let dt_internal = anton2_md::units::fs_to_internal(dt_fs);
        let face_areas = [
            b.y * b.z,
            b.y * b.z,
            b.x * b.z,
            b.x * b.z,
            b.x * b.y,
            b.x * b.y,
        ];
        let mut migrations: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n_nodes];
        for node in 0..n_nodes as u32 {
            let mut v = Vec::with_capacity(6);
            for (dir, &area) in anton2_net::Dir::ALL.iter().zip(&face_areas) {
                let dst = torus.neighbor(node, *dir);
                if dst == node {
                    continue;
                }
                let atoms_per_step = density * area * v_flux * dt_internal;
                let bytes = ((atoms_per_step * BYTES_PER_MIGRATED_ATOM).ceil() as u32).max(16);
                v.push((dst, bytes));
            }
            v.sort_unstable();
            migrations[node as usize] = v;
        }

        // FFT transpose messages from block-intersection algebra (matches
        // anton2-fft::pencil exactly; asserted in tests).
        let fft_transposes = transpose_messages(&pencil, grid);

        // Butterflies per rank per 1D stage: each rank owns
        // grid_total/ranks points; a length-n FFT over a line is
        // (n/2)·log2(n) butterflies, so per point it is log2(n)/2.
        let grid_total = (grid.0 * grid.1 * grid.2) as u64;
        let log2n = (grid.0 as f64).log2(); // uniform dims by construction
        let butterflies_per_rank = ((grid_total as f64 / ranks as f64) * log2n / 2.0).ceil() as u64;
        let influence_points_per_rank = grid_total / ranks as u64;

        StepPlan {
            work,
            comm: CommPlan {
                import_dsts,
                import_bytes,
                import_multicast,
                import_msgs_in,
                force_returns,
                migrations,
                spread_msgs,
                grid_returns,
                fft_transposes,
            },
            pencil,
            butterflies_per_rank,
            influence_points_per_rank,
            grid,
            density,
        }
    }

    /// Check the plan against a node's on-chip memory: every node must hold
    /// its owned + imported atoms and its share of the k-space grid. This
    /// is the capacity wall the paper's "greater capacity" claim is about —
    /// Anton 1 could not even *fit* multi-million-atom systems.
    pub fn validate_capacity(&self, node: &anton2_asic::NodeParams) -> Result<(), CapacityError> {
        let grid_per_rank =
            (self.grid.0 * self.grid.1 * self.grid.2) as u64 / self.pencil.ranks().max(1) as u64;
        for (id, w) in self.work.iter().enumerate() {
            let atoms = w.owned_atoms + w.imported_atoms;
            let needed = anton2_asic::Node::memory_needed(atoms, grid_per_rank);
            if needed > node.sram_bytes {
                return Err(CapacityError {
                    node: id as u32,
                    needed_bytes: needed,
                    available_bytes: node.sram_bytes,
                    atoms,
                });
            }
        }
        Ok(())
    }

    /// Re-plan around observed fabric damage. Dead nodes are evicted —
    /// their work and message endpoints migrate to the nearest live node
    /// (torus hops, lowest id on ties) — pencil ranks are re-hosted off
    /// dead nodes, capacity is re-checked against the surviving nodes, and
    /// every remaining inter-node flow is scored across the six minimal
    /// dimension orders to build a route bias that steers traffic off hot
    /// or dead links.
    ///
    /// Pure function of `(self, health, machine)`: replanning is
    /// deterministic and lives entirely on the simulation side, so the MD
    /// physics is never perturbed by when (or whether) it runs.
    pub fn replan_with_health(
        &self,
        health: &HealthMap,
        machine: &MachineConfig,
    ) -> Result<(StepPlan, RouteBias, ReplanSummary), ReplanError> {
        let torus = machine.torus;
        let n_nodes = torus.n_nodes();
        let dead: BTreeSet<NodeId> = (0..n_nodes).filter(|&n| health.node_dead(n)).collect();
        if dead.len() as u32 == n_nodes {
            return Err(ReplanError::NoLiveNodes);
        }
        let mut summary = ReplanSummary {
            evicted_nodes: dead.iter().copied().collect(),
            dead_links: health.dead_link_count(),
            hot_links: health
                .hot_links()
                .iter()
                .filter(|&&l| !health.link_dead(l))
                .count(),
            ..Default::default()
        };

        let plan = if dead.is_empty() {
            // No eviction: the plan is untouched; only the route bias
            // (computed below) reacts to hot links.
            self.clone()
        } else {
            // Node → where its work and message endpoints land.
            let remap: Vec<NodeId> = (0..n_nodes)
                .map(|n| {
                    if dead.contains(&n) {
                        nearest_live(torus, &dead, n)
                    } else {
                        n
                    }
                })
                .collect();

            // Work: dead nodes hand everything to their merge target.
            let mut work = self.work.clone();
            for &d in &dead {
                let w = std::mem::take(&mut work[d as usize]);
                summary.moved_atoms += w.owned_atoms;
                let t = &mut work[remap[d as usize] as usize];
                t.owned_atoms += w.owned_atoms;
                t.imported_atoms = t.imported_atoms.max(w.imported_atoms);
                t.pair_interactions += w.pair_interactions;
                t.bonded_terms += w.bonded_terms;
                // anton2-lint: allow(telemetry-discipline) -- NodeWork
                // plan fields that share names with telemetry counters,
                // not the engine's profile.
                t.spread_points += w.spread_points;
                // anton2-lint: allow(telemetry-discipline) -- same plan
                // field, not telemetry.
                t.interp_points += w.interp_points;
                t.integrate_atoms += w.integrate_atoms;
                t.constraints += w.constraints;
            }

            // Imports: the target inherits the dead node's export set and
            // payload; destinations remap and arrivals are recounted.
            let mut import_dsts: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes as usize];
            for (node, dsts) in self.comm.import_dsts.iter().enumerate() {
                let owner = remap[node];
                for &d in dsts {
                    let d = remap[d as usize];
                    if d != owner {
                        import_dsts[owner as usize].push(d);
                    }
                }
            }
            for v in &mut import_dsts {
                v.sort_unstable();
                v.dedup();
            }
            let mut import_bytes = self.comm.import_bytes.clone();
            for &d in &dead {
                let b = std::mem::take(&mut import_bytes[d as usize]);
                let t = remap[d as usize] as usize;
                import_bytes[t] = import_bytes[t].saturating_add(b);
            }
            let mut import_msgs_in = vec![0u32; n_nodes as usize];
            for dsts in &import_dsts {
                for &d in dsts {
                    import_msgs_in[d as usize] += 1;
                }
            }

            let force_returns = merge_endpoint_lists(&self.comm.force_returns, &remap);
            let migrations = merge_endpoint_lists(&self.comm.migrations, &remap);

            // K-space: re-host the pencil only if a dead node held a rank;
            // either way dead contributors hand their slab traffic to
            // their merge target.
            let host_died =
                (0..self.pencil.ranks()).any(|r| dead.contains(&self.pencil.node_of(r)));
            let (pencil, spread_msgs, grid_returns, fft_transposes) = if host_died {
                let pencil = PencilLayout::choose_excluding(
                    torus,
                    self.grid.0,
                    self.grid.1,
                    self.grid.2,
                    &dead,
                )
                .ok_or(ReplanError::NoLiveNodes)?;
                summary.pencil_rehosted = true;
                let (spread, returns) = kspace_messages(torus, &pencil, self.grid);
                let spread = merge_endpoint_lists(&spread, &remap);
                let returns = remap_return_lists(&returns, &pencil, &remap);
                let fft = transpose_messages(&pencil, self.grid);
                (pencil, spread, returns, fft)
            } else {
                let pencil = self.pencil.clone();
                let spread = merge_endpoint_lists(&self.comm.spread_msgs, &remap);
                let returns = remap_return_lists(&self.comm.grid_returns, &pencil, &remap);
                (pencil, spread, returns, self.comm.fft_transposes.clone())
            };
            let ranks = pencil.ranks();
            let grid_total = (self.grid.0 * self.grid.1 * self.grid.2) as u64;
            let log2n = (self.grid.0 as f64).log2();
            let butterflies_per_rank =
                ((grid_total as f64 / ranks as f64) * log2n / 2.0).ceil() as u64;
            let influence_points_per_rank = grid_total / ranks as u64;

            StepPlan {
                work,
                comm: CommPlan {
                    import_dsts,
                    import_bytes,
                    import_multicast: self.comm.import_multicast,
                    import_msgs_in,
                    force_returns,
                    migrations,
                    spread_msgs,
                    grid_returns,
                    fft_transposes,
                },
                pencil,
                butterflies_per_rank,
                influence_points_per_rank,
                grid: self.grid,
                density: self.density,
            }
        };
        plan.validate_capacity(&machine.node)
            .map_err(ReplanError::Capacity)?;

        // Route bias: score every remaining flow across the six minimal
        // dimension orders. A flow is pinned only when some order strictly
        // beats the one the routing policy would pick on its own.
        let mut flows: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for (node, dsts) in plan.comm.import_dsts.iter().enumerate() {
            for &d in dsts {
                flows.insert((node as u32, d));
            }
        }
        for lists in [
            &plan.comm.force_returns,
            &plan.comm.migrations,
            &plan.comm.spread_msgs,
        ] {
            for (node, list) in lists.iter().enumerate() {
                for &(d, _) in list {
                    flows.insert((node as u32, d));
                }
            }
        }
        for (r, list) in plan.comm.grid_returns.iter().enumerate() {
            let host = plan.pencil.node_of(r as u32);
            for &(d, _) in list {
                flows.insert((host, d));
            }
        }
        for phase in &plan.comm.fft_transposes {
            for &(s, d, _) in phase {
                flows.insert((s, d));
            }
        }
        let mut bias = RouteBias::new();
        for (src, dst) in flows {
            if src == dst {
                continue;
            }
            let policy_order = machine.routing.order_for(src, dst);
            let default_cost = route_penalty(torus, health, src, dst, policy_order);
            if default_cost == 0 {
                continue;
            }
            let mut best = (policy_order, default_cost);
            for &order in DIM_ORDERS.iter() {
                let c = route_penalty(torus, health, src, dst, order);
                if c < best.1 {
                    best = (order, c);
                }
            }
            if best.1 < default_cost {
                bias.insert((src, dst), best.0);
                summary.biased_flows += 1;
            }
        }
        Ok((plan, bias, summary))
    }

    /// Total atoms in the plan.
    pub fn total_atoms(&self) -> u64 {
        self.work.iter().map(|w| w.owned_atoms).sum()
    }

    /// Total range-limited pair interactions per step.
    pub fn total_pairs(&self) -> u64 {
        self.work.iter().map(|w| w.pair_interactions).sum()
    }

    /// Total bytes of one step's communication (kspace steps).
    pub fn total_comm_bytes(&self) -> u64 {
        let c = &self.comm;
        let imports: u64 = c
            .import_bytes
            .iter()
            .zip(&c.import_dsts)
            .map(|(&b, d)| b as u64 * d.len() as u64)
            .sum();
        let forces: u64 = c
            .force_returns
            .iter()
            .flatten()
            .map(|&(_, b)| b as u64)
            .sum();
        let migrations: u64 = c.migrations.iter().flatten().map(|&(_, b)| b as u64).sum();
        let spread: u64 = c.spread_msgs.iter().flatten().map(|&(_, b)| b as u64).sum();
        let grids: u64 = c
            .grid_returns
            .iter()
            .flatten()
            .map(|&(_, b)| b as u64)
            .sum();
        let fft: u64 = c
            .fft_transposes
            .iter()
            .flatten()
            .map(|&(_, _, b)| b as u64)
            .sum();
        imports + forces + migrations + spread + grids + fft
    }
}

/// Route-bias table produced by a replan: flows pinned to an explicit
/// minimal dimension order, ready for `Network::with_route_bias`.
pub type RouteBias = BTreeMap<(NodeId, NodeId), [u8; 3]>;

/// Per-sender endpoint lists: for each node (or pencil rank), the
/// `(destination, bytes)` messages it emits in one phase.
pub type EndpointLists = Vec<Vec<(NodeId, u32)>>;

/// Why a health-driven replan could not produce a viable plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanError {
    /// Every node in the machine is flagged dead.
    NoLiveNodes,
    /// The surviving nodes cannot hold the redistributed workload.
    Capacity(CapacityError),
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::NoLiveNodes => write!(f, "every node is flagged dead"),
            ReplanError::Capacity(e) => write!(f, "degraded plan exceeds capacity: {e}"),
        }
    }
}

impl std::error::Error for ReplanError {}

/// What a health-driven replan changed, for recovery reporting.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplanSummary {
    /// Nodes evicted from the plan (flagged dead by the health map).
    pub evicted_nodes: Vec<NodeId>,
    /// Owned atoms whose work moved to surviving nodes.
    pub moved_atoms: u64,
    /// Flows pinned to a non-default dimension order to dodge hot or dead
    /// fabric.
    pub biased_flows: u64,
    /// Whether the pencil-FFT layout had to be re-hosted off dead nodes.
    pub pencil_rehosted: bool,
    /// Links the health map saw as dead at replan time.
    pub dead_links: usize,
    /// Links hot (but alive) at replan time.
    pub hot_links: usize,
}

/// A workload that does not fit in a node's on-chip memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError {
    pub node: u32,
    pub needed_bytes: u64,
    pub available_bytes: u64,
    pub atoms: u64,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} needs {} bytes ({} atoms) but has {} of SRAM",
            self.node, self.needed_bytes, self.atoms, self.available_bytes
        )
    }
}

impl std::error::Error for CapacityError {}

/// Spread and grid-return message lists for `pencil`: per node, the spread
/// contributions its spatial slab sends to each pencil rank; per rank, the
/// force-grid returns back to those contributors. Shared by the initial
/// build and health-driven replans (which call it with a re-hosted pencil).
fn kspace_messages(
    torus: Torus,
    pencil: &PencilLayout,
    grid: (usize, usize, usize),
) -> (EndpointLists, EndpointLists) {
    let n_nodes = torus.n_nodes() as usize;
    let margin = MODEL_SPREAD_MARGIN as i64;
    // Node spatial box → grid x/y ranges (+margin), mapped to ranks.
    let xb = grid.0 / pencil.px as usize;
    let yb = grid.1 / pencil.py as usize;
    let mut spread_msgs: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); n_nodes];
    let mut grid_returns: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); pencil.ranks() as usize];
    for node in 0..n_nodes as u32 {
        let c = torus.coord(node);
        let gx0 = (c.x as usize * grid.0) / torus.nx as usize;
        let gx1 = ((c.x as usize + 1) * grid.0) / torus.nx as usize;
        let gy0 = (c.y as usize * grid.1) / torus.ny as usize;
        let gy1 = ((c.y as usize + 1) * grid.1) / torus.ny as usize;
        let gz_len = (grid.2 / torus.nz as usize + 2 * margin as usize).min(grid.2);
        // Count grid columns per (rank_x, rank_y) with wrapping. BTreeMap
        // so the message lists are built in rank order, independent of
        // hasher state.
        let mut per_rank: BTreeMap<u32, u64> = Default::default();
        for gx in (gx0 as i64 - margin)..(gx1 as i64 + margin) {
            let gx = gx.rem_euclid(grid.0 as i64) as usize;
            let rx = (gx / xb) as u32;
            for gy in (gy0 as i64 - margin)..(gy1 as i64 + margin) {
                let gy = gy.rem_euclid(grid.1 as i64) as usize;
                let ry = (gy / yb) as u32;
                *per_rank.entry(rx * pencil.py + ry).or_default() += gz_len as u64;
            }
        }
        let mut msgs: Vec<(NodeId, u32)> = Vec::with_capacity(per_rank.len());
        for (rank, points) in per_rank {
            let dst = pencil.node_of(rank);
            if dst == node {
                continue;
            }
            let bytes = ((points as f64 * BYTES_PER_SPREAD_POINT) as u32).max(16);
            let ret =
                ((bytes as f64 * BYTES_PER_RETURN_POINT / BYTES_PER_SPREAD_POINT) as u32).max(16);
            msgs.push((dst, bytes));
            grid_returns[rank as usize].push((node, ret));
        }
        msgs.sort_unstable();
        spread_msgs[node as usize] = msgs;
    }
    for v in &mut grid_returns {
        v.sort_unstable();
    }
    (spread_msgs, grid_returns)
}

/// Nearest live node to `d` (torus hops; lowest id breaks ties).
fn nearest_live(torus: Torus, dead: &BTreeSet<NodeId>, d: NodeId) -> NodeId {
    let mut best = d;
    let mut best_hops = u32::MAX;
    for n in 0..torus.n_nodes() {
        if !dead.contains(&n) {
            let h = torus.hops(d, n);
            if h < best_hops {
                best_hops = h;
                best = n;
            }
        }
    }
    best
}

/// Sort `(dst, bytes)` messages and combine duplicate destinations.
fn coalesce(mut v: Vec<(NodeId, u32)>) -> Vec<(NodeId, u32)> {
    v.sort_unstable();
    let mut out: Vec<(NodeId, u32)> = Vec::with_capacity(v.len());
    for (dst, bytes) in v {
        match out.last_mut() {
            Some(last) if last.0 == dst => last.1 = last.1.saturating_add(bytes),
            _ => out.push((dst, bytes)),
        }
    }
    out
}

/// Remap per-node `(dst, bytes)` lists after node eviction: senders and
/// destinations move to their merge target, self-sends vanish, duplicate
/// destinations combine.
fn merge_endpoint_lists(lists: &[Vec<(NodeId, u32)>], remap: &[NodeId]) -> Vec<Vec<(NodeId, u32)>> {
    let mut out: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); lists.len()];
    for (node, list) in lists.iter().enumerate() {
        let owner = remap[node];
        for &(dst, bytes) in list {
            let dst = remap[dst as usize];
            if dst != owner {
                out[owner as usize].push((dst, bytes));
            }
        }
    }
    for v in &mut out {
        *v = coalesce(std::mem::take(v));
    }
    out
}

/// Remap per-rank grid-return lists after node eviction: contributors move
/// to their merge target; returns to the rank's own host become local and
/// vanish.
fn remap_return_lists(
    returns: &[Vec<(NodeId, u32)>],
    pencil: &PencilLayout,
    remap: &[NodeId],
) -> Vec<Vec<(NodeId, u32)>> {
    returns
        .iter()
        .enumerate()
        .map(|(r, list)| {
            let v: Vec<(NodeId, u32)> = list
                .iter()
                .map(|&(n, b)| (remap[n as usize], b))
                .filter(|&(n, _)| n != pencil.node_of(r as u32))
                .collect();
            coalesce(v)
        })
        .collect()
}

/// Summed penalty of routing `src → dst` with dimension order `order`:
/// dead links or transit nodes cost effectively infinity, hot links their
/// retry EWMA, healthy fabric nothing.
fn route_penalty(
    torus: Torus,
    health: &HealthMap,
    src: NodeId,
    dst: NodeId,
    order: [u8; 3],
) -> u64 {
    const DEAD_PENALTY: u64 = 1 << 40;
    let mut total = 0u64;
    for &(node, dir) in &torus.route_with_order(src, dst, order) {
        let link = torus.link_index(node, dir);
        let next = torus.neighbor(node, dir);
        if health.link_dead(link) || health.node_dead(next) {
            total = total.saturating_add(DEAD_PENALTY);
        } else if let Some(l) = health.link(link) {
            if l.hot() {
                total = total.saturating_add(l.ewma_raw());
            }
        }
    }
    total
}

/// Transpose message lists for the 4 FFT communication phases, mapped to
/// node ids.
fn transpose_messages(
    pencil: &PencilLayout,
    grid: (usize, usize, usize),
) -> [Vec<(NodeId, NodeId, u32)>; 4] {
    let (gx, gy, gz) = grid;
    let (px, py) = (pencil.px as usize, pencil.py as usize);
    // Phase 1 (z→y pencils): within each process-grid row rx, rank (rx,a)
    // sends {x-block rx}×{y-block a}×{z-block b} to (rx,b).
    let bytes1 = ((gx / px) * (gy / py) * (gz / py)) as u32 * BYTES_PER_FFT_POINT;
    // Phase 2 (y→x pencils): within each column ry, (a,ry) sends
    // {x-block a}×{y-block b (over px)}×{z-block ry} to (b,ry).
    let bytes2 = ((gx / px) * (gy / px) * (gz / py)) as u32 * BYTES_PER_FFT_POINT;
    let rank = |rx: usize, ry: usize| (rx * py + ry) as u32;
    let mut p1 = Vec::new();
    let mut p2 = Vec::new();
    for rx in 0..px {
        for a in 0..py {
            for b in 0..py {
                if a != b {
                    p1.push((
                        pencil.node_of(rank(rx, a)),
                        pencil.node_of(rank(rx, b)),
                        bytes1,
                    ));
                }
            }
        }
    }
    for ry in 0..py {
        for a in 0..px {
            for b in 0..px {
                if a != b {
                    p2.push((
                        pencil.node_of(rank(a, ry)),
                        pencil.node_of(rank(b, ry)),
                        bytes2,
                    ));
                }
            }
        }
    }
    // Inverse phases mirror the forward ones.
    let p3 = p2.iter().map(|&(s, d, b)| (d, s, b)).collect();
    let p4 = p1.iter().map(|&(s, d, b)| (d, s, b)).collect();
    [p1, p2, p3, p4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton2_md::builders::water_box;

    fn plan_for(nodes: u32) -> (StepPlan, System) {
        let s = water_box(8, 8, 8, 1);
        let m = MachineConfig::anton2(nodes);
        (StepPlan::build(&s, &m), s)
    }

    #[test]
    fn work_sums_to_system_totals() {
        let (p, s) = plan_for(8);
        assert_eq!(p.total_atoms(), s.n_atoms() as u64);
        let integrate: u64 = p.work.iter().map(|w| w.integrate_atoms).sum();
        assert_eq!(integrate, s.n_atoms() as u64);
        let constraints: u64 = p.work.iter().map(|w| w.constraints).sum();
        assert!(constraints >= 3 * s.topology.waters.len() as u64);
    }

    #[test]
    fn pair_estimate_matches_reality_within_20_percent() {
        let (p, s) = plan_for(8);
        let real = anton2_md::stream::brute_force_pairs(&s, s.nb.cutoff).len();
        let est = p.total_pairs();
        let ratio = est as f64 / real as f64;
        assert!((0.8..1.3).contains(&ratio), "est {est} vs real {real}");
    }

    #[test]
    fn import_dsts_nonempty_and_not_self() {
        let (p, _) = plan_for(64);
        for (n, dsts) in p.comm.import_dsts.iter().enumerate() {
            assert!(!dsts.is_empty(), "node {n} exports to nobody");
            assert!(!dsts.contains(&(n as u32)));
        }
    }

    #[test]
    fn import_msgs_in_counts_are_consistent() {
        let (p, _) = plan_for(64);
        let mut arriving = vec![0u32; 64];
        for dsts in &p.comm.import_dsts {
            for &d in dsts {
                arriving[d as usize] += 1;
            }
        }
        assert_eq!(arriving, p.comm.import_msgs_in);
    }

    #[test]
    fn pencil_layout_divides_everything() {
        for nodes in [1u32, 8, 64, 512] {
            let l = PencilLayout::choose(anton2_net::Torus::for_nodes(nodes), 64, 64, 64);
            assert_eq!(nodes % l.ranks(), 0, "nodes {nodes}");
            assert_eq!(64 % l.px as usize, 0);
            assert_eq!(64 % l.py as usize, 0);
            assert!(l.ranks() <= nodes);
            // Uses a decent fraction of the machine.
            assert!(
                l.ranks() * 2 >= nodes || l.ranks() == nodes,
                "{nodes}: {l:?}"
            );
        }
    }

    #[test]
    fn transpose_messages_match_functional_fft() {
        // The algebraic message list must agree with what the functional
        // pencil FFT actually exchanges.
        use anton2_fft::{Grid3, PencilFft};
        let (gx, gy, gz) = (16, 16, 16);
        let (px, py) = (2usize, 4usize);
        let pencil = PencilLayout::from_hosts(px as u32, py as u32, (0..8).collect(), 8);
        let ours = transpose_messages(&pencil, (gx, gy, gz));
        let plan = PencilFft::new(gx, gy, gz, px, py);
        let mut g = Grid3::zeros(gx, gy, gz);
        g.set(3, 5, 7, anton2_fft::C64::ONE);
        let mut d = plan.scatter(&g);
        let log = plan.forward(&mut d);
        // Compare phase 1 as (src,dst,bytes) sets.
        let mut got: Vec<(u32, u32, u32)> = log.phases[0]
            .iter()
            .map(|m| (m.src as u32, m.dst as u32, m.bytes as u32))
            .collect();
        got.sort_unstable();
        let mut want = ours[0].clone();
        want.sort_unstable();
        assert_eq!(got, want, "phase 1");
        let mut got2: Vec<(u32, u32, u32)> = log.phases[1]
            .iter()
            .map(|m| (m.src as u32, m.dst as u32, m.bytes as u32))
            .collect();
        got2.sort_unstable();
        let mut want2 = ours[1].clone();
        want2.sort_unstable();
        assert_eq!(got2, want2, "phase 2");
    }

    #[test]
    fn spread_targets_are_pencil_hosts() {
        let (p, _) = plan_for(8);
        let hosts: std::collections::BTreeSet<u32> =
            (0..p.pencil.ranks()).map(|r| p.pencil.node_of(r)).collect();
        for msgs in &p.comm.spread_msgs {
            for &(dst, bytes) in msgs {
                assert!(hosts.contains(&dst), "spread to non-host {dst}");
                assert!(bytes >= 16);
            }
        }
    }

    #[test]
    fn comm_bytes_positive_and_scale_with_nodes() {
        let (p8, _) = plan_for(8);
        let (p64, _) = plan_for(64);
        assert!(p8.total_comm_bytes() > 0);
        // More nodes → more total communication (more surface).
        assert!(p64.total_comm_bytes() > p8.total_comm_bytes());
    }

    #[test]
    fn migrations_target_face_neighbors() {
        let (p, _) = plan_for(64);
        let torus = anton2_net::Torus::for_nodes(64);
        for (node, msgs) in p.comm.migrations.iter().enumerate() {
            assert_eq!(msgs.len(), 6, "node {node}");
            for &(dst, bytes) in msgs {
                assert_eq!(torus.hops(node as u32, dst), 1, "{node} -> {dst}");
                assert!(bytes >= 16);
            }
        }
    }

    #[test]
    fn capacity_check_passes_dhfr_fails_overload() {
        use anton2_md::builders::dhfr_benchmark;
        let s = dhfr_benchmark(1);
        let m512 = MachineConfig::anton2(512);
        let plan = StepPlan::build(&s, &m512);
        assert!(plan.validate_capacity(&m512.node).is_ok());
        // The same system on one Anton 1 node exceeds its SRAM.
        let m1 = MachineConfig::anton1(1);
        let plan1 = StepPlan::build(&s, &m1);
        let err = plan1.validate_capacity(&m1.node).unwrap_err();
        assert!(err.needed_bytes > err.available_bytes);
        assert!(err.to_string().contains("SRAM"));
    }

    #[test]
    fn replan_with_clean_health_changes_nothing() {
        let (p, _) = plan_for(8);
        let m = MachineConfig::anton2(8);
        let h = HealthMap::new(m.torus.n_links());
        let (r, bias, s) = p.replan_with_health(&h, &m).unwrap();
        assert!(bias.is_empty());
        assert!(s.evicted_nodes.is_empty());
        assert_eq!(s.biased_flows, 0);
        assert!(!s.pencil_rehosted);
        assert_eq!(r.comm.import_dsts, p.comm.import_dsts);
        assert_eq!(r.comm.migrations, p.comm.migrations);
        assert_eq!(r.comm.spread_msgs, p.comm.spread_msgs);
        assert_eq!(r.total_comm_bytes(), p.total_comm_bytes());
    }

    #[test]
    fn replan_evicts_a_dead_node_and_conserves_work() {
        let (p, s) = plan_for(8);
        let m = MachineConfig::anton2(8);
        let mut h = HealthMap::new(m.torus.n_links());
        h.mark_node_dead(3);
        let (r, _, sum) = p.replan_with_health(&h, &m).unwrap();
        assert_eq!(sum.evicted_nodes, vec![3]);
        assert!(sum.moved_atoms > 0);
        assert!(sum.pencil_rehosted, "8-node pencil hosts a rank on node 3");
        assert_eq!(r.total_atoms(), s.n_atoms() as u64, "atoms conserved");
        assert_eq!(r.work[3].owned_atoms, 0);
        assert_eq!(r.work[3].integrate_atoms, 0);
        // Nothing in the degraded plan touches the dead node.
        assert!(r.comm.import_dsts[3].is_empty());
        assert_eq!(r.comm.import_msgs_in[3], 0);
        for dsts in &r.comm.import_dsts {
            assert!(!dsts.contains(&3), "import export to dead node");
        }
        for lists in [
            &r.comm.force_returns,
            &r.comm.migrations,
            &r.comm.spread_msgs,
        ] {
            assert!(lists[3].is_empty());
            for list in lists.iter() {
                assert!(list.iter().all(|&(d, _)| d != 3));
            }
        }
        for list in &r.comm.grid_returns {
            assert!(list.iter().all(|&(d, _)| d != 3));
        }
        for rank in 0..r.pencil.ranks() {
            assert_ne!(r.pencil.node_of(rank), 3, "pencil rank on dead node");
        }
        for phase in &r.comm.fft_transposes {
            assert!(phase.iter().all(|&(a, b, _)| a != 3 && b != 3));
        }
        assert!(r.validate_capacity(&m.node).is_ok());
    }

    #[test]
    fn replan_biases_flows_off_a_hot_link() {
        let (p, _) = plan_for(8);
        let m = MachineConfig::anton2(8);
        let torus = m.torus;
        let mut h = HealthMap::new(torus.n_links());
        // Saturate the +x link out of node 0 with retries until it is hot.
        let hot = torus.link_index(0, anton2_net::Dir::XPlus);
        for _ in 0..64 {
            h.observe_crossing(hot, 3);
        }
        assert!(h.link(hot).unwrap().hot());
        let (_, bias, sum) = p.replan_with_health(&h, &m).unwrap();
        assert!(sum.biased_flows > 0, "some flow should dodge the hot link");
        assert_eq!(sum.biased_flows, bias.len() as u64);
        assert_eq!(sum.hot_links, 1);
        // Every biased flow's chosen order actually avoids the hot link.
        for (&(src, dst), &order) in &bias {
            let path = torus.route_with_order(src, dst, order);
            assert!(path.iter().all(|&(n, d)| torus.link_index(n, d) != hot));
        }
    }

    #[test]
    fn replan_is_deterministic() {
        let (p, _) = plan_for(8);
        let m = MachineConfig::anton2(8);
        let mut h = HealthMap::new(m.torus.n_links());
        h.mark_node_dead(5);
        h.observe_crossing(0, 3);
        let (r1, b1, s1) = p.replan_with_health(&h, &m).unwrap();
        let (r2, b2, s2) = p.replan_with_health(&h, &m).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(s1.moved_atoms, s2.moved_atoms);
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn replan_every_node_dead_is_an_error() {
        let (p, _) = plan_for(8);
        let m = MachineConfig::anton2(8);
        let mut h = HealthMap::new(m.torus.n_links());
        for n in 0..8 {
            h.mark_node_dead(n);
        }
        assert!(matches!(
            p.replan_with_health(&h, &m),
            Err(ReplanError::NoLiveNodes)
        ));
    }

    #[test]
    fn choose_excluding_skips_dead_hosts() {
        let torus = anton2_net::Torus::for_nodes(8);
        let mut dead = std::collections::BTreeSet::new();
        dead.insert(0u32);
        dead.insert(5u32);
        let l = PencilLayout::choose_excluding(torus, 32, 32, 32, &dead).unwrap();
        assert!(l.ranks() >= 1);
        for r in 0..l.ranks() {
            assert!(!dead.contains(&l.node_of(r)), "rank {r} on dead node");
        }
        assert_eq!(32 % l.px as usize, 0);
        assert_eq!(32 % l.py as usize, 0);
    }

    #[test]
    fn single_node_plan_has_no_network_traffic_for_imports() {
        let (p, _) = plan_for(1);
        assert!(p.comm.import_dsts[0].is_empty());
        assert!(p.comm.spread_msgs[0].is_empty());
        for phase in &p.comm.fft_transposes {
            assert!(phase.is_empty());
        }
    }
}
