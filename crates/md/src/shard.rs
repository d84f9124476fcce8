//! Spatial domain decomposition of the range-limited engine.
//!
//! Anton 2 assigns each node a box of space (a *home box*) and imports the
//! half-shell of surrounding atoms it needs via the NT method, so every
//! pairwise interaction is computed exactly once on exactly one node. This
//! module is the CPU analogue: a [`ShardGrid`] partitions the simulation
//! box into ℓ×m×n shards mapped onto the nonbonded stream's cell grid, and
//! a `ShardSet` (crate-internal, owned by the engine) gives every shard
//!
//! * an **ownership plan** — the sorted stream slots whose cells fall in
//!   the shard's region; each working-list row is evaluated against the
//!   data of exactly the shard that owns it;
//! * an **import region** — the deduplicated set of slots appearing as
//!   partners in the shard's extended rows but owned elsewhere (the
//!   half-shell traversal of the stream build means this *is* the NT
//!   import region, restricted to actual candidates);
//! * a **shard-local SoA mirror** of positions/charges/LJ types, poisoned
//!   with NaN / `u32::MAX` outside `owned ∪ imports` so a read outside the
//!   planned import region corrupts the pair (caught by `debug_assert!`
//!   and by the bitwise-identity tests) instead of silently using data the
//!   real machine would not have;
//! * its own [`Telemetry`] sink (per-shard exchange time, pair and
//!   exchange counters).
//!
//! **Shards are a view over the one streamed kernel.** The decomposed
//! engine runs the single-image kernel (`stream::stream_rows`) — the same
//! fixed [`crate::pairkernel::NB_CHUNKS`] chunk merge, in the same order —
//! except that each row reads its own and its
//! partners' atom data from the mirror of the shard that owns it. Inside a
//! shard's region the mirror holds exactly the stream's bits, so every
//! pair sees the same inputs and every accumulator the same additions in
//! the same order: **bitwise identity with the single-image engine** at
//! any shard count holds by construction (the shard-count analogue of
//! DESIGN.md §9's thread-count independence). Per-shard pair counters come
//! from per-row in-cutoff counts summed over each shard's owned rows.
//!
//! Rows of different shards interleave within that one pass, which runs
//! chunk-parallel exactly when the single image does; per-shard
//! short-range time is therefore not attributed (see [`ShardSummary`]).
//! When the stream falls back to the all-pairs path mid-run (a barostat
//! shrinking the box below three cells per axis), the decomposition
//! degrades to shard 0 owning everything, which is exactly the
//! single-image engine.

use crate::cells::CellGrid;
use crate::stream::{NonbondedStream, RowSource, SortedAtoms};
use crate::system::System;
use crate::telemetry::{Counters, PhaseBreakdownUs, StepProfile, Telemetry, TelemetryLevel};
use crate::vec3::Vec3;
use serde::Serialize;

/// An ℓ×m×n spatial decomposition of the simulation box. `1×1×1` (the
/// default) is the single-image engine; anything larger maps shards onto
/// the nonbonded cell grid, so it requires the cell path (≥ 3 cells per
/// axis at `cutoff + skin`) and at most one shard per cell per axis —
/// validated by `EngineBuilder::build` with a typed
/// `EngineError::Decomposition`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct ShardGrid {
    /// Shards along x.
    pub l: usize,
    /// Shards along y.
    pub m: usize,
    /// Shards along z.
    pub n: usize,
}

impl Default for ShardGrid {
    fn default() -> Self {
        ShardGrid::single()
    }
}

impl ShardGrid {
    /// An ℓ×m×n shard grid.
    pub fn new(l: usize, m: usize, n: usize) -> Self {
        ShardGrid { l, m, n }
    }

    /// The single-image decomposition (one shard owning the whole box).
    pub fn single() -> Self {
        ShardGrid { l: 1, m: 1, n: 1 }
    }

    /// Total shard count.
    pub fn count(&self) -> usize {
        self.l * self.m * self.n
    }

    /// Whether this is the single-image decomposition.
    pub fn is_single(&self) -> bool {
        self.count() == 1
    }

    /// Check the grid against `system`'s geometry: every axis ≥ 1, and for
    /// non-trivial grids the box must host a cell grid at `cutoff + skin`
    /// with at least one cell per shard per axis. Returns an actionable
    /// message on failure (wrapped into `EngineError::Decomposition`).
    pub(crate) fn validate(&self, system: &System) -> Result<(), String> {
        if self.l == 0 || self.m == 0 || self.n == 0 {
            return Err(format!(
                "shard grid {}x{}x{} has a zero axis; every axis needs at least one shard",
                self.l, self.m, self.n
            ));
        }
        if self.is_single() {
            return Ok(());
        }
        let range = system.nb.cutoff + system.nb.skin;
        match CellGrid::dims_for(&system.pbc, range) {
            None => Err(format!(
                "box {:.2}x{:.2}x{:.2} A cannot host a cell grid (>= 3 cells per axis) at \
                 cutoff+skin = {:.2} A, so it cannot be decomposed; use a 1x1x1 grid, enlarge \
                 the box, or shrink the cutoff",
                system.pbc.lx, system.pbc.ly, system.pbc.lz, range
            )),
            Some((ncx, ncy, ncz)) => {
                if self.l > ncx || self.m > ncy || self.n > ncz {
                    Err(format!(
                        "shard grid {}x{}x{} exceeds the {}x{}x{} cell grid at cutoff+skin = \
                         {:.2} A; each shard needs at least one full cell per axis, so at most \
                         {}x{}x{} shards fit this box",
                        self.l, self.m, self.n, ncx, ncy, ncz, range, ncx, ncy, ncz
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One spatial domain: its ownership plan, import region, and telemetry
/// sink. Its local mirror lives beside it in `ShardSet::mirrors`.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) id: u32,
    /// Sorted stream slots owned by this shard, ascending. These are the
    /// working-list rows that read this shard's mirror.
    pub(crate) owned: Vec<u32>,
    /// Sorted stream slots this shard reads but does not own (partners of
    /// its extended rows owned elsewhere), deduplicated, in first-seen
    /// order. Refreshed from the driver every step by the exchange.
    pub(crate) imports: Vec<u32>,
    /// How many of this shard's owned positions other shards import each
    /// step (the export side of the exchange traffic).
    pub(crate) exported: u64,
    /// Per-shard telemetry: Exchange phase time plus pair and exchange
    /// counters for this shard's slice of the step.
    pub(crate) tel: Telemetry,
}

/// Per-shard slice of a `RunSummary`: what one domain owned, imported,
/// exported, and spent its time on over the summarized steps.
///
/// Rows of all shards run interleaved in the engine's one short-range
/// pass, and the k-space spread is not decomposed, so `phases` carries
/// only this shard's halo-exchange time: per-shard `short_range` and
/// `gse_spread` times and the per-shard spread counters stay zero. The
/// exchange counters and `pairs_evaluated`/`pairs_cut` are exact and sum
/// over shards to the run's global counters.
#[derive(Clone, Debug, Serialize)]
pub struct ShardSummary {
    /// Shard id in the ℓ×m×n grid (x-major, z fastest).
    pub shard: u32,
    /// Stream slots this shard owned at the end of the run.
    pub atoms_owned: u64,
    /// Import-region size (positions copied in per step).
    pub atoms_imported: u64,
    /// Owned positions served to other shards' import regions per step.
    pub atoms_exported: u64,
    /// Per-phase wall-clock of this shard's work over the summarized steps.
    pub phases: PhaseBreakdownUs,
    /// This shard's work counters over the summarized steps.
    pub counters: Counters,
}

/// The decomposition: all shards, their local mirrors, the per-row pair
/// counts of the last kernel pass, and the fresh-build revision the plans
/// were made for.
#[derive(Debug)]
pub(crate) struct ShardSet {
    grid: ShardGrid,
    pub(crate) shards: Vec<Shard>,
    /// Local mirror of the stream's atom data per shard, indexed by shard
    /// id: full length, NaN / `u32::MAX` (an out-of-bounds LJ table row)
    /// outside the shard's `owned ∪ imports`; positions are refreshed by
    /// the exchange.
    pub(crate) mirrors: Vec<SortedAtoms>,
    /// In-cutoff pair count per row from the last kernel pass (cut
    /// candidates = row length − this).
    row_pairs: Vec<u32>,
    /// Owning shard id per sorted slot.
    pub(crate) shard_of_slot: Vec<u32>,
    /// Generation-stamped dedup scratch for import planning.
    stamp: Vec<u64>,
    stamp_gen: u64,
    /// Stream fresh-build revision the current plans were built against.
    seen_fresh: u64,
}

impl ShardSet {
    /// An empty decomposition for `grid`; plans are built lazily by
    /// [`ShardSet::sync`] once the stream exists. Per-shard telemetry runs
    /// at `level` (the engine's configured level).
    pub(crate) fn new(grid: ShardGrid, level: TelemetryLevel) -> Self {
        ShardSet {
            grid,
            shards: (0..grid.count() as u32)
                .map(|id| Shard {
                    id,
                    owned: Vec::new(),
                    imports: Vec::new(),
                    exported: 0,
                    tel: Telemetry::new(level),
                })
                .collect(),
            mirrors: (0..grid.count()).map(|_| SortedAtoms::default()).collect(),
            row_pairs: Vec::new(),
            shard_of_slot: Vec::new(),
            stamp: Vec::new(),
            stamp_gen: 0,
            seen_fresh: 0,
        }
    }

    /// Bring the plans up to date with the stream: a fresh rebuild (new
    /// permutation / cells) re-plans ownership and import regions. A patch
    /// (same permutation, re-filtered working list) changes nothing here,
    /// because ownership is a function of the fresh-build cell assignment
    /// and import regions cover the whole extended list.
    pub(crate) fn sync(&mut self, stream: &NonbondedStream) {
        if self.seen_fresh != stream.fresh_revision {
            self.plan(stream);
            self.seen_fresh = stream.fresh_revision;
        }
    }

    /// Rebuild ownership, import regions, and local mirrors from a fresh
    /// stream build. Runs at rebuild cadence, not per step.
    fn plan(&mut self, stream: &NonbondedStream) {
        let ns = stream.atoms.pos.len();
        self.shard_of_slot.resize(ns, 0);
        let cells_tracked = stream.cell_ids.len() == ns;
        match (stream.cell_dims, cells_tracked) {
            (Some((ncx, ncy, ncz)), true) => {
                let g = self.grid;
                for s in 0..ns {
                    let c = stream.cell_ids[stream.order[s] as usize] as usize;
                    let cz = c % ncz;
                    let cy = (c / ncz) % ncy;
                    let cx = c / (ncy * ncz);
                    // Proportional floor map: cell cx of ncx → shard
                    // cx·l/ncx of l. Monotone, onto (l ≤ ncx is validated
                    // at build time), and independent of atom positions.
                    let sx = cx * g.l / ncx;
                    let sy = cy * g.m / ncy;
                    let sz = cz * g.n / ncz;
                    self.shard_of_slot[s] = ((sx * g.m + sy) * g.n + sz) as u32;
                }
            }
            // All-pairs fallback: no spatial structure to decompose over —
            // shard 0 owns everything (bitwise the single-image engine).
            _ => {
                for so in self.shard_of_slot.iter_mut() {
                    *so = 0;
                }
            }
        }

        self.stamp.resize(ns, 0);
        for shard in &mut self.shards {
            shard.owned.clear();
            shard.imports.clear();
            shard.exported = 0;
        }
        for s in 0..ns {
            self.shards[self.shard_of_slot[s] as usize]
                .owned
                .push(s as u32);
        }
        // Import region = partners of owned *extended* rows owned
        // elsewhere. Using the extended list (not the working list) makes
        // the region a superset of anything a patch can re-admit, so
        // import plans survive patches untouched.
        for shard in &mut self.shards {
            self.stamp_gen += 1;
            let gen = self.stamp_gen;
            for &s in &shard.owned {
                let s = s as usize;
                for &t in &stream.ext_partners[stream.ext_start[s]..stream.ext_start[s + 1]] {
                    let t = t as usize;
                    if self.shard_of_slot[t] != shard.id && self.stamp[t] != gen {
                        self.stamp[t] = gen;
                        shard.imports.push(t as u32);
                    }
                }
            }
            // Poisoned local mirror: only the shard's region gets real
            // parameters; positions arrive via the per-step exchange.
            let mirror = &mut self.mirrors[shard.id as usize];
            mirror.pos.clear();
            mirror
                .pos
                .resize(ns, Vec3::new(f64::NAN, f64::NAN, f64::NAN));
            mirror.charge.clear();
            mirror.charge.resize(ns, f64::NAN);
            mirror.lj_type.clear();
            mirror.lj_type.resize(ns, u32::MAX);
            for &s in shard.owned.iter().chain(&shard.imports) {
                let s = s as usize;
                mirror.charge[s] = stream.atoms.charge[s];
                mirror.lj_type[s] = stream.atoms.lj_type[s];
            }
        }
        // Export accounting: every import of shard j is an export of the
        // slot's owner.
        for j in 0..self.shards.len() {
            for k in 0..self.shards[j].imports.len() {
                let t = self.shards[j].imports[k] as usize;
                let owner = self.shard_of_slot[t] as usize;
                self.shards[owner].exported += 1;
            }
        }
        self.row_pairs.resize(ns, 0);
    }

    /// The kernel's view of the decomposition: every row reads its owning
    /// shard's mirror, and its in-cutoff pair count lands in `row_pairs`.
    pub(crate) fn rows(&mut self) -> (RowSource<'_>, &mut [u32]) {
        let source = RowSource::Shards {
            owner: &self.shard_of_slot,
            mirrors: &self.mirrors,
        };
        (source, &mut self.row_pairs)
    }

    /// Credit every shard with the evaluated and cut pairs of the rows it
    /// owns, from the per-row counts of the kernel pass that just ran.
    /// Exact integers, so they sum to the global counters.
    pub(crate) fn count_pairs(&mut self, stream: &NonbondedStream) {
        for shard in &mut self.shards {
            let mut evaluated = 0u64;
            let mut candidates = 0u64;
            for &s in &shard.owned {
                let s = s as usize;
                evaluated += self.row_pairs[s] as u64;
                candidates += (stream.start[s + 1] - stream.start[s]) as u64;
            }
            shard.tel.count_pairs(evaluated, candidates - evaluated);
        }
    }

    /// Snapshot every shard's accumulated profile (for RunSummary diffs).
    pub(crate) fn profiles(&self) -> Vec<StepProfile> {
        self.shards.iter().map(|s| *s.tel.profile()).collect()
    }

    /// Per-shard summaries over the steps since `before` (one snapshot per
    /// shard, from [`ShardSet::profiles`]; an empty slice diffs from zero).
    pub(crate) fn summaries(&self, before: &[StepProfile]) -> Vec<ShardSummary> {
        let zero = StepProfile::default();
        self.shards
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let b = before.get(i).unwrap_or(&zero);
                let diff = sh.tel.profile().since(b);
                ShardSummary {
                    shard: sh.id,
                    atoms_owned: sh.owned.len() as u64,
                    atoms_imported: sh.imports.len() as u64,
                    atoms_exported: sh.exported,
                    phases: diff.phases_us(),
                    counters: diff.counters,
                }
            })
            .collect()
    }

    /// Capture per-shard state images for a version-4 checkpoint: each
    /// shard's owned atoms as global indices (through the stream's
    /// cell-sort permutation) with their positions and velocities, all
    /// stamped with `step`. The restore-side consistency barrier
    /// ([`crate::trajectory::Checkpoint::validate_shards`]) verifies the
    /// images were taken at one synchronized step, partition the atoms,
    /// and agree bitwise with the global arrays.
    pub(crate) fn images(
        &self,
        stream: &NonbondedStream,
        step: u64,
        positions: &[Vec3],
        velocities: &[Vec3],
    ) -> Vec<crate::trajectory::ShardImage> {
        self.shards
            .iter()
            .map(|sh| {
                let atoms: Vec<u32> = sh.owned.iter().map(|&s| stream.order[s as usize]).collect();
                crate::trajectory::ShardImage {
                    shard: sh.id,
                    step,
                    positions: atoms.iter().map(|&a| positions[a as usize]).collect(),
                    velocities: atoms.iter().map(|&a| velocities[a as usize]).collect(),
                    atoms,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::water_box;
    use crate::pairkernel::NonbondedEnergy;
    use crate::stream::{nonbonded_forces_streamed, streamed_forces, NonbondedWorkspace};
    use crate::system::System;

    fn bits(forces: &[Vec3]) -> u64 {
        forces
            .iter()
            .map(|v| v.x.to_bits() ^ v.y.to_bits() ^ v.z.to_bits())
            .fold(0u64, |a, b| a.rotate_left(1) ^ b)
    }

    /// Shrink a water box's nonbonded settings so a small box still takes
    /// the cell path (3 cells per axis at cutoff+skin = 6).
    fn small_cell_system(seed: u64) -> System {
        let mut s = water_box(6, 6, 6, seed);
        s.nb.cutoff = 5.0;
        s.nb.skin = 1.0;
        s.nb.ewald_alpha = 3.0 / 5.0;
        s
    }

    fn sharded_forces(
        system: &System,
        grid: ShardGrid,
        parallel: bool,
    ) -> (Vec<Vec3>, NonbondedEnergy) {
        let table = system.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut set = ShardSet::new(grid, TelemetryLevel::Counters);
        let mut f = vec![Vec3::ZERO; system.n_atoms()];
        let e = streamed_forces(
            system,
            &table,
            &mut ws,
            &mut f,
            parallel,
            &mut Telemetry::off(),
            Some(&mut set),
        );
        (f, e)
    }

    #[test]
    fn sharded_short_range_is_bitwise_single_image() {
        let s = small_cell_system(41);
        let table = s.pair_table();
        for parallel in [false, true] {
            let mut ws = NonbondedWorkspace::new();
            let mut f0 = vec![Vec3::ZERO; s.n_atoms()];
            let e0 = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f0, parallel);
            for grid in [
                ShardGrid::new(1, 1, 1),
                ShardGrid::new(2, 1, 1),
                ShardGrid::new(2, 2, 1),
                ShardGrid::new(2, 2, 2),
                ShardGrid::new(3, 3, 3),
            ] {
                let (f, e) = sharded_forces(&s, grid, parallel);
                assert_eq!(e0.lj.to_bits(), e.lj.to_bits(), "{grid:?}");
                assert_eq!(
                    e0.coulomb_real.to_bits(),
                    e.coulomb_real.to_bits(),
                    "{grid:?}"
                );
                assert_eq!(e0.virial.to_bits(), e.virial.to_bits(), "{grid:?}");
                assert_eq!(e0.virial_lj.to_bits(), e.virial_lj.to_bits(), "{grid:?}");
                assert_eq!(bits(&f0), bits(&f), "forces differ for {grid:?}");
            }
        }
    }

    #[test]
    fn shards_partition_slots_and_import_disjointly() {
        let s = small_cell_system(42);
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(&s);
        let mut set = ShardSet::new(ShardGrid::new(2, 2, 2), TelemetryLevel::Off);
        set.sync(ws.stream());
        let n = s.n_atoms();
        let mut seen = vec![0u32; n];
        let mut total_imports = 0u64;
        let mut total_exports = 0u64;
        for shard in &set.shards {
            for &s in &shard.owned {
                seen[s as usize] += 1;
            }
            for &t in &shard.imports {
                assert_ne!(
                    set.shard_of_slot[t as usize], shard.id,
                    "imported slot is owned"
                );
            }
            total_imports += shard.imports.len() as u64;
            total_exports += shard.exported;
        }
        assert!(seen.iter().all(|&c| c == 1), "slots not partitioned");
        assert_eq!(total_imports, total_exports, "import/export asymmetry");
        assert!(total_imports > 0, "2x2x2 on a 3-cell grid must import");
    }

    /// The poisoning still has teeth: drop from a shard's import plan one
    /// slot its rows really read, and evaluation must be caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its shard's import region")]
    fn read_outside_import_region_is_caught() {
        let s = small_cell_system(46);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(&s);
        let mut set = ShardSet::new(ShardGrid::new(2, 2, 2), TelemetryLevel::Off);
        set.sync(ws.stream());
        let stream = ws.stream();
        let (owner, slot) = (0..stream.atoms.pos.len())
            .find_map(|r| {
                let owner = set.shard_of_slot[r];
                stream.partners[stream.start[r]..stream.start[r + 1]]
                    .iter()
                    .find(|&&t| set.shard_of_slot[t as usize] != owner)
                    .map(|&t| (owner as usize, t))
            })
            .expect("2x2x2 rows read imported partners");
        set.shards[owner].imports.retain(|&t| t != slot);
        let mut f = vec![Vec3::ZERO; s.n_atoms()];
        streamed_forces(
            &s,
            &table,
            &mut ws,
            &mut f,
            false,
            &mut Telemetry::off(),
            Some(&mut set),
        );
    }

    #[test]
    fn fallback_box_degrades_to_single_shard() {
        // 15.5 A box at range 10: the stream takes the all-pairs fallback,
        // so shard 0 must own everything and import nothing.
        let s = water_box(5, 5, 5, 43);
        let table = s.pair_table();
        let mut ws = NonbondedWorkspace::new();
        let mut f0 = vec![Vec3::ZERO; s.n_atoms()];
        let e0 = nonbonded_forces_streamed(&s, &table, &mut ws, &mut f0, false);
        let (f, e) = sharded_forces(&s, ShardGrid::new(2, 2, 2), false);
        assert_eq!(e0.lj.to_bits(), e.lj.to_bits());
        assert_eq!(bits(&f0), bits(&f));
    }

    #[test]
    fn grid_validation_produces_actionable_errors() {
        let s = small_cell_system(44);
        assert!(ShardGrid::new(1, 1, 1).validate(&s).is_ok());
        assert!(ShardGrid::new(3, 3, 3).validate(&s).is_ok());
        let err = ShardGrid::new(0, 1, 1).validate(&s).unwrap_err();
        assert!(err.contains("zero axis"), "{err}");
        let err = ShardGrid::new(4, 1, 1).validate(&s).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        assert!(err.contains("3x3x3"), "{err}");
        // Small box without a cell grid: any non-trivial decomposition is
        // rejected with the geometry in the message.
        let tiny = water_box(3, 3, 3, 45);
        let err = ShardGrid::new(2, 1, 1).validate(&tiny).unwrap_err();
        assert!(err.contains("cannot host a cell grid"), "{err}");
        assert!(ShardGrid::new(1, 1, 1).validate(&tiny).is_ok());
    }
}
