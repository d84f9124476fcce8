//! CI gate for the sharded domain-decomposed engine.
//!
//! ```text
//! cargo run --release --example shard_gate [-- --json PATH]
//! ```
//!
//! Four checks, any failure exits non-zero:
//!
//! 1. **Bitwise gate** — a 1,536-atom water box runs at shard grids
//!    1×1×1 / 2×1×1 / 2×2×1 / 2×2×2; every decomposed run must be
//!    bitwise identical to the single-image engine in positions,
//!    velocities, energies, and global work counters (exchange traffic
//!    excepted — the single image imports nothing).
//! 2. **Resume gate** — a 2×2×1 run interrupted at step 3 must resume
//!    from its version-4 checkpoint (per-shard images + consistency
//!    barrier) bitwise identical to the uninterrupted run.
//! 3. **Sweep export** — per-grid exchange volume, per-shard pair
//!    counts, and step time land in `BENCH_shards.json` for CI.
//! 4. **Schema** — the emitted `BENCH_shards.json` must carry the sweep
//!    columns, the single-image row must show zero exchange, and the
//!    widest decomposition must show real, symmetric halo traffic whose
//!    per-shard pair counts sum to the global pair counter.
//!
//! Step times come from the engine's serial path (`Parallelism::Serial`),
//! where every grid runs the same one kernel pass with each row reading
//! its owning shard's mirror; sharded rows run chunk-parallel exactly when
//! the single image does, on the parallel path. The sweep therefore
//! measures work partitioning and halo volume, not parallel speedup (see
//! EXPERIMENTS.md F20).

use anton2::md::builders::water_box;
use anton2::md::prelude::*;
use serde::{Serialize, Value};

const STEPS: usize = 8;
/// Sweep grids: single image, then 2/4/8 shards — all hostable by the
/// 4-cell-per-axis gate box.
const GRIDS: [(usize, usize, usize); 4] = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)];

#[derive(Serialize)]
struct GridPoint {
    grid: String,
    shards: usize,
    step_us: f64,
    atoms_imported: u64,
    atoms_exported: u64,
    exchange_bytes: u64,
    pairs_evaluated: u64,
    per_shard_pairs: Vec<u64>,
    per_shard_owned: Vec<u64>,
}

#[derive(Serialize)]
struct ShardBench {
    atoms: usize,
    steps: u64,
    grids: Vec<GridPoint>,
}

/// Per-record fields the sweep must emit. Keep in sync with `GridPoint`.
const RECORD_FIELDS: &[&str] = &[
    "grid",
    "shards",
    "step_us",
    "atoms_imported",
    "atoms_exported",
    "exchange_bytes",
    "pairs_evaluated",
    "per_shard_pairs",
    "per_shard_owned",
];

/// A box hosting a real 4×4×4 cell grid at cutoff + skin, so every sweep
/// grid is valid and the halo regions are genuine subsets of the box.
fn gate_system(seed: u64) -> System {
    let mut s = water_box(8, 8, 8, seed);
    s.nb.cutoff = 5.0;
    s.nb.skin = 1.0;
    s.nb.ewald_alpha = 3.0 / 5.0;
    s.thermalize(300.0, seed + 1);
    s
}

fn engine(grid: ShardGrid) -> Engine {
    let mut cfg = EngineConfig::quick();
    cfg.parallelism = Parallelism::Serial;
    cfg.decomposition = grid;
    Engine::builder()
        .system(gate_system(7))
        .config(cfg)
        .telemetry(TelemetryLevel::Counters)
        .build()
        .expect("gate configuration is valid")
}

fn state_bits(e: &Engine) -> Vec<(u64, u64, u64)> {
    e.system
        .positions
        .iter()
        .chain(&e.system.velocities)
        .map(|p| (p.x.to_bits(), p.y.to_bits(), p.z.to_bits()))
        .collect()
}

fn counters_sans_exchange(e: &Engine) -> Counters {
    Counters {
        atoms_imported: 0,
        atoms_exported: 0,
        exchange_bytes: 0,
        ..e.profile().counters
    }
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Runs the sweep, asserting bitwise identity with the single image at
/// every grid, and returns the per-grid rows for export.
fn bitwise_gate() -> ShardBench {
    let mut single = engine(ShardGrid::single());
    let atoms = single.system.n_atoms();
    let s1 = single.run(STEPS);
    let want_state = state_bits(&single);
    let want_energy = single.energies().total().to_bits();
    let want_counters = counters_sans_exchange(&single);

    let mut grids = Vec::new();
    for (l, m, n) in GRIDS {
        let grid = ShardGrid::new(l, m, n);
        let (summary, point) = if grid.is_single() {
            let pairs = s1.counters.pairs_evaluated;
            (s1.clone(), (s1.wall_s, Vec::new(), Vec::new(), pairs))
        } else {
            let mut e = engine(grid);
            let s = e.run(STEPS);
            assert_eq!(
                state_bits(&e),
                want_state,
                "{l}x{m}x{n} trajectory diverged from the single image"
            );
            assert_eq!(
                e.energies().total().to_bits(),
                want_energy,
                "{l}x{m}x{n} energy diverged from the single image"
            );
            assert_eq!(
                counters_sans_exchange(&e),
                want_counters,
                "{l}x{m}x{n} global work counters diverged"
            );
            assert_eq!(s.shards.len(), grid.count(), "missing per-shard summaries");
            let owned: Vec<u64> = s.shards.iter().map(|sh| sh.atoms_owned).collect();
            assert_eq!(owned.iter().sum::<u64>() as usize, atoms);
            let pairs: Vec<u64> = s
                .shards
                .iter()
                .map(|sh| sh.counters.pairs_evaluated)
                .collect();
            assert_eq!(
                pairs.iter().sum::<u64>(),
                s.counters.pairs_evaluated,
                "per-shard pair counts do not sum to the global counter"
            );
            assert!(
                s.counters.atoms_imported > 0,
                "{l}x{m}x{n} exchanged no halo"
            );
            assert_eq!(s.counters.atoms_imported, s.counters.atoms_exported);
            let wall = s.wall_s;
            let total = s.counters.pairs_evaluated;
            (s, (wall, pairs, owned, total))
        };
        let (wall_s, per_shard_pairs, per_shard_owned, pairs_evaluated) = point;
        println!(
            "bitwise gate: {l}x{m}x{n} — {:.1} µs/step, {} atoms imported/step, \
             {} pairs/step",
            wall_s * 1e6 / STEPS as f64,
            summary.counters.atoms_imported / STEPS as u64,
            pairs_evaluated / STEPS as u64,
        );
        grids.push(GridPoint {
            grid: format!("{l}x{m}x{n}"),
            shards: grid.count(),
            step_us: wall_s * 1e6 / STEPS as f64,
            atoms_imported: summary.counters.atoms_imported,
            atoms_exported: summary.counters.atoms_exported,
            exchange_bytes: summary.counters.exchange_bytes,
            pairs_evaluated,
            per_shard_pairs,
            per_shard_owned,
        });
    }
    ShardBench {
        atoms,
        steps: STEPS as u64,
        grids,
    }
}

/// Interrupt-at-k for the decomposed engine, through a JSON round trip.
fn resume_gate() {
    let grid = ShardGrid::new(2, 2, 1);
    let mut reference = engine(grid);
    reference.run(3);
    let cp = reference.checkpoint();
    assert_eq!(cp.version, CHECKPOINT_VERSION_SHARDED);
    assert_eq!(cp.shards.len(), 4);
    cp.validate_shards()
        .expect("fresh checkpoint passes its barrier");
    reference.run(STEPS - 3);
    let want = state_bits(&reference);

    let json = serde_json::to_string(&cp).expect("serialize v4 checkpoint");
    let back: Checkpoint = serde_json::from_str(&json).expect("parse v4 checkpoint");
    assert!(back.digest_ok(), "v4 digest broke in serialization");
    let mut resumed = Engine::builder()
        .system(gate_system(7))
        .config(reference.cfg)
        .telemetry(TelemetryLevel::Counters)
        .resume_from(back)
        .build()
        .expect("resume from v4");
    assert_eq!(resumed.step_count(), 3);
    resumed.run(STEPS - 3);
    assert_eq!(state_bits(&resumed), want, "sharded v4 resume diverged");
    println!(
        "resume gate: 2x2x1 interrupted at step 3 resumed bitwise onto the \
         uninterrupted trajectory ({} steps total)",
        STEPS
    );
}

fn schema_gate(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path}: {e} (run shard_gate to regenerate)"));
    let v: Value = serde_json::from_str(&text).expect("BENCH_shards.json is not valid JSON");
    let report = v.as_object().expect("report must be a JSON object");

    let atoms = get(report, "atoms")
        .and_then(Value::as_u64)
        .expect("report missing `atoms`");
    get(report, "steps")
        .and_then(Value::as_u64)
        .expect("report missing `steps`");
    let grids = get(report, "grids")
        .and_then(Value::as_array)
        .expect("report missing `grids` array");
    assert!(
        grids.len() >= 2,
        "sweep needs a baseline and a decomposition"
    );

    let mut widest: Option<(u64, u64, u64, u64)> = None;
    for rec in grids {
        let rec = rec.as_object().expect("grid record must be an object");
        for field in RECORD_FIELDS {
            assert!(
                get(rec, field).is_some(),
                "grid record missing `{field}` — sweep schema drifted"
            );
        }
        let shards = get(rec, "shards").and_then(Value::as_u64).unwrap();
        let imported = get(rec, "atoms_imported").and_then(Value::as_u64).unwrap();
        let exported = get(rec, "atoms_exported").and_then(Value::as_u64).unwrap();
        let bytes = get(rec, "exchange_bytes").and_then(Value::as_u64).unwrap();
        let pairs = get(rec, "pairs_evaluated").and_then(Value::as_u64).unwrap();
        let per_pairs = get(rec, "per_shard_pairs")
            .and_then(Value::as_array)
            .unwrap();
        if shards == 1 {
            assert_eq!(imported, 0, "a single image must import nothing");
            assert_eq!(bytes, 0, "a single image must move no halo bytes");
        } else {
            assert_eq!(per_pairs.len() as u64, shards, "one pair count per shard");
            let sum: u64 = per_pairs.iter().map(|p| p.as_u64().unwrap()).sum();
            assert_eq!(sum, pairs, "per-shard pairs must sum to the global counter");
        }
        if widest.is_none_or(|(s, ..)| shards > s) {
            widest = Some((shards, imported, exported, bytes));
        }
    }
    let (shards, imported, exported, bytes) = widest.unwrap();
    assert!(shards >= 8, "sweep never reached a 2x2x2 decomposition");
    assert!(imported > 0, "widest decomposition exchanged no halo");
    assert_eq!(imported, exported, "exchange traffic must be symmetric");
    assert_eq!(bytes, 24 * imported, "24 bytes per imported position");
    println!(
        "schema gate: {} grids over {atoms} atoms, widest {shards} shards at \
         {imported} atoms imported",
        grids.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_shards.json");

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let bench = bitwise_gate();
    resume_gate();

    let json = serde_json::to_string_pretty(&bench).expect("serialize shard bench");
    std::fs::write(json_path, &json).expect("write shard bench json");
    println!("wrote {json_path}");
    schema_gate(json_path);
    println!("shard gate passed");
}
