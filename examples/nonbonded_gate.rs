//! CI bench-regression gate for the streamed nonbonded path.
//!
//! ```text
//! cargo run --release --example nonbonded_gate
//! ```
//!
//! Two checks, either failure exits non-zero:
//!
//! 1. **Live regression** — measures the reference serial kernel against
//!    the streamed parallel kernel (4 real worker threads) on a 6,591-atom
//!    water box and fails if the streamed path is slower than the
//!    reference (`parallel_speedup < 1.0`). The bound is deliberately lax:
//!    CI runners may expose a single CPU, where extra threads buy
//!    coordination overhead instead of wall-clock — the gate only insists
//!    the streamed engine never *loses* to the row-ordered reference.
//! 2. **Schema** — the committed `BENCH_nonbonded.json` must carry the
//!    thread-sweep columns (`ext_pairs`, `parallel_vs_serial`,
//!    `fresh_build_parallel_ms`, plus the original timing set) and the
//!    recorded `threads`/`cpus` context, and the headline (largest) size
//!    must satisfy `parallel_speedup >= 1.0`. Smaller sizes only need the
//!    columns: at a few thousand atoms the kernel runs in ~10 ms and the
//!    recorded ratio is dominated by scheduling noise, not regressions —
//!    the live check above covers them with a fresh measurement.

use anton2::md::builders::water_box;
use anton2::md::pairkernel::nonbonded_forces;
use anton2::md::stream::{nonbonded_forces_streamed, NonbondedStream, NonbondedWorkspace};
use anton2::md::vec3::Vec3;
use serde::Value;
use std::time::Instant;

const GATE_THREADS: usize = 4;
const REPS: usize = 5;

/// Per-record fields the bench sweep must emit. Keep in sync with
/// `SizeRecord` in `crates/bench/benches/nonbonded.rs`.
const RECORD_FIELDS: &[&str] = &[
    "atoms",
    "pairs",
    "ext_pairs",
    "reference_serial_ms",
    "streamed_serial_ms",
    "streamed_parallel_ms",
    "serial_speedup",
    "parallel_speedup",
    "parallel_vs_serial",
    "fresh_build_ms",
    "fresh_build_parallel_ms",
    "in_place_rebuild_ms",
];

fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warm-up: size buffers, build the stream
    let t0 = Instant::now();
    for _ in 0..REPS {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / REPS as f64
}

fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn live_gate() {
    let s = water_box(13, 13, 13, 23);
    let table = s.pair_table();
    let mut forces = vec![Vec3::ZERO; s.n_atoms()];

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let pairs = NonbondedStream::build(&s).pairs();
    let reference_ms = time_ms(|| {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        std::hint::black_box(nonbonded_forces(&s, &pairs, &mut forces));
    });

    std::env::set_var("RAYON_NUM_THREADS", GATE_THREADS.to_string());
    let threads = rayon::current_num_threads();
    assert!(
        threads >= GATE_THREADS,
        "rayon shim reports {threads} threads, wanted >= {GATE_THREADS}"
    );
    let mut ws = NonbondedWorkspace::new();
    let parallel_ms = time_ms(|| {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        std::hint::black_box(nonbonded_forces_streamed(
            &s,
            &table,
            &mut ws,
            &mut forces,
            true,
        ));
    });

    let speedup = reference_ms / parallel_ms;
    println!(
        "live gate: {} atoms, reference {reference_ms:.2} ms vs streamed parallel \
         ({threads} threads) {parallel_ms:.2} ms -> {speedup:.2}x",
        s.n_atoms()
    );
    assert!(
        speedup >= 1.0,
        "streamed parallel kernel regressed below the reference \
         ({reference_ms:.2} ms vs {parallel_ms:.2} ms, {speedup:.2}x)"
    );
}

fn schema_gate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_nonbonded.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path}: {e} (run the nonbonded bench to regenerate)"));
    let v: Value = serde_json::from_str(&text).expect("BENCH_nonbonded.json is not valid JSON");
    let report = v.as_object().expect("report must be a JSON object");

    let threads = get(report, "threads")
        .and_then(Value::as_u64)
        .expect("report missing `threads`");
    assert!(
        threads as usize >= GATE_THREADS,
        "recorded sweep used {threads} threads, wanted >= {GATE_THREADS}"
    );
    get(report, "cpus")
        .and_then(Value::as_u64)
        .expect("report missing `cpus`");

    let sizes = get(report, "sizes")
        .and_then(Value::as_array)
        .expect("report missing `sizes` array");
    assert!(!sizes.is_empty(), "empty size sweep");
    let mut headline: Option<(u64, f64)> = None;
    for rec in sizes {
        let rec = rec.as_object().expect("size record must be an object");
        for field in RECORD_FIELDS {
            assert!(
                get(rec, field).is_some(),
                "size record missing `{field}` — bench schema drifted"
            );
        }
        let atoms = get(rec, "atoms").and_then(Value::as_u64).unwrap();
        let speedup = get(rec, "parallel_speedup")
            .and_then(Value::as_f64)
            .expect("parallel_speedup must be numeric");
        if headline.is_none_or(|(a, _)| atoms > a) {
            headline = Some((atoms, speedup));
        }
    }
    let (atoms, speedup) = headline.unwrap();
    assert!(
        speedup >= 1.0,
        "recorded headline parallel_speedup {speedup:.2} < 1.0 at {atoms} atoms"
    );
    println!(
        "schema gate: {} sizes, {} columns each, {threads}-thread sweep recorded",
        sizes.len(),
        RECORD_FIELDS.len()
    );
}

fn main() {
    live_gate();
    schema_gate();
    println!("nonbonded gate passed");
}
