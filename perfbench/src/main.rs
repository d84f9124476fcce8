//! Benchmark runner.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dhfr --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end untraced, per-layer traced). The
//! lines before it carry the host block and the exact counts; the full
//! report, spans included, goes to `.bench_trace/` at the repository root.

use anton2_md::prelude::ShardGrid;
use anton2_perfbench::report::{self, Outcome};
use anton2_perfbench::trace::Tracer;
use anton2_perfbench::{dhfr, layers, metrics, smoke};
use serde::Value;
use std::process::ExitCode;

const USAGE: &str = "usage: anton2-perfbench --workload <dhfr|dhfr_shards> \
--seed <n> --seconds <n> --trace <0|1>\n       anton2-perfbench --smoke";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: -1.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("not a duration"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|(w, _)| *w == opts.workload) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if opts.seconds < 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(opts)
}

/// Run one workload and return its outcome and report file contents.
fn run(opts: &Options) -> (Outcome, Value) {
    let mut tracer = opts.trace.then(Tracer::new);
    let mut out = match opts.workload.as_str() {
        "dhfr" => dhfr::run(
            opts.seed,
            opts.seconds,
            ShardGrid::single(),
            tracer.as_mut(),
        ),
        _ => dhfr::run(
            opts.seed,
            opts.seconds,
            ShardGrid::new(2, 2, 2),
            tracer.as_mut(),
        ),
    };
    match &mut tracer {
        Some(t) => {
            // A traced run reports the per-layer metrics; the end-to-end
            // figures it saw are kept in the report file only.
            let seen: Vec<(String, Value)> = out
                .metrics
                .drain(..)
                .map(|(n, v)| (n.to_string(), Value::Float(v)))
                .collect();
            out.threads.clear();
            out.detail("traced_end_to_end", Value::Object(seen));
            let swept = t.span("layers", |t| layers::sweep(opts.seed, t));
            out.absorb(swept);
        }
        None => {
            let rss = report::peak_rss_mb();
            out.check(rss.is_some(), || "peak RSS unreadable".into());
            out.metric(
                "peak_rss_mb",
                rss.unwrap_or(f64::NAN),
                rayon::current_num_threads(),
            );
        }
    }

    let expected = if opts.trace {
        &metrics::PER_LAYER[..]
    } else {
        &metrics::END_TO_END[..]
    };
    let missing: Vec<&str> = expected
        .iter()
        .map(|d| d.name)
        .filter(|n| !out.metrics.iter().any(|(m, _)| m == n))
        .collect();
    out.check(missing.is_empty(), || {
        format!("metrics not measured: {missing:?}")
    });

    let fingerprint = report::source_fingerprint();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let key = format!(
        "{}-seed{}-trace{}-{profile}",
        opts.workload, opts.seed, opts.trace as u8
    );
    match report::check_counts(&out.counts, &fingerprint, &key) {
        Ok(differ) => out.check(differ.is_empty(), || {
            format!("nondeterministic counts: {}", differ.join("; "))
        }),
        Err(e) => eprintln!("warning: exact counts not compared: {e}"),
    }

    let host = report::host_block(&out, &opts.workload, opts.seed, opts.trace);
    let counts = Value::Object(
        out.counts
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect(),
    );
    let measured = out
        .metrics
        .iter()
        .map(|&(n, v)| (n.to_string(), Value::Float(v)))
        .collect();
    let mut file = vec![
        ("host".to_string(), host),
        ("metrics".to_string(), Value::Object(measured)),
        ("counts".to_string(), counts),
        (
            "failures".to_string(),
            Value::Array(out.failures.iter().cloned().map(Value::String).collect()),
        ),
        ("detail".to_string(), Value::Object(out.detail.clone())),
    ];
    if let Some(t) = &tracer {
        file.push(("spans".to_string(), t.to_json()));
    }
    (out, Value::Object(file))
}

fn emit(opts: &Options, out: &Outcome, file: &Value) -> String {
    let line = out.result_line();
    for f in &out.failures {
        eprintln!("check failed: {f}");
    }
    let dir = report::out_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    let text = serde_json::to_string_pretty(file).expect("report serializes");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: report not written to {}: {e}", path.display());
    }
    for key in ["host", "counts"] {
        if let Some(v) = file.field(key) {
            let one = Value::Object(vec![(key.to_string(), v.clone())]);
            println!("{}", serde_json::to_string(&one).expect("plain JSON"));
        }
    }
    println!("{line}");
    line
}

/// Every workload untraced for no time beyond its minimum windows, and
/// `dhfr` traced, each result checked against `BENCHMARK.json`.
fn smoke() -> ExitCode {
    let bench = match smoke::load_benchmark_json().and_then(|b| {
        smoke::check_benchmark_json(&b)?;
        Ok(b)
    }) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs: Vec<(String, bool)> = metrics::WORKLOADS
        .iter()
        .map(|(w, _)| (w.to_string(), false))
        .collect();
    runs.push(("dhfr".to_string(), true));
    for (workload, trace) in runs {
        let opts = Options {
            workload,
            seed: 1,
            seconds: 0.0,
            trace,
        };
        let (out, file) = run(&opts);
        let line = emit(&opts, &out, &file);
        if let Err(e) = smoke::check_result_line(&line, trace, &bench) {
            eprintln!("smoke: {} trace {}: {e}", opts.workload, trace as u8);
            return ExitCode::FAILURE;
        }
        eprintln!("smoke: {} trace {} ok", opts.workload, trace as u8);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--smoke"] {
        return smoke();
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (out, file) = run(&opts);
    emit(&opts, &out, &file);
    ExitCode::SUCCESS
}
