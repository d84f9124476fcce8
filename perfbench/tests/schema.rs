//! The benchmark's names agree with `BENCHMARK.json`, and its smoke mode
//! produces result lines of the documented shape.

use anton2_perfbench::smoke::{check_benchmark_json, check_result_line, load_benchmark_json};

#[test]
fn benchmark_json_matches_the_registry() {
    let bench = load_benchmark_json().expect("BENCHMARK.json parses");
    check_benchmark_json(&bench).expect("BENCHMARK.json names what the benchmark reports");
}

#[test]
fn result_line_checks_reject_a_wrong_shape() {
    let bench = load_benchmark_json().expect("BENCHMARK.json parses");
    let missing = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}}"#;
    assert!(check_result_line(missing, false, &bench).is_err());
    let extra_key = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{},"x":1}"#;
    assert!(check_result_line(extra_key, false, &bench).is_err());
}

#[test]
fn smoke_mode_passes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_anton2-perfbench"))
        .arg("--smoke")
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "smoke failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
