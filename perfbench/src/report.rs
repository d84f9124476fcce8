//! What a run reports: its operations, metrics, exact counts and host
//! block, and the files and lines it writes them to.

use crate::metrics;
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: timed windows, sweeps and output checks.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name, in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Threads each metric was measured with.
    pub threads: Vec<(&'static str, usize)>,
    /// Work counts that must repeat exactly between runs of one commit.
    pub counts: BTreeMap<String, u64>,
    /// Extra detail for the run's report file.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, threads: usize) {
        self.metrics.push((name, value));
        self.threads.push((name, threads));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn detail(&mut self, name: &str, value: Value) {
        self.detail.push((name.to_string(), value));
    }

    /// Fold a sub-run's checks, counts and detail into this outcome.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.metrics.extend(other.metrics);
        self.threads.extend(other.threads);
        self.counts.extend(other.counts);
        self.detail.extend(other.detail);
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. A metric that is not a finite number fails the run.
    pub fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v)| v.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = metrics::find(name).map_or("", |d| d.unit);
                let value = if value.is_finite() {
                    Value::Float(value)
                } else {
                    Value::Null
                };
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), value),
                        ("unit".into(), Value::String(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            (
                "correct".into(),
                Value::Bool(self.failed == 0 && finite && self.attempted > 0),
            ),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("plain JSON values serialize")
    }
}

/// The repository checkout this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in a directory of the repository")
        .to_path_buf()
}

/// Where runs leave their report files and stored counts.
pub fn out_dir() -> PathBuf {
    repo_root().join(".bench_trace")
}

/// Peak resident set size of this process, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over the program's source files (crates, shims and this
/// benchmark), so stored counts are only compared within one version of
/// the code.
pub fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "shims", "perfbench/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host block: CPUs, threads per metric, compiler, revision, seed.
pub fn host_block(outcome: &Outcome, workload: &str, seed: u64, trace: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = if repo_root().join(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let threads = outcome
        .threads
        .iter()
        .map(|&(name, n)| (name.to_string(), Value::UInt(n as u64)))
        .collect();
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("threads".into(), Value::Object(threads)),
        (
            "rustc".into(),
            Value::String(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "revision".into(),
            revision.map_or(Value::Null, Value::String),
        ),
        (
            "source_fingerprint".into(),
            Value::String(source_fingerprint()),
        ),
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("trace".into(), Value::Bool(trace)),
    ])
}

/// Compare this run's exact counts with those stored by an earlier run of
/// the same code, workload, seed and mode, storing them if none were. A
/// count that differs is nondeterminism: it fails the run, it is never
/// averaged. Returns the names of the counts that differ.
pub fn check_counts(
    counts: &BTreeMap<String, u64>,
    fingerprint: &str,
    key: &str,
) -> std::io::Result<Vec<String>> {
    let dir = out_dir().join("counts").join(fingerprint);
    let path = dir.join(format!("{key}.json"));
    if let Ok(text) = std::fs::read_to_string(&path) {
        let stored: Value = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let stored = stored.as_object().unwrap_or(&[]);
        let mut differ = Vec::new();
        for (name, v) in counts {
            let before = stored
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, x)| x.as_u64());
            if before != Some(*v) {
                differ.push(format!("{name}: stored {before:?}, now {v}"));
            }
        }
        return Ok(differ);
    }
    std::fs::create_dir_all(&dir)?;
    let obj = Value::Object(
        counts
            .iter()
            .map(|(k, &v)| (k.clone(), Value::UInt(v)))
            .collect(),
    );
    std::fs::write(
        &path,
        serde_json::to_string(&obj).expect("counts serialize"),
    )?;
    Ok(Vec::new())
}
