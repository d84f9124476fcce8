//! The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
//! metrics, with the rationale later performance claims cite them by.
//! `BENCHMARK.json` at the repository root carries the same names, units
//! and directions; a test keeps the two in step.

/// A metric's name, unit and which direction is an improvement.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// For a per-layer metric: the end-to-end metric it should move and on
    /// which workload. For an end-to-end metric: what it measures.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, higher: bool, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        note,
    }
}

/// Target of the machine-model layers. A `machine` workload timing the
/// model end to end was dropped: on a shared 2-vCPU host its runs spread
/// past any usable bound.
const SIMULATOR: &str =
    "simulator host time, per layer only: no workload times the machine model end to end";

/// Workload names with the one-sentence reason each exists.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "dhfr",
        "the paper's 23,558-atom DHFR system on the single-image engine, serial and at all threads, where almost all engine work lands",
    ),
    (
        "dhfr_shards",
        "the same system through a 2x2x2 shard grid, the same kernels on the record/replay, halo-exchange and sharded-spread path",
    ),
];

/// Metrics printed by an untraced run, on every workload.
pub const END_TO_END: [MetricDef; 5] = [
    m(
        "ns_per_day",
        "ns/day",
        true,
        "simulated ns per wall-clock day at all threads",
    ),
    m(
        "ns_per_day_1t",
        "ns/day",
        true,
        "the same at Parallelism::Serial",
    ),
    m(
        "sim_steps_per_s",
        "steps/s",
        true,
        "engine steps per host second at all threads",
    ),
    m(
        "setup_s",
        "s",
        false,
        "seeded builder call to the first timed step, median of repeated set-ups",
    ),
    m(
        "peak_rss_mb",
        "MB",
        false,
        "peak resident memory of the workload's process",
    ),
];

/// Metrics printed by a traced run, on every workload.
pub const PER_LAYER: [MetricDef; 45] = [
    m(
        "stream.fresh_build_ms",
        "ms",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards, setup_s on dhfr",
    ),
    m(
        "stream.patch_ms",
        "ms",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "stream.ns_per_pair_1t",
        "ns",
        false,
        "ns_per_day_1t on dhfr and dhfr_shards",
    ),
    m(
        "stream.ns_per_pair",
        "ns",
        false,
        "ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "stream.pairs",
        "count",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "stream.ext_pairs",
        "count",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "stream.fresh_builds_per_100_steps",
        "count",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "stream.patched_row_frac",
        "ratio",
        true,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "gse.spread_ns_per_point_1t",
        "ns",
        false,
        "ns_per_day_1t on dhfr and dhfr_shards",
    ),
    m(
        "gse.spread_ns_per_point",
        "ns",
        false,
        "ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "gse.interp_ns_per_point_1t",
        "ns",
        false,
        "ns_per_day_1t on dhfr and dhfr_shards",
    ),
    m(
        "gse.kspace_ms_1t",
        "ms",
        false,
        "ns_per_day_1t on dhfr and dhfr_shards",
    ),
    m(
        "gse.kspace_ms",
        "ms",
        false,
        "ns_per_day on dhfr and dhfr_shards",
    ),
    m("fft.ns_per_line_1t", "ns", false, "ns_per_day_1t on dhfr"),
    m("fft.ns_per_line", "ns", false, "ns_per_day on dhfr"),
    m("bonded.ms_1t", "ms", false, "ns_per_day_1t on dhfr"),
    m("bonded.ms", "ms", false, "ns_per_day on dhfr"),
    m(
        "settle.ms",
        "ms",
        false,
        "ns_per_day on dhfr; the constraint phase gains nothing from a second thread",
    ),
    m(
        "settle.velocities_ms",
        "ms",
        false,
        "ns_per_day on dhfr; the velocity half of the constraint phase, also single-threaded",
    ),
    m(
        "shake.ms",
        "ms",
        false,
        "ns_per_day on dhfr; the constraint phase gains nothing from a second thread",
    ),
    m(
        "rayon.fork_join_us",
        "us",
        false,
        "ns_per_day on dhfr and dhfr_shards; not ns_per_day_1t",
    ),
    m(
        "engine.outer_step_ms_1t",
        "ms",
        false,
        "ns_per_day_1t on dhfr",
    ),
    m(
        "engine.inner_step_ms_1t",
        "ms",
        false,
        "ns_per_day_1t on dhfr",
    ),
    m(
        "engine.step_ms_tail_1t",
        "ms",
        false,
        "ns_per_day_1t on dhfr",
    ),
    m(
        "layers.coverage_1t",
        "ratio",
        true,
        "share of the measured serial step that the replayed layer calls account for",
    ),
    m(
        "telemetry.counters_overhead_pct",
        "%",
        false,
        "ns_per_day_1t cost of TelemetryLevel::Counters over Off on dhfr",
    ),
    m(
        "telemetry.phases_overhead_pct",
        "%",
        false,
        "ns_per_day_1t cost of TelemetryLevel::Phases over Off on dhfr",
    ),
    m(
        "shard.pair_imbalance",
        "ratio",
        false,
        "ns_per_day on dhfr_shards only",
    ),
    m(
        "exchange.bytes_per_step",
        "bytes",
        false,
        "ns_per_day on dhfr_shards only",
    ),
    m(
        "exchange.atoms_imported_per_step",
        "count",
        false,
        "ns_per_day on dhfr_shards only",
    ),
    m(
        "topology.exclusions_s",
        "s",
        false,
        "set-up of the 262,144-atom capacity system, per layer only; negligible in setup_s on dhfr",
    ),
    m("plan.build_ms", "ms", false, SIMULATOR),
    m("machine.cycle_ms.n64", "ms", false, SIMULATOR),
    m("machine.cycle_ms.n512", "ms", false, SIMULATOR),
    m("machine.cycle_ms.bsp512", "ms", false, SIMULATOR),
    m("machine.cycle_ms.faults512", "ms", false, SIMULATOR),
    m("machine.cycle_ms.cap262k", "ms", false, SIMULATOR),
    m("net.messages_per_cycle", "count", false, SIMULATOR),
    m("net.bytes_per_cycle", "bytes", false, SIMULATOR),
    m("net.msgs_per_host_s", "1/s", true, SIMULATOR),
    m("schedule.execute_ms", "ms", false, SIMULATOR),
    m("schedule.tasks_per_host_s", "1/s", true, SIMULATOR),
    m(
        "gse.spread_points",
        "count",
        false,
        "ns_per_day_1t and ns_per_day on dhfr and dhfr_shards",
    ),
    m(
        "fft.lines",
        "count",
        false,
        "ns_per_day_1t and ns_per_day on dhfr",
    ),
    m("schedule.tasks", "count", false, SIMULATOR),
];

/// The definition of a metric by name, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
