//! Performance reporting: the µs/day figure of merit and step breakdowns,
//! in the units the paper uses.

use crate::config::MachineConfig;
use crate::machine::{FaultPolicy, Machine, StepResult};
use crate::plan::{ReplanError, ReplanSummary, StepPlan};
use anton2_md::system::System;
use anton2_md::telemetry::StepProfile;
use anton2_md::units::us_per_day;
use anton2_net::{FaultPlan, RetryConfig};
use serde::{Deserialize, Serialize};

/// Per-phase step breakdown in microseconds.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BreakdownUs {
    pub import_comm: f64,
    pub htis: f64,
    pub bonded: f64,
    pub kspace: f64,
    pub integrate: f64,
    pub barriers: f64,
}

/// Bridge from a *measured* engine profile (`anton2_md::telemetry`) into the
/// machine model's breakdown schema: the per-step average with phases folded
/// exactly as `StepProfile::breakdown_us` documents. Simulated and measured
/// breakdowns serialize to the same JSON fields, so EXPERIMENTS.md can put
/// them side by side.
impl From<&StepProfile> for BreakdownUs {
    fn from(profile: &StepProfile) -> Self {
        let m = profile.breakdown_us();
        BreakdownUs {
            import_comm: m.import_comm,
            htis: m.htis,
            bonded: m.bonded,
            kspace: m.kspace,
            integrate: m.integrate,
            barriers: m.barriers,
        }
    }
}

/// Link-fault activity observed during a simulated outer step, the columns
/// a fault sweep adds to the performance table. All zero on fault-free runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultColumns {
    /// Link-level CRC retransmissions absorbed by the retry protocol.
    pub retries: u64,
    /// Transient link stalls ridden out.
    pub stalls: u64,
    /// Routes recomputed around dead fabric.
    pub reroutes: u64,
    /// Links configured dead for the sweep point.
    pub degraded_links: u64,
    /// Nodes configured dead for the sweep point.
    pub degraded_nodes: u64,
}

/// The result of one machine-performance simulation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    pub machine: String,
    pub nodes: u32,
    pub atoms: usize,
    pub dt_fs: f64,
    pub respa_interval: u32,
    /// Average wall time per step, µs.
    pub step_time_us: f64,
    /// Simulated physical time per wall-clock day, µs/day — the paper's
    /// figure of merit.
    pub us_per_day: f64,
    /// Outer-step phase breakdown, µs.
    pub breakdown: BreakdownUs,
    /// Mean node busy fraction during the outer step.
    pub compute_utilization: f64,
    /// Total pair interactions per step.
    pub pairs_per_step: u64,
    /// Total bytes of communication on an outer step.
    pub comm_bytes_per_step: u64,
    /// Link-fault activity (all zero unless simulated with
    /// [`simulate_performance_with_faults`]).
    pub faults: FaultColumns,
}

/// Simulate `system` on `machine_cfg` and report performance.
///
/// `dt_fs` is the MD timestep; `respa_interval` the k-space interval
/// (Anton production: 2.5 fs with long-range every 2–3 steps).
///
/// ```
/// use anton2_core::{report::simulate_performance, MachineConfig};
/// use anton2_md::builders::water_box;
///
/// let system = water_box(6, 6, 6, 1);
/// let report = simulate_performance(&system, MachineConfig::anton2(8), 2.5, 2);
/// assert!(report.us_per_day > 0.0);
/// assert_eq!(report.nodes, 8);
/// ```
pub fn simulate_performance(
    system: &System,
    machine_cfg: MachineConfig,
    dt_fs: f64,
    respa_interval: u32,
) -> PerfReport {
    let plan = StepPlan::build(system, &machine_cfg);
    let mut machine = Machine::new(machine_cfg);
    let (avg_step, outer) = machine.simulate_respa_cycle(&plan, respa_interval);
    report_from(
        system,
        &machine_cfg,
        &plan,
        avg_step.as_us_f64(),
        &outer,
        dt_fs,
        respa_interval,
    )
}

/// Simulate `system` on `machine_cfg` with deterministic link faults
/// injected into the interconnect, and report performance plus the
/// fault-activity columns. Same schema as [`simulate_performance`]; an
/// inactive [`FaultPlan`] reproduces the fault-free timing bitwise.
///
/// The fault plan must be recoverable for the configured retry budget
/// (CRC/stall rates, dead links with an alternate dimension order): a
/// retry-exhausted or unroutable message is a modeling error here and
/// panics inside the batch transport, exactly like the underlying
/// `Network::run_batch`.
pub fn simulate_performance_with_faults(
    system: &System,
    machine_cfg: MachineConfig,
    dt_fs: f64,
    respa_interval: u32,
    fault: FaultPlan,
    retry: RetryConfig,
) -> PerfReport {
    let plan = StepPlan::build(system, &machine_cfg);
    let mut machine = Machine::new(machine_cfg);
    let degraded_links = fault.dead_link_count() as u64;
    let degraded_nodes = fault.dead_node_count() as u64;
    machine.net.fault = Some(fault);
    machine.net.retry = retry;
    let (avg_step, outer) = machine.simulate_respa_cycle(&plan, respa_interval);
    let mut report = report_from(
        system,
        &machine_cfg,
        &plan,
        avg_step.as_us_f64(),
        &outer,
        dt_fs,
        respa_interval,
    );
    let observed = machine.net.faults;
    report.faults = FaultColumns {
        retries: observed.link_retransmits,
        stalls: observed.link_stalls,
        reroutes: observed.reroutes,
        degraded_links,
        degraded_nodes,
    };
    report
}

/// Outcome of one detect → replan → continue drill: the per-step cost of
/// each phase and what the replan changed. Serialized into
/// `BENCH_recovery.json` by the fault-drill harness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Per-step cost on a healthy fabric, µs.
    pub clean_step_us: f64,
    /// Per-step cost of the last cycle before the replan fired, µs — the
    /// fabric is broken but the machine is still running the stale plan.
    pub degraded_step_us: f64,
    /// Per-step cost after the health-driven replan, µs.
    pub recovered_step_us: f64,
    /// RESPA cycles from fault injection until the health map flagged
    /// degradation (equals the detection budget if nothing was flagged).
    pub cycles_to_detect: u32,
    /// Whether the health map actually flagged the fabric as degraded
    /// within the detection budget.
    pub detected: bool,
    /// Messages abandoned at their source while running the stale plan.
    pub msg_drops_before_replan: u64,
    /// Messages abandoned after the replan (zero once dead endpoints are
    /// evicted from the plan).
    pub msg_drops_after_replan: u64,
    /// What the replan changed: evictions, moved work, biased flows.
    pub replan: ReplanSummary,
    /// Payload bytes delivered during the clean baseline cycle.
    pub delivered_bytes_clean: u64,
    /// Payload bytes delivered during the recovered cycle. Equal to the
    /// clean figure when no node was evicted (link faults change routes,
    /// never payloads); evictions merge messages so the figure shifts.
    pub delivered_bytes_recovered: u64,
    /// `degraded_step_us / clean_step_us`.
    pub degraded_overhead: f64,
    /// `recovered_step_us / clean_step_us` — the steady-state cost of
    /// running on the broken fabric with the repaired plan.
    pub recovered_overhead: f64,
}

/// Run the full graceful-degradation loop on one fault scenario: a clean
/// baseline cycle, degraded cycles under [`FaultPolicy::Degrade`] until the
/// health map flags trouble (bounded by `max_detect_cycles`), a
/// [`StepPlan::replan_with_health`] at the cycle boundary, then one
/// recovered cycle on the repaired plan with the learned route bias
/// installed.
///
/// Each cycle runs on a fresh [`Machine`] so per-cycle timings are
/// comparable (link reservations do not leak across cycles); the learned
/// [`anton2_net::HealthMap`] is the only state carried forward, exactly as
/// a real controller would carry its fault telemetry across checkpoint
/// barriers. Everything is a pure function of the fault-plan seed.
pub fn simulate_recovery(
    system: &System,
    machine_cfg: MachineConfig,
    respa_interval: u32,
    fault: FaultPlan,
    retry: RetryConfig,
    max_detect_cycles: u32,
) -> Result<RecoveryReport, ReplanError> {
    assert!(max_detect_cycles >= 1, "need at least one detection cycle");
    let plan = StepPlan::build(system, &machine_cfg);

    // Healthy baseline.
    let mut clean = Machine::new(machine_cfg);
    clean.net.retry = retry;
    let (clean_avg, _) = clean.simulate_respa_cycle(&plan, respa_interval);

    // Degraded cycles on the stale plan until the health map notices.
    let mut health = clean.net.health.snapshot();
    let mut degraded_avg = clean_avg;
    let mut drops_before = 0u64;
    let mut cycles_to_detect = max_detect_cycles;
    let mut detected = false;
    for cycle in 0..max_detect_cycles {
        let mut m = Machine::new(machine_cfg).with_fault_policy(FaultPolicy::Degrade);
        m.net.fault = Some(fault.clone());
        m.net.retry = retry;
        m.net.health = health;
        let (avg, _) = m.simulate_respa_cycle(&plan, respa_interval);
        degraded_avg = avg;
        drops_before += m.net.faults.msg_drops;
        health = m.net.health.snapshot();
        if health.is_degraded() {
            cycles_to_detect = cycle + 1;
            detected = true;
            break;
        }
    }

    // Replan at the deterministic cycle boundary, then run the repaired
    // plan on the (still broken) fabric.
    let (new_plan, bias, replan) = plan.replan_with_health(&health, &machine_cfg)?;
    let mut m = Machine::new(machine_cfg).with_fault_policy(FaultPolicy::Degrade);
    m.net.fault = Some(fault);
    m.net.retry = retry;
    m.net.health = health;
    m.net.route_bias = bias;
    let (recovered_avg, _) = m.simulate_respa_cycle(&new_plan, respa_interval);
    let drops_after = m.net.faults.msg_drops;
    let delivered_recovered = m.net.delivered_bytes;

    let clean_us = clean_avg.as_us_f64();
    Ok(RecoveryReport {
        clean_step_us: clean_us,
        degraded_step_us: degraded_avg.as_us_f64(),
        recovered_step_us: recovered_avg.as_us_f64(),
        cycles_to_detect,
        detected,
        msg_drops_before_replan: drops_before,
        msg_drops_after_replan: drops_after,
        replan,
        delivered_bytes_clean: clean.net.delivered_bytes,
        delivered_bytes_recovered: delivered_recovered,
        degraded_overhead: degraded_avg.as_us_f64() / clean_us,
        recovered_overhead: recovered_avg.as_us_f64() / clean_us,
    })
}

fn report_from(
    system: &System,
    cfg: &MachineConfig,
    plan: &StepPlan,
    step_time_us: f64,
    outer: &StepResult,
    dt_fs: f64,
    respa_interval: u32,
) -> PerfReport {
    let b = outer.breakdown;
    PerfReport {
        machine: cfg.name.to_string(),
        nodes: cfg.n_nodes(),
        atoms: system.n_atoms(),
        dt_fs,
        respa_interval,
        step_time_us,
        us_per_day: us_per_day(dt_fs, step_time_us * 1e-6),
        breakdown: BreakdownUs {
            import_comm: b.import_comm.as_us_f64(),
            htis: b.htis.as_us_f64(),
            bonded: b.bonded.as_us_f64(),
            kspace: b.kspace.as_us_f64(),
            integrate: b.integrate.as_us_f64(),
            barriers: b.barriers.as_us_f64(),
        },
        compute_utilization: outer.compute_utilization,
        pairs_per_step: plan.total_pairs(),
        comm_bytes_per_step: plan.total_comm_bytes(),
        faults: FaultColumns::default(),
    }
}

impl PerfReport {
    /// One row of the paper-style performance table. Fault sweeps append
    /// the retry/reroute/degraded-link columns; fault-free rows stay in the
    /// classic format.
    pub fn row(&self) -> String {
        // anton2-lint: allow(zero-alloc) -- report formatting; hot only via
        // the method-name collision with the stream row planner's `row`.
        let mut row = format!(
            "{:<24} {:>5} nodes  {:>9.3} µs/step  {:>9.2} µs/day  util {:>5.1}%",
            self.machine,
            self.nodes,
            self.step_time_us,
            self.us_per_day,
            self.compute_utilization * 100.0
        );
        let f = self.faults;
        if f != FaultColumns::default() {
            // anton2-lint: allow(zero-alloc) -- same collision as above.
            row.push_str(&format!(
                "  retries {:>6}  stalls {:>6}  reroutes {:>4}  dead links {:>3}  dead nodes {:>2}",
                f.retries, f.stalls, f.reroutes, f.degraded_links, f.degraded_nodes
            ));
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton2_md::builders::water_box;

    #[test]
    fn report_has_consistent_units() {
        let s = water_box(8, 8, 8, 1);
        let r = simulate_performance(&s, MachineConfig::anton2(8), 2.5, 2);
        assert!(r.step_time_us > 0.0);
        assert!(r.us_per_day > 0.0);
        // µs/day must equal the conversion of step time.
        let expect = us_per_day(2.5, r.step_time_us * 1e-6);
        assert!((r.us_per_day - expect).abs() < 1e-9);
        assert_eq!(r.atoms, s.n_atoms());
        assert_eq!(r.nodes, 8);
    }

    #[test]
    fn row_renders() {
        let s = water_box(8, 8, 8, 1);
        let r = simulate_performance(&s, MachineConfig::anton2(8), 2.5, 2);
        let row = r.row();
        assert!(row.contains("Anton 2"));
        assert!(row.contains("µs/day"));
    }

    #[test]
    fn measured_profile_bridges_into_machine_schema() {
        use anton2_md::engine::Engine;
        use anton2_md::telemetry::{ManualClock, Phase, TelemetryLevel};

        let mut sys = water_box(3, 3, 3, 5);
        sys.thermalize(300.0, 6);
        let mut e = Engine::builder()
            .system(sys)
            .quick()
            .telemetry(TelemetryLevel::Phases)
            .clock(Box::new(ManualClock::new(1000)))
            .build()
            .unwrap();
        e.run(2);
        let profile = e.profile();
        let b = BreakdownUs::from(&profile);
        // Field-by-field agreement with the md-side schema twin.
        let m = profile.breakdown_us();
        assert_eq!(b.import_comm, m.import_comm);
        assert_eq!(b.htis, m.htis);
        assert_eq!(b.kspace, m.kspace);
        assert_eq!(b.barriers, 0.0);
        // The bridge preserves totals: sum of coarse buckets = sum of phases.
        let coarse = b.import_comm + b.htis + b.bonded + b.kspace + b.integrate;
        let fine: f64 = Phase::ALL
            .iter()
            .map(|&p| profile.phase_ns(p) as f64 * 1e-3 / profile.steps as f64)
            .sum();
        assert!((coarse - fine).abs() < 1e-9);
        // Both serialize with identical field names.
        let j = serde_json::to_string(&b).unwrap();
        for field in ["import_comm", "htis", "bonded", "kspace", "integrate"] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
    }

    #[test]
    fn fault_sweep_fills_retry_columns_deterministically() {
        use anton2_des::SimTime;

        let s = water_box(6, 6, 6, 1);
        let cfg = MachineConfig::anton2(8);
        let clean = simulate_performance(&s, cfg, 2.5, 2);

        // An inactive plan must reproduce the fault-free timing bitwise.
        let inert = simulate_performance_with_faults(
            &s,
            cfg,
            2.5,
            2,
            FaultPlan::new(7),
            RetryConfig::default(),
        );
        assert_eq!(inert.step_time_us.to_bits(), clean.step_time_us.to_bits());
        assert_eq!(inert.faults, FaultColumns::default());
        assert!(!inert.row().contains("retries"), "clean row format");

        // A lossy fabric costs time, fills the columns, and is a pure
        // function of the seed.
        let sweep = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_crc_rate(0.05)
                .with_stall_rate(0.05, SimTime::from_ns(20));
            simulate_performance_with_faults(&s, cfg, 2.5, 2, plan, RetryConfig::default())
        };
        let faulty = sweep(7);
        assert!(
            faulty.faults.retries > 0 || faulty.faults.stalls > 0,
            "5% fault rates produced no events: {:?}",
            faulty.faults
        );
        assert!(
            faulty.step_time_us >= clean.step_time_us,
            "faults are free?"
        );
        assert!(faulty.row().contains("retries"), "fault row format");
        let again = sweep(7);
        assert_eq!(faulty.step_time_us.to_bits(), again.step_time_us.to_bits());
        assert_eq!(faulty.faults, again.faults);
    }

    #[test]
    fn recovery_evicts_a_dead_node_and_stops_the_drops() {
        let s = water_box(6, 6, 6, 1);
        let cfg = MachineConfig::anton2(8);
        let run = || {
            simulate_recovery(
                &s,
                cfg,
                2,
                FaultPlan::new(11).kill_node(5),
                RetryConfig::default(),
                4,
            )
            .expect("replan succeeds")
        };
        let r = run();
        assert!(r.detected, "a dead node must be detected: {r:?}");
        assert!(r.cycles_to_detect <= 4);
        assert_eq!(r.replan.evicted_nodes, vec![5]);
        assert!(
            r.msg_drops_before_replan > 0,
            "the stale plan keeps sending into the dead node"
        );
        assert_eq!(
            r.msg_drops_after_replan, 0,
            "the repaired plan must not touch the dead node: {r:?}"
        );
        assert!(r.recovered_step_us > 0.0);
        // Pure function of the seed.
        let again = run();
        assert_eq!(
            r.recovered_step_us.to_bits(),
            again.recovered_step_us.to_bits()
        );
        assert_eq!(r.msg_drops_before_replan, again.msg_drops_before_replan);
    }

    #[test]
    fn recovery_on_a_dead_link_keeps_overhead_bounded() {
        let s = water_box(6, 6, 6, 1);
        let cfg = MachineConfig::anton2(8);
        let r = simulate_recovery(
            &s,
            cfg,
            2,
            FaultPlan::new(13).kill_link(0),
            RetryConfig::default(),
            4,
        )
        .expect("replan succeeds");
        assert!(r.detected, "a dead link must be detected: {r:?}");
        assert!(r.replan.evicted_nodes.is_empty(), "no node died");
        assert_eq!(r.msg_drops_after_replan, 0, "detours absorb a dead link");
        assert_eq!(
            r.delivered_bytes_clean, r.delivered_bytes_recovered,
            "link faults change routes, never payloads"
        );
        assert!(
            r.recovered_overhead <= 1.10,
            "post-replan cost must stay within 10% of clean: {r:?}"
        );
        let j = serde_json::to_string(&r).unwrap();
        assert!(j.contains("recovered_overhead"));
    }

    #[test]
    fn serializes_to_json() {
        let s = water_box(8, 8, 8, 1);
        let r = simulate_performance(&s, MachineConfig::anton2(8), 2.5, 2);
        let j = serde_json::to_string(&r).unwrap();
        assert!(j.contains("us_per_day"));
        let back: PerfReport = serde_json::from_str(&j).unwrap();
        assert_eq!(back.nodes, r.nodes);
    }
}
