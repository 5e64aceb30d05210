//! The `fleet` workload: the sharded fleet engine at 10⁶ hosts and 64
//! shards under the parallel strategy, with its output checks.

use crate::{guarded, host, median_secs, repeat_for, stats, Report};
use entitlement_core::Rate;
use entitlement_enforcement::{
    host_demand_bps, run_fleet_engine, FleetConfig, FleetOutcome, FleetStrategy,
};

/// Hosts in the fleet.
pub const HOSTS: usize = 1_000_000;
/// Fleet (and KV store) shards.
pub const SHARDS: usize = 64;
/// Metering cycles per timed engine run.
pub const CYCLES: usize = 8;
/// Zero-cycle engine runs timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed engine runs per run, at least: enough for a p75 with ten runs
/// beyond it.
const MIN_PASSES: usize = 40;

/// `entitlectl fleet`'s regime: 10 Gbps offered per host against a
/// 5 Gbps-per-host entitlement, so the fleet settles near half marked.
pub fn config(hosts: usize, cycles: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        hosts,
        shards: SHARDS,
        strategy: FleetStrategy::Parallel,
        workers: host::nproc(),
        cycles,
        seed,
        entitled: Rate::gbps(5.0 * hosts as f64),
        per_host_rate: Rate::gbps(10.0),
        ..FleetConfig::default()
    }
}

/// Offered demand summed by the benchmark itself, host by host, with
/// compensated (Neumaier) summation so the reference carries no
/// rounding of its own worth speaking of.
pub fn offered_bps(config: &FleetConfig) -> f64 {
    let (mut sum, mut comp) = (0.0f64, 0.0f64);
    for h in 0..config.hosts {
        let x = host_demand_bps(config.seed, config.per_host_rate, h as u32);
        let t = sum + x;
        comp += if sum.abs() >= x.abs() {
            (sum - t) + x
        } else {
            (x - t) + sum
        };
        sum = t;
    }
    sum + comp
}

/// Check one engine run against the benchmark's own reference total.
pub fn check_run(config: &FleetConfig, out: &FleetOutcome, offered: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if out.cycles.len() != config.cycles {
        problems.push(format!(
            "{} cycles run of {}",
            out.cycles.len(),
            config.cycles
        ));
    }
    if config.cycles == 0 {
        return problems;
    }
    let rel = (out.final_total - offered).abs() / offered;
    if rel.is_nan() || rel > 1e-12 {
        problems.push(format!(
            "final_total {} vs offered {offered} (relative {rel:e})",
            out.final_total
        ));
    }
    let entitled = config.entitled.as_bps();
    for (i, c) in out.cycles.iter().enumerate().skip(1) {
        // One marking group's share of offered demand.
        let off = (c.live_conform - entitled).abs();
        if off.is_nan() || off > offered / 100.0 {
            problems.push(format!(
                "cycle {}: live_conform {} is {:.4}x entitled, beyond one group's share",
                i + 1,
                c.live_conform,
                c.live_conform / entitled
            ));
        }
        if !(c.marked_fraction > 0.0 && c.marked_fraction < 1.0) {
            problems.push(format!(
                "cycle {}: marked fraction {}",
                i + 1,
                c.marked_fraction
            ));
        }
    }
    problems
}

/// Run the engine once and check it: `Some(seconds)` when it ran and
/// passed every check.
pub fn timed_run(config: &FleetConfig, offered: f64, report: &mut Report) -> Option<f64> {
    report.attempted += 1;
    let t = std::time::Instant::now();
    let result = guarded(|| run_fleet_engine(config));
    let secs = t.elapsed().as_secs_f64();
    let problems = match result {
        Some(Ok(out)) => check_run(config, &out, offered),
        Some(Err(e)) => vec![format!("engine error: {e}")],
        None => vec!["engine panicked".to_string()],
    };
    if problems.is_empty() {
        return Some(secs);
    }
    report.failed += 1;
    for p in problems {
        report.fail(0, p);
    }
    None
}

/// The untraced workload.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let zero = config(HOSTS, 0, seed);
    let full = config(HOSTS, CYCLES, seed);
    let offered = offered_bps(&full);

    // Warm-up, then the set-up time: a zero-cycle engine run.
    timed_run(&full, offered, &mut report);
    let mut setup_ok = true;
    let setup_s = median_secs(SETUP_REPS, || {
        setup_ok &= timed_run(&zero, offered, &mut report).is_some();
    });
    let peak_rss_mb = host::peak_rss_mb();

    let runs: Vec<f64> = repeat_for(seconds, MIN_PASSES, || {
        timed_run(&full, offered, &mut report)
    })
    .into_iter()
    .flatten()
    .collect();
    if runs.is_empty() || !setup_ok {
        report.fail(0, "no engine run passed its checks".into());
        return report;
    }
    // Per-cycle time with the engine's set-up taken out.
    let cycle_s: Vec<f64> = runs
        .iter()
        .map(|r| ((r - setup_s) / CYCLES as f64).max(f64::MIN_POSITIVE))
        .collect();
    let cycle_p50 = stats::median(&cycle_s);
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", HOSTS as f64 / cycle_p50, "1/s");
    report.metric("latency_p50_us", cycle_p50 * 1e6, "us");
    report.metric(
        "latency_tail_us",
        stats::percentile(&cycle_s, 0.75) * 1e6,
        "us",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_run_passes_and_doctored_runs_fail() {
        let cfg = config(2_000, 6, 11);
        let offered = offered_bps(&cfg);
        let out = run_fleet_engine(&cfg).unwrap();
        assert!(
            check_run(&cfg, &out, offered).is_empty(),
            "{:?}",
            check_run(&cfg, &out, offered)
        );

        let mut bad = out.clone();
        bad.final_total *= 1.0 + 1e-9;
        assert!(!check_run(&cfg, &bad, offered).is_empty());

        let mut bad = out.clone();
        bad.cycles[3].live_conform = cfg.entitled.as_bps() * 1.5;
        assert!(!check_run(&cfg, &bad, offered).is_empty());

        let mut bad = out.clone();
        bad.cycles[2].marked_fraction = 0.0;
        assert!(!check_run(&cfg, &bad, offered).is_empty());

        let mut bad = out;
        bad.cycles.pop();
        assert!(!check_run(&cfg, &bad, offered).is_empty());
    }
}
