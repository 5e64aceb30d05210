//! The `approval` workload: fig22's batch. Each round approves one
//! direction's general hoses against one availability target with
//! `hose_approval` on the small backbone.

use crate::{guarded, host, median_secs, repeat_for, stats, Report};
use entitlement_approval::{hose_approval, ApprovalConfig, ApprovalSummary, HoseApproval};
use entitlement_core::{DetRng, Direction, NpgId, QosClass, Rate, SloTarget};
use entitlement_hose::HoseRequest;
use entitlement_topology::{BackboneSpec, Topology};
use std::time::Instant;

/// fig22's availability targets, loosest first.
pub const TARGETS: [f64; 6] = [0.9, 0.95, 0.99, 0.995, 0.999, 0.9995];
/// Each hose asks for this multiple of its region's attached capacity.
const DEMAND_SCALE: f64 = 0.45;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 201;
/// Batches per run, at least: 4 × 12 rounds leaves ten rounds beyond
/// the reported p75.
const MIN_BATCHES: usize = 4;

/// One batch's inputs.
pub struct Inputs {
    pub topo: Topology,
    /// General hoses, one per DC: `[egress, ingress]`.
    pub hoses: [Vec<HoseRequest>; 2],
    pub config: ApprovalConfig,
}

pub const DIRECTIONS: [Direction; 2] = [Direction::Egress, Direction::Ingress];

/// A region's attached capacity in one direction.
pub fn attached(topo: &Topology, region: entitlement_core::RegionId, direction: Direction) -> Rate {
    match direction {
        Direction::Egress => topo.egress_capacity(region),
        Direction::Ingress => topo.ingress_capacity(region),
    }
}

/// fig22's demand: one general hose per DC and direction at 0.45× the
/// region's attached capacity, jittered ±15% per (region, direction)
/// from `seed`.
fn hoses(topo: &Topology, direction: Direction, seed: u64) -> Vec<HoseRequest> {
    let dcs = topo.dc_ids();
    dcs.iter()
        .enumerate()
        .map(|(i, &region)| {
            let salt = u64::from(region.0) << 4 | u64::from(direction == Direction::Ingress);
            let jitter = DetRng::new(seed ^ 0xD1F ^ salt).range(0.85, 1.15);
            let remotes: Vec<_> = dcs.iter().copied().filter(|&r| r != region).collect();
            HoseRequest::general(
                NpgId(i as u32),
                QosClass::C2,
                region,
                direction,
                attached(topo, region, direction) * DEMAND_SCALE * jitter,
                remotes,
            )
        })
        .collect()
}

pub fn set_up(seed: u64) -> Inputs {
    let topo = BackboneSpec::small(0x22).build();
    let hoses = DIRECTIONS.map(|d| hoses(&topo, d, seed));
    Inputs {
        topo,
        hoses,
        config: ApprovalConfig {
            tms_per_hose: 6,
            max_cuts: 2,
            workers: host::nproc(),
            dedup: true,
            seed: 0xA11 ^ seed,
            ..Default::default()
        },
    }
}

/// One round: one direction's hoses against one target.
pub fn round(inputs: &Inputs, direction: usize, target: f64) -> Vec<HoseApproval> {
    let hoses = &inputs.hoses[direction];
    let slo = SloTarget::new(target).expect("fig22 targets are valid availabilities");
    hose_approval(&inputs.topo, hoses, &vec![slo; hoses.len()], &inputs.config)
}

/// Check one round's approvals.
pub fn check_round(inputs: &Inputs, direction: usize, approvals: &[HoseApproval]) -> Vec<String> {
    let hoses = &inputs.hoses[direction];
    if approvals.len() != hoses.len() {
        return vec![format!(
            "{} approvals for {} hoses",
            approvals.len(),
            hoses.len()
        )];
    }
    let mut problems = Vec::new();
    for (a, h) in approvals.iter().zip(hoses) {
        let approved = a.approved_total.as_bps();
        let cap = attached(&inputs.topo, h.region, h.direction).as_bps();
        if !(approved >= 0.0 && approved <= h.total.as_bps()) {
            problems.push(format!(
                "{} approved {approved} of {}",
                h.region,
                h.total.as_bps()
            ));
        }
        if approved > cap {
            problems.push(format!(
                "{} approved {approved} beyond attached {cap}",
                h.region
            ));
        }
    }
    problems
}

/// fig22's shape: per direction, the approval rate does not rise as
/// the target does. `rates[direction][target]`.
pub fn check_shape(rates: &[Vec<f64>; 2]) -> Vec<String> {
    let mut problems = Vec::new();
    for (d, series) in rates.iter().enumerate() {
        for (i, w) in series.windows(2).enumerate() {
            if w[1] > w[0] {
                problems.push(format!(
                    "{:?} approval rises from {} to {} between targets {} and {}",
                    DIRECTIONS[d],
                    w[0],
                    w[1],
                    TARGETS[i],
                    TARGETS[i + 1]
                ));
            }
        }
    }
    problems
}

/// One batch: every target × direction round, timed one by one.
/// Returns the round times in seconds.
pub fn batch(inputs: &Inputs, report: &mut Report) -> Vec<f64> {
    let mut times = Vec::with_capacity(TARGETS.len() * 2);
    let mut rates = [Vec::new(), Vec::new()];
    let mut failed = 0u64;
    for &target in &TARGETS {
        for (d, rate) in rates.iter_mut().enumerate() {
            report.attempted += 1;
            let t = Instant::now();
            let result = guarded(|| round(inputs, d, target));
            times.push(t.elapsed().as_secs_f64());
            let problems = match &result {
                Some(a) => check_round(inputs, d, a),
                None => vec!["hose_approval panicked".to_string()],
            };
            rate.push(result.map_or(f64::NAN, |a| {
                ApprovalSummary::from_approvals(&a).approval_rate()
            }));
            if !problems.is_empty() {
                failed += 1;
            }
            for p in problems {
                report.fail(0, p);
            }
        }
    }
    let shape = check_shape(&rates);
    if shape.is_empty() {
        report.failed += failed;
    } else {
        report.failed += times.len() as u64;
        for p in shape {
            report.fail(0, p);
        }
    }
    times
}

/// The untraced workload.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let setup_s = median_secs(SETUP_REPS, || {
        std::hint::black_box(set_up(seed));
    });
    let inputs = set_up(seed);
    batch(&inputs, &mut report); // warm-up
    let peak_rss_mb = host::peak_rss_mb();
    let batches = repeat_for(seconds, MIN_BATCHES, || batch(&inputs, &mut report));
    let hoses_per_batch = (TARGETS.len() * (inputs.hoses[0].len() + inputs.hoses[1].len())) as f64;
    let throughput: Vec<f64> = batches
        .iter()
        .map(|b| hoses_per_batch / b.iter().sum::<f64>())
        .collect();
    let rounds_us: Vec<f64> = batches.iter().flatten().map(|s| s * 1e6).collect();
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", stats::median(&throughput), "1/s");
    report.metric("latency_p50_us", stats::median(&rounds_us), "us");
    report.metric("latency_tail_us", stats::percentile(&rounds_us, 0.75), "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doctored_approvals_fail_their_checks() {
        let inputs = set_up(3);
        let honest = round(&inputs, 0, 0.99);
        assert!(check_round(&inputs, 0, &honest).is_empty());

        let mut bad = honest.clone();
        bad[1].approved_total = inputs.hoses[0][1].total + Rate::gbps(1.0);
        assert!(!check_round(&inputs, 0, &bad).is_empty());

        let mut bad = honest;
        bad.pop();
        assert!(!check_round(&inputs, 0, &bad).is_empty());

        assert!(check_shape(&[vec![0.9, 0.8, 0.8], vec![1.0, 0.5, 0.1]]).is_empty());
        assert_eq!(
            check_shape(&[vec![0.9, 0.8, 0.85], vec![1.0, 0.5, 0.1]]).len(),
            1
        );
    }
}
