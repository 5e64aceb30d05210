//! The `market-steady` and `market-exhausted` workloads: a seeded
//! admission storm through the entitlement market on the paper-scale
//! backbone, with the output checks every decision must pass.

use crate::spans::Tracer;
use crate::{guarded, host, median_secs, repeat_for, stats, Report, Workload};
use entitlement_approval::ApprovalConfig;
use entitlement_core::{DetRng, NpgId, QosBand, QosBucket, QosClass, Quarter, Rate, RegionId};
use entitlement_market::{
    generate_storm, AdmitDecision, AdmitOutcome, AdmitPath, AdmitRequest, EntitlementKind,
    EntitlementMarket, MarketEntitlement, SliceGrid, SliceId, StormConfig,
};
use entitlement_obs::Obs;
use entitlement_topology::{max_flow, BackboneSpec, LinkId, Topology};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Requests per `market-steady` pass.
pub const STEADY_REQUESTS: usize = 20_000;
/// Times the exhausted storm visits every DC pair: once before the link
/// cut, once under it and once after the heal.
const EXHAUSTED_ROUNDS: usize = 3;
/// Largest ask of the steady storm: small enough that no slot runs out.
const STEADY_MAX_ASK_GBPS: f64 = 2.0;
/// Largest ask of the exhausted storm: 20 Tbps, so slots run out after
/// a few grants.
const EXHAUSTED_MAX_ASK_GBPS: f64 = 20_000.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The buckets the market serves: C3/C4, both bands. Their default SLOs
/// are certifiable under single-cut enumeration.
pub fn buckets() -> Vec<QosBucket> {
    [QosClass::C3, QosClass::C4]
        .into_iter()
        .flat_map(|class| {
            [QosBand::Low, QosBand::High]
                .into_iter()
                .map(move |band| QosBucket { class, band })
        })
        .collect()
}

/// The market's approval settings (`entitlectl market`'s defaults).
pub fn config() -> ApprovalConfig {
    ApprovalConfig {
        tms_per_hose: 2,
        max_cuts: 1,
        workers: 1,
        dedup: true,
        ..Default::default()
    }
}

/// `entitlectl market`'s synthetic book: two subscriptions and a quota
/// on the first DC pairs, plus one usage-based contract that reserves
/// nothing.
pub fn contracts(dcs: &[RegionId]) -> Vec<MarketEntitlement> {
    let b = buckets()[0];
    let entitlement = |npg: u32, src: usize, dst: usize, gbps: f64, kind| MarketEntitlement {
        npg: NpgId(npg),
        bucket: b,
        src: dcs[src % dcs.len()],
        dst: dcs[dst % dcs.len()],
        rate: Rate::gbps(gbps),
        kind,
    };
    vec![
        entitlement(100, 0, 1, 20.0, EntitlementKind::Subscription),
        entitlement(101, 1, 2, 15.0, EntitlementKind::Subscription),
        entitlement(
            102,
            2,
            0,
            10.0,
            EntitlementKind::Quota { volume_bytes: 1e15 },
        ),
        entitlement(103, 0, 2, 50.0, EntitlementKind::UsageBased),
    ]
}

/// Build, load and warm the market on the 20-region paper-scale
/// backbone: 132 DC pairs × 4 buckets × 12 weekly slices.
pub fn set_up(tr: &mut Tracer) -> EntitlementMarket {
    tr.enter("market.setup");
    let topo = tr.span("topology.build", || BackboneSpec::default().build());
    let contracts = contracts(&topo.dc_ids());
    let grid = SliceGrid::quarterly(Quarter(0), 7);
    let mut market = tr.span("market.new", || {
        EntitlementMarket::new(topo, grid, config())
    });
    tr.span("market.load_contracts", || {
        market.load_contracts(&contracts)
    });
    tr.span("market.warm", || market.warm(&buckets(), &Obs::disabled()));
    tr.exit();
    market
}

/// A link cut applied at request ordinal `start` and cleared at `end`.
#[derive(Clone, Debug)]
pub struct FaultWindow {
    pub start: usize,
    pub end: usize,
    pub links: Vec<LinkId>,
}

/// One workload's request stream.
#[derive(Clone, Debug)]
pub struct Storm {
    pub requests: Vec<AdmitRequest>,
    pub fault: Option<FaultWindow>,
    /// Rate each slot granted before the storm (the exhausting fill).
    pub prior: BTreeMap<SlotKey, f64>,
}

/// Both directions of the first link: one fiber.
fn first_fiber(topo: &Topology) -> Vec<LinkId> {
    let l = &topo.links()[0];
    let mut links = vec![l.id];
    if let Some(back) = topo
        .links()
        .iter()
        .find(|r| r.src == l.dst && r.dst == l.src)
    {
        links.push(back.id);
    }
    links
}

/// Grant every slot its whole residual through the index: one ask per
/// slot larger than any headroom. Returns each slot's grant.
pub fn exhaust_all(market: &mut EntitlementMarket) -> BTreeMap<SlotKey, f64> {
    let dcs = market.topology().dc_ids();
    let slices: Vec<SliceId> = market.grid().slices().collect();
    let mut granted = BTreeMap::new();
    for &src in &dcs {
        for &dst in dcs.iter().filter(|&&d| d != src) {
            for bucket in buckets() {
                for &slice in &slices {
                    let req = AdmitRequest {
                        npg: NpgId(999),
                        bucket,
                        slice,
                        src,
                        dst,
                        ask: Rate::tbps(1e6),
                    };
                    let d = market.admit(&req);
                    granted.insert(slot(&req), d.granted.as_bps());
                }
            }
        }
    }
    granted
}

/// The exhausted storm: every DC pair `EXHAUSTED_ROUNDS` times, in a
/// seeded order, each visit with a seeded bucket, slice, NPG and ask.
/// Visiting each pair equally often keeps the work of a pass the same
/// from seed to seed: a sweep's cost depends on the pair's paths.
fn exhausted_requests(market: &EntitlementMarket, seed: u64) -> Vec<AdmitRequest> {
    let mut rng = DetRng::new(seed);
    let dcs = market.topology().dc_ids();
    let slices: Vec<SliceId> = market.grid().slices().collect();
    let buckets = buckets();
    let mut pairs: Vec<(RegionId, RegionId)> = dcs
        .iter()
        .flat_map(|&s| dcs.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect();
    let mut out = Vec::with_capacity(pairs.len() * EXHAUSTED_ROUNDS);
    for _ in 0..EXHAUSTED_ROUNDS {
        rng.shuffle(&mut pairs);
        for &(src, dst) in &pairs {
            out.push(AdmitRequest {
                npg: NpgId(rng.usize(32) as u32),
                bucket: buckets[rng.usize(buckets.len())],
                slice: slices[rng.usize(slices.len())],
                src,
                dst,
                ask: Rate::gbps(rng.range(0.0, EXHAUSTED_MAX_ASK_GBPS).max(1e-3)),
            });
        }
    }
    out
}

/// Prepare `market` for `workload` and return its seeded storm. For
/// `market-exhausted` every slot is first exhausted, so each storm
/// admit meets an empty slot, and one link-cut window covers the
/// storm's middle round.
pub fn prepare(market: &mut EntitlementMarket, workload: Workload, seed: u64) -> Storm {
    if workload == Workload::MarketSteady {
        let cfg = StormConfig {
            requests: STEADY_REQUESTS,
            seed,
            npgs: 32,
            max_ask_gbps: STEADY_MAX_ASK_GBPS,
        };
        return Storm {
            requests: generate_storm(market, &buckets(), &cfg),
            fault: None,
            prior: BTreeMap::new(),
        };
    }
    let requests = exhausted_requests(market, seed);
    let n = requests.len();
    Storm {
        requests,
        fault: Some(FaultWindow {
            start: n / 3,
            end: 2 * n / 3,
            links: first_fiber(market.topology()),
        }),
        prior: exhaust_all(market),
    }
}

/// How a pass is timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Timing {
    /// Only the whole pass: throughput.
    Pass,
    /// Every admit: latency percentiles.
    PerAdmit,
    /// Every admit and fault under a span.
    Traced,
}

/// One pass's outputs.
pub struct Pass {
    pub decisions: Vec<AdmitDecision>,
    pub wall_s: f64,
    pub admit_ns: Vec<f64>,
}

/// Replay `storm` on a clone of `base`.
pub fn run_pass(base: &EntitlementMarket, storm: &Storm, timing: Timing, tr: &mut Tracer) -> Pass {
    let mut m = base.clone();
    let n = storm.requests.len();
    let mut decisions = Vec::with_capacity(n);
    let mut admit_ns = Vec::with_capacity(if timing == Timing::PerAdmit { n } else { 0 });
    let started = Instant::now();
    for (i, req) in storm.requests.iter().enumerate() {
        if let Some(f) = &storm.fault {
            if i == f.start {
                tr.span("market.fault", || m.apply_fault(&f.links));
            } else if i == f.end {
                tr.span("market.fault", || m.clear_faults());
            }
        }
        let d = match timing {
            Timing::Pass => m.admit(req),
            Timing::PerAdmit => {
                let t = Instant::now();
                let d = m.admit(req);
                admit_ns.push(t.elapsed().as_nanos() as f64);
                d
            }
            Timing::Traced => {
                tr.enter("market.admit");
                let d = m.admit(req);
                tr.exit_as(Some(match d.path {
                    AdmitPath::Index => "market.admit_index",
                    AdmitPath::Sweep => "market.admit_sweep",
                }));
                d
            }
        };
        decisions.push(d);
    }
    Pass {
        decisions,
        wall_s: started.elapsed().as_secs_f64(),
        admit_ns,
    }
}

/// Outcome and path counts of one pass, plus the granted total's bits:
/// every pass of one storm must give the identical tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub granted: usize,
    pub partial: usize,
    pub denied: usize,
    pub index: usize,
    pub sweep: usize,
    pub sweep_granting: usize,
    pub granted_bps_bits: u64,
}

impl Tally {
    pub fn of(decisions: &[AdmitDecision]) -> Tally {
        let mut t = Tally::default();
        let mut granted_bps = 0.0;
        for d in decisions {
            match d.outcome {
                AdmitOutcome::Granted => t.granted += 1,
                AdmitOutcome::Partial => t.partial += 1,
                AdmitOutcome::Denied => t.denied += 1,
            }
            match d.path {
                AdmitPath::Index => t.index += 1,
                AdmitPath::Sweep => {
                    t.sweep += 1;
                    t.sweep_granting += usize::from(!d.granted.is_zero());
                }
            }
            granted_bps += d.granted.as_bps();
        }
        t.granted_bps_bits = granted_bps.to_bits();
        t
    }
}

/// Healthy-backbone max flow per DC pair: no slot may ever hold more.
pub fn max_flows(topo: &Topology) -> BTreeMap<(RegionId, RegionId), f64> {
    let dcs = topo.dc_ids();
    let mut out = BTreeMap::new();
    for &s in &dcs {
        for &d in &dcs {
            if s != d {
                out.insert((s, d), max_flow(topo, s, d, &[]).as_bps());
            }
        }
    }
    out
}

pub type SlotKey = (RegionId, RegionId, QosBucket, SliceId);

fn slot(req: &AdmitRequest) -> SlotKey {
    (req.src, req.dst, req.bucket, req.slice)
}

/// Check one pass's decisions; returns how many admits failed a check
/// and describes each failure in `problems`.
pub fn check_pass(
    workload: Workload,
    storm: &Storm,
    decisions: &[AdmitDecision],
    max_flow: &BTreeMap<(RegionId, RegionId), f64>,
    problems: &mut Vec<String>,
) -> u64 {
    let n = storm.requests.len();
    let mut bad = vec![false; n];
    let mut flag = |i: usize, what: String, problems: &mut Vec<String>| {
        bad[i] = true;
        if problems.len() < 20 {
            problems.push(format!("admit {i}: {what}"));
        }
    };
    if decisions.len() != n {
        problems.push(format!("{} decisions for {n} requests", decisions.len()));
        return n as u64;
    }

    // Per decision.
    for (i, (req, d)) in storm.requests.iter().zip(decisions).enumerate() {
        let (ask, g, rb) = (
            req.ask.as_bps(),
            d.granted.as_bps(),
            d.residual_before.as_bps(),
        );
        if !(g >= 0.0 && g <= ask) {
            flag(i, format!("granted {g} outside [0, ask {ask}]"), problems);
        }
        if g > rb {
            flag(i, format!("granted {g} > residual_before {rb}"), problems);
        }
        let expect_after = (rb - g).max(0.0);
        if d.residual_after.as_bps().to_bits() != expect_after.to_bits() {
            flag(
                i,
                format!(
                    "residual_after {} != {expect_after}",
                    d.residual_after.as_bps()
                ),
                problems,
            );
        }
        let outcome = if g == 0.0 {
            AdmitOutcome::Denied
        } else if g >= ask {
            AdmitOutcome::Granted
        } else {
            AdmitOutcome::Partial
        };
        if d.outcome != outcome {
            flag(
                i,
                format!("outcome {:?} for granted {g} of {ask}", d.outcome),
                problems,
            );
        }
        if workload == Workload::MarketSteady && d.path == AdmitPath::Sweep {
            flag(i, "sweep-path admit in the steady storm".into(), problems);
        }
    }

    // Per slot: total grants within the healthy max flow of the pair.
    // The relative 1e-12 allows for the rounding of the f64 sum, since
    // some slots grant exactly the max flow.
    let mut per_slot: BTreeMap<SlotKey, (f64, usize)> = BTreeMap::new();
    for (i, (req, d)) in storm.requests.iter().zip(decisions).enumerate() {
        let prior = storm.prior.get(&slot(req)).copied().unwrap_or(0.0);
        let e = per_slot.entry(slot(req)).or_insert((prior, i));
        e.0 += d.granted.as_bps();
        e.1 = i;
    }
    for ((src, dst, _, _), (total, last)) in &per_slot {
        let cap = max_flow[&(*src, *dst)];
        if *total > cap * (1.0 + 1e-12) {
            flag(
                *last,
                format!("slot {src}->{dst} granted {total} > max flow {cap}"),
                problems,
            );
        }
    }

    // Per storm: after every fault change, the first admit on each slot
    // sweeps (the index fails closed).
    if let Some(f) = &storm.fault {
        for (from, to) in [(f.start, f.end), (f.end, n)] {
            let mut seen = BTreeSet::new();
            let window = storm.requests.iter().zip(decisions).enumerate();
            for (i, (req, d)) in window.take(to).skip(from) {
                if seen.insert(slot(req)) && d.path != AdmitPath::Sweep {
                    flag(
                        i,
                        "first admit on a slot after a fault change took the index".into(),
                        problems,
                    );
                }
            }
        }
    }

    let t = Tally::of(decisions);
    if t.granted + t.partial + t.denied != n || t.index + t.sweep != n {
        problems.push(format!("tallies {t:?} do not sum to {n} requests"));
        return n as u64;
    }
    bad.iter().filter(|&&b| b).count() as u64
}

/// The untraced workload: set-up timing, then throughput and per-admit
/// latency passes over the same storm.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::off();
    let mut built = Vec::with_capacity(SETUP_REPS);
    let setup_s = median_secs(SETUP_REPS, || built.push(set_up(&mut tr)));
    let mut base = built.pop().expect("at least one set-up");
    drop(built);
    let storm = prepare(&mut base, workload, seed);
    let max_flow = max_flows(base.topology());
    let n = storm.requests.len() as u64;

    // Every pass is checked; every pass must give the first one's tally.
    let mut reference: Option<Tally> = None;
    let mut check = |pass: &Pass, report: &mut Report| {
        report.attempted += n;
        let mut problems = Vec::new();
        let failed = check_pass(workload, &storm, &pass.decisions, &max_flow, &mut problems);
        let tally = Tally::of(&pass.decisions);
        if reference.is_none() {
            eprintln!(
                "wallbench: {} requests per pass: {tally:?}",
                storm.requests.len()
            );
        }
        let same = *reference.get_or_insert(tally) == tally;
        let failed = if same { failed } else { n };
        if !same {
            problems.push(format!("pass tally {tally:?} differs from the first pass"));
        }
        for p in problems {
            report.fail(0, p);
        }
        report.failed += failed;
    };
    // Untimed warm-up of both pass kinds.
    for timing in [Timing::Pass, Timing::PerAdmit] {
        let p = guarded(|| run_pass(&base, &storm, timing, &mut Tracer::off()));
        match p {
            Some(p) => check(&p, &mut report),
            None => report.fail(n, "panic in the warm-up pass".into()),
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    // Steady admits take about a microsecond, so the two clock reads
    // around each one would slow a throughput pass: there, passes
    // alternate between the two timings. A sweep admit takes
    // milliseconds, so every exhausted pass is timed per admit.
    // The tail is p99 of the steady storm's 20,000 admits per pass. An
    // exhausted pass holds 396 admits of milliseconds each, and a few
    // percent of them catch a scheduler stall on a shared host, so its
    // tail is p90: still forty admits beyond it, and steady from run to
    // run.
    let tail_q = match workload {
        Workload::MarketSteady => 0.99,
        _ => 0.90,
    };
    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let mut tail = Vec::new();
    let mut k = 0usize;
    repeat_for(seconds, 6, || {
        let timing = if workload == Workload::MarketSteady && k.is_multiple_of(2) {
            Timing::Pass
        } else {
            Timing::PerAdmit
        };
        k += 1;
        match guarded(|| run_pass(&base, &storm, timing, &mut Tracer::off())) {
            Some(p) => {
                if timing == Timing::Pass || workload == Workload::MarketExhausted {
                    throughput.push(n as f64 / p.wall_s);
                }
                if timing == Timing::PerAdmit {
                    p50.push(stats::percentile(&p.admit_ns, 0.50) / 1e3);
                    tail.push(stats::percentile(&p.admit_ns, tail_q) / 1e3);
                }
                check(&p, &mut report);
            }
            None => report.fail(n, "panic in a timed pass".into()),
        }
    });
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", stats::median(&throughput), "1/s");
    report.metric("latency_p50_us", stats::median(&p50), "us");
    report.metric("latency_tail_us", stats::median(&tail), "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_market() -> EntitlementMarket {
        let topo = BackboneSpec::small(7).build();
        let contracts = contracts(&topo.dc_ids());
        let mut m = EntitlementMarket::new(topo, SliceGrid::quarterly(Quarter(0), 30), config());
        m.load_contracts(&contracts);
        m.warm(&buckets(), &Obs::disabled());
        m
    }

    fn storm_of(m: &EntitlementMarket, requests: usize, max_ask_gbps: f64) -> Storm {
        Storm {
            requests: generate_storm(
                m,
                &buckets(),
                &StormConfig {
                    requests,
                    seed: 5,
                    npgs: 8,
                    max_ask_gbps,
                },
            ),
            fault: None,
            prior: BTreeMap::new(),
        }
    }

    #[test]
    fn honest_decisions_pass_every_check() {
        let m = small_market();
        let s = storm_of(&m, 300, 1.0);
        let p = run_pass(&m, &s, Timing::Pass, &mut Tracer::off());
        let mut problems = Vec::new();
        let failed = check_pass(
            Workload::MarketSteady,
            &s,
            &p.decisions,
            &max_flows(m.topology()),
            &mut problems,
        );
        assert_eq!(failed, 0, "{problems:?}");
        assert!(problems.is_empty());
    }

    #[test]
    fn doctored_decisions_fail_their_checks() {
        let m = small_market();
        let s = storm_of(&m, 300, 1.0);
        let flows = max_flows(m.topology());
        let honest = run_pass(&m, &s, Timing::Pass, &mut Tracer::off()).decisions;
        let doctor = |f: &dyn Fn(&mut AdmitDecision)| {
            let mut d = honest.clone();
            f(&mut d[3]);
            let mut problems = Vec::new();
            let failed = check_pass(Workload::MarketSteady, &s, &d, &flows, &mut problems);
            (failed, problems)
        };
        // Granted more than asked.
        let (failed, problems) = doctor(&|d| d.granted += Rate::gbps(5.0));
        assert!(failed >= 1 && !problems.is_empty(), "{problems:?}");
        // Residual arithmetic off by one bit.
        let (failed, _) = doctor(&|d| {
            d.residual_after = Rate(f64::from_bits(d.residual_after.as_bps().to_bits() + 1))
        });
        assert_eq!(failed, 1);
        // A sweep in the steady storm.
        let (failed, _) = doctor(&|d| d.path = AdmitPath::Sweep);
        assert_eq!(failed, 1);
        // A slot granted beyond the backbone's max flow.
        let (failed, problems) = doctor(&|d| {
            d.granted = Rate::tbps(1e6);
            d.residual_before = Rate::tbps(1e6);
            d.residual_after = Rate::ZERO;
        });
        assert!(failed >= 1);
        assert!(
            problems.iter().any(|p| p.contains("max flow")),
            "{problems:?}"
        );
    }

    #[test]
    fn an_index_admit_right_after_a_fault_fails_the_check() {
        let m = small_market();
        let mut s = storm_of(&m, 90, 1.0);
        s.fault = Some(FaultWindow {
            start: 30,
            end: 60,
            links: first_fiber(m.topology()),
        });
        let flows = max_flows(m.topology());
        let mut d = run_pass(&m, &s, Timing::Pass, &mut Tracer::off()).decisions;
        let mut problems = Vec::new();
        assert_eq!(
            check_pass(Workload::MarketExhausted, &s, &d, &flows, &mut problems),
            0,
            "{problems:?}"
        );
        assert_eq!(d[30].path, AdmitPath::Sweep);
        d[30].path = AdmitPath::Index;
        assert_eq!(
            check_pass(Workload::MarketExhausted, &s, &d, &flows, &mut problems),
            1
        );
    }
}
