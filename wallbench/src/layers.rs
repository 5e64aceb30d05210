//! The traced run: every layer's public calls under benchmark-owned
//! spans, plus exact counts from the program's own trace events under
//! a counting clock. Each traced run measures every layer, so it prints
//! the whole per-layer set; the workload argument selects the pass the
//! trace overhead ratio is taken over.

use crate::spans::Tracer;
use crate::{approval, fleet, market, median_secs, stats, Report, Workload};
use entitlement_approval::{hose_approval_obs, ApprovalConfig};
use entitlement_chaos::{ChaosStore, FaultPlan};
use entitlement_core::{Direction, SloTarget};
use entitlement_enforcement::{run_fleet_engine, StatefulMeter};
use entitlement_hose::{generate_tms, TmGenConfig};
use entitlement_kvstore::{KvShardAccess, ObservedKv, ShardFanout, ShardedStore, StoreConfig};
use entitlement_market::{pair_headroom_probe, EntitlementMarket};
use entitlement_obs::{Clock, Obs, TraceEvent};
use entitlement_slo::{IntervalObs, SloEvaluator, SloPolicy};
use entitlement_topology::{k_shortest_paths, ScenarioSet};
use entitlement_watch::{CycleObs, WatchEvaluator, WatchPolicy};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles of the KV, SLO and watch probes.
const PROBE_CYCLES: u64 = 200;
/// Host count of the second point of the fleet's per-host line.
const SMALL_HOSTS: usize = 250_000;
/// Engine runs per fleet configuration.
const FLEET_REPS: usize = 3;

fn p50(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::percentile(xs, 0.5)
    }
}

fn p99(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        stats::percentile(xs, 0.99)
    }
}

/// Sum of the self times of every span named `name`.
fn total_ns(tr: &Tracer, name: &str) -> f64 {
    tr.self_ns(name).iter().sum()
}

fn count(events: &[TraceEvent], span: &str, phase: &str) -> usize {
    events
        .iter()
        .filter(|e| e.span == span && e.phase == phase)
        .count()
}

/// Run the traced profile for `workload`.
pub fn profile(workload: Workload, seed: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let market = profile_market(workload, seed, tr, &mut report);
    let approval = profile_approval(workload, seed, tr, &mut report);
    let enforcement = profile_enforcement(workload, seed, tr, &mut report);
    profile_runtime_layers(tr, &mut report);
    let overhead = market.or(approval).or(enforcement);
    report.metric(
        "bench.trace_overhead_ratio",
        overhead.expect("every workload has an overhead pass"),
        "ratio",
    );
    report
}

/// Topology, risk and market layers. Returns the trace overhead ratio
/// when `workload` is a market workload.
fn profile_market(
    workload: Workload,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Option<f64> {
    let base = market::set_up(tr);
    let topo = base.topology().clone();
    let cfg = market::config();
    let scenarios = tr.span("topology.enumerate", || {
        ScenarioSet::enumerate(&topo, cfg.max_cuts)
    });
    let dcs = topo.dc_ids();
    let pairs: Vec<_> = dcs
        .iter()
        .flat_map(|&s| dcs.iter().filter(move |&&d| d != s).map(move |&d| (s, d)))
        .collect();
    for &(s, d) in &pairs {
        tr.span("topology.ksp", || {
            black_box(k_shortest_paths(&topo, s, d, cfg.k_paths, &[])).is_ok()
        });
    }
    let background = base.book().reserved_background();
    for &(s, d) in &pairs {
        for bucket in market::buckets() {
            let slo = EntitlementMarket::slo_for(bucket);
            tr.span("risk.headroom_probe", || {
                black_box(pair_headroom_probe(
                    &topo,
                    &scenarios,
                    &background,
                    s,
                    d,
                    slo,
                    cfg.k_paths,
                    &Obs::disabled(),
                ))
            });
        }
    }
    // Exact counts: the program's own risk events for one headroom sweep.
    let obs = Obs::new(Clock::counting(1));
    let (s, d) = pairs[0];
    pair_headroom_probe(
        &topo,
        &scenarios,
        &background,
        s,
        d,
        EntitlementMarket::slo_for(market::buckets()[0]),
        cfg.k_paths,
        &obs,
    );
    let events = obs.trace.events();
    let unique: f64 = events
        .iter()
        .find(|e| e.span == "risk" && e.phase == "sweep")
        .and_then(|e| e.label("unique"))
        .and_then(|u| u.parse().ok())
        .unwrap_or(0.0);

    // The two storms under per-admit spans.
    let mut steady_base = base.clone();
    let steady = market::prepare(&mut steady_base, Workload::MarketSteady, seed);
    let mut ex_base = base;
    let exhausted = market::prepare(&mut ex_base, Workload::MarketExhausted, seed);
    let max_flow = market::max_flows(&topo);
    let mut tally = market::Tally::default();
    for (w, b, storm) in [
        (Workload::MarketSteady, &steady_base, &steady),
        (Workload::MarketExhausted, &ex_base, &exhausted),
    ] {
        let pass = market::run_pass(b, storm, market::Timing::Traced, tr);
        report.attempted += storm.requests.len() as u64;
        let mut problems = Vec::new();
        let failed = market::check_pass(w, storm, &pass.decisions, &max_flow, &mut problems);
        report.failed += failed;
        for p in problems {
            report.fail(0, p);
        }
        if w == Workload::MarketExhausted {
            tally = market::Tally::of(&pass.decisions);
        }
    }

    let ms = |name: &str, tr: &Tracer| total_ns(tr, name) / 1e6;
    report.metric("topology.build_ms", ms("topology.build", tr), "ms");
    report.metric("topology.enumerate_ms", ms("topology.enumerate", tr), "ms");
    report.metric("topology.scenarios", scenarios.len() as f64, "count");
    report.metric(
        "topology.ksp_us",
        p50(&tr.self_ns("topology.ksp")) / 1e3,
        "us",
    );
    report.metric(
        "risk.headroom_probe_us",
        p50(&tr.self_ns("risk.headroom_probe")) / 1e3,
        "us",
    );
    report.metric("risk.unique_scenarios", unique, "count");
    report.metric(
        "risk.scenarios_routed",
        count(&events, "risk", "scenario") as f64,
        "count",
    );
    report.metric("market.new_ms", ms("market.new", tr), "ms");
    report.metric(
        "market.load_contracts_ms",
        ms("market.load_contracts", tr),
        "ms",
    );
    report.metric("market.warm_ms", ms("market.warm", tr), "ms");
    let index_ns = tr.self_ns("market.admit_index");
    let sweep_ns: Vec<f64> = tr.self_ns("market.admit_sweep");
    report.metric("market.admit_index_us.p50", p50(&index_ns) / 1e3, "us");
    report.metric("market.admit_index_us.p99", p99(&index_ns) / 1e3, "us");
    report.metric("market.admit_sweep_us.p50", p50(&sweep_ns) / 1e3, "us");
    report.metric("market.admit_sweep_us.p99", p99(&sweep_ns) / 1e3, "us");
    report.metric("market.index_admits", tally.index as f64, "count");
    report.metric("market.sweep_admits", tally.sweep as f64, "count");
    report.metric("market.fault_ms", ms("market.fault", tr), "ms");
    let ratio = if tally.sweep == 0 {
        0.0
    } else {
        tally.sweep_granting as f64 / tally.sweep as f64
    };
    report.metric("market.sweep_grant_ratio", ratio, "ratio");

    let (b, storm) = match workload {
        Workload::MarketSteady => (&steady_base, &steady),
        Workload::MarketExhausted => (&ex_base, &exhausted),
        _ => return None,
    };
    let reps = if workload == Workload::MarketSteady {
        9
    } else {
        3
    };
    let mut scratch = Tracer::new(true);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..reps {
        plain.push(market::run_pass(b, storm, market::Timing::Pass, &mut Tracer::off()).wall_s);
        traced.push(market::run_pass(b, storm, market::Timing::Traced, &mut scratch).wall_s);
    }
    Some(stats::median(&traced) / stats::median(&plain))
}

/// Approval and hose layers. Returns the trace overhead ratio when
/// `workload` is `approval`.
fn profile_approval(
    workload: Workload,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Option<f64> {
    let inputs = approval::set_up(seed);
    let traced_batch = |tr: &mut Tracer, report: &mut Report| {
        for &target in &approval::TARGETS {
            for d in 0..2 {
                report.attempted += 1;
                let a = tr.span("approval.round", || approval::round(&inputs, d, target));
                let problems = approval::check_round(&inputs, d, &a);
                report.failed += u64::from(!problems.is_empty());
                for p in problems {
                    report.fail(0, p);
                }
            }
        }
    };
    let started = Instant::now();
    traced_batch(tr, report);
    let traced_s = started.elapsed().as_secs_f64();

    // TM generation exactly as the engine seeds it, per hose per round.
    let cfg = &inputs.config;
    let mut tms = 0usize;
    for _ in &approval::TARGETS {
        for hose in inputs.hoses.iter().flatten() {
            let tm_cfg = TmGenConfig {
                count: cfg.tms_per_hose,
                seed: cfg.seed
                    ^ u64::from(hose.npg.0) << 13
                    ^ u64::from(hose.region.0)
                    ^ match hose.direction {
                        Direction::Egress => 0,
                        Direction::Ingress => 0x16E5_5A17,
                    },
                ..Default::default()
            };
            tms += tr
                .span("hose.generate_tms", || generate_tms(hose, &tm_cfg))
                .len();
        }
    }

    // Exact counts from a serial batch under a counting clock: the
    // parallel sweep records no per-scenario events.
    let obs = Obs::new(Clock::counting(1));
    let serial = ApprovalConfig {
        workers: 1,
        ..cfg.clone()
    };
    for &target in &approval::TARGETS {
        for hoses in &inputs.hoses {
            let slo = SloTarget::new(target).expect("valid target");
            hose_approval_obs(&inputs.topo, hoses, &vec![slo; hoses.len()], &serial, &obs);
        }
    }
    let events = obs.trace.events();

    report.metric(
        "approval.round_ms",
        p50(&tr.self_ns("approval.round")) / 1e6,
        "ms",
    );
    report.metric(
        "approval.pipe_approvals",
        count(&events, "approval", "pipe_approval") as f64,
        "count",
    );
    report.metric(
        "approval.scenarios_routed",
        count(&events, "risk", "scenario") as f64,
        "count",
    );
    report.metric(
        "hose.generate_tms_us",
        p50(&tr.self_ns("hose.generate_tms")) / 1e3,
        "us",
    );
    report.metric("hose.tms", tms as f64, "count");

    if workload != Workload::Approval {
        return None;
    }
    let started = Instant::now();
    approval::batch(&inputs, &mut Report::default());
    let plain_s = started.elapsed().as_secs_f64();
    Some(traced_s / plain_s)
}

/// The enforcement engine: set-up, per-cycle cost and its per-host
/// slope. Returns the trace overhead ratio when `workload` is `fleet`.
fn profile_enforcement(
    workload: Workload,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Option<f64> {
    let engine =
        |hosts: usize, cycles: usize, name: &'static str, tr: &mut Tracer, report: &mut Report| {
            let cfg = fleet::config(hosts, cycles, seed);
            let offered = if cycles == 0 {
                1.0
            } else {
                fleet::offered_bps(&cfg)
            };
            for _ in 0..FLEET_REPS {
                report.attempted += 1;
                let out = tr.span(name, || run_fleet_engine(&cfg));
                let problems = match out {
                    Ok(out) => fleet::check_run(&cfg, &out, offered),
                    Err(e) => vec![e],
                };
                report.failed += u64::from(!problems.is_empty());
                for p in problems {
                    report.fail(0, p);
                }
            }
            stats::median(&tr.self_ns(name)) / 1e9
        };
    let setup = engine(fleet::HOSTS, 0, "enforcement.setup", tr, report);
    let run = engine(fleet::HOSTS, fleet::CYCLES, "enforcement.run", tr, report);
    let setup_small = engine(SMALL_HOSTS, 0, "enforcement.setup_small", tr, report);
    let run_small = engine(
        SMALL_HOSTS,
        fleet::CYCLES,
        "enforcement.run_small",
        tr,
        report,
    );
    let per_cycle = |run: f64, setup: f64| (run - setup) / fleet::CYCLES as f64;
    let (slope, intercept) = stats::line_fit(&[
        (SMALL_HOSTS as f64, per_cycle(run_small, setup_small)),
        (fleet::HOSTS as f64, per_cycle(run, setup)),
    ]);

    // The meter update every host runs per cycle, at the fleet regime.
    let cfg = fleet::config(fleet::HOSTS, 1, seed);
    let (entitled, total) = (cfg.entitled.as_bps(), 2.0 * cfg.entitled.as_bps());
    let mut cr = vec![0.5f64; fleet::HOSTS];
    tr.span("enforcement.meter_update", || {
        for (h, c) in cr.iter_mut().enumerate() {
            let conform = entitled * (1.0 + (h % 7) as f64 * 1e-3);
            *c = StatefulMeter::update_value(black_box(*c), total, conform, entitled, 2.0);
        }
    });
    black_box(&cr);

    report.metric("enforcement.setup_ms", setup * 1e3, "ms");
    report.metric("enforcement.cycle_ms", per_cycle(run, setup) * 1e3, "ms");
    report.metric("enforcement.host_ns", slope * 1e9, "ns");
    report.metric("enforcement.cycle_fixed_us", intercept * 1e6, "us");
    report.metric(
        "enforcement.meter_update_ns",
        total_ns(tr, "enforcement.meter_update") / fleet::HOSTS as f64,
        "ns",
    );

    if workload != Workload::Fleet {
        return None;
    }
    let cfg = fleet::config(fleet::HOSTS, fleet::CYCLES, seed);
    let plain = median_secs(FLEET_REPS, || {
        black_box(run_fleet_engine(&cfg).is_ok());
    });
    Some(run / plain)
}

/// The per-cycle runtime layers the fleet engine drives: shard publish
/// and fan-out fold through the same KV stack the engine builds, and
/// the SLO and watch folds.
fn profile_runtime_layers(tr: &mut Tracer, report: &mut Report) {
    let shards = fleet::SHARDS;
    let cfg = fleet::config(fleet::HOSTS, 1, 0);
    let store = Arc::new(ShardedStore::new(StoreConfig {
        shards,
        ttl: Duration::from_millis(cfg.cycle_ms * 4),
    }));
    let kv = ObservedKv::new(
        ChaosStore::new(store, Arc::new(FaultPlan::none())),
        &Obs::disabled(),
    );
    let total_prefix = format!("rates/{}/{}/total/", cfg.npg.0, cfg.qos);
    let conform_prefix = format!("rates/{}/{}/conform/", cfg.npg.0, cfg.qos);
    let mut fan = ShardFanout::new(shards, cfg.staleness_cycles * cfg.cycle_ms);
    let mut slo = SloEvaluator::new(SloPolicy::default());
    let mut watch = WatchEvaluator::new(WatchPolicy::default());
    let obs = Obs::disabled();
    let entitled = cfg.entitled.as_bps();
    let demand = 2.0 * entitled;
    let per_shard = demand / shards as f64;
    for cycle in 1..=PROBE_CYCLES {
        let now_ms = cycle * cfg.cycle_ms;
        for s in 0..shards {
            let entries = [
                (format!("{total_prefix}s{s}"), per_shard),
                (format!("{conform_prefix}s{s}"), per_shard / 2.0),
            ];
            let r = tr.span("kvstore.put_shard_batch", || {
                kv.try_put_shard_batch(s, &entries, now_ms)
            });
            if r.is_err() {
                report.fail(1, format!("put_shard_batch failed on shard {s}"));
            }
        }
        let snap = tr.span("kvstore.fanout_refresh", || {
            fan.refresh(&kv, &total_prefix, now_ms)
        });
        let folded = snap.fold().unwrap_or(f64::NAN);
        if (folded - demand).abs() > demand * 1e-12 {
            report.fail(1, format!("fan-out fold {folded} != published {demand}"));
        }
        let interval = IntervalObs {
            entity: cfg.npg.to_string(),
            qos: cfg.qos.to_string(),
            target: cfg.slo_target,
            demand_bps: demand,
            delivered_bps: entitled,
            approved_bps: entitled,
            measurable: true,
        };
        tr.span("slo.observe", || slo.observe(&obs, &interval));
        let cycle_obs = CycleObs {
            entity: cfg.npg.to_string(),
            qos: cfg.qos.to_string(),
            demand_bps: demand,
            delivered_bps: entitled,
            approved_bps: entitled,
            marked_fraction: 0.5,
            conform_fraction: 0.5,
            staleness_ms: 0.0,
            measurable: true,
        };
        tr.span("watch.observe_cycle", || {
            watch.observe_cycle(&obs, &cycle_obs)
        });
        let values = vec![per_shard; shards];
        let (entity, qos) = (cfg.npg.to_string(), cfg.qos.to_string());
        tr.span("watch.observe_shards", || {
            watch.observe_shards(&obs, &entity, &qos, folded, &values)
        });
    }
    report.attempted += PROBE_CYCLES * (shards as u64 + 1);
    let us = |name: &str| p50(&tr.self_ns(name)) / 1e3;
    report.metric(
        "kvstore.put_shard_batch_us",
        us("kvstore.put_shard_batch"),
        "us",
    );
    report.metric(
        "kvstore.fanout_refresh_us",
        us("kvstore.fanout_refresh"),
        "us",
    );
    report.metric("slo.observe_us", us("slo.observe"), "us");
    report.metric("watch.observe_cycle_us", us("watch.observe_cycle"), "us");
    report.metric("watch.observe_shards_us", us("watch.observe_shards"), "us");
}
