//! Wall-clock benchmark of the entitlement system's two serving paths:
//! contract admission through the entitlement market (and the batch
//! hose approval behind it) and the sharded fleet metering cycle.
//!
//! ```text
//! wallbench --workload <market-steady|market-exhausted|fleet|approval>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` reruns the
//! layers under benchmark-owned spans and prints the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every output check passed.

mod approval;
mod fleet;
mod host;
mod layers;
mod market;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MarketSteady,
    MarketExhausted,
    Fleet,
    Approval,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::MarketSteady,
        Workload::MarketExhausted,
        Workload::Fleet,
        Workload::Approval,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MarketSteady => "market-steady",
            Workload::MarketExhausted => "market-exhausted",
            Workload::Fleet => "fleet",
            Workload::Approval => "approval",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = value("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("bad --trace {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (admits, engine runs, approval rounds).
    pub attempted: u64,
    /// Operations that returned an error, panicked, or whose output
    /// failed a check. A denied admit is a decision, not a failure.
    pub failed: u64,
    /// Every failed check, described.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a failed check against `ops` operations.
    pub fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Exit code: 0 only when every check passed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Shortest round-trip decimal: every digit as measured.
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {v:?}, "unit": "{unit}"}}"#
            );
        }
        out.push_str("}}");
        out
    }
}

/// Run `pass` repeatedly until `seconds` of passes have elapsed and at
/// least `min_passes` ran. Returns each pass's result.
pub fn repeat_for<T>(seconds: f64, min_passes: usize, mut pass: impl FnMut() -> T) -> Vec<T> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || started.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// Run `f`, turning a panic into `None` (the panic message still goes
/// to standard error): a panic fails the operation, not the run.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Median seconds of `reps` timed calls to `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!(
                "usage: wallbench --workload <market-steady|market-exhausted|fleet|approval> \
--seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };

    let ticks_before = host::CpuTicks::read();
    let started = Instant::now();
    let report = if args.trace {
        let mut tracer = spans::Tracer::new(true);
        let report = layers::profile(args.workload, args.seed, &mut tracer);
        let path = format!(
            ".bench_spans/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_spans")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("wallbench: cannot write spans to {path}: {e}");
        }
        report
    } else {
        match args.workload {
            Workload::MarketSteady | Workload::MarketExhausted => {
                market::run(args.workload, args.seed, args.seconds)
            }
            Workload::Fleet => fleet::run(args.seed, args.seconds),
            Workload::Approval => approval::run(args.seed, args.seconds),
        }
    };
    let ticks = host::CpuTicks::read().since(ticks_before);

    for p in &report.problems {
        eprintln!("wallbench: CHECK FAILED: {p}");
    }
    println!(
        "wallbench-host: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
\"cpu\": \"{}\", \"rev\": \"{}\", \"wall_s\": {:?}, \"ticks_user\": {}, \"ticks_system\": {}, \
\"ticks_idle\": {}, \"ticks_steal\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        host::git_revision(),
        started.elapsed().as_secs_f64(),
        ticks.user,
        ticks.system,
        ticks.idle,
        ticks.steal,
    );
    println!("{}", report.to_json());
    std::process::exit(report.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload fleet --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload fleet --seconds 1")).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect_and_exit_nonzero() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("x", 1.5, "s");
        assert!(r.correct());
        assert_eq!(r.exit_code(), 0);
        r.fail(1, "doctored".into());
        assert!(!r.correct());
        assert_eq!(r.exit_code(), 1);
        assert_eq!(
            r.to_json(),
            r#"{"correct": false, "attempted": 10, "failed": 1, "metrics": {"x": {"value": 1.5, "unit": "s"}}}"#
        );
    }
}
