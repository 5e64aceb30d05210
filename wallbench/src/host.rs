//! What a run records about the machine it ran on, so that a contended
//! or odd run can be told apart from a regression.

/// Worker count for the parallel paths: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model line of `/proc/cpuinfo` with its `model` number.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.split(':').next().map(str::trim) == Some(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    match (field("model name"), field("model")) {
        (Some(name), Some(model)) => format!("{name} (model {model})"),
        (Some(name), None) => name,
        _ => "unknown".to_string(),
    }
}

/// The revision the benchmark was built from: `git rev-parse` when the
/// tree is a git checkout, else `unknown`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    pub user: u64,
    pub system: u64,
    pub idle: u64,
    pub steal: u64,
}

impl CpuTicks {
    pub fn read() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // cpu  user nice system idle iowait irq softirq steal ...
        CpuTicks {
            user: at(0) + at(1),
            system: at(2),
            idle: at(3) + at(4),
            steal: at(7),
        }
    }

    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            system: self.system.saturating_sub(earlier.system),
            idle: self.idle.saturating_sub(earlier.idle),
            steal: self.steal.saturating_sub(earlier.steal),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
