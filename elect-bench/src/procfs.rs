//! Process counters and host provenance from `/proc` (Linux), and a probe
//! of the host's current speed.
//!
//! Every reader degrades to zero or `"unknown"` when its file is missing,
//! so the benchmark still runs, with less context, elsewhere.

use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// A snapshot of this process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads, live and exited.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Time the calling thread spent runnable but waiting for a CPU.
    pub runq_wait_s: f64,
    /// Host-wide CPU time stolen from this machine by its hypervisor,
    /// summed over CPUs.
    pub steal_s: f64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let (cpu_s, minflt) = read_stat().unwrap_or((0.0, 0));
        ProcSample {
            cpu_s,
            minflt,
            runq_wait_s: read_runq_wait().unwrap_or(0.0),
            steal_s: read_steal().unwrap_or(0.0),
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_s: self.cpu_s - earlier.cpu_s,
            minflt: self.minflt.saturating_sub(earlier.minflt),
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }
}

/// `(utime + stime in seconds, minflt)` from `/proc/self/stat`.
fn read_stat() -> Option<(f64, u64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces;
    // `rest[0]` is field 3 (state).
    let rest: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |k: usize| rest.get(k - 3)?.parse::<u64>().ok();
    let ticks = field(14)? + field(15)?;
    Some((ticks as f64 / USER_HZ, field(10)?))
}

/// Run-queue wait of the calling thread, from its `schedstat`.
fn read_runq_wait() -> Option<f64> {
    let s = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let wait_ns: u64 = s.split_whitespace().nth(1)?.parse().ok()?;
    Some(wait_ns as f64 * 1e-9)
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn read_steal() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS, so a
/// later [`peak_rss_mb`] measures only what follows. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line describing the host and how busy it is: core count, CPU
/// model, kernel, source revision, and the load average.
pub fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease");
    let load = read_trimmed("/proc/loadavg");
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "host nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rev={} loadavg={}",
        git_describe(),
        load.join(",")
    )
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// `git describe --always --dirty` of the working directory, confined to
/// it: `GIT_CEILING_DIRECTORIES` stops git from describing an enclosing
/// repository when the working directory is a plain export.
fn git_describe() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(|d| d.parent());
    let mut cmd = Command::new("git");
    cmd.args(["describe", "--always", "--dirty"]);
    if let Some(p) = ceiling {
        cmd.env("GIT_CEILING_DIRECTORIES", p);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "none".into(),
    }
}

/// Nanoseconds per step of a fixed integer loop that touches no memory
/// and calls no workspace code: the median of five timings. On a shared
/// host a neighbour can slow this VM's cores without any run-queue wait
/// or steal time showing inside it; this figure rises with it.
pub fn host_probe_ns() -> f64 {
    const STEPS: u32 = 4_000_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..STEPS {
                x ^= x >> 31;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e9 / f64::from(STEPS)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[2]
}
