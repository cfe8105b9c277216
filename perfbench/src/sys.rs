//! Process and host facts: CPU time, peak memory (from `/proc`) and the
//! run metadata every result carries.

use std::path::Path;
use std::process::{Command, Stdio};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far, to the
/// nanosecond (`/proc/self/stat` counts 10 ms ticks: 2% of a half-second
/// window).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") as f64 / 1024.0
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out =
        Command::new(cmd).args(args).stdin(Stdio::null()).stderr(Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()?.lines().next().map(str::to_owned)
}

/// Host and build facts for the result's metadata line.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned());
        // Only ask git when the working directory is itself a checkout, so
        // an enclosing repository is never reported by mistake.
        let commit = if Path::new(".git").exists() {
            first_line("git", &["rev-parse", "HEAD"])
        } else {
            None
        }
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
        Host {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model,
            kernel,
            rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
            commit,
        }
    }
}
