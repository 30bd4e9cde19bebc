//! What the benchmark reads about its own process and host, from `/proc`
//! and the toolchain — no dependency beyond std.

use std::process::Command;

/// Linux reports process CPU time in `USER_HZ` ticks, which is 100 on
/// every architecture this repo builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process (all threads, children
/// excluded), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The checked-out commit; `unknown` in a checkout that is not a git
/// repository.
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}
