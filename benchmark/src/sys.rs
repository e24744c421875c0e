//! What the benchmark reads from the machine it runs on: where it may
//! write, its own memory and CPU use, and the environment block every
//! result carries.

use crate::json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use trajshare_core::{crc, kernels};

/// The one directory the benchmark writes to: `out/` next to its own
/// manifest (data dirs, traces, result files). `cargo run` exports the
/// manifest directory at run time; a binary started directly falls
/// back to where it was built.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest).join("out")
}

/// A fresh, empty scratch directory under [`out_dir`].
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = out_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
    dir
}

fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time this process (all threads) has used, ns. `/proc` counts in
/// clock ticks; Linux fixes `USER_HZ` at 100 on every architecture
/// this repository builds for.
pub fn cpu_time_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(fields.next()) + ticks(fields.next())) * NS_PER_TICK
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The machine and build a result was measured on.
pub fn environment(seed: u64) -> Value {
    let out = out_dir();
    let _ = std::fs::create_dir_all(&out);
    Value::obj([
        ("available_parallelism", Value::Num(parallelism() as f64)),
        ("cpu_model", Value::str(cpu_model())),
        ("crc_kernel", Value::str(crc::kernel_name())),
        ("counter_kernel", Value::str(kernels::kernel_name())),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("data_dir", Value::str(out.display().to_string())),
        ("data_dir_filesystem", Value::str(filesystem_of(&out))),
        ("seed", Value::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mib() > 0.5);
        let before = cpu_time_ns();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
        }
        assert!(
            cpu_time_ns() >= before + 30_000_000,
            "a 60 ms spin shows as CPU time"
        );
        assert!(out_dir().ends_with("out"));
    }
}
