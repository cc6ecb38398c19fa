//! The host facts printed next to every result.

use rps_core::ExecConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What the host and build looked like for one run.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs the launcher could use before it pinned the run (what
    /// `nproc` reports).
    pub nproc: usize,
    /// CPUs this process may run on (1 when the launcher pinned it).
    pub affinity_cpus: usize,
    /// The CPU the launcher pinned the run to, if it did.
    pub pinned_cpu: Option<usize>,
    /// CPUs a calibration spin actually got before pinning: `nproc`
    /// threads each do the single-thread spin's work, and the speed-up
    /// over one thread is the effective CPU count.
    pub effective_cpus: f64,
    /// `ExecConfig::default().resolved_workers()`.
    pub workers: usize,
    /// `ExecConfig::default().resolved_shards()`.
    pub shards: usize,
    /// Whether `RPS_SHARDS` is set.
    pub rps_shards_set: bool,
    /// The commit `.git/HEAD` names, or `unknown` outside a git checkout.
    pub git_commit: String,
}

/// Launcher environment: `nproc` before pinning.
pub const ENV_NPROC: &str = "PERFBENCH_NPROC";
/// Launcher environment: the CPU the run is pinned to.
pub const ENV_CPU: &str = "PERFBENCH_CPU";
/// Launcher environment: effective CPUs measured before pinning.
pub const ENV_EFFECTIVE_CPUS: &str = "PERFBENCH_EFFECTIVE_CPUS";

fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Host {
    /// Probes the host. `repo` is the repository root. Facts the
    /// launcher measured before pinning the run come from its
    /// environment; without a launcher they are measured here.
    pub fn probe(repo: &Path) -> Host {
        let exec = ExecConfig::default();
        Host {
            nproc: env_parse(ENV_NPROC).unwrap_or_else(available),
            affinity_cpus: available(),
            pinned_cpu: env_parse(ENV_CPU),
            effective_cpus: env_parse(ENV_EFFECTIVE_CPUS).unwrap_or_else(calibrate),
            workers: exec.resolved_workers(),
            shards: exec.resolved_shards(),
            rps_shards_set: std::env::var_os("RPS_SHARDS").is_some(),
            git_commit: git_commit(repo),
        }
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Effective CPUs of this process: one spinning thread per available
/// CPU, against one thread alone.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 20_000_000;
    let nproc = available();
    black_box(spin(ITERS / 10));
    let t = Instant::now();
    black_box(spin(ITERS));
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..nproc {
            s.spawn(|| black_box(spin(ITERS)));
        }
    });
    let all = t.elapsed().as_secs_f64();
    if all > 0.0 {
        nproc as f64 * one / all
    } else {
        nproc as f64
    }
}

/// Reads the commit from `.git/HEAD` and the loose ref it names,
/// without running git.
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let head = read(&git.join("HEAD")).unwrap_or_default();
    let commit = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&git.join(name)).map(|s| s.trim().to_string()),
    };
    commit
        .filter(|c| c.len() == 40 && c.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}
