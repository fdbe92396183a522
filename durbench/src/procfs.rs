//! Per-thread CPU and process memory, read from `/proc/self`.
//!
//! Broker CPU is attributed by thread name: the threaded runtime names
//! each worker after its node (`phb`, `ib`, `shb`, `subhost`), and
//! `/proc/self/task/<tid>/{comm,stat}` gives each thread's user and
//! system time in clock ticks. Their sum is also read, at nanosecond
//! resolution, as the on-CPU time in `/proc/self/task/<tid>/schedstat`
//! (tick counts quantise a one-second window to about 2%).

use std::collections::BTreeMap;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every mainstream Linux ABI).
pub const TICKS_PER_S: f64 = 100.0;

/// User and system CPU of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Time spent in user mode, clock ticks.
    pub user: u64,
    /// Time spent in the kernel on the thread's behalf, clock ticks.
    pub sys: u64,
    /// User plus system time in nanoseconds (0 when `schedstat` is
    /// unavailable).
    pub run_ns: u64,
}

impl ThreadCpu {
    /// `self - earlier`, saturating at zero.
    pub fn since(self, earlier: ThreadCpu) -> ThreadCpu {
        ThreadCpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
        }
    }

    /// User time in microseconds.
    pub fn user_us(self) -> f64 {
        self.user as f64 * 1e6 / TICKS_PER_S
    }

    /// System time in microseconds.
    pub fn sys_us(self) -> f64 {
        self.sys as f64 * 1e6 / TICKS_PER_S
    }

    /// User plus system time in microseconds, at nanosecond resolution
    /// where available.
    pub fn total_us(self) -> f64 {
        if self.run_ns > 0 {
            self.run_ns as f64 / 1e3
        } else {
            self.user_us() + self.sys_us()
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: ThreadCpu) {
        self.user += other.user;
        self.sys += other.sys;
        self.run_ns += other.run_ns;
    }
}

/// Parses the `utime` and `stime` fields out of one `/proc/.../stat`
/// line. The command name (field 2) is parenthesised and may itself
/// contain spaces and parentheses, so parsing starts after the *last*
/// closing parenthesis.
pub fn parse_stat(line: &str) -> Option<ThreadCpu> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15 of the whole line.
    Some(ThreadCpu {
        user: fields.get(11)?.parse().ok()?,
        sys: fields.get(12)?.parse().ok()?,
        run_ns: 0,
    })
}

/// Parses the on-CPU nanoseconds (first field) of a `schedstat` line.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// CPU of every thread of this process, summed by thread name.
pub fn threads_by_name() -> BTreeMap<String, ThreadCpu> {
    let mut out: BTreeMap<String, ThreadCpu> = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("stat")),
        ) else {
            continue;
        };
        if let Some(mut cpu) = parse_stat(&stat) {
            cpu.run_ns = std::fs::read_to_string(path.join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s))
                .unwrap_or(0);
            out.entry(comm.trim_end_matches('\n').to_owned())
                .or_default()
                .add(cpu);
        }
    }
    out
}

/// Parses a `kB` field such as `VmHWM` out of `/proc/self/status` text.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(field)?.strip_prefix(':')?;
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Parses the aggregate `cpu` line of `/proc/stat` into its first eight
/// tick counters: user, nice, system, idle, iowait, irq, softirq, steal.
pub fn parse_machine_cpu(stat: &str) -> Option<[u64; 8]> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let mut out = [0u64; 8];
    let mut fields = line.split_whitespace().skip(1);
    for v in &mut out {
        *v = fields.next()?.parse().ok()?;
    }
    Some(out)
}

/// The machine's cumulative CPU tick counters (see [`parse_machine_cpu`]).
pub fn machine_cpu() -> Option<[u64; 8]> {
    parse_machine_cpu(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Share of all CPU time between two [`machine_cpu`] readings that the
/// hypervisor ran something else on this machine's virtual CPUs
/// (steal): time the benchmark's threads were runnable but not running.
pub fn steal_frac(before: [u64; 8], after: [u64; 8]) -> f64 {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a - b.min(*a))
        .collect();
    let total: u64 = d.iter().sum();
    if total == 0 {
        0.0
    } else {
        d[7] as f64 / total as f64
    }
}
