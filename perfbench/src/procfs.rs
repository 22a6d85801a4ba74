//! Process and thread counters read from Linux `/proc`.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux architecture the workspace builds for).
const USER_HZ: f64 = 100.0;

/// User and system CPU of a whole process (all threads, live and exited).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn add(&self, other: &Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }

    pub fn since(&self, before: &Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - before.user_s,
            sys_s: self.sys_s - before.sys_s,
        }
    }
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let raw = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &raw[raw.rfind(')')? + 1..];
    Some(rest.split_ascii_whitespace().map(str::to_string).collect())
}

pub fn cpu(pid: u32) -> Option<Cpu> {
    let f = stat_fields(pid)?;
    // After the name: state(0) ppid(1) ... utime(11) stime(12).
    let user: f64 = f.get(11)?.parse().ok()?;
    let sys: f64 = f.get(12)?.parse().ok()?;
    Some(Cpu {
        user_s: user / USER_HZ,
        sys_s: sys / USER_HZ,
    })
}

pub fn self_cpu() -> Cpu {
    cpu(std::process::id()).expect("/proc/<self>/stat is readable on Linux")
}

/// CPU time over the process's live threads, ns
/// (`/proc/<pid>/task/*/schedstat`). Nanosecond precision, but blind to
/// threads that already exited: use it for long-lived servers.
pub fn live_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| {
            fs::read_to_string(t.path().join("schedstat"))
                .ok()?
                .split_ascii_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// CPU time of the calling thread, ns (`/proc/thread-self/schedstat`).
/// The kernel updates it at scheduler ticks, so it can lag by one tick:
/// measure intervals of many ticks.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .expect("/proc/thread-self/schedstat is readable on Linux")
}

/// Voluntary plus involuntary context switches over the process's live
/// threads.
pub fn ctx_switches(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += v.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    total
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Live child processes of `parent`, by pid.
pub fn children(parent: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(pid)
                .and_then(|f| f.get(1)?.parse::<u32>().ok())
                .is_some_and(|ppid| ppid == parent)
        })
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_counters_are_readable() {
        // The kernel folds a running thread's time into schedstat at
        // scheduler ticks, so spin for several of them.
        let before = thread_cpu_ns();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_ns() > before, "{x}");
        let c = self_cpu();
        assert!(c.total_s() >= 0.0);
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        assert!(ctx_switches(std::process::id()) > 0);
    }
}
