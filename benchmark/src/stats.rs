//! Order statistics and the `/proc` readers behind the CPU and memory
//! metrics.

use std::path::Path;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linearly interpolated percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile of a sorted integer sample (latencies in ns).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // (99.9 / 100 * 1000 is 999.0000000000001 in floating point.)
    let rank = (p.clamp(0.0, 100.0) * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(max − min) / median`: how far apart the segments of one run are.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// On-CPU nanoseconds from the text of a `schedstat` file (its first
/// field); `None` if the text is not a schedstat line.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    let mut fields = text.split_ascii_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    // run-queue wait and timeslice count must be there too.
    fields.next()?.parse::<u64>().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some(on_cpu)
}

/// On-CPU time of one live thread of this process.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub tid: u32,
    pub name: String,
    pub on_cpu_ns: u64,
}

/// On-CPU time of every live thread (`/proc/self/task/*/schedstat`).
/// Threads that come and go between two samples are simply absent from
/// one of them; callers diff by tid.
pub fn thread_cpu() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Some(on_cpu_ns) = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        else {
            continue;
        };
        let name = std::fs::read_to_string(path.join("comm"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default();
        out.push(ThreadCpu {
            tid,
            name,
            on_cpu_ns,
        });
    }
    out
}

/// On-CPU ns gained between two samples by the threads `select` picks
/// (threads absent from `before` count from zero).
pub fn cpu_delta(
    before: &[ThreadCpu],
    after: &[ThreadCpu],
    select: impl Fn(&ThreadCpu) -> bool,
) -> u64 {
    after
        .iter()
        .filter(|t| select(t))
        .map(|t| {
            let base = before
                .iter()
                .find(|b| b.tid == t.tid)
                .map_or(0, |b| b.on_cpu_ns);
            t.on_cpu_ns.saturating_sub(base)
        })
        .sum()
}

/// `clockid_t` of the CPU-time clocks (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std links) writes one
    // `struct timespec` (two 64-bit fields on 64-bit Linux, the only
    // target of this benchmark) through the pointer, which is to a live,
    // properly aligned `Timespec`; it keeps nothing.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU ns of every thread of the process so far, dead ones included,
/// exact at the time of the call (`schedstat` files lag by up to a tick
/// for a running thread and cost a file read per thread, too coarse and
/// too dear for 10-ms pieces).
pub fn process_cpu_clock_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU ns of the calling thread so far.
pub fn thread_cpu_clock_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> Mallinfo2;
}

/// Bytes the process holds allocated right now (heap chunks in use plus
/// mapped blocks, over all of glibc's arenas). Unlike the resident set,
/// which never shrinks and grows by whatever a table's next doubling
/// maps, this follows what the program keeps.
pub fn heap_live_bytes() -> u64 {
    // SAFETY: `mallinfo2` (glibc 2.33+, which std links) takes no
    // argument and returns the struct above by value: ten `size_t`
    // fields in this order.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as u64
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
pub fn status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, field))
        .map_or(0, |kb| kb * 1024)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// Bytes of every regular file under `dir` (hard links counted once per
/// name, as `du -l` would).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for e in entries.flatten() {
        match e.file_type() {
            Ok(t) if t.is_dir() => total += dir_bytes(&e.path()),
            Ok(t) if t.is_file() => total += e.metadata().map_or(0, |m| m.len()),
            _ => {}
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 25.0), 20.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 500);
        assert_eq!(percentile_sorted(&sorted, 99.9), 999);
        assert_eq!(percentile_sorted(&sorted, 100.0), 1000);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
    }

    #[test]
    fn schedstat_parser_takes_the_first_field_and_rejects_junk() {
        assert_eq!(parse_schedstat("123456789 42 7\n"), Some(123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("abc 1 2"), None);
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn cpu_delta_diffs_by_tid_and_filters_by_name() {
        let t = |tid, name: &str, ns| ThreadCpu {
            tid,
            name: name.into(),
            on_cpu_ns: ns,
        };
        let before = [t(1, "main", 100), t(2, "unit", 50)];
        let after = [t(1, "main", 180), t(2, "unit", 90), t(3, "unit", 5)];
        assert_eq!(cpu_delta(&before, &after, |_| true), 80 + 40 + 5);
        assert_eq!(cpu_delta(&before, &after, |t| t.name == "unit"), 45);
        assert_eq!(cpu_delta(&before, &after, |t| t.tid == 1), 80);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(!thread_cpu().is_empty());
        assert!(status_bytes("VmRSS") > 0);
    }
}
