//! `/proc` read as text (no libc): process CPU ticks, peak RSS, per-thread
//! on-CPU and run-queue-wait time, context switches, host steal.
//!
//! Every parser is a pure function of the file's text so it can be tested
//! on canned input; the readers below them only add the `read_to_string`.

use std::fs;
use std::io::{Read, Seek, SeekFrom};

/// Kernel clock ticks per second (`USER_HZ`): the unit of `utime`/`stime`
/// in `/proc/<pid>/stat`. It has been 100 on every Linux ABI since 2.6 and
/// cannot be queried without libc.
pub const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state(3) ... utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number on the `key:` line of `/proc/<pid>/status` (kB for the `Vm*`
/// rows, a plain count for the context-switch rows).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// `(on_cpu_ns, runqueue_wait_ns)` from `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// `(total, steal)` jiffies from the aggregate `cpu` row of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<(u64, u64)> {
    let row = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = row
        .split_ascii_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so it is left out of the total.
    let steal = *fields.get(7)?;
    Some((fields.iter().take(8).sum(), steal))
}

/// One thread's scheduler counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadSample {
    pub tid: u32,
    pub name: String,
    pub on_cpu_ns: u64,
    pub runq_wait_ns: u64,
    pub vol_switches: u64,
}

/// Process CPU in seconds (all threads, user + system).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / TICKS_PER_SEC
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_field(&status, "VmHWM").expect("VmHWM row") as f64 / 1024.0
}

/// Host `(total, steal)` jiffies.
pub fn host_cpu() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    parse_host_cpu(&stat).expect("cpu row of /proc/stat")
}

/// Scheduler counters of every live thread of this process. A thread that
/// exits between the directory listing and the reads is skipped.
pub fn threads() -> Vec<ThreadSample> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let base = entry.path();
        let read = |file: &str| fs::read_to_string(base.join(file)).ok();
        let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let Some((on_cpu_ns, runq_wait_ns)) = parse_schedstat(&sched) else {
            continue;
        };
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        out.push(ThreadSample {
            tid,
            name: comm.trim_end().to_string(),
            on_cpu_ns,
            runq_wait_ns,
            vol_switches: parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
        });
    }
    out
}

/// The calling thread's own run-queue wait, re-read from one open file.
///
/// The kernel books a wait at the moment the thread gets back on a CPU, so
/// the figure a thread reads about itself is exact: the difference across a
/// piece of code is the time that code spent pre-empted, which is what turns
/// a wall-clock span into an on-CPU one.
pub struct OwnRunDelay(fs::File);

impl OwnRunDelay {
    /// Must be called on the thread that will read it: `thread-self` is
    /// resolved when the file is opened.
    pub fn open() -> Option<Self> {
        fs::File::open("/proc/thread-self/schedstat")
            .ok()
            .map(OwnRunDelay)
    }

    pub fn read_ns(&mut self) -> Option<u64> {
        let mut buf = [0u8; 96];
        self.0.seek(SeekFrom::Start(0)).ok()?;
        let n = self.0.read(&mut buf).ok()?;
        parse_schedstat(std::str::from_utf8(&buf[..n]).ok()?).map(|(_, wait)| wait)
    }
}

/// What the threads whose name starts with `prefix` accrued between two
/// samples, matched by tid (names repeat: the kernel cuts them to 15
/// bytes). A thread that exited in between contributes nothing.
pub fn group_delta(start: &[ThreadSample], end: &[ThreadSample], prefix: &str) -> ThreadSample {
    let mut sum = ThreadSample {
        name: prefix.to_string(),
        ..ThreadSample::default()
    };
    for e in end.iter().filter(|t| t.name.starts_with(prefix)) {
        let zero = ThreadSample::default();
        let s = start.iter().find(|t| t.tid == e.tid).unwrap_or(&zero);
        sum.on_cpu_ns += e.on_cpu_ns.saturating_sub(s.on_cpu_ns);
        sum.runq_wait_ns += e.runq_wait_ns.saturating_sub(s.runq_wait_ns);
        sum.vol_switches += e.vol_switches.saturating_sub(s.vol_switches);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (live) bench (x)) R 1 4242 1 0 -1 4194304 80 0 0 0 \
                    1234 766 0 0 20 0 13 0 510412 2703360 287 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(2000));
        assert_eq!(parse_stat_cpu_ticks("no paren"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_rows_by_exact_key() {
        let status = "Name:\tlivebench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\n\
                      VmRSS:\t  100000 kB\nvoluntary_ctxt_switches:\t77\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(123_456));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(77)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(5)
        );
        assert_eq!(parse_status_field(status, "VmSwap"), None);
    }

    #[test]
    fn schedstat_and_host_rows() {
        assert_eq!(
            parse_schedstat("812345 58003 17\n"),
            Some((812_345, 58_003))
        );
        assert_eq!(parse_schedstat(""), None);
        let stat = "cpu  294555 0 223043 424446 3311 0 55688 1305 9 9\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let total = 294_555 + 223_043 + 424_446 + 3311 + 55_688 + 1305;
        assert_eq!(parse_host_cpu(stat), Some((total, 1305)));
    }

    #[test]
    fn group_deltas_match_threads_by_tid() {
        let t = |tid, name: &str, cpu| ThreadSample {
            tid,
            name: name.into(),
            on_cpu_ns: cpu,
            runq_wait_ns: cpu / 2,
            vol_switches: cpu / 10,
        };
        let start = [
            t(1, "canopus-reactor", 100),
            t(2, "canopus-reactor", 200),
            t(3, "node-4", 50),
        ];
        let end = [
            t(1, "canopus-reactor", 150),
            t(2, "canopus-reactor", 400),
            t(9, "node-0", 40), // started in between; node-4 exited
        ];
        let reactor = group_delta(&start, &end, "canopus-reactor");
        assert_eq!(
            (
                reactor.on_cpu_ns,
                reactor.runq_wait_ns,
                reactor.vol_switches
            ),
            (250, 125, 25)
        );
        assert_eq!(group_delta(&start, &end, "node-").on_cpu_ns, 40);
        assert_eq!(group_delta(&start, &end, "loadgen").on_cpu_ns, 0);
    }

    #[test]
    fn own_run_delay_is_monotonic() {
        let mut own = OwnRunDelay::open().expect("schedstat of this thread");
        let a = own.read_ns().expect("first read");
        std::thread::yield_now();
        let b = own.read_ns().expect("second read of the same file");
        assert!(b >= a);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(rss_peak_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        assert!(!threads().is_empty());
        assert!(host_cpu().0 > 0);
    }
}
