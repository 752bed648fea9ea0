//! Process and thread resource meters read from `/proc`, so CPU time and
//! memory are measured from outside the program under test.
//!
//! CPU comes from the `utime` and `stime` tick counters of `stat` (the
//! `schedstat` files read all zeros on some kernels). Ticks are in
//! `USER_HZ`, which Linux fixes at 100 per second for `/proc`.

use std::collections::BTreeMap;
use std::fs;

/// `/proc` CPU ticks per second (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// A thread's name and consumed CPU, from one `stat` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// The thread's `comm` (at most 15 bytes; Rust thread names are cut).
    pub name: String,
    /// `utime + stime`, in ticks.
    pub ticks: u64,
}

/// Parse one `/proc/.../stat` line into the thread name and its user plus
/// system ticks. The name sits in parentheses and may itself contain spaces
/// or parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<ThreadCpu> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    // Fields after the name start at field 3 (`state`); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(ThreadCpu { name, ticks: utime + stime })
}

/// The peak resident set size (`VmHWM`) in kB from a `/proc/.../status`
/// text.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(value)
}

/// CPU ticks to milliseconds.
pub fn ticks_to_ms(ticks: u64) -> f64 {
    ticks as f64 * 1000.0 / TICKS_PER_SECOND
}

/// CPU time the whole process has used so far (live and exited threads), in
/// ticks.
pub fn process_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|line| parse_stat(&line))
        .map_or(0, |cpu| cpu.ticks)
}

/// CPU time the calling thread has used so far, in ticks.
pub fn own_thread_ticks() -> u64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|line| parse_stat(&line))
        .map_or(0, |cpu| cpu.ticks)
}

/// Every live thread of this process, by thread id.
pub fn thread_cpu() -> BTreeMap<u64, ThreadCpu> {
    let mut threads = BTreeMap::new();
    let Ok(entries) = fs::read_dir("/proc/self/task") else { return threads };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(cpu) =
            fs::read_to_string(entry.path().join("stat")).ok().and_then(|l| parse_stat(&l))
        {
            threads.insert(tid, cpu);
        }
    }
    threads
}

/// CPU ticks the threads whose name starts with `prefix` used between two
/// [`thread_cpu`] snapshots. A thread born in between counts from zero;
/// one that died in between is lost (the benchmark keeps the threads it
/// measures alive across the window).
pub fn ticks_between(
    before: &BTreeMap<u64, ThreadCpu>,
    after: &BTreeMap<u64, ThreadCpu>,
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(_, cpu)| cpu.name.starts_with(prefix))
        .map(|(tid, cpu)| cpu.ticks.saturating_sub(before.get(tid).map_or(0, |b| b.ticks)))
        .sum()
}

/// The process's peak resident set size so far, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vmhwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (paxml-site-3) S 1 4242 4242 0 -1 4194368 190 0 0 0 \
                        57 13 0 0 20 0 12 0 1234 5678 90 18446744073709551615";

    #[test]
    fn stat_line_yields_name_and_user_plus_system_ticks() {
        assert_eq!(
            parse_stat(STAT),
            Some(ThreadCpu { name: "paxml-site-3".to_string(), ticks: 70 })
        );
    }

    #[test]
    fn names_with_spaces_and_parentheses_parse() {
        let line = STAT.replace("(paxml-site-3)", "(a (b) c)");
        assert_eq!(parse_stat(&line).unwrap().name, "a (b) c");
        assert_eq!(parse_stat(&line).unwrap().ticks, 70);
    }

    #[test]
    fn truncated_stat_lines_are_rejected() {
        assert_eq!(parse_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kilobytes() {
        let status =
            "Name:\tpaxbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(51200));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 1 MB\n"), None);
    }

    #[test]
    fn thread_deltas_filter_by_name_and_count_new_threads_from_zero() {
        let cpu = |name: &str, ticks| ThreadCpu { name: name.to_string(), ticks };
        let before = BTreeMap::from([(1, cpu("paxml-site-0", 10)), (2, cpu("client", 5))]);
        let after = BTreeMap::from([
            (1, cpu("paxml-site-0", 25)),
            (2, cpu("client", 9)),
            (3, cpu("paxml-site-1", 7)),
        ]);
        assert_eq!(ticks_between(&before, &after, "paxml-site-"), 22);
        assert_eq!(ticks_between(&before, &after, "client"), 4);
        assert_eq!(ticks_to_ms(22), 220.0);
    }

    #[test]
    fn this_process_is_visible() {
        assert!(!thread_cpu().is_empty());
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(50) {
            std::hint::black_box(0u64);
        }
        assert!(own_thread_ticks() > 0);
        assert!(peak_rss_mb() > 0.0);
    }
}
