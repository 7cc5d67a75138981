//! Process CPU time from `/proc/self/stat`: user plus system time of
//! every thread, living or joined, so a wall-clock win bought with a
//! second core still shows.

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// fixed at 100 on Linux whatever the kernel's own tick rate is).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_seconds() -> std::io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    parse_cpu_seconds(&stat).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unexpected /proc/self/stat layout",
        )
    })
}

/// `utime + stime` (fields 14 and 15) of one `/proc/<pid>/stat` line, in
/// seconds. The command name (field 2) may hold spaces and parentheses,
/// so fields are counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_past_an_awkward_command_name() {
        let line = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_cpu_seconds("42 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn own_cpu_time_grows_with_work() {
        let before = process_cpu_seconds().unwrap();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed() < std::time::Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = process_cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after}");
    }
}
