//! Worker memory readings: peak resident set (`VmHWM`) of the child
//! processes the fleet spawned, from `/proc/<pid>/status`.

/// The value of a `Key:  <number> ...` line of a `/proc/<pid>/status`
/// text.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size in KiB (`VmHWM`), as the kernel reports it.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status_field(status, "VmHWM")
}

/// The parent process id (`PPid`).
pub fn parse_ppid(status: &str) -> Option<u32> {
    status_field(status, "PPid").and_then(|pid| u32::try_from(pid).ok())
}

/// The command name (`Name`), which the kernel truncates to 15 bytes.
pub fn parse_name(status: &str) -> Option<&str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("Name:"))
        .map(str::trim)
}

/// `(pid, VmHWM KiB)` of every live child of `parent` whose command
/// name is `name` (compared on the kernel's 15-byte truncation).
pub fn children_peak_rss_kib(parent: u32, name: &str) -> Vec<(u32, u64)> {
    let comm: String = name.chars().take(15).collect();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut found: Vec<(u32, u64)> = entries
        .filter_map(|entry| {
            let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
            let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
            (parse_ppid(&status)? == parent && parse_name(&status)? == comm)
                .then(|| parse_vm_hwm_kib(&status).map(|kib| (pid, kib)))
                .flatten()
        })
        .collect();
    found.sort_unstable();
    found
}
