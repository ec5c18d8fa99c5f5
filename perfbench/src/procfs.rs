//! Operating-system counters: `/proc` text parsers and `getrusage`.
//!
//! Every reader returns `None` ("unavailable") when a file or field is
//! missing or malformed; nothing here panics on odd input. CPU time and
//! context switches come from `getrusage`, because `/proc/self/status`
//! counts only the main thread and forgets threads that have exited.

/// A `Name:   value` field of a `/proc/<pid>/status` text, as a number
/// (a trailing unit such as `kB` is ignored).
pub fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        if name.trim() != field {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// A counter of `/proc/net/snmp`, which prints each protocol as a header
/// line of field names followed by a line of values, both prefixed with
/// `Proto:`.
pub fn snmp_field(text: &str, proto: &str, field: &str) -> Option<u64> {
    let prefix = format!("{proto}:");
    let mut lines = text.lines().filter(|l| l.starts_with(&prefix));
    let header = lines.next()?;
    let values = lines.next()?;
    let col = header.split_whitespace().position(|f| f == field)?;
    values.split_whitespace().nth(col)?.parse().ok()
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field(&text, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// UDP datagrams the kernel dropped for a full receive buffer, in this
/// network namespace, since boot.
pub fn udp_rcvbuf_errors() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/snmp").ok()?;
    snmp_field(&text, "Udp", "RcvbufErrors")
}

/// CPU time and context switches of a process or a thread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU, s.
    pub user_s: f64,
    /// System CPU, s.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vol_ctx: u64,
    /// Involuntary context switches.
    pub invol_ctx: u64,
}

impl Usage {
    /// User + system CPU, s.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vol_ctx: self.vol_ctx.saturating_sub(earlier.vol_ctx),
            invol_ctx: self.invol_ctx.saturating_sub(earlier.invol_ctx),
        }
    }
}

/// The whole process, exited threads included.
pub fn process_usage() -> Option<Usage> {
    rusage::read(rusage::SELF)
}

/// The calling thread only.
pub fn thread_usage() -> Option<Usage> {
    rusage::read(rusage::THREAD)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    use super::Usage;

    pub const SELF: i32 = 0;
    pub const THREAD: i32 = 1;

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    /// which the last two are the voluntary and involuntary switches.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub fn read(who: i32) -> Option<Usage> {
        let mut u = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            rest: [0; 14],
        };
        // SAFETY: `u` is a live, writable `struct rusage` of the layout
        // the 64-bit Linux ABI defines; `who` is RUSAGE_SELF or
        // RUSAGE_THREAD, both valid on Linux.
        if unsafe { getrusage(who, &mut u) } != 0 {
            return None;
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Some(Usage {
            user_s: secs(u.utime),
            sys_s: secs(u.stime),
            vol_ctx: u64::try_from(u.rest[12]).ok()?,
            invol_ctx: u64::try_from(u.rest[13]).ok()?,
        })
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod rusage {
    use super::Usage;

    pub const SELF: i32 = 0;
    pub const THREAD: i32 = 1;

    pub fn read(_who: i32) -> Option<Usage> {
        None
    }
}
