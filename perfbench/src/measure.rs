//! Measurement primitives: the host-speed yardstick, process CPU time,
//! peak resident set, bytes written, and order statistics.
//!
//! Nothing here calls into minedig, so no change to the library can
//! speed up the yardstick the benchmark scales its times by.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the yardstick sorts, and how many of them it also counts in a
/// string-keyed hash map, per round.
const YARDSTICK_KEYS: usize = 1 << 17;
const YARDSTICK_MAP_KEYS: usize = 30_000;
const YARDSTICK_ROUNDS: u64 = 6;

/// A fast yardstick reading on the reference host (a 2-core x86-64
/// container). Scaled times are in reference-host seconds: `raw ×
/// YARDSTICK_REF_S / reading`.
const YARDSTICK_REF_S: f64 = 0.05;

/// The benchmark's own fixed mixed workload for gauging host speed:
/// sorting 1 MiB of pseudo-random keys and counting formatted string
/// keys in a hash map. Like the campaigns it allocates, branches,
/// hashes and misses cache, so it slows down under the same neighbour
/// contention; a pure arithmetic loop does not. It runs on the calling
/// thread only: a second lane would also gauge whether the host's
/// second core is free, which swings from one second to the next and
/// moves the mostly sequential campaigns far less. Its buffers are
/// allocated once, so its share of the peak resident set is the same
/// in every run.
pub struct Yardstick {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    counts: HashMap<String, u64>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let keys: Vec<u64> = (0..YARDSTICK_KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut stick = Yardstick {
            sorted: keys.clone(),
            keys,
            counts: HashMap::with_capacity(YARDSTICK_MAP_KEYS),
        };
        stick.measure();
        stick
    }

    /// Times one pass; returns wall seconds.
    pub fn measure(&mut self) -> f64 {
        let start = Instant::now();
        let mut total = 0u64;
        for round in 0..YARDSTICK_ROUNDS {
            self.sorted.copy_from_slice(&self.keys);
            self.sorted.sort_unstable();
            self.counts.clear();
            for (i, k) in self.keys.iter().take(YARDSTICK_MAP_KEYS).enumerate() {
                *self
                    .counts
                    .entry(format!("key-{}-{round}", k % 100_000))
                    .or_insert(0) += i as u64;
            }
            total = total
                .wrapping_add(self.sorted[YARDSTICK_KEYS / 2])
                .wrapping_add(self.counts.len() as u64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        black_box(total);
        elapsed
    }
}

/// `raw` seconds in reference-host seconds, given the yardstick
/// `reading` taken next to them. Host speed on a shared host swings
/// within seconds, so each repetition is scaled by the reading taken
/// right after it, and the run reports the median of the scaled
/// repetitions.
pub fn scaled(raw: f64, reading: f64) -> f64 {
    raw * YARDSTICK_REF_S / reading
}

/// Host-speed factor of a reading (1.0 at the reference reading, < 1
/// when the host runs slow); printed for information only.
pub fn speed_factor(reading: f64) -> f64 {
    YARDSTICK_REF_S / reading
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// Restricts this process, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on; returns that CPU.
///
/// The reference host does not balance load between its CPUs (its
/// cpusets have `sched_load_balance` 0), so a thread stays on the CPU of
/// the thread that started it unless a wake-up happens to move it.
/// Whether `crawl`'s second shard ran beside the first was therefore
/// chance, and it moved that workload's run time between runs by far
/// more than its bound. Pinned, every run gets the same placement.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> usize {
    let size = CPU_SET_WORDS * std::mem::size_of::<u64>();
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // the layout of a `cpu_set_t` on 64-bit Linux; pid 0 is this thread.
    let rc = unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .expect("the affinity mask names at least one CPU");
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the buffer is only read.
    let rc = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to CPU {cpu} failed");
    cpu
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process so far, including
/// threads that have already exited.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: on 64-bit Linux `struct rusage` is two `struct timeval`s
    // (two 64-bit fields each) followed by fourteen `long`s, which is
    // exactly `Rusage`'s `repr(C)` layout; the pointer is to a live,
    // writable value of that type for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

fn proc_field(path: &str, key: &str) -> u64 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{path} has no numeric {key} field"))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 * 1024.0 / 1e6
}

/// Bytes this process has passed to write-type syscalls so far
/// (`wchar` of `/proc/self/io`).
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn pinning_keeps_one_allowed_cpu() {
        let cpu = std::thread::spawn(pin_to_one_cpu).join().unwrap();
        let allowed = proc_field_text("/proc/self/status", "Cpus_allowed_list:");
        assert!(
            allowed.split(',').any(|r| match r.split_once('-') {
                Some((lo, hi)) => (lo.parse().unwrap()..=hi.parse().unwrap()).contains(&cpu),
                None => r.parse::<usize>().unwrap() == cpu,
            }),
            "CPU {cpu} is not in {allowed}"
        );
    }

    fn proc_field_text(path: &str, key: &str) -> String {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap()
            .trim()
            .to_string()
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let before = bytes_written();
        std::io::Write::write_all(&mut std::io::sink(), b"x").unwrap();
        assert!(bytes_written() >= before);
    }
}
