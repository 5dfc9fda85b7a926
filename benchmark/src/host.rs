//! What the benchmark asks of the machine rather than of the program:
//! one CPU to run on, and the kernel's accounts of CPU time and memory.

extern "C" {
    // glibc; std already links it.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in an affinity mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// Confine this process, and every thread it starts from now on, to the
/// highest-numbered CPU it may use, and return that CPU.
///
/// On the 2-vCPU reference machine a request crosses threads four times,
/// and where the guest's scheduler puts those threads decides whether a
/// wake-up is a context switch (5 µs) or an interrupt to a halted vCPU
/// (25 µs and up, set by the host): left alone, identical runs flip
/// between 35 µs and 105 µs per request. On one CPU every wake-up is a
/// context switch, so the numbers follow the program's own work.
/// `None` (the call failed, or this is not Linux's glibc): the run goes
/// on unpinned and says so.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is `MASK_WORDS * 8` writable bytes, the size passed.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut only = [0u64; MASK_WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is `MASK_WORDS * 8` readable bytes, the size passed.
    (unsafe { sched_setaffinity(0, MASK_WORDS * 8, only.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// CPU ticks so far of `cpu` (of the whole machine when `None`), from
/// `/proc/stat`: `(all states, steal)`.
pub fn cpu_ticks(cpu: Option<usize>) -> (f64, f64) {
    let label = cpu.map_or("cpu".to_string(), |n| format!("cpu{n}"));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next() == Some(label.as_str())).then(|| {
                // user nice system idle iowait irq softirq steal
                fields.take(8).filter_map(|f| f.parse().ok()).collect()
            })
        })
        .unwrap_or_default();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0.0))
}

/// User plus system CPU time of this process so far, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s ticks).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces: count from its ")".
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|field| field.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// `VmHWM` of this process: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kb.unwrap_or(0.0) / 1024.0
}
