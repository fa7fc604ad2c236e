//! Thread placement: the whole process on one core.
//!
//! Generator, unit thread and the reservoirs' I/O threads take turns on
//! the first core the process is allowed to use, under every workload.
//! Under the closed loops the generator blocks whenever its window of
//! requests is full; under the open loop it blocks on the oldest reply
//! and only busy-waits (yielding) with nothing in flight, so the engine
//! never waits for the core because of it.
//!
//! Why not a core per busy thread: on the two-vCPU VMs this runs on, two
//! threads that are busy side by side and hand work to each other run in
//! spells of one of two speeds (`hot_saturate`: 65 000-75 000 or 100 000-
//! 117 000 ev/s, CPU per event 18 or 13 us, each spell seconds long), and
//! a unit thread that parks on a core of its own halts its vCPU, so every
//! wake-up goes through the host's scheduler, whose latency is whatever
//! the host's other guests leave. A run's numbers then say where its
//! spells fell. Left to the kernel it is worse still: its wake-affine
//! heuristic moves the two threads onto one core and apart again within
//! a run. What one core cannot show is how far client and unit overlap;
//! per-thread busy time in the traced run does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static PINNED: AtomicBool = AtomicBool::new(false);

/// Cores the process may use. Asked once, before any pinning: the answer
/// follows the calling thread's affinity mask, which pinning narrows.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread (the only one so far) to the first core it is
/// allowed on and remember whether that worked. Threads spawned afterwards
/// inherit the core. Where it fails the run goes on unpinned and says so
/// (`pinned=false`).
pub fn to_one_core() {
    cores();
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: both calls (libc, which std links) take pid 0 for the
    // calling thread, the size of the mask in bytes and a pointer to a
    // mask of that size; `allowed` and `one` are live, aligned `CpuSet`s.
    // The first only writes through its pointer, the second only reads.
    let pinned = unsafe { sched_getaffinity(0, size, &mut allowed) } == 0
        && first_set_bit(&allowed).is_some_and(|core| {
            let mut one: CpuSet = [0; 16];
            one[core / 64] = 1 << (core % 64);
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, size, &one) == 0 }
        });
    PINNED.store(pinned, Ordering::Relaxed);
}

fn first_set_bit(set: &CpuSet) -> Option<usize> {
    set.iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
}

/// Whether [`to_one_core`] worked.
pub fn pinned() -> bool {
    PINNED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_allowed_core_is_the_lowest_set_bit() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(first_set_bit(&set), None);
        set[1] = 0b1000;
        assert_eq!(first_set_bit(&set), Some(67));
        set[0] = 0b10;
        assert_eq!(first_set_bit(&set), Some(1));
    }
}
