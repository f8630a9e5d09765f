//! Thread placement for the load generator.
//!
//! The SQL reader wakes for a few milliseconds at a time. Left to the
//! scheduler it stays on whichever CPU it last ran on — for a whole run
//! either the idle one or the writer's, where it is time-sliced against
//! the refresh. Read latency was bimodal between runs of the same code
//! (3.5 ms or 6.5 ms) for no reason inside the program. So on the one
//! workload that has a reader, the last CPU this process may use is
//! reserved for it and the writer — and with it every thread the service
//! spawns — keeps the others. Workloads without a reader pin nothing.

/// CPUs this thread may run on, ascending. Empty where the platform does
/// not say.
pub fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Restrict the calling thread — and threads it spawns from now on — to
/// `cpus`. Returns whether the kernel accepted it; the benchmark runs
/// unpinned, and says so in its report, when it did not.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    !cpus.is_empty() && imp::pin_current_thread(cpus)
}

#[cfg(target_os = "linux")]
mod imp {
    /// 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its size; pid 0 names the
        // calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin_current_thread(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus {
            if cpu >= WORDS * 64 {
                return false;
            }
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its size; pid 0 names the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpus: &[usize]) -> bool {
        false
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_spawned_thread_inherits_the_pin() {
        let all = allowed_cpus();
        assert!(!all.is_empty());
        std::thread::spawn(move || {
            assert!(pin_current_thread(&all[..1]));
            assert_eq!(allowed_cpus(), all[..1]);
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, all[..1]);
        })
        .join()
        .unwrap();
    }
}
