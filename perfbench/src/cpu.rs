//! Keeps the whole benchmark on one CPU.
//!
//! On a shared 2-vCPU host every hand-off between threads on different
//! CPUs (listener worker → engine replica → verdict consumer → load
//! generator) waits for the host to run the other vCPU, and that wait grew
//! sub-millisecond latencies threefold whenever neighbours were busy. On
//! one CPU a woken thread runs as soon as the current one blocks, so the
//! figures measure the program's work rather than the host's scheduling.
//! Threads inherit the mask, so this must run before any thread starts.

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// `cpu_set_t`: 1024 bits.
    pub const SET_BYTES: usize = 128;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u8) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u8) -> c_int;
    }
}

/// Restrict the calling thread, and every thread it starts later, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` when the
/// mask could not be read or set (the run then uses every CPU).
#[cfg(target_os = "linux")]
pub fn pin_to_one() -> Option<usize> {
    let mut mask = [0u8; sys::SET_BYTES];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    if unsafe { sys::sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..8 * sys::SET_BYTES).find(|&i| mask[i / 8] & (1 << (i % 8)) != 0)?;
    let mut one = [0u8; sys::SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above; the kernel only reads `one`.
    if unsafe { sys::sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one() -> Option<usize> {
    None
}
