//! Keep-awake threads: one idle-priority spinner per core while a phase is
//! measured.
//!
//! The sandbox is a virtual machine without a guest idle driver: an idle
//! core executes `HLT`, the hypervisor takes it away, and how fast it comes
//! back on the next wake-up depends on the host's halt-polling state and its
//! other tenants. A socket request crosses four thread wake-ups, so that one
//! host property moved `p50_us` and `cpu_us_per_req` of the same binary by
//! up to 2× between runs minutes apart (REPEATABILITY.md). A `SCHED_IDLE`
//! spinner gives up its core the instant any other thread becomes runnable,
//! so the system under test loses nothing, but the core never halts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `SCHED_IDLE` of `sched(7)`.
const SCHED_IDLE: usize = 5;

/// Moves the calling thread to the `SCHED_IDLE` policy. `false` when the
/// kernel refuses or the architecture is not covered.
fn become_idle_priority() -> bool {
    // struct sched_param { int sched_priority; }, which must be 0 here.
    let param: i32 = 0;
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let ret: isize;
        // SAFETY: `sched_setscheduler(0, SCHED_IDLE, &param)` (syscall 144)
        // only reads the 4 bytes `param` points to, which live across the
        // call, and changes nothing but the calling thread's scheduling
        // policy. `syscall` clobbers rcx and r11, declared below.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 144isize => ret,
                in("rdi") 0usize,
                in("rsi") SCHED_IDLE,
                in("rdx") &param as *const i32,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(all(target_os = "linux", target_arch = "aarch64"))]
    {
        let ret: isize;
        // SAFETY: as above; `sched_setscheduler` is syscall 119 on aarch64,
        // number in x8, arguments in x0..x2, result in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 119usize,
                inlateout("x0") 0isize => ret,
                in("x1") SCHED_IDLE,
                in("x2") &param as *const i32,
                options(nostack),
            );
        }
        ret == 0
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = (param, SCHED_IDLE);
        false
    }
}

/// The running spinners; dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<bool>>,
}

impl KeepAwake {
    /// Starts one spinner per available core.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A spinner at normal priority would take a core from the
                    // system under test: without the policy, do not spin.
                    if !become_idle_priority() {
                        return false;
                    }
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    true
                })
            })
            .collect();
        Self { stop, threads }
    }

    /// Stops the spinners; `true` if every one of them ran at idle priority.
    pub fn stop(mut self) -> bool {
        self.halt()
    }

    fn halt(&mut self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        // Join every spinner before judging them (`all` would stop early).
        let ran: Vec<bool> = self
            .threads
            .drain(..)
            .map(|t| t.join().unwrap_or(false))
            .collect();
        ran.into_iter().all(|ok| ok)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_at_idle_priority_and_stop() {
        let awake = KeepAwake::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            awake.stop(),
            "SCHED_IDLE is available to unprivileged threads on Linux"
        );
    }
}
