//! Keeps wake-ups prompt while a latency workload measures.
//!
//! On a shared VM, a vCPU that halts when idle must wait for the
//! hypervisor to run it again once work arrives. That wait shows as CPU
//! steal, and it grows tenfold when the host's other tenants are busy. A
//! request that crosses several threads pays it on every hop. So while
//! `fleet_reads` measures, one spinning thread per CPU runs in the
//! `SCHED_IDLE` class and keeps the vCPUs from halting. A spinner that
//! cannot enter `SCHED_IDLE` exits at once rather than compete at normal
//! priority. The spinners do take CPU from busy program threads: on a
//! 2-vCPU KVM guest they cost the compute-bound workloads 10–45% of
//! throughput, so only `fleet_reads` runs them. There, runs with and
//! without them (`--spinners 0`) show the servers' own work getting
//! faster with them, not slower (see the README).
//!
//! The open-loop generator also sets its timer slack to 1 ns
//! ([`tight_timer_slack`]), so that a request due at a time is sent
//! then, not up to 50 µs later.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    const SCHED_IDLE: i32 = 5;
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` only reads one `struct sched_param`
    // through the pointer, which points to a live, aligned `#[repr(C)]`
    // value of that layout; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}

/// Sets the calling thread's timer slack to 1 ns, so that its sleeps end
/// when due rather than up to the default 50 µs later. Returns whether
/// the kernel accepted it.
#[cfg(target_os = "linux")]
pub fn tight_timer_slack() -> bool {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: `PR_SET_TIMERSLACK` takes one unsigned long argument by
    // value and touches no memory of the caller.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn tight_timer_slack() -> bool {
    false
}

/// The running spinners; [`KeepAwake::stop`] joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per CPU, or none when `enabled` is false.
    pub fn start(enabled: bool) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let cpus = if enabled {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            0
        };
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                let active = Arc::clone(&active);
                std::thread::spawn(move || {
                    if !enter_idle_class() {
                        return;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self {
            stop,
            active,
            threads,
        }
    }

    /// Stops and joins the spinners; returns how many ran.
    pub fn stop(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("invariant: spinner threads do not panic");
        }
        self.active.load(Ordering::Relaxed)
    }
}
