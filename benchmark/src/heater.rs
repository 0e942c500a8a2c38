//! Where the serving workload's threads run, and keeping that CPU awake.
//!
//! *The pin.* A routed frame is a chain of thread wake-ups, and whether the
//! guest's scheduler wakes each thread beside its waker or on the other
//! vCPU is its own affair: on the sizing box the same build served the open
//! loop's median frame in 0.63 ms all morning and in 0.36 ms from one
//! minute of the afternoon on, with half the CPU per request. So the tier
//! and its client are held on one CPU ([`CpuPin`]; threads inherit the mask of
//! the thread that starts them). The load is a sixth of that CPU.
//!
//! *The heater.*
//! On a shared virtual machine an idle vCPU halts, and what it costs to
//! wake a halted vCPU is the host's business: on the sizing box the same
//! loopback ping took 8 µs in one minute and 56 µs in the next, and the
//! open loop's median frame latency moved between 0.57 ms and 1.08 ms with
//! it — far more than any change to the product would. A frame spends most
//! of its time in such wake-ups, because at 500 frames/s every thread on
//! the path falls idle between frames.
//!
//! The heater is the sandbox's stand-in for "disable C-states before you
//! benchmark": one thread per CPU the calling thread may use, pinned, in
//! the `SCHED_IDLE` class, so it runs only when nothing else wants the CPU
//! and is preempted the moment anything does. With it the vCPU never halts
//! and the wake-up cost stays in its cheap mode. Its CPU time is measured
//! and subtracted from the process's.

use std::ffi::c_int;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::clock::thread_cpu_ns;

const SCHED_IDLE: c_int = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

/// A CPU set as the kernel takes it: bit `i` of word `w` is CPU `64 w + i`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on, ascending; empty when the kernel
/// will not say.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: pid 0 names the calling thread; `set` is a live, writable
    // buffer of the size passed, and the kernel writes nothing else.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..64 * set.len())
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; `false` when the kernel refuses.
fn run_on(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: pid 0 names the calling thread; `set` is a live buffer of the
    // size passed, only read by the kernel for the duration of the call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Holds the calling thread, and every thread it starts meanwhile, on the
/// first CPU it may use; dropping it (on the same thread) gives the thread
/// its CPUs back.
pub struct CpuPin {
    before: Vec<usize>,
}

impl CpuPin {
    pub fn to_first_cpu() -> CpuPin {
        let before = allowed_cpus();
        if before.is_empty() || !run_on(&before[..1]) {
            eprintln!("pin: could not pin the serving tier to one CPU");
        }
        CpuPin { before }
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        if !self.before.is_empty() {
            run_on(&self.before);
        }
    }
}

/// Moves the calling thread to `cpu` and into the `SCHED_IDLE` class;
/// `false` when the kernel refuses the class, in which case the thread
/// must not spin.
fn become_idle_class_on(cpu: usize) -> bool {
    let param = SchedParam { sched_priority: 0 };
    if !run_on(&[cpu]) {
        eprintln!("heater: could not pin to CPU {cpu}; spinning unpinned");
    }
    // SAFETY: pid 0 names the calling thread; `param` is a live `struct
    // sched_param`, only read by the kernel for the duration of the call.
    let policy = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if policy != 0 {
        eprintln!("heater: SCHED_IDLE refused; CPU {cpu} stays unheated");
    }
    policy == 0
}

struct Shared {
    stop: AtomicBool,
    /// CPU time each heater thread has used so far.
    cpu_ns: Vec<AtomicU64>,
}

pub struct Heater {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Heater {
    /// One spinning thread on each CPU the calling thread may use: under a
    /// [`CpuPin`], one.
    pub fn start() -> Heater {
        let cpus = allowed_cpus();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            cpu_ns: cpus.iter().map(|_| AtomicU64::new(0)).collect(),
        });
        let threads = cpus
            .into_iter()
            .enumerate()
            .map(|(slot, cpu)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    if !become_idle_class_on(cpu) {
                        return;
                    }
                    // Relaxed: the flag and the counter publish no other
                    // data.
                    while !shared.stop.load(Ordering::Relaxed) {
                        for _ in 0..512 {
                            std::hint::spin_loop();
                        }
                        shared.cpu_ns[slot].store(thread_cpu_ns(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        Heater { shared, threads }
    }

    /// CPU time the heater has burnt so far, to within a few microseconds.
    pub fn cpu_ns(&self) -> u64 {
        self.shared
            .cpu_ns
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

impl Drop for Heater {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_holds_one_cpu_and_gives_the_others_back() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        let pin = CpuPin::to_first_cpu();
        assert_eq!(allowed_cpus(), before[..1]);
        // A thread started under the pin inherits it.
        let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
        assert_eq!(inherited, before[..1]);
        drop(pin);
        assert_eq!(allowed_cpus(), before);
    }

    #[test]
    fn heater_burns_cpu_it_can_account_for_and_stops() {
        let heater = Heater::start();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let burnt = heater.cpu_ns();
        assert!(burnt > 0, "an idle machine lets the heater run");
        drop(heater);
    }
}
