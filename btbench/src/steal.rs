//! Time the hypervisor took from this VM.
//!
//! The sandbox is a small VM on a shared host: for minutes at a time a
//! neighbour can take two thirds and more of its CPU, and every
//! wall-clock figure of a run inside such an episode reads several times
//! worse. The guest kernel accounts that time, two ways:
//!
//! * A thread's CPU clock advances only while its vCPU really runs, so a
//!   single compute-bound thread (a simulator trial) is timed by it and
//!   stolen time never enters ([`timed`]; measured: one fixed loop read
//!   0.34–0.43 s of CPU time while its wall time ran 0.35–1.2 s).
//! * `steal` in `/proc/stat` sums it over CPUs. The loopback cluster is
//!   many threads and its latency is wall time, so there the benchmark
//!   subtracts the per-CPU share where it can (the time base of
//!   throughput, the latency of ops that overlapped it).
//!
//! On a quiet machine steal is zero and nothing changes.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// `/proc/stat` counts in `USER_HZ` ticks, 100 per second on Linux.
const TICK: Duration = Duration::from_millis(10);

/// Stolen ticks summed over all CPUs since boot; 0 if unreadable (then
/// nothing is ever subtracted).
fn ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// CPU time the calling thread has used; `None` where the clock cannot
/// be read (then [`timed`] falls back to wall time).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, which writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.sec as u64, ts.nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu() -> Option<Duration> {
    None
}

/// Runs `work` on this thread; returns its result, the CPU time it used
/// and the wall time it took. For work that never blocks the two agree
/// on a quiet machine, and only the second grows when the VM is robbed.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration, Duration) {
    let (cpu0, wall0) = (thread_cpu(), Instant::now());
    let out = work();
    let wall = wall0.elapsed();
    let cpu = thread_cpu().zip(cpu0).map_or(wall, |(c1, c0)| c1 - c0);
    (out, cpu, wall)
}

/// `wall` minus `stolen`, floored at a twentieth of `wall`: a 10 ms tick
/// can be booked to a shorter interval than it was stolen in.
pub fn net(wall: Duration, stolen: Duration) -> Duration {
    wall.saturating_sub(stolen).max(wall / 20)
}

/// Steal readings over time, taken by a sampling thread, for code that
/// must ask afterwards which of many overlapping intervals were hit.
#[derive(Debug, Default)]
pub struct Timeline(Mutex<Vec<(Instant, u64)>>);

impl Timeline {
    /// Appends a reading.
    pub fn sample(&self) {
        let reading = (Instant::now(), ticks());
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(reading);
    }

    /// Time stolen during `from..to`: each sampling interval's steal,
    /// prorated by how much of the interval lies inside.
    pub fn stolen(&self, from: Instant, to: Instant) -> Duration {
        let readings = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stolen = Duration::ZERO;
        for w in readings.windows(2) {
            let ((t0, s0), (t1, s1)) = (w[0], w[1]);
            let inside = t1.min(to).saturating_duration_since(t0.max(from));
            if s1 > s0 && !inside.is_zero() {
                stolen += (TICK * (s1 - s0) as u32)
                    .mul_f64(inside.as_secs_f64() / (t1 - t0).as_secs_f64());
            }
        }
        stolen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_prorates_steal_over_its_interval() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let line = Timeline(Mutex::new(vec![
            (t, 100),
            (t + ms(10), 100),
            (t + ms(20), 103),
            (t + ms(30), 103),
            (t + ms(40), 104),
        ]));
        assert_eq!(line.stolen(t, t + ms(10)), ms(0));
        assert_eq!(line.stolen(t + ms(10), t + ms(20)), ms(30));
        assert_eq!(
            line.stolen(t + ms(12), t + ms(17)),
            ms(15),
            "half the interval"
        );
        assert_eq!(line.stolen(t + ms(5), t + ms(35)), ms(30) + ms(5));
        assert_eq!(line.stolen(t - ms(50), t + ms(50)), ms(40));
        assert_eq!(line.stolen(t + ms(20), t + ms(30)), ms(0));
        assert_eq!(line.stolen(t + ms(30), t + ms(20)), ms(0), "empty range");
    }

    #[test]
    fn net_time_never_collapses() {
        let ms = Duration::from_millis;
        assert_eq!(net(ms(100), ms(30)), ms(70));
        assert_eq!(net(ms(100), ms(0)), ms(100));
        assert_eq!(net(ms(12), ms(20)), ms(12) / 20);
    }

    #[test]
    fn cpu_time_counts_work_and_not_sleep() {
        let ms = Duration::from_millis;
        let ((), cpu, wall) = timed(|| std::thread::sleep(ms(30)));
        assert!(wall >= ms(30));
        assert!(cpu < ms(20), "a sleeping thread uses no CPU: {cpu:?}");
        let (sum, cpu, wall) = timed(|| (0..20_000_000u64).fold(0, u64::wrapping_add));
        assert!(sum > 0 && cpu > Duration::ZERO);
        assert!(cpu <= wall + ms(1), "{cpu:?} of CPU in {wall:?}");
    }
}
