//! CPU time the host took from this machine ("steal"), sampled through a
//! drive so that sub-windows disturbed by other tenants can be told apart
//! from quiet ones. Steal is time a virtual CPU was ready to run but the
//! host ran something else; the program under test cannot cause it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two samples.
const PERIOD: Duration = Duration::from_millis(100);

/// Steal ticks (all CPUs together, in `USER_HZ` units) from `/proc/stat`;
/// zero where the file or the field is missing.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Steal counter readings, in time order.
#[derive(Debug, Clone, Default)]
pub struct StealLog(Vec<(Instant, u64)>);

impl StealLog {
    /// Steal ticks between `from` and `to`, from the last readings taken
    /// at or before each instant.
    pub fn between(&self, from: Instant, to: Instant) -> u64 {
        let at = |t: Instant| {
            let n = self.0.partition_point(|(when, _)| *when <= t);
            self.0
                .get(n.saturating_sub(1))
                .map_or(0, |(_, ticks)| *ticks)
        };
        at(to).saturating_sub(at(from))
    }
}

/// A thread that reads the steal counter every [`PERIOD`] until stopped.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<StealLog>,
}

impl StealSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perfbench-steal".to_owned())
            .spawn(move || {
                let mut log = vec![(Instant::now(), steal_ticks())];
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    log.push((Instant::now(), steal_ticks()));
                }
                StealLog(log)
            })
            .expect("spawn steal sampler");
        StealSampler { stop, thread }
    }

    pub fn stop(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("steal sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_between_uses_the_last_reading_before_each_instant() {
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let log = StealLog(vec![(at(10), 10), (at(100), 12), (at(200), 20)]);
        assert_eq!(log.between(at(10), at(100)), 2);
        assert_eq!(log.between(at(50), at(250)), 10);
        assert_eq!(log.between(at(150), at(199)), 0);
        // Before the first reading counts as the first reading.
        assert_eq!(log.between(at(0), at(100)), 2);
    }
}
