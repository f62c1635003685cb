//! The calibration kernel and the one wall-clock read of the benchmark.
//!
//! Raw wall time does not repeat on the shared host this runs on: the same
//! simulated run takes 80 ms or 100 ms depending on a host mode that lasts
//! seconds when the host is quiet and flips several times a second when it is
//! busy, and on a busy host the run slows by more than pure computing does. A
//! fixed piece of work *of the same kind* — a heap of events, an ordered map
//! of buffers, an allocation and a formatted name per event — timed right
//! before and right after each measured section moves by the same factor;
//! dividing by it takes the host out of the number. README.md,
//! "Calibration", has the measurements behind the choice of kernel.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Events per kernel run (6–8 ms). A single run, not the fastest of several:
/// what slows a 100 ms simulation on a busy host also slows a kernel of a few
/// milliseconds, and the fastest of several short ones would dodge it.
const KERNEL_EVENTS: u32 = 20_000;
/// Keys in the kernel's store; at 256–1791 bytes a buffer, about 4 MB live.
const KERNEL_KEYS: u64 = 4096;
/// What one kernel run takes on the nominal host, in seconds. Calibrated
/// times are what the measured section would have taken on that host.
pub const C_NOMINAL_S: f64 = 0.006;

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    Instant::now() // lint: allow(nondeterminism) — the benchmark times the program from outside; nothing simulated reads this
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// A section's wall time, raw and as the nominal host would have read it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub calibrated_s: f64,
}

/// Times sections of work bracketed by the fixed kernel, and remembers every
/// kernel measurement.
#[derive(Default)]
pub struct Calibrator {
    samples_s: Vec<f64>,
    /// The kernel time taken right after the previous section, which serves
    /// as the next section's "before" when nothing ran in between.
    last_s: Option<f64>,
}

impl Calibrator {
    /// Runs `work` between two kernel measurements. Back-to-back sections
    /// share the measurement between them; call [`Calibrator::stale`] after
    /// doing anything else.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> (R, Timed) {
        let before_s = match self.last_s {
            Some(s) => s,
            None => self.measure(),
        };
        let start = now();
        let result = work();
        let wall_s = secs_since(start);
        let after_s = self.measure();
        self.last_s = Some(after_s);
        let timed = Timed {
            wall_s,
            calibrated_s: calibrated(wall_s, before_s, after_s),
        };
        (result, timed)
    }

    /// Forgets the last kernel time: the host may have changed mode since.
    pub fn stale(&mut self) {
        self.last_s = None;
    }

    /// One kernel measurement, in seconds.
    fn measure(&mut self) -> f64 {
        let start = now();
        std::hint::black_box(kernel(KERNEL_EVENTS));
        let elapsed = secs_since(start);
        self.samples_s.push(elapsed);
        elapsed
    }

    /// Every measurement taken so far, in seconds.
    pub fn samples_s(&self) -> &[f64] {
        &self.samples_s
    }
}

/// A miniature event loop over the standard library only, so no change to the
/// program under test can move it: pop the earliest event, allocate and fill
/// a buffer, swap it into an ordered store (freeing the one it replaces),
/// format a name, push a follow-up event.
fn kernel(events: u32) -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut store: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0u64;
    for node in 0..64u32 {
        heap.push(Reverse((u64::from(node), node)));
    }
    for _ in 0..events {
        let Some(Reverse((at, node))) = heap.pop() else {
            break;
        };
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (rng >> 33) % KERNEL_KEYS;
        let size = 256 + ((rng >> 20) % 1536) as usize;
        let buffer = vec![node as u8; size];
        acc = acc.wrapping_add(u64::from(buffer[size / 2]));
        if let Some(replaced) = store.insert(key, buffer) {
            acc = acc.wrapping_add(replaced.len() as u64);
        }
        let name = format!("/city/seg/{key}/cam/{node}");
        acc ^= name.len() as u64;
        heap.push(Reverse((at + 1 + (rng >> 40) % 1000, (node + 1) % 64)));
    }
    acc
}

/// `wall_s` as it would have read on the nominal host, given the kernel
/// times taken right before and right after the measured section.
pub fn calibrated(wall_s: f64, before_s: f64, after_s: f64) -> f64 {
    wall_s * C_NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_divides_out_the_host_factor() {
        // On the nominal host the time is unchanged.
        assert_eq!(calibrated(2.0, C_NOMINAL_S, C_NOMINAL_S), 2.0);
        // A host 25 % slower reads 25 % more wall time for the same work.
        let slow = C_NOMINAL_S * 1.25;
        assert!((calibrated(2.5, slow, slow) - 2.0).abs() < 1e-12);
        // A mode switch inside the section is charged at the mean factor.
        let mid = calibrated(2.25, C_NOMINAL_S, C_NOMINAL_S * 1.25);
        assert!((mid - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_a_pure_function_of_its_inputs() {
        assert_eq!(kernel(1000), kernel(1000));
        assert_ne!(kernel(1000), kernel(1001));
    }

    #[test]
    fn back_to_back_sections_share_a_kernel_measurement() {
        let mut cal = Calibrator::default();
        let ((), first) = cal.time(|| ());
        assert_eq!(cal.samples_s().len(), 2, "before and after");
        cal.time(|| ());
        assert_eq!(cal.samples_s().len(), 3, "the shared one is not retaken");
        cal.stale();
        cal.time(|| ());
        assert_eq!(cal.samples_s().len(), 5, "stale: before is measured afresh");
        assert!(first.wall_s >= 0.0 && first.calibrated_s >= 0.0);
    }
}
