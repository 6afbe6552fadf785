//! Machine-speed reference for the end-to-end times.
//!
//! On a shared host, other tenants' load slows this process for seconds to
//! minutes at a time: on a 2-vCPU host, 25 s medians of set-up and start
//! times moved together by up to 1.7x while a pure integer loop moved by
//! 1.2x, so the slowdown hits cache-bound code. Sorting a fixed 3 MiB array
//! slows down with the partitioner: over 15 minutes, 25 s medians of one
//! fixed ML_C start varied 1.56x as measured and 1.13x once divided by the
//! sort time taken beside them. The end-to-end times are therefore reported
//! at a reference speed, scaled by [`REFERENCE_S`] over the kernel's median
//! time next to them. The kernel is benchmark code: a change to the program
//! moves the program's times and not the kernel's.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference speed, in s: its fast stretches
/// on that 2-vCPU host.
pub const REFERENCE_S: f64 = 0.008;

/// Values the kernel sorts: 3 MiB, larger than a core's private caches.
const KERNEL_LEN: usize = 400_000;

/// The kernel's buffers, one per thread, allocated once: they add a constant
/// to `peak_rss_mb` rather than a peak of their own that could hide the
/// program's.
#[derive(Debug)]
pub struct Kernel {
    bufs: Vec<Vec<u64>>,
}

impl Kernel {
    /// A kernel that runs on `threads` threads at once: a batch on several
    /// workers runs on several cores, and the cores of a shared host are not
    /// slowed alike.
    pub fn new(threads: usize) -> Kernel {
        Kernel {
            bufs: vec![vec![0; KERNEL_LEN]; threads.max(1)],
        }
    }

    /// Times one run on every thread at once; the mean, in s.
    pub fn seconds(&mut self) -> f64 {
        let n = self.bufs.len() as f64;
        match self.bufs.as_mut_slice() {
            [buf] => sort_timed(buf),
            bufs => std::thread::scope(|s| {
                let runs: Vec<_> = bufs
                    .iter_mut()
                    .map(|buf| s.spawn(move || sort_timed(buf)))
                    .collect();
                let total: f64 = runs
                    .into_iter()
                    .map(|r| r.join().expect("sorting does not panic"))
                    .sum();
                total / n
            }),
        }
    }
}

/// Fills `buf` with fixed pseudo-random values and sorts it; the time in s.
fn sort_timed(buf: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    buf.sort_unstable();
    black_box(&buf);
    t.elapsed().as_secs_f64()
}

/// Factor that converts times measured beside `kernel` (kernel times in s)
/// to the reference speed; 1 when `kernel` is empty.
pub fn scale(kernel: &[f64]) -> f64 {
    crate::stats::median(kernel).map_or(1.0, |k| REFERENCE_S / k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_the_median_kernel_time_to_the_reference() {
        assert_eq!(scale(&[]), 1.0);
        assert_eq!(scale(&[REFERENCE_S]), 1.0);
        assert_eq!(scale(&[REFERENCE_S, 2.0 * REFERENCE_S, 9.0]), 0.5);
    }

    #[test]
    fn kernel_times_every_thread() {
        for threads in [1, 2] {
            let t = Kernel::new(threads).seconds();
            assert!(t.is_finite() && t > 0.0, "{threads} thread(s): {t}");
        }
    }
}
