//! The core clock, measured from user space.
//!
//! The sandbox this benchmark was written on steps its core clock between
//! two frequencies 11:14 apart and stays at one for seconds to half a
//! minute, whatever the guest does. Wall time of the same work therefore
//! comes in two values 22% apart, and which one a run sees is chance.
//!
//! A chain of dependent integer multiplies takes a fixed number of core
//! cycles (latency 3 each on every current x86-64 core) whatever else the
//! machine does, so timing one gives the core frequency. The benchmark
//! reads it before and after every round and every set-up and counts time
//! in core cycles, shown as seconds of a [`REFERENCE_GHZ`] clock: wall
//! time × measured GHz / [`REFERENCE_GHZ`]. Memory-bound work does not
//! follow the core clock exactly; on `control_plane`, the most
//! memory-bound workload, the two states still differ by about 4% after
//! this, against 22% before.

use std::time::Instant;

/// The clock all reported times are converted to.
pub const REFERENCE_GHZ: f64 = 3.0;

/// Cycles one link of the chain takes: the latency of a 64-bit `imul`.
const CYCLES_PER_LINK: f64 = 3.0;
/// Links per probe: about 3 µs, long against the timer's resolution and
/// short against a round.
const LINKS: u64 = 4096;
/// Probes per reading; the fastest one was not interrupted.
const PROBES: usize = 3;

#[cfg(target_arch = "x86_64")]
fn chain(links: u64) -> u64 {
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..links {
        // SAFETY: register-only arithmetic; reads and writes no memory.
        unsafe {
            std::arch::asm!(
                "imul {x}, {k}",
                x = inout(reg) x,
                k = in(reg) 0x2545_F491_4F6C_DD1Du64,
                options(pure, nomem, nostack),
            );
        }
    }
    x
}

/// Elsewhere the compiler is asked not to see through the chain; the
/// cycles per link then differ, which scales every time by one constant.
#[cfg(not(target_arch = "x86_64"))]
fn chain(links: u64) -> u64 {
    let mut x: u64 = std::hint::black_box(0x9E37_79B9_7F4A_7C15);
    for _ in 0..links {
        x = std::hint::black_box(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    x
}

/// The core frequency right now, in GHz.
pub fn core_ghz() -> f64 {
    let fastest_ns = (0..PROBES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(chain(LINKS));
            t.elapsed().as_nanos().max(1)
        })
        .min()
        .expect("at least one probe");
    CYCLES_PER_LINK * LINKS as f64 / fastest_ns as f64
}

/// The factor that turns wall time into reference-clock time right now.
pub fn reference_scale() -> f64 {
    core_ghz() / REFERENCE_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_plausible_frequency_that_repeats() {
        let readings: Vec<f64> = (0..20).map(|_| core_ghz()).collect();
        assert!(
            readings.iter().all(|g| (0.2..12.0).contains(g)),
            "{readings:?}"
        );
        // The clock has few states; most readings fall on the commonest.
        let mut sorted = readings.clone();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted[sorted.len() / 2];
        let near = readings
            .iter()
            .filter(|g| (*g / mid - 1.0).abs() < 0.03)
            .count();
        assert!(near >= 10, "{readings:?}");
    }
}
