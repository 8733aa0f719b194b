//! Small measurement helpers: quantiles, a seeded generator, clocks and
//! the process's peak resident memory.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Wall-clock nanoseconds since the Unix epoch: comparable across the
/// benchmark's own processes on one machine.
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Peak resident set size of this process in KiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Cumulative (busy, steal) jiffies over all CPUs from `/proc/stat`:
/// steal is time the hypervisor ran another guest on our CPUs.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return (0, 0);
    }
    // user nice system idle iowait irq softirq steal
    (v[0] + v[1] + v[2] + v[5] + v[6], v[7])
}

/// This process's minor page faults so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Wrapping sum of the little-endian 64-bit words of `b` (tail bytes
/// folded in one by one): a checksum cheap enough to run on every echo.
pub fn word_sum(b: &[u8]) -> u64 {
    let mut chunks = b.chunks_exact(8);
    let mut s = 0u64;
    for c in &mut chunks {
        s = s.wrapping_add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    for (i, &x) in chunks.remainder().iter().enumerate() {
        s = s.wrapping_add((x as u64) << (8 * i));
    }
    s.wrapping_add(b.len() as u64)
}

/// Time `iters` calls of `f`, `batches` times, and return the median
/// per-call time in nanoseconds.
pub fn time_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            ns_since(t) / iters as f64
        })
        .collect();
    median(&mut per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn seeded_generator_repeats() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }

    #[test]
    fn word_sum_sees_every_byte() {
        let base = vec![7u8; 21];
        for i in 0..base.len() {
            let mut b = base.clone();
            b[i] ^= 1;
            assert_ne!(word_sum(&b), word_sum(&base), "byte {i}");
        }
    }
}
