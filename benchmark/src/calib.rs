//! The calibration loop: a fixed piece of work in the benchmark's own code
//! that calls nothing in the program. Gated rates are divided by how fast
//! this loop ran in the slices next to them, which cancels what the host
//! does to all compute alike (frequency steps, a noisy neighbour) and
//! cancels nothing a change to the program does.
//!
//! One unit is three parts of roughly equal time, sized to about 100 µs in
//! total on the reference host:
//! - a dependent floating-point chain (core frequency),
//! - a pointer chase over a 512 KiB table (larger than L1, inside L2),
//! - a summing pass over a 192 KiB window of a 15 MiB buffer (larger than
//!   L2); the window moves on each unit, so every unit misses L2.
//!
//! The work is the same on every run: it does not depend on `--seed`.

use std::hint::black_box;
use std::time::{Duration, Instant};

const FP_ITERS: usize = 20_000;
const CHASE_ENTRIES: usize = 128 * 1024; // u32 each: 512 KiB
const CHASE_HOPS: usize = 6_400;
const WINDOW_WORDS: usize = 24 * 1024; // 192 KiB
const STREAM_WORDS: usize = 80 * WINDOW_WORDS; // u64 each: 15 MiB

pub struct Calib {
    table: Vec<u32>,
    stream: Vec<u64>,
    cursor: usize,
    at: u32,
    x: f64,
}

/// One timed stretch of calibration units.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub units: u64,
    pub seconds: f64,
}

impl Slice {
    pub fn units_per_s(&self) -> f64 {
        self.units as f64 / self.seconds
    }
}

impl Calib {
    pub fn new() -> Calib {
        // Sattolo's algorithm: one cycle through every entry, so the chase
        // never settles into a short loop that fits L1.
        let mut table: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHASE_ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            table.swap(i, (state % i as u64) as usize);
        }
        let stream: Vec<u64> = (0..STREAM_WORDS as u64).collect();
        Calib { table, stream, cursor: 0, at: 0, x: 1.0 }
    }

    #[inline(never)]
    pub fn unit(&mut self) {
        let mut x = self.x;
        for _ in 0..FP_ITERS {
            x = x * 0.999_999_9 + 1.0e-7;
        }
        self.x = black_box(x);

        let mut at = self.at;
        for _ in 0..CHASE_HOPS {
            at = self.table[at as usize];
        }
        self.at = black_box(at);

        let window = &self.stream[self.cursor..self.cursor + WINDOW_WORDS];
        black_box(window.iter().fold(0u64, |acc, &w| acc.wrapping_add(w)));
        self.cursor = (self.cursor + WINDOW_WORDS) % STREAM_WORDS;
    }

    /// Run whole units until `length` has passed.
    pub fn slice(&mut self, length: Duration) -> Slice {
        let start = Instant::now();
        let mut units = 0u64;
        loop {
            self.unit();
            units += 1;
            let elapsed = start.elapsed();
            if elapsed >= length {
                return Slice { units, seconds: elapsed.as_secs_f64() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_runs_whole_units_for_at_least_its_length() {
        let mut calib = Calib::new();
        let slice = calib.slice(Duration::from_millis(20));
        assert!(slice.units >= 1);
        assert!(slice.seconds >= 0.020);
        assert!(slice.units_per_s() > 0.0);
    }

    #[test]
    fn chase_table_is_one_cycle() {
        let calib = Calib::new();
        let mut at = 0u32;
        let mut hops = 0usize;
        loop {
            at = calib.table[at as usize];
            hops += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(hops, CHASE_ENTRIES);
    }
}
