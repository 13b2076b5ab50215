//! The host's speed, read with a fixed reference loop.
//!
//! On a shared host the CPU time a fixed piece of work takes moves with
//! what the neighbours run: hyperthread siblings and shared caches slow
//! every instruction, so CPU time alone read about 30% higher in busy
//! phases than in calm ones (see `NOTES.md`). The run interleaves a
//! fixed chunk of work between its rounds and reports how much slower
//! than nominal the chunk ran; the timing metrics are divided by that
//! factor. The loop lives here, not in the program under test, so no
//! change to the program can move it.

use crate::report::thread_cpu_ns;
use std::hint::black_box;

/// Width of the reference layer.
const WIDTH: usize = 32;

/// Timed layer evaluations per chunk: about 85 µs of CPU on the
/// measuring host.
const ITERATIONS: usize = 256;

/// Untimed layer evaluations before them.
const WARMUP: usize = 16;

/// Thread CPU time of one chunk on the measuring host in a calm phase
/// (under 1% of CPU time stolen), nanoseconds. It only sets the scale:
/// a run whose chunks took this long reports its CPU times unchanged.
const NOMINAL_CHUNK_NS: f64 = 85_000.0;

/// Runs one chunk of the reference loop: a fixed-point dense layer with
/// a seeded bit flip, fed back into itself, much like the detector's
/// faulty kernel. A few untimed layers first bring its code and data
/// back into cache, so what the rounds before it left there does not
/// move it. Returns the thread CPU time of the timed layers, nanoseconds.
fn reference_chunk() -> u64 {
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let weights: [[i32; WIDTH]; WIDTH] =
        std::array::from_fn(|_| std::array::from_fn(|_| (next() % 255) as i32 - 127));
    let mut x: [i32; WIDTH] = std::array::from_fn(|i| i as i32 - 16);
    let mut layers = |n: usize| {
        for _ in 0..n {
            let mut y = [0i32; WIDTH];
            for (out, row) in y.iter_mut().zip(&weights) {
                let acc: i64 = row.iter().zip(&x).map(|(&w, &v)| i64::from(w * v)).sum();
                *out = (acc >> 7).clamp(-32_768, 32_767) as i32;
            }
            let flip = next();
            y[(flip >> 8) as usize % WIDTH] ^= 1 << ((flip >> 16) % 15);
            x = black_box(y);
        }
    };
    layers(WARMUP);
    let start = thread_cpu_ns();
    layers(ITERATIONS);
    let took = thread_cpu_ns() - start;
    black_box(x);
    took
}

/// Reference chunks run so far, and their CPU time.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSpeed {
    /// Thread CPU time of the chunks, nanoseconds.
    pub ns: u64,
    /// Chunks run.
    pub chunks: u64,
}

impl HostSpeed {
    /// Runs one chunk and counts it.
    pub fn sample(&mut self) {
        self.ns += reference_chunk();
        self.chunks += 1;
    }

    /// Adds another tally.
    pub fn add(&mut self, other: HostSpeed) {
        self.ns += other.ns;
        self.chunks += other.chunks;
    }

    /// How much slower than nominal the chunks ran: 1.0 on a calm host,
    /// above 1 when the neighbours are busy.
    pub fn slowdown(&self) -> f64 {
        self.ns as f64 / self.chunks.max(1) as f64 / NOMINAL_CHUNK_NS
    }
}
