//! Calibration against the machine's momentary speed.
//!
//! On a shared 2-core host the same pass can take 55 ms in one minute and
//! 100 ms in the next as neighbouring machines come and go, so a run's raw
//! median says as much about the neighbours as about the program.  Every
//! timed pass is therefore preceded by a fixed, std-only kernel, and times
//! are reported *calibrated*: raw wall time × [`REFERENCE_MS`] / the
//! kernel's time just before.  That is the time the pass would take on a
//! machine where the kernel takes [`REFERENCE_MS`], roughly this host when
//! quiet.
//!
//! The kernel blends two parts by a weighted geometric mean: allocation
//! churn into a `BTreeMap` of strings (weight 3/4, like the checker and the
//! interpreter) and a dependent random walk over a 4 MB table (weight 1/4,
//! cache and memory pressure).  Of the candidates tried (one of them a
//! string-keyed map alone, an integer loop, a small tree-walking evaluator,
//! random walks over 1, 4 and 16 MB), this blend tracked all three workloads
//! best: over four minutes of interleaved kernel and workload runs on the
//! 2-core host, the raw 12-second medians of each workload spread over 46%
//! of their median, the calibrated ones over 8–13%.  The kernel uses no code of the
//! repository, so a change to the program moves calibrated times exactly as
//! it moves raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's time that calibrated times are scaled to, in ms.
pub const REFERENCE_MS: f64 = 5.0;

/// Entries of the random-walk table (4 MB of `u64`); a power of two.
const TABLE_LEN: usize = 1 << 19;

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Allocation churn: short-lived strings and vectors, a third of them kept
/// and indexed in a `BTreeMap`.
fn alloc_part() -> f64 {
    let started = Instant::now();
    let mut kept: Vec<Vec<String>> = Vec::new();
    for i in 0..4000 {
        let v: Vec<String> = (0..8).map(|j| format!("s{i}_{j}")).collect();
        if i % 3 == 0 {
            kept.push(v);
        }
    }
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    for s in kept.iter().flatten() {
        index.insert(s, s.len());
    }
    black_box(index.len());
    elapsed_ms(started)
}

/// A dependent random walk over a table larger than the private caches.
fn walk_part() -> f64 {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..TABLE_LEN as u64).collect());
    let started = Instant::now();
    let (mut idx, mut acc) = (12_345usize, 0u64);
    for _ in 0..50_000 {
        acc = acc.wrapping_add(table[idx]);
        idx = (idx.wrapping_mul(2_654_435_761) + acc as usize) & (TABLE_LEN - 1);
    }
    black_box(acc);
    elapsed_ms(started)
}

/// Runs the kernel and returns its blended time in ms.
fn kernel_ms() -> f64 {
    alloc_part().powf(0.75) * walk_part().powf(0.25)
}

/// The factor that turns a raw time measured now into a calibrated one.
pub fn scale() -> f64 {
    REFERENCE_MS / kernel_ms()
}
