//! `perfbench`: the repository's end-to-end benchmark (see README.md).
//!
//! ```text
//! perfbench --workload <batch_cold|edit_script|dense_app> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times whole passes through the public entry points,
//! tracing off, and reports the end-to-end metrics.  With `--trace 1` it
//! alternates untraced and traced script cycles and reports the per-layer
//! metrics, printing a stage table.  The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calibrate;
mod dense;
mod recipe;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes a timed run makes at least, so that `pass_ms.p90` has ten passes
/// beyond it.
const MIN_PASSES: usize = 100;
/// Traced passes a traced run makes at least.
const MIN_TRACED: usize = 20;

/// Stages of the traced run, in pipeline order; each reports `<stage>.ms`.
const STAGES: [&str; 15] = [
    "persist.load",
    "app.build_env",
    "ruby_syntax.parse",
    "semdep.env_hash",
    "semdep.build",
    "summaries",
    "checker.comp",
    "persist.replay",
    "lints",
    "checker.plain",
    "persist.record",
    "ruby_interp.suite",
    "runtime.checked_suite",
    "checker.effect_conflicts",
    "persist.save",
];

/// A seeded generator for one input stream of the workload.  The seed is
/// mixed (splitmix64) so that nearby seeds give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> test_rng::Rng {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    test_rng::Rng::new((z ^ (z >> 31)) | 1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| run(&args, process_start));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One pass's wall time, raw and as the calibration factor measured just
/// before it (see [`calibrate`]).
#[derive(Debug, Clone, Copy)]
struct Timing {
    raw_ms: f64,
    scale: f64,
}

impl Timing {
    /// Calibrated milliseconds.
    fn ms(self) -> f64 {
        self.raw_ms * self.scale
    }
}

/// Runs the calibration kernel, then one pass under `catch_unwind`, and
/// checks the pass's report.  Returns the pass's timing (the check
/// excluded), or `None` when the pass failed: an error, a panic, or a report
/// that differs from the reference.
fn checked_pass(w: &mut dyn Workload, step: usize, tr: Option<&Tracer>) -> Option<Timing> {
    let scale = calibrate::scale();
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| match tr {
        Some(tr) => w.run_traced(step, tr),
        None => w.run(step),
    }));
    let raw_ms = started.elapsed().as_secs_f64() * 1e3;
    let failure = match result {
        Ok(Ok(rows)) if corpus::stable_report(&rows) == w.expected(step) => {
            return Some(Timing { raw_ms, scale })
        }
        Ok(Ok(rows)) => format!(
            "report differs from the reference\n--- expected\n{}--- got\n{}",
            w.expected(step),
            corpus::stable_report(&rows)
        ),
        Ok(Err(e)) => e,
        Err(_) => "the pass panicked".to_string(),
    };
    eprintln!("perfbench: step {step} failed: {failure}");
    None
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank 90th percentile.
fn p90(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 9).div_ceil(10).max(1);
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints the result line from `(name, value, unit)` triples.
fn print_result(attempted: usize, failed: usize, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    );
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    // Set up several times and keep the last; the first set-up's time runs
    // from process start.  Each is calibrated by a kernel run right after.
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload = None;
    for i in 0..setups {
        drop(workload.take());
        let started = if i == 0 { process_start } else { Instant::now() };
        workload = Some(workloads::setup(&args.workload, args.seed, &work_dir)?);
        let raw_s = started.elapsed().as_secs_f64();
        setup_s.push(raw_s * calibrate::scale());
    }
    let mut w = workload.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        traced_run(args, w.as_mut(), budget, &work_dir)
    } else {
        timed_run(w.as_mut(), budget, median(&setup_s));
        Ok(())
    }
}

/// The end-to-end measurement: closed-loop passes, tracing off.
fn timed_run(w: &mut dyn Workload, budget: Duration, setup_s: f64) {
    let cycle = w.cycle_len();
    let (mut timings, mut attempted) = (Vec::new(), 0);
    let started = Instant::now();
    while (started.elapsed() < budget || timings.len() < MIN_PASSES)
        && started.elapsed() < budget * 3
    {
        timings.extend(checked_pass(w, attempted % cycle, None));
        attempted += 1;
    }
    let failed = attempted - timings.len();
    let calibrated: Vec<f64> = timings.iter().map(|t| t.ms()).collect();
    let raw: Vec<f64> = timings.iter().map(|t| t.raw_ms).collect();
    let metrics = [
        ("pass_ms.p50".to_string(), median(&calibrated), "ms"),
        ("pass_ms.p90".to_string(), p90(&calibrated), "ms"),
        ("setup_s".to_string(), setup_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
    ];
    println!(
        "passes: {attempted} attempted, {failed} failed (failed_frac {}); raw wall p50 {:.3} ms, \
         p90 {:.3} ms",
        ratio(failed as f64, attempted as f64),
        median(&raw),
        p90(&raw)
    );
    for (name, value, unit) in &metrics {
        println!("{name:<14} {value:>12.4} {unit}");
    }
    print_result(attempted, failed, &metrics);
}

/// The per-layer measurement: untraced and traced script cycles alternate,
/// so `trace.overhead_frac` compares passes made under the same conditions.
fn traced_run(
    args: &Args,
    w: &mut dyn Workload,
    budget: Duration,
    work_dir: &Path,
) -> Result<(), String> {
    let tr = Tracer::on();
    let cycle = w.cycle_len();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first_cycle = Vec::new();
    let (mut attempted, mut failed, mut cache_bytes) = (0, 0, 0);
    let mut pass_id = 0u32;
    let started = Instant::now();
    while (started.elapsed() < budget || traced.len() < MIN_TRACED)
        && started.elapsed() < budget * 3
    {
        for step in 0..cycle {
            attempted += 1;
            match checked_pass(w, step, None) {
                Some(t) => untraced.push(t.ms()),
                None => failed += 1,
            }
        }
        for step in 0..cycle {
            tr.begin_pass(pass_id);
            attempted += 1;
            match checked_pass(w, step, Some(&tr)) {
                Some(t) => traced.push((pass_id, t)),
                None => failed += 1,
            }
            if first_cycle.len() < cycle {
                first_cycle.push(pass_id);
            }
            pass_id += 1;
        }
        if cache_bytes == 0 {
            // The cache after one full cycle: the same bytes every cycle.
            cache_bytes = w.cache_bytes();
        }
    }

    // Per-stage self time: the median over traced passes of the calibrated
    // self time (0 where a pass never entered the stage).
    let self_ns = trace::self_times(&tr.spans());
    let stage_ms = |stage: &str| {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|(id, t)| {
                let ns = self_ns.get(id).and_then(|m| m.get(stage)).copied().unwrap_or(0);
                ns as f64 / 1e6 * t.scale
            })
            .collect();
        median(&per_pass)
    };
    let traced_ms: Vec<f64> = traced.iter().map(|(_, t)| t.ms()).collect();
    let traced_p50 = median(&traced_ms);
    let unattributed = stage_ms("pass");

    println!("passes: {attempted} attempted, {failed} failed; {} traced", traced.len());
    println!(
        "stage breakdown ({}, seed {}), median calibrated self time per traced pass:",
        args.workload, args.seed
    );
    let mut rows: Vec<(&str, f64)> = STAGES.iter().map(|s| (*s, stage_ms(s))).collect();
    rows.push(("(unattributed)", unattributed));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (stage, ms) in &rows {
        if *ms > 0.0 {
            println!("  {stage:<26} {ms:>9.3} ms {:>6.1}%", 100.0 * ratio(*ms, traced_p50));
        }
    }
    println!(
        "  {:<26} {traced_p50:>9.3} ms (untraced p50 {:.3} ms)",
        "traced pass p50",
        median(&untraced)
    );

    // Exact counters: per pass, averaged over the first traced cycle.
    let totals = tr.counter_totals(&first_cycle);
    let count = |name: &str| totals.get(name).copied().unwrap_or(0.0) / cycle as f64;
    let mut metrics: Vec<(String, f64, &str)> =
        STAGES.iter().map(|s| (format!("{s}.ms"), stage_ms(s), "ms")).collect();
    let counters: [(&str, f64, &str); 15] = [
        ("app.build_env.calls", count("app.build_env.calls"), "count"),
        ("ruby_syntax.parse.methods", count("ruby_syntax.parse.methods"), "count"),
        ("summaries.total", count("summaries.total"), "count"),
        ("summaries.resummarized", count("summaries.resummarized"), "count"),
        ("checker.verdicts", count("checker.verdicts"), "count"),
        ("checker.rechecked", count("checker.rechecked"), "count"),
        ("cache.eval_hits", count("cache.eval_hits"), "count"),
        (
            "cache.eval_hit_ratio",
            ratio(count("cache.eval_hits"), count("cache.eval_lookups")),
            "ratio",
        ),
        ("lints.relinted", count("lints.relinted"), "count"),
        (
            "persist.replay_hit_ratio",
            ratio(count("persist.replay_hits"), count("persist.replay_attempts")),
            "ratio",
        ),
        ("cache_bytes", cache_bytes as f64, "B"),
        ("runtime.dynamic_checks", count("runtime.dynamic_checks"), "count"),
        ("memo.hits", count("memo.hits"), "count"),
        ("memo.misses", count("memo.misses"), "count"),
        (
            "memo.hit_ratio",
            ratio(count("memo.hits"), count("memo.hits") + count("memo.misses")),
            "ratio",
        ),
    ];
    metrics.extend(counters.iter().map(|(n, v, u)| (n.to_string(), *v, *u)));
    metrics.extend([
        ("trace.unattributed.ms".to_string(), unattributed, "ms"),
        ("trace.pass_ms.p50".to_string(), traced_p50, "ms"),
        ("trace.overhead_frac".to_string(), ratio(traced_p50, median(&untraced)) - 1.0, "frac"),
    ]);
    println!("counters (per pass, first traced cycle of {cycle}):");
    for (name, value, unit) in metrics.iter().filter(|(_, _, u)| *u != "ms") {
        println!("  {name:<26} {value:>12.4} {unit}");
    }

    let spans_path: PathBuf = work_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let traced_ids: Vec<u32> = traced.iter().map(|(id, _)| *id).collect();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"cycle\":{cycle},\"traced_passes\":{:?}}}",
        args.workload, args.seed, traced_ids
    );
    tr.write_jsonl(&spans_path, &header).map_err(|e| format!("writing spans: {e}"))?;
    print_result(attempted, failed, &metrics);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(p90(&v), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
