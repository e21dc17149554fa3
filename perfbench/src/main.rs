//! The Octant benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <loo51|recursive|zipf-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up several times (reporting
//! the median set-up time), measures it for `--seconds` seconds and prints
//! every end-to-end metric. With `--trace 1` it measures the same workload
//! twice on fresh state, half the time each: once untraced and once through
//! the tracing wrappers, and prints the per-layer metrics of the traced
//! half together with the tracing overhead and coverage. Either way the
//! outputs are checked, and the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero when a check failed. See `README.md` for the workloads
//! and the metrics.

mod campaign;
mod client;
mod layers;
mod loo51;
mod recursive;
mod serving;
mod stats;
mod trace;
mod wrap;
mod zipf_churn;

use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The thread budget of a run: the callers (service workers, or the single
/// leave-one-out caller) times the per-batch fan-out of the rayon stand-in
/// never exceeds the cores.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub nproc: usize,
    pub workers: usize,
    pub fan_out: usize,
}

impl Budget {
    /// * `recursive`: one worker fanning out over every core — a batch of
    ///   recursive solves spreads its router work across cores (on two
    ///   cores, 1 worker × 2 served 52–56 targets/s against 39 for 2 × 1).
    /// * `zipf-churn`: one worker per core without fan-out — at an open
    ///   loop's trickle most batches hold one target, which a fan-out
    ///   cannot split, so a second worker is what lets a storm of cold
    ///   solves use the second core.
    /// * `loo51`: its one caller without fan-out; the leave-one-out loop
    ///   is sequential, and fanning its region sweeps out over threads
    ///   spawned per operation bought no throughput and doubled the
    ///   run-to-run spread.
    fn for_workload(workload: &str) -> Budget {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (workers, fan_out) = match workload {
            "recursive" => (1, nproc),
            "zipf-churn" => (nproc, 1),
            _ => (1, 1),
        };
        Budget {
            nproc,
            workers,
            fan_out,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The run record, printed as `# key: value` lines.
    pub record: Vec<(&'static str, String)>,
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.problems.push(what.into());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // A non-finite value would make the line unparsable; it can
                // only come from a defect, which the checks report.
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Caps glibc's malloc arenas at the core count before any thread exists.
///
/// The rayon stand-in spawns fresh threads for every batch, and glibc hands
/// a thread that starts while older ones still hold their arenas a new
/// arena of its own, which keeps its freed memory. How many arenas a run
/// creates then follows the host's timing: `recursive`'s `peak_rss_mb`
/// ranged 118–144 MiB over ten seeds, higher on the slower runs. With at
/// most one arena per core it measures the program's memory instead.
fn cap_malloc_arenas(nproc: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_ARENA_MAX` from glibc's `malloc.h`.
        const M_ARENA_MAX: i32 = -8;
        let arenas = i32::try_from(nproc).unwrap_or(i32::MAX);
        // SAFETY: `mallopt` only adjusts allocator tunables; it is called
        // before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, arenas);
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    let _ = nproc;
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Budget::for_workload(&args.workload);
    // The rayon stand-in reads its width from the environment on every
    // fan-out; set it before any thread exists.
    std::env::set_var("RAYON_NUM_THREADS", budget.fan_out.to_string());
    cap_malloc_arenas(budget.nproc);
    let duration = Duration::from_secs_f64(args.seconds);
    let mut report = match args.workload.as_str() {
        "loo51" => loo51::run(&args, budget, duration),
        "recursive" => recursive::run(&args, budget, duration),
        "zipf-churn" => zipf_churn::run(&args, budget, duration),
        other => {
            eprintln!("perfbench: unknown workload {other} (loo51, recursive, zipf-churn)");
            std::process::exit(2);
        }
    };
    report.note("seed", args.seed);
    report.note("trace", u8::from(args.trace));
    report.note("nproc", budget.nproc);
    for (key, value) in &report.record {
        println!("# {key}: {value}");
    }
    for problem in &report.problems {
        println!("# CHECK FAILED: {problem}");
    }
    println!("{}", report.to_json());
    if !report.correct {
        std::process::exit(1);
    }
}

/// Accuracy of a set of outcomes, in the units the benchmark reports.
pub struct Accuracy {
    pub median_km: f64,
    pub worst_km: f64,
    pub hit_rate: f64,
}

/// Median and worst point error (through [`octant::ErrorCdf`], the
/// convention the figure harnesses use) and the region hit rate.
pub fn accuracy(outcomes: &[octant::TargetOutcome]) -> Accuracy {
    let cdf = octant::ErrorCdf::from_outcomes(outcomes);
    Accuracy {
        median_km: cdf.median().unwrap_or(f64::NAN) * octant_geo::KM_PER_MILE,
        worst_km: cdf.max().unwrap_or(f64::NAN) * octant_geo::KM_PER_MILE,
        hit_rate: octant::eval::region_hit_rate(outcomes),
    }
}

/// Scores a served estimate against the target's advertised position.
pub fn score(
    provider: &dyn octant_netsim::ObservationProvider,
    target: octant_netsim::NodeId,
    estimate: octant::LocationEstimate,
) -> octant::TargetOutcome {
    let truth = provider
        .advertised_location(target)
        .expect("benchmark targets advertise their position");
    octant::TargetOutcome {
        target,
        truth,
        error: estimate
            .point
            .map(|p| octant_geo::distance::great_circle(p, truth)),
        region_hit: estimate.region.as_ref().map(|r| r.contains(truth)),
        region_area_mi2: None,
        estimate,
    }
}

/// `true` when two estimates are the same answer, bit for bit.
pub fn same_answer(a: &octant::LocationEstimate, b: &octant::LocationEstimate) -> bool {
    a.point == b.point && a.report == b.report && a.provenance == b.provenance
}

/// Emits `latency_p50_ms` and `latency_tail_ms` and records the tail's
/// percentile and sample count.
///
/// The run's samples come in windows (passes, or the epochs between two
/// refreshes). The median is the median over windows of each window's
/// median, and with `tail_per_window` so is the tail, so that a window
/// caught by a burst of contention on the host moves neither; otherwise
/// the tail is taken over every sample of the run.
pub fn latency_metrics(report: &mut Report, windows: &[Vec<f64>], tail_per_window: bool) {
    let per_window = |f: &dyn Fn(&[f64]) -> Option<f64>| {
        let values: Vec<f64> = windows.iter().filter_map(|w| f(w)).collect();
        stats::median(&values).unwrap_or(f64::NAN)
    };
    report.metric("latency_p50_ms", per_window(&stats::median), "ms");
    let all = windows.concat();
    let (p, tail) = if tail_per_window {
        (
            per_window(&|w| stats::tail(w).map(|t| t.0)),
            per_window(&|w| stats::tail(w).map(|t| t.1)),
        )
    } else {
        stats::tail(&all).unwrap_or((f64::NAN, f64::NAN))
    };
    report.metric("latency_tail_ms", tail, "ms");
    report.check(
        windows.iter().all(|w| w.len() > stats::TAIL_BEYOND) || !tail_per_window,
        "a latency window holds too few samples for a tail percentile",
    );
    report.check(
        all.len() > stats::TAIL_BEYOND,
        format!("{} latency samples leave no tail percentile", all.len()),
    );
    report.note("latency_samples", all.len());
    report.note(
        "latency_window_tails_ms",
        windows
            .iter()
            .filter_map(|w| stats::tail(w).map(|t| format!("{:.1}", t.1)))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.note("latency_windows", windows.len());
    report.note(
        "latency_tail_percentile",
        format!(
            "p{p:.2}{}",
            if tail_per_window {
                " (median over windows)"
            } else {
                " (over all samples)"
            }
        ),
    );
}

/// Writes the traced run's spans under `.bench_out/` in the working
/// directory and records the file in the run record.
pub fn write_trace(report: &mut Report, args: &Args, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => report.note(
            "trace_file",
            format!("{} ({} spans)", path.display(), spans.len()),
        ),
        Err(e) => report.check(false, format!("writing {}: {e}", path.display())),
    }
}
