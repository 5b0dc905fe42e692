//! relcnn benchmark: end-to-end metrics with tracing off, a per-layer
//! breakdown with tracing on. See `README.md` for the workloads, the
//! metrics and what each output check compares.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign_ber --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod campaign;
mod chain;
mod common;
mod serve;
mod spans;
mod stats;

use stats::RunResult;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("goodput", "share"),
    ("ok_share", "share"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("relexec.conv_ms", "ms"),
    ("relexec.conv_share", "share"),
    ("relexec.relu_ms", "ms"),
    ("relexec.qualified_ops", "count/op"),
    ("relexec.ns_per_op", "ns"),
    ("relexec.detected", "count/op"),
    ("relexec.recovered", "count/op"),
    ("relexec.bucket_peak", "count"),
    ("relexec.aborts", "share"),
    ("relexec.dmr_over_plain", "ratio"),
    ("relexec.tmr_over_plain", "ratio"),
    ("faults.exposures_per_trial", "count/op"),
    ("faults.injected_per_trial", "count/op"),
    ("faults.overhead_ms_per_trial", "ms"),
    ("nn.tail_ms", "ms"),
    ("nn.tail_share", "share"),
    ("nn.tail_macs", "MAC/op"),
    ("nn.arena_grow_events", "count"),
    ("nn.softmax_ms", "ms"),
    ("core.input_check_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.stage_sum_share", "share"),
    ("core.qualifier_ms", "ms"),
    ("core.qualifier_run_share", "share"),
    ("core.qualifier_accept_share", "share"),
    ("vision.gray_ms", "ms"),
    ("vision.sobel_ms", "ms"),
    ("vision.threshold_ms", "ms"),
    ("vision.radial_ms", "ms"),
    ("sax.assess_ms", "ms"),
    ("runtime.busy_share", "share"),
    ("runtime.send_block_ms", "ms/run"),
    ("runtime.dispatch_overhead_ms", "ms"),
    ("runtime.image_busy_ms", "ms"),
    ("serve.critical_p95_ms", "ms"),
    ("serve.batch_p50_ms", "ms"),
    ("serve.batch_p99_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.mean_batch_fill", "count"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.late", "count"),
    ("serve.aimd_clamps", "count"),
    ("serve.early_closes", "count"),
    ("serve.loadgen_lag_ms", "ms"),
    ("obs.trace_overhead", "share"),
    ("obs.trace_events", "count"),
    ("failed_share", "share"),
];

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["campaign_ber", "serve_wall"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line: the metrics of the run's mode, each with its
/// unit, in catalogue order.
fn render(result: &RunResult, trace: bool) -> Result<String, String> {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match result.metrics.get(name) {
            Some(v) => *v,
            // Layers a workload never reaches read 0; every end-to-end
            // metric must be measured.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.problems.is_empty(),
        result.attempted,
        result.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "campaign_ber" => campaign::run(&args),
        "serve_wall" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    for problem in &result.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    match render(&result, args.trace) {
        Ok(line) => {
            for (name, value) in &result.metrics {
                eprintln!("  {name:<32} {value}");
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_wall --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_wall".into(),
                seed: 7,
                seconds: 30.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve_wall")).is_err());
        assert!(parse_args(&argv("--workload serve_wall --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_wall --seed 1 --seconds")).is_err());
    }

    /// The catalogue here and `BENCHMARK.json` name the same workloads and
    /// metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "{needle}");
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut r = RunResult::default();
        assert!(render(&r, false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.attempted = 3;
        let line = render(&r, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        // Per-layer metrics a workload never reaches read 0.
        assert!(render(&r, true)
            .unwrap()
            .contains("\"serve.shed\": {\"value\": 0.0"));
    }
}
