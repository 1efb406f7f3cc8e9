//! Benchmark of the VDTN simulator: one workload per process, one
//! simulation thread, every output checked.
//!
//! ```text
//! vdtn_perfbench --workload <paper_sweep|dense_mesh>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` they are the per-layer ones,
//! measured by a separate, traced run (see `probes`).

mod checks;
mod probes;
mod workloads;

use workloads::median;

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
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

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vdtn_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut errors: Vec<String> = checks::self_test()
        .into_iter()
        .map(|name| format!("self-test: check `{name}` accepted a wrong input"))
        .collect();
    let (attempted, metrics) = if args.trace {
        let traced = match probes::trace(&args.workload, args.seed) {
            Some(t) => t,
            None => {
                eprintln!("vdtn_perfbench: unknown workload {}", args.workload);
                std::process::exit(2);
            }
        };
        errors.extend(traced.errors);
        (traced.attempted, traced.metrics)
    } else {
        let out = match args.workload.as_str() {
            "paper_sweep" => workloads::paper_sweep(args.seed, args.seconds),
            "dense_mesh" => workloads::dense_mesh(args.seed, args.seconds),
            other => {
                eprintln!("vdtn_perfbench: unknown workload {other}");
                std::process::exit(2);
            }
        };
        errors.extend(out.errors);
        let attempted = out.rounds.len() as u64 * out.ops_per_round;
        // Times are scaled to the reference speed: `slowdown` is how much
        // slower than that the host ran the reference kernel in this run.
        let slowdown = median(&out.refs) / workloads::REF_SECS;
        let sim_rate = out.round_node_secs / workloads::round_estimate(&out.rounds);
        let setup_s = median(&out.setups);
        eprintln!(
            "vdtn_perfbench: host slowdown {slowdown:.4} over {} reference samples; \
             unscaled sim_rate {sim_rate:.1} node-s/s, setup_s {setup_s:.6} s",
            out.refs.len()
        );
        let metrics = vec![
            metric("sim_rate", sim_rate * slowdown, "node-s/s"),
            metric("setup_s", setup_s / slowdown, "s"),
            metric("peak_rss_mb", out.peak_rss_mb, "MB"),
        ];
        (attempted, metrics)
    };
    for e in &errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let failed = if errors.is_empty() { 0 } else { attempted };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
}

/// A finite number as JSON, with all its digits; anything else as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
