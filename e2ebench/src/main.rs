//! End-to-end benchmark of the THINC pipeline: wall-clock pixels to
//! pixels over real wire bytes, on three workloads, with per-layer
//! spans in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <web|video|fanout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A traced run also writes its spans as
//! JSON lines under `e2ebench/out/`.

mod alloc;
mod bench;
mod driver;
mod fanout;
mod paper;
mod stats;
mod tally;
#[cfg(test)]
mod tests;
mod trace;

use bench::{Metric, Outcome, Shape};
use driver::Timed;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["web", "video", "fanout"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: e2ebench --workload <web|video|fanout> --seed <n> --seconds <s> --trace <0|1>"
        .to_string()
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad.clone())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad);
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The full-size shape of each workload.
fn shape(workload: &str) -> Shape {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (updates, viewers, exact_passes) = match workload {
        "video" => (
            thinc_workloads::video::VideoClip::benchmark().frame_count() as usize,
            1,
            1,
        ),
        "fanout" => (thinc_workloads::web::PAGE_COUNT, 16, 4),
        _ => (thinc_workloads::web::PAGE_COUNT, 1, 4),
    };
    Shape {
        width: 1024,
        height: 768,
        updates,
        viewers,
        workers: cores.min(2),
        exact_passes,
    }
}

fn run(a: &Args, shape: Shape) -> Outcome {
    match a.workload.as_str() {
        "web" => bench::run(|| paper::Web::new(shape, Timed), a.seed, a.seconds, a.trace),
        "video" => bench::run(
            || paper::Video::new(shape, Timed),
            a.seed,
            a.seconds,
            a.trace,
        ),
        _ => bench::run(|| fanout::Fanout::new(shape), a.seed, a.seconds, a.trace),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let shape = shape(w);
    let o = run(&args, shape);
    let attempted = o.updates.len();
    let failed = bench::failed(&o);
    println!(
        "workload {w}  seed {}  {}x{}  viewers {}  workers {}  cores {}",
        args.seed,
        shape.width,
        shape.height,
        shape.viewers,
        shape.workers,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (e2e, tail_p, samples) = bench::end_to_end(&o);
    let mut metrics = e2e.clone();
    if let Some(q) = o.av_quality {
        metrics.push(("av_quality_pct", 100.0 * q, "%"));
    }
    metrics.push(("failed_frac", failed as f64 / attempted as f64, "ratio"));
    for (name, v, unit) in &metrics {
        println!("  {name:<24} {v:>14.4} {unit}");
    }
    println!("  update_ms_tail is p{tail_p} of {samples} untraced samples");
    println!(
        "  wire digest {:016x} over the first {} passes ({} updates)",
        o.digest, shape.exact_passes, o.exact.updates
    );
    let reported = if args.trace {
        let layers = bench::per_layer(&o);
        for (name, v, unit) in &layers {
            println!("  {name:<32} {v:>14.4} {unit}");
        }
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("spans-{w}-{}.jsonl", args.seed));
        match trace::write_jsonl(&path, &o.spans) {
            Ok(()) => println!("  {} spans written to {}", o.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        layers
    } else {
        e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&reported)
    );
}
