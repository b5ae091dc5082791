//! Live-stream benchmark.
//!
//! Streams a seeded synthetic point-cloud clip through the real serving
//! path — `Broadcast::push_frame`, the subscribers' wires, and each
//! subscriber's `Receiver::recv_frame` — checks every delivery, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a traced run (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path livebench/Cargo.toml -- \
//!     --workload intra_100k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One driver thread runs the whole closed loop; the codec's own pool
//! keeps its default thread count. The run lasts `--seconds` and at
//! least 200 frames, so every subscriber has enough samples for p95.
//! The process exits non-zero when any delivery check fails.

mod alloc;
mod host;
mod layers;
mod run;
mod session;
mod stats;
mod trace;
mod wire;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

const USAGE: &str = "usage: livebench --workload <intra_100k|ipp_100k|fanout_256> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    /// Workload to run.
    pub workload: workload::Spec,
    /// Seed of the clip and of every loss schedule.
    pub seed: u64,
    /// Minimum timed duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
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

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                eprintln!(
                    "{:<40} {:>14.4} {:<12} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            for msg in &out.messages {
                eprintln!("check failed: {msg}");
            }
            for (path, contents) in &out.files {
                let written = path.parent().map_or(Ok(()), std::fs::create_dir_all);
                if let Err(e) = written.and_then(|()| std::fs::write(path, contents)) {
                    eprintln!("livebench: cannot write {}: {e}", path.display());
                }
            }
            println!("{}", out.record);
            println!("{}", out.result_line());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("livebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_command_line_parses_and_bad_ones_do_not() {
        let a = args("--workload ipp_100k --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.name, "ipp_100k");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload intra_100k --seconds 1 --trace 0").is_err());
        assert!(args("--workload intra_100k --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload intra_100k --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload intra_100k --seed").is_err());
    }
}
