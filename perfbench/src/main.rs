//! `perfbench --workload <paper_figs|pai_replay|pai_contended> [--seed N]
//! [--seconds S] [--trace 0|1]`, run from the repository root.
//!
//! Prints a manifest line and then, as the last line of stdout, the result:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! untraced, per-layer metrics traced. Exits 2 without a result when the
//! run cannot start.

use perfbench::{run, Opts, WorkloadName};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper_figs|pai_replay|pai_contended> [--seed N] \
         [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadName::parse(value).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad())),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Opts {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    }
}

fn main() {
    let opts = parse_args();
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.manifest.emit());
            println!("{}", outcome.result.emit());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload.as_str());
            std::process::exit(2);
        }
    }
}
