//! The netmeter-sentinel benchmark: two workloads driven through the
//! library's public entry points and timed from outside, plus a traced run
//! that reads the spans and counters the pipeline already emits.
//! `README.md` beside this file says why each workload exists and which
//! end-to-end metric each layer metric should move.
//!
//! ```sh
//! perfbench gen --workload fleet_4x12 --seed 1 > inputs.json
//! perfbench run --inputs inputs.json --workdir work --seconds 55 --trace 0
//! ```
//!
//! `gen` turns a workload name and a seed into every input the program
//! receives (scenarios, run configurations, shard seeds); `run` sees only
//! those inputs and prints one JSON line: the metrics, the digest of the
//! run results, and the day closes attempted and failed.

mod inputs;
mod layers;
mod report;
mod reps;

use std::error::Error;
use std::path::PathBuf;

use crate::inputs::Inputs;

type BoxError = Box<dyn Error>;

fn main() {
    if let Err(err) = real_main() {
        eprintln!("perfbench: {err}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), BoxError> {
    let mut args = std::env::args().skip(1);
    let command = args
        .next()
        .ok_or("usage: perfbench <gen|run> --flag value ...")?;
    let mut flags = std::collections::BTreeMap::new();
    let mut smoke = false;
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
            continue;
        }
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?
            .to_string();
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let flag = |name: &str| -> Result<String, String> {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    match command.as_str() {
        "gen" => {
            let inputs = inputs::generate(&flag("workload")?, flag("seed")?.parse()?, smoke)?;
            println!("{}", serde_json::to_string(&inputs)?);
        }
        "run" => {
            let text = std::fs::read_to_string(flag("inputs")?)?;
            let inputs: Inputs = serde_json::from_str(&text)?;
            let workdir = PathBuf::from(flag("workdir")?);
            let seconds: f64 = flag("seconds")?.parse()?;
            let traced = match flag("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
            };
            std::fs::create_dir_all(&workdir)?;
            println!("{}", report::run(&inputs, &workdir, seconds, traced)?);
        }
        other => return Err(format!("unknown command {other:?}").into()),
    }
    Ok(())
}
