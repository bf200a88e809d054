//! Layer-ladder benchmark for hyperdex.
//!
//! ```text
//! ladderbench --workload <pin_lookup|search_log|ingest_mixed> --seed <n>
//!             --seconds <n> --trace <0|1> --server-bin <path> --out-dir <dir>
//!             [--git-rev <rev>] [--source-digest <hex>]
//! ```
//!
//! `--trace 0` runs the workload end to end against a loopback cluster
//! of `hyperdex-server` processes and prints the end-to-end metrics;
//! `--trace 1` replays the same operations down the layer ladder with
//! spans and prints the per-layer metrics. Either way every reply is
//! checked against the direct engine, and the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `run.py` builds the binaries and supplies the paths; see
//! `README.md` beside it for what each metric measures.

mod cluster;
mod e2e;
mod engine;
mod ladder;
mod meter;
mod oracle;
mod pass;
mod protocol;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{record, result_line, Outcome};
use workload::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
    git_rev: String,
    source_digest: String,
}

const USAGE: &str = "usage: ladderbench --workload <pin_lookup|search_log|ingest_mixed> \
--seed <n> --seconds <n> --trace <0|1> --server-bin <path> --out-dir <dir> \
[--git-rev <rev>] [--source-digest <hex>]";

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut server_bin, mut out_dir) = (None, None);
    let mut git_rev = "unknown".to_string();
    let mut source_digest = "unknown".to_string();
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--git-rev" => git_rev = value,
            "--source-digest" => source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        server_bin: server_bin.ok_or_else(|| missing("--server-bin"))?,
        out_dir: out_dir.ok_or_else(|| missing("--out-dir"))?,
        git_rev,
        source_digest,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ladderbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program must run at its defaults: a knob set in the
    // environment would silently change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HYPERDEX_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("ladderbench: refusing to run with {knobs:?} set; unset them");
        return ExitCode::from(2);
    }
    if !args.server_bin.is_file() {
        eprintln!(
            "ladderbench: hyperdex-server binary not found at {}; build it with \
             `cargo build --release -p hyperdex-net --bin hyperdex-server`",
            args.server_bin.display()
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("ladderbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let plan = Plan::build(args.workload, args.seed, args.seconds);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = if args.trace {
        // One span file per workload, replaced by each traced run: the
        // files are large and only the latest is worth keeping.
        let spans = args
            .out_dir
            .join(format!("{}.spans.tsv", args.workload.name()));
        ladder::run(&plan, &args.server_bin, &spans)
    } else {
        e2e::run(&plan, &args.server_bin)
    };
    let mut outcome: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            return ExitCode::from(1);
        }
    };
    let declared: &[&str] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let reported: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if reported != declared {
        outcome.error(format!(
            "reported metrics {reported:?} differ from {declared:?}"
        ));
    }
    outcome.correct = outcome.errors.is_empty() && outcome.failed == 0;
    outcome.note(
        "failed_ratio",
        report::ratio(outcome.failed as f64, outcome.attempted as f64),
    );

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = [
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", args.git_rev.clone()),
        ("source_digest", args.source_digest.clone()),
        ("host_cores", cores.to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("objects", plan.corpus.len().to_string()),
        ("preload", plan.preload.to_string()),
        ("ops", plan.ops().to_string()),
        ("replays", plan.replays.to_string()),
        ("transport", "loopback TCP".to_string()),
    ];
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }
    for e in &outcome.errors {
        println!("# error: {e}");
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let path = args.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&path, record(&provenance, &outcome)) {
        eprintln!("ladderbench: writing {}: {e}", path.display());
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
