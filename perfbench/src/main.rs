use perfbench::run::{self, Outcome};
use perfbench::trace::Tracer;
use perfbench::workload::{Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <force-32k|energy-4k|pswf-4k|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![Workload::by_name(&workload).ok_or(format!("unknown workload {workload:?}"))?]
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

/// The commit, read from `.git` in the working directory when there is one.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(PathBuf::from(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().into();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().into();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Where a traced run leaves its spans: inside the build directory.
fn trace_path(w: &Workload, seed: u64) -> PathBuf {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    PathBuf::from(dir)
        .join("perfbench-traces")
        .join(format!("{}-seed{seed}.json", w.name))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse(&argv[1..]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut outcomes: Vec<(&str, Outcome)> = Vec::new();
    for w in &args.workloads {
        println!(
            "# perfbench sha={} host={} nproc={nproc} threads={} command={:?}",
            git_sha(),
            host(),
            w.threads,
            argv.join(" ")
        );
        println!(
            "# {} seed={} seconds={} trace={}: {} backend, N = {}, alpha = {}, s = {}, r_cut = {} A, n_max = {}, dt = {} fs, potential every {} steps, {} clusters, displacement {} A",
            w.name, args.seed, args.seconds, u8::from(args.trace), w.backend, w.n(), w.alpha, w.s,
            w.r_cut, w.n_max, w.dt_fs, w.potential_interval, w.clusters, w.displacement_a
        );
        let out = rayon::with_num_threads(w.threads, || {
            if args.trace {
                run::traced(w, args.seed, args.seconds)
            } else {
                run::untraced(w, args.seed, args.seconds)
            }
        });
        for &(name, value, unit, n) in &out.metrics {
            println!("{name:<28} {value:>16.6e} {unit:<6} (n = {n})");
        }
        for note in &out.notes {
            println!("  {note}");
        }
        println!(
            "  positions hash after {} steps: {:016x}",
            w.min_steps, out.positions_hash
        );
        for failure in &out.checks.failures {
            println!("  FAILED {failure}");
        }
        if args.trace {
            let path = trace_path(w, args.seed);
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, Tracer::chrome_json(&out.spans)));
            match written {
                Ok(()) => println!("  {} spans written to {}", out.spans.len(), path.display()),
                Err(e) => println!("  spans not written to {}: {e}", path.display()),
            }
        }
        outcomes.push((w.name, out));
    }
    let refs: Vec<(&str, &Outcome)> = outcomes.iter().map(|(n, o)| (*n, o)).collect();
    println!("{}", perfbench::result_json(&refs));
    if outcomes.iter().any(|(_, o)| o.checks.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
