//! The repository benchmark.
//!
//! One invocation runs one workload in this process, on one thread:
//!
//! ```text
//! hams-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced sessions, `--trace
//! 1` the per-layer profile from a traced session and its replays. The last
//! line of standard output is one JSON object; `README.md` documents every
//! metric.

mod replay;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use hams::sim::Histogram;
use workload::{Sim, Workload, WORKLOADS};

/// At least this many timed sessions (or profiling rounds), however short
/// `--seconds` is.
pub const MIN_REPS: usize = 5;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// Failed correctness checks, each printed by name and counted as one
/// failed operation, plus the requests every session of the invocation
/// offered and dropped.
#[derive(Default)]
pub struct Tally {
    pub failed_checks: u64,
    pub attempted: u64,
    pub dropped: u64,
}

impl Tally {
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            println!("check failed: {name}");
            self.failed_checks += 1;
        }
    }

    /// Accounts one served session and checks its simulated results: served
    /// equals requested, arrivals equal served plus dropped, per-tenant
    /// counters sum to the totals, and every simulated metric is identical
    /// to the warm-up's for the same seed.
    pub fn session(&mut self, w: &Workload, sim: &Sim, reference: Option<&Sim>) {
        self.attempted += sim.arrivals;
        self.dropped += sim.dropped;
        self.check("arrivals equal requested", sim.arrivals == w.offered());
        self.check(
            "arrivals equal served plus dropped",
            sim.arrivals == sim.served + sim.dropped,
        );
        self.check("per-tenant counters sum to totals", sim.tenant_sums_hold);
        if let Some(reference) = reference {
            self.check(
                "simulated metrics identical across sessions of one seed",
                sim == reference,
            );
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hams-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() != 8 {
        return Err("expected exactly four flags".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let value = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            flag => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The library's constructors read `HAMS_SHARDS` and `HAMS_DEVICES`, so a
/// `HAMS_*` knob left in the environment would silently change the program
/// being measured. Refuse to run instead.
fn refuse_knobs() -> Result<(), String> {
    let mut knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HAMS_"))
        .collect();
    knobs.sort();
    if knobs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "environment knob(s) set: {}; they change the measured program, unset them",
            knobs.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_knobs() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let w = args.workload;
    let scale = w.scale(args.seed, 0);
    println!(
        "workload {}: seed {}, {} session(s) of {} requests, capacity divisor {} ({} MiB cache)",
        w.name,
        args.seed,
        w.sessions,
        w.offered(),
        scale.capacity_divisor,
        scale.cache_bytes() >> 20
    );

    // Host warm-up: one untimed pass over every session. Its simulated
    // results are the reference each later session of the same seed must
    // reproduce exactly.
    let mut tally = Tally::default();
    let mut sojourn = Workload::sojourn_histogram();
    let reference: Vec<Sim> = (0..w.sessions)
        .map(|i| {
            let scale = w.scale(args.seed, i);
            let mut prepared = w.prepare(&scale);
            let sim = w.run_observed(&mut prepared, &scale, &mut sojourn).sim();
            tally.session(&w, &sim, None);
            sim
        })
        .collect();
    let fingerprints: Vec<u8> = reference
        .iter()
        .flat_map(|s| s.fingerprint.to_le_bytes())
        .collect();
    println!(
        "simulated fingerprint {:016x}",
        workload::fnv1a(&fingerprints)
    );

    let metrics = if args.trace {
        replay::profile(&args, &reference, &mut tally)
    } else {
        end_to_end(&args, &reference, &sojourn, &mut tally)
    };
    for (name, value, _) in &metrics {
        tally.check(&format!("{name} is finite"), value.is_finite());
    }

    println!(
        "{}",
        result_json(
            tally.failed_checks == 0,
            tally.attempted,
            tally.dropped + tally.failed_checks,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// Times untraced sessions, cycling through every session, until `seconds`
/// have passed and at least [`MIN_REPS`] ran. Returns the per-session set-up
/// and run times in seconds.
fn timed_sessions(
    args: &Args,
    reference: &[Sim],
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let (mut setups, mut runs) = (Vec::new(), Vec::new());
    let began = Instant::now();
    while runs.len() < MIN_REPS || began.elapsed().as_secs_f64() < seconds {
        let i = runs.len() % args.workload.sessions;
        let (setup, run) = timed_session(args, reference, i, tally);
        setups.push(setup);
        runs.push(run);
    }
    (setups, runs)
}

/// One untraced session `i` on a freshly prepared platform: its set-up and
/// run times in seconds.
pub fn timed_session(args: &Args, reference: &[Sim], i: usize, tally: &mut Tally) -> (f64, f64) {
    let w = args.workload;
    let scale = w.scale(args.seed, i);
    let t0 = Instant::now();
    let mut prepared = w.prepare(&scale);
    let t1 = Instant::now();
    let outcome = w.run(&mut prepared, &scale);
    let t2 = Instant::now();
    drop(prepared);
    tally.session(&w, &outcome.sim(), reference.get(i));
    ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

fn end_to_end(
    args: &Args,
    reference: &[Sim],
    sojourn: &Histogram,
    tally: &mut Tally,
) -> Vec<Metric> {
    let w = args.workload;
    let (setups, times) = timed_sessions(args, reference, args.seconds, tally);
    // Throughput is taken from the fastest session. A run's sessions do the
    // same simulated work in every run of a seed, and a shared host only
    // ever adds delay (it drifts by up to 2x for seconds at a time), so the
    // minimum time is the estimate that repeats from run to run (Chen and
    // Revels, "Robust benchmarking in noisy environments", HPEC 2016).
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);

    let total = |f: fn(&Sim) -> f64| -> f64 { reference.iter().map(f).sum() };
    let [p50, p99, p999] = [50.0, 99.0, 99.9].map(|q| {
        sojourn
            .percentile(q)
            .map_or(f64::NAN, |t| t.as_micros_f64())
    });
    println!(
        "host: {} timed sessions, ns/request fastest {:.1}, median {:.1}",
        times.len(),
        best * 1e9 / w.offered() as f64,
        median(&times) * 1e9 / w.offered() as f64
    );
    println!(
        "sojourn: {} samples, {} beyond p999",
        sojourn.count(),
        sojourn.count() - (sojourn.count() as f64 * 0.999).ceil() as u64
    );
    println!(
        "drop_fraction {} ({} of {} arrivals)",
        total(|s| s.dropped as f64) / total(|s| s.arrivals as f64),
        total(|s| s.dropped as f64),
        total(|s| s.arrivals as f64)
    );
    vec![
        ("host_accesses_per_s", w.offered() as f64 / best, "1/s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        (
            "sim_pages_per_s",
            total(|s| s.pages) / total(|s| s.seconds),
            "1/sim_s",
        ),
        (
            "sim_energy_uj_per_access",
            total(|s| s.energy_j) * 1e6 / total(|s| s.served as f64),
            "uJ",
        ),
        ("sim_sojourn_p50_us", p50, "sim_us"),
        ("sim_sojourn_p99_us", p99, "sim_us"),
        ("sim_sojourn_p999_us", p999, "sim_us"),
    ]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
