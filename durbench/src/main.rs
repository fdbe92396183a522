//! `durbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload through the threaded runtime, checks every
//! delivery against ground truth, prints each metric by name with its
//! unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--workload all`
//! does this for each workload in turn, each in a process of its own.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run adds a traced pass and reports the per-layer
//! ones. Exits non-zero when any
//! delivery is missing, duplicated or out of order, or when the
//! runtime's watchdogs or delivery ledger report a violation.

use durbench::check::{self, median, percentile};
use durbench::layers::{self, metric, Metric};
use durbench::run::{self, Pass, Verdict};
use durbench::workload::{Workload, NAMES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {}", a.seconds));
    }
    if a.workload.is_empty() {
        return Err(format!("--workload is required: one of {NAMES:?} or all"));
    }
    Ok(a)
}

/// The outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// The end-to-end metrics of an untraced pass, plus two that are printed
/// but kept out of the JSON result: `late_frac`, which is legitimately 0
/// on a healthy run, and the whole-run p99, which stalls of the shared
/// machine can double.
fn end_to_end(
    w: &Workload,
    setups: &[f64],
    pass: &Pass,
    v: &Verdict,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut lat = v.latencies_ms.clone();
    let n = lat.len() as u64;
    let (p99, p99_n) = check::quiet_p99(&v.windows_ms, &pass.steal_windows);
    let c: Vec<f64> = v.episodes.iter().map(|e| e.catchup_s).collect();
    let r: Vec<f64> = v.episodes.iter().map(check::Episode::rate_eps).collect();
    let eps = v.episodes.len() as u64;
    let m = vec![
        metric("setup_s", median(setups), "s", setups.len() as u64),
        metric("deliver_p50_ms", percentile(&mut lat, 0.5), "ms", n),
        metric("deliver_p99_ms", p99, "ms", p99_n),
        metric(
            "broker_cpu_us_per_event",
            layers::broker_cpu_per_event(pass),
            "us",
            w.total_events() - w.first_timed(),
        ),
        metric("peak_rss_mb", pass.peak_rss_mb, "MiB", 1),
        metric("catchup_s", median(&c), "s", eps),
        metric("catchup_eps", median(&r), "1/s", eps),
    ];
    let late = lat.iter().filter(|&&l| l > w.limit_ms).count();
    let info = vec![
        metric("late_frac", late as f64 / n.max(1) as f64, "frac", n),
        metric("deliver_p99_run_ms", percentile(&mut lat, 0.99), "ms", n),
    ];
    (m, info)
}

fn report_faults(name: &str, pass: &Pass, v: &Verdict) {
    let f = v.faults;
    println!(
        "{name}: expected {} deliveries; missing {} duplicate {} misordered {} unexpected {}",
        v.expected, f.missing, f.duplicate, f.misordered, f.unexpected
    );
    for (k, n) in &pass.protocol_faults {
        if *n > 0 {
            println!("{name}: {k} = {n}");
        }
    }
    if !pass.drained {
        println!("{name}: not every expected delivery arrived before the deadline");
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let (seed, trace) = (args.seed, args.trace);
    let w = Workload::new(name, seed, args.seconds)
        .ok_or_else(|| format!("unknown workload {name}: one of {NAMES:?} or all"))?;
    let exp = check::expected(&w, w.total_events());
    let exp_total: u64 = exp.iter().map(|e| e.len() as u64).sum();

    // Set up several times; the last network carries the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut started = None;
    for i in 0..SETUPS {
        let s = run::start(&w, false)?;
        setups.push(s.setup_s);
        if i + 1 == SETUPS {
            started = Some(s);
        } else {
            s.discard();
        }
    }
    let plain = run::drive(&w, started.expect("at least one set-up"), exp_total)?;
    let plain_v = run::verdict(&w, &exp, &plain);
    report_faults(name, &plain, &plain_v);
    println!(
        "{name}: the hypervisor stole {:.1}% of this machine's CPU during the timed window",
        100.0 * plain.steal_frac
    );
    let mut attempted = plain_v.expected;
    let mut failed = plain_v.failed(&plain);
    let (e2e, info) = end_to_end(&w, &setups, &plain, &plain_v);

    let metrics = if trace {
        let traced = run::drive(&w, run::start(&w, true)?, exp_total)?;
        let traced_v = run::verdict(&w, &exp, &traced);
        report_faults(&format!("{name} (traced)"), &traced, &traced_v);
        attempted += traced_v.expected;
        failed += traced_v.failed(&traced);
        let replay = layers::replay_matching(&w, w.first_timed(), w.total_events(), 0.3);
        failed += replay.mismatches;
        for r in layers::reconcile(&traced) {
            println!(
                "{name} reconcile {:>8}: cpu {:>10.0} us = self {:>10.0} + storage {:>9.0} + unexplained {:>9.0} ({:+.3})",
                r.node,
                r.cpu_us,
                r.self_us,
                r.storage_us,
                r.cpu_us - r.self_us - r.storage_us,
                r.unexplained_frac()
            );
        }
        for m in e2e.iter().chain(&info) {
            println!(
                "{name} untraced {} = {:.4} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        layers::per_layer(&w, (&traced, &traced_v), (&plain, &plain_v), &replay)
    } else {
        for m in &info {
            println!(
                "{name} {} = {:.4} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        e2e
    };
    for m in &metrics {
        println!(
            "{name} {} = {:.4} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity: a missing delivery or a catchup that
        // never finished reads as an absurdly large number.
        "1e300".into()
    }
}

/// Runs each workload in a process of its own, so that none inherits
/// another's peak memory; each prints its own metrics and result line.
/// `true` when every one of them passed its checks.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
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
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("durbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        match run_all(&args) {
            Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
            Err(e) => {
                eprintln!("durbench: {e}");
                std::process::exit(1);
            }
        }
    }
    match run_workload(&args.workload, &args) {
        Ok(o) => {
            print_result(&o);
            if !o.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("durbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
