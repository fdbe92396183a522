//! `xp` — regenerates the paper's tables and figures.
//!
//! ```text
//! xp [--quick] [--csv DIR] [--trace] [--sample-interval MS]
//!    [--metrics-addr ADDR] [--bundle-out DIR] [--seed-offset N]
//!    [--degrade] [--slow-sub] [--subs N] [--churn-pct P]
//!    <experiment>|all|list
//! xp doctor inspect BUNDLE [--exemplars]
//! xp doctor check BUNDLE
//! xp doctor diff A B [--threshold-pct P] [--abs-floor-us US]
//! xp doctor export-trace BUNDLE -o trace.json
//! ```
//!
//! * `list` prints the catalog;
//! * `all` runs every experiment in order;
//! * `--quick` runs shortened virtual-time versions (CI-friendly);
//! * `--csv DIR` additionally dumps each experiment's raw series as CSV
//!   files for plotting;
//! * `--trace` prints the full structured trace ring after each report
//!   (the report itself only shows the tail);
//! * `--sample-interval MS` arms the windowed telemetry sampler on every
//!   simulator at the given virtual-time interval (milliseconds; see
//!   DESIGN.md §13) — reports then include a sparkline timeline section;
//! * `--metrics-addr ADDR` serves the most recent experiment's
//!   Prometheus snapshot live at `http://ADDR/metrics` (e.g.
//!   `127.0.0.1:9090`) until xp exits;
//! * `--bundle-out DIR` writes a complete self-describing run bundle per
//!   experiment under `DIR/<id>/` (manifest, metrics, timeline, alerts,
//!   Prometheus snapshot, report, flight recorder — DESIGN.md §14). It
//!   arms the sampler (500 ms unless `--sample-interval` says
//!   otherwise) and the online health engine, and points the flight
//!   recorder into the bundle; `xp doctor export-trace` turns a bundle
//!   into a Chrome/Perfetto trace (DESIGN.md §17);
//! * `--seed-offset N` shifts every simulator seed by N (same workload,
//!   different randomness — for A/B bundles fed to `xp doctor diff`);
//! * `--degrade` deliberately worsens broker latency/batching config
//!   (CI uses it to prove `xp doctor diff` catches real regressions);
//! * `--subs N` overrides the `mega_subs` durable-subscription
//!   population (default 10^6, or 20 000 under `--quick`);
//! * `--churn-pct P` overrides the `mega_subs` churn percentage
//!   (default 1);
//! * `xp doctor inspect|diff|check` analyses bundles offline — see
//!   `gryphon_harness::doctor`.

use std::io::Write;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("doctor") {
        std::process::exit(gryphon_harness::doctor::run(&argv[1..]));
    }
    let mut quick = false;
    let mut trace = false;
    let mut csv_dir: Option<String> = None;
    let mut bundle_dir: Option<String> = None;
    let mut sample_interval_ms: Option<u64> = None;
    let mut metrics_addr: Option<String> = None;
    let mut seed_offset: u64 = 0;
    let mut degrade = false;
    let mut slow_sub = false;
    let mut subs: Option<u64> = None;
    let mut churn_pct: Option<f64> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--trace" => trace = true,
            "--sample-interval" => {
                sample_interval_ms = args.next().and_then(|v| v.parse().ok());
                if sample_interval_ms.is_none() {
                    eprintln!("--sample-interval requires a milliseconds argument");
                    std::process::exit(2);
                }
            }
            "--metrics-addr" => {
                metrics_addr = args.next();
                if metrics_addr.is_none() {
                    eprintln!("--metrics-addr requires an address argument (e.g. 127.0.0.1:9090)");
                    std::process::exit(2);
                }
            }
            "--csv" => {
                csv_dir = args.next();
                if csv_dir.is_none() {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--bundle-out" => {
                bundle_dir = args.next();
                if bundle_dir.is_none() {
                    eprintln!("--bundle-out requires a directory argument");
                    std::process::exit(2);
                }
            }
            "--seed-offset" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed-offset requires an integer argument");
                    std::process::exit(2);
                };
                seed_offset = n;
            }
            "--degrade" => degrade = true,
            "--slow-sub" => slow_sub = true,
            "--subs" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--subs requires an integer argument");
                    std::process::exit(2);
                };
                subs = Some(n);
            }
            "--churn-pct" => {
                let Some(p) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--churn-pct requires a numeric argument");
                    std::process::exit(2);
                };
                churn_pct = Some(p);
            }
            "--help" | "-h" => {
                println!(
                    "usage: xp [--quick] [--csv DIR] [--trace] [--sample-interval MS] \
                     [--metrics-addr ADDR] [--bundle-out DIR] [--seed-offset N] [--degrade] \
                     [--slow-sub] [--subs N] [--churn-pct P] <experiment>|all|list\n\
                     \x20      xp doctor inspect BUNDLE [--exemplars] [--topk] [--json]\n\
                     \x20      xp doctor check BUNDLE\n\
                     \x20      xp doctor diff A B [--threshold-pct P] [--abs-floor-us US]\n\
                     \x20      xp doctor export-trace BUNDLE -o trace.json"
                );
                print_catalog();
                return;
            }
            other => targets.push(other.to_owned()),
        }
    }
    if targets.is_empty() {
        eprintln!(
            "usage: xp [--quick] [--csv DIR] [--trace] [--bundle-out DIR] <experiment>|all|list"
        );
        print_catalog();
        std::process::exit(2);
    }
    // --bundle-out without an explicit interval still needs the
    // sampler armed; 500 ms windows match the experiments' timescales.
    // A bundle additionally arms the online health engine.
    if bundle_dir.is_some() {
        sample_interval_ms.get_or_insert(500);
        gryphon_harness::topology::set_default_health(true);
    }
    gryphon_harness::topology::set_default_seed_offset(seed_offset);
    gryphon_harness::topology::set_default_degrade(degrade);
    gryphon_harness::topology::set_default_slow_sub(slow_sub);
    gryphon_harness::topology::set_default_mega_subs(subs);
    gryphon_harness::topology::set_default_churn_pct(churn_pct);
    gryphon_harness::topology::set_default_sample_interval(
        sample_interval_ms.map(|ms| ms.saturating_mul(1_000).max(1)),
    );
    // Live scrape endpoint: serves the latest completed experiment's
    // Prometheus snapshot (empty until the first one finishes).
    let live_prom: std::sync::Arc<std::sync::Mutex<String>> = Default::default();
    let _scrape = metrics_addr.as_deref().map(|addr| {
        let prom = std::sync::Arc::clone(&live_prom);
        let server = gryphon_sim::telemetry::TextServer::serve(addr, move || {
            prom.lock().map(|s| s.clone()).unwrap_or_default()
        })
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind --metrics-addr {addr}: {e}");
            std::process::exit(1);
        });
        println!(
            "[serving live metrics at http://{}/metrics]",
            server.local_addr()
        );
        server
    });
    let opts = Options {
        quick,
        trace,
        csv_dir,
        bundle_dir,
        seed_offset,
        degrade,
        sample_interval_ms,
        live_prom,
    };
    for target in targets {
        match target.as_str() {
            "list" => print_catalog(),
            "all" => {
                for (id, _) in gryphon_harness::catalog() {
                    run_one(id, &opts);
                }
            }
            id => run_one(id, &opts),
        }
    }
}

struct Options {
    quick: bool,
    trace: bool,
    csv_dir: Option<String>,
    bundle_dir: Option<String>,
    seed_offset: u64,
    degrade: bool,
    sample_interval_ms: Option<u64>,
    live_prom: std::sync::Arc<std::sync::Mutex<String>>,
}

fn print_catalog() {
    println!("experiments:");
    for (id, summary) in gryphon_harness::catalog() {
        println!("  {id:<18} {summary}");
    }
}

fn write_file(dir: &str, name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(dir).join(name);
    let result = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes()))
    });
    if let Err(e) = result {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    path
}

fn run_one(id: &str, opts: &Options) {
    let started = std::time::Instant::now();
    if let Some(root) = opts.bundle_dir.as_deref() {
        // Flight-recorder post-mortems belong inside this run's bundle.
        gryphon_harness::topology::set_default_flight_dir(Some(
            gryphon_harness::bundle::flight_dir(std::path::Path::new(root), id),
        ));
    }
    match gryphon_harness::run(id, opts.quick) {
        Ok(report) => {
            println!("{}", report.render());
            if opts.trace && !report.trace.is_empty() {
                println!("full trace ({} records):", report.trace.len());
                for line in &report.trace {
                    println!("{line}");
                }
            }
            println!(
                "[{} completed in {:.1} s wall{}]\n",
                id,
                started.elapsed().as_secs_f64(),
                if opts.quick { ", --quick" } else { "" }
            );
            if let Some(dir) = opts.csv_dir.as_deref() {
                if !report.series.is_empty() {
                    let path = write_file(dir, &format!("{id}.csv"), &report.series_csv());
                    println!("[series written to {}]", path.display());
                }
            }
            if let Some(root) = opts.bundle_dir.as_deref() {
                let meta = gryphon_harness::bundle::BundleMeta {
                    quick: opts.quick,
                    interval_us: opts
                        .sample_interval_ms
                        .map(|ms| ms.saturating_mul(1_000).max(1))
                        .unwrap_or(0),
                    seed_offset: opts.seed_offset,
                    degrade: opts.degrade,
                };
                match gryphon_harness::bundle::write_bundle(
                    std::path::Path::new(root),
                    &report,
                    &meta,
                ) {
                    Ok(dir) => println!("[bundle written to {}]", dir.display()),
                    Err(e) => {
                        eprintln!("error: cannot write bundle for {id}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            if let Some(prom) = report.prom.as_deref() {
                if let Ok(mut live) = opts.live_prom.lock() {
                    *live = prom.to_owned();
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
