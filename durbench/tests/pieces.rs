//! Tests of the benchmark's own pieces: timer namespacing, the delivery
//! checker, percentiles, span self time and `/proc` parsing.

use durbench::check::{check_sub, episode, percentile, quiet_p99, Faults};
use durbench::host::{ns_key, split_key};
use durbench::procfs::{
    parse_machine_cpu, parse_schedstat, parse_stat, parse_status_kb, steal_frac, threads_by_name,
    ThreadCpu,
};
use durbench::trace::{self_time_ns, Stream};
use gryphon_sim::TimerKey;

#[test]
fn timer_keys_round_trip_per_client() {
    let client_keys = [0u64, 1, 0x0C01, 0x0C07, u32::MAX as u64];
    let mut seen = std::collections::HashSet::new();
    for client in [0usize, 1, 7, 10_999, u32::MAX as usize - 1] {
        for &k in &client_keys {
            let packed = ns_key(client, TimerKey(k));
            assert_eq!(split_key(packed), Some((client, TimerKey(k))));
            assert!(
                seen.insert(packed),
                "two clients share timer key {packed:?}"
            );
        }
    }
    // A key no client set (upper half zero) belongs to nobody.
    assert_eq!(split_key(TimerKey(0x0C01)), None);
}

#[test]
#[should_panic(expected = "exceeds 32 bits")]
fn timer_keys_too_wide_to_namespace_are_refused() {
    ns_key(0, TimerKey(1 << 40));
}

#[test]
fn checker_flags_planted_missing_duplicate_and_misordered() {
    // Two pubends: even sequence numbers on pubend 0, odd on pubend 1.
    let exp = [0, 1, 2, 3, 4, 5];
    let pubend_of = |seq: u64| (seq % 2) as u32;
    let clean: Vec<(u64, u64)> = exp.iter().map(|&s| (s, 100 + s)).collect();
    let (f, arrival) = check_sub(&exp, &clean, pubend_of, 2);
    assert_eq!(f, Faults::default());
    assert!(arrival.iter().all(Option::is_some));

    // 4 never arrives, 5 overtakes 3 on pubend 1, 3 arrives twice, and 7
    // was never expected.
    let got = [
        (0, 10),
        (1, 11),
        (2, 12),
        (5, 13),
        (3, 14),
        (3, 15),
        (7, 16),
    ];
    let (f, arrival) = check_sub(&exp, &got, pubend_of, 2);
    assert_eq!(
        f,
        Faults {
            missing: 1,
            duplicate: 1,
            misordered: 1,
            unexpected: 1,
        }
    );
    assert_eq!(f.total(), 4);
    assert_eq!(arrival[3], Some(14), "first receipt counts");
    assert_eq!(arrival[4], None);
}

#[test]
fn interleaved_pubends_are_not_misordered() {
    // Per-pubend order is what counts: pubend 1 may run ahead of 0.
    let exp = [0, 1, 2, 3];
    let got = [(1, 1), (3, 2), (0, 3), (2, 4)];
    let (f, _) = check_sub(&exp, &got, |s| (s % 2) as u32, 2);
    assert_eq!(f, Faults::default());
}

#[test]
fn percentiles_count_missing_deliveries_as_infinitely_late() {
    let mut v = vec![3.0, 1.0, f64::INFINITY, 2.0];
    assert_eq!(percentile(&mut v, 0.5), 2.0);
    assert_eq!(percentile(&mut v, 0.99), f64::INFINITY);

    // One miss in a hundred stays beyond the 99th percentile...
    let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
    v.push(f64::INFINITY);
    assert_eq!(percentile(&mut v, 0.99), 99.0);
    // ...two do not.
    v[0] = f64::INFINITY;
    assert_eq!(percentile(&mut v, 0.99), f64::INFINITY);
    // A run where nothing arrived has an infinite median.
    let mut none = vec![f64::INFINITY; 10];
    assert_eq!(percentile(&mut none, 0.5), f64::INFINITY);
}

#[test]
fn quiet_p99_picks_seconds_by_steal_not_by_latency() {
    // Six of eight seconds were stolen by the hypervisor; second 2 is
    // quiet but holds a tail of the program's own (4 of its 100
    // deliveries), and it is kept.
    let mut tail = vec![1.0; 96];
    tail.extend([9.0; 4]);
    let mut windows = vec![vec![30.0; 100]; 8];
    windows[0] = vec![1.0; 100];
    windows[2] = tail;
    let steal = [0.0, 0.2, 0.0, 0.2, 0.1, 0.1, 0.3, 0.2];
    assert_eq!(quiet_p99(&windows, &steal), (9.0, 200));

    // Equal steal keeps the earlier seconds; the quarter rounds up.
    let windows = vec![vec![2.0], vec![3.0], vec![4.0], vec![5.0], vec![6.0]];
    assert_eq!(quiet_p99(&windows, &[0.1; 5]), (3.0, 2));

    // Missing deliveries stay infinitely late.
    let windows = vec![vec![1.0, f64::INFINITY]];
    assert_eq!(quiet_p99(&windows, &[0.0]).0, f64::INFINITY);
}

#[test]
fn self_time_subtracts_nested_storage_spans_once() {
    // Parent [0, 100). Children: [10, 30) with [15, 20) nested inside
    // it, [50, 60), and [95, 115) which runs past the parent's end.
    let kids = [(10, 20), (15, 5), (50, 10), (95, 20)];
    assert_eq!(self_time_ns(0, 100, &kids), 100 - (20 + 10 + 5));
    // Order does not matter, nor do children outside the parent.
    let shuffled = [(95, 20), (200, 10), (15, 5), (50, 10), (10, 20)];
    assert_eq!(self_time_ns(0, 100, &shuffled), 65);
    assert_eq!(self_time_ns(0, 100, &[]), 100);
    assert_eq!(self_time_ns(0, 100, &[(0, 100), (20, 10)]), 0);
}

#[test]
fn media_names_map_to_streams() {
    assert_eq!(Stream::of("b0-events-00000001.seg"), Stream::Events);
    assert_eq!(Stream::of("b2-pfs-00000003.seg"), Stream::Pfs);
    assert_eq!(Stream::of("b2-pfsmeta-wal-1"), Stream::PfsMeta);
    assert_eq!(Stream::of("b2-meta-snap-4"), Stream::Meta);
    assert_eq!(Stream::of("scratch"), Stream::Other);
}

#[test]
fn stat_parsing_survives_spaces_and_parentheses_in_names() {
    // Fields after the name: state, ppid, pgrp, session, tty, tpgid,
    // flags, minflt, cminflt, majflt, cmajflt, utime, stime, ...
    let tail = "S 1 2 3 4 5 6 7 8 9 10 111 22 0 0 20 0 1 0 100";
    for name in ["phb", "sub host", "a (b) c", "x)", "((", ") ("] {
        let line = format!("4242 ({name}) {tail}");
        assert_eq!(
            parse_stat(&line),
            Some(ThreadCpu {
                user: 111,
                sys: 22,
                run_ns: 0
            }),
            "name {name:?}"
        );
    }
    assert_eq!(parse_stat("no closing paren here"), None);
    assert_eq!(parse_stat("1 (short) S 1 2"), None);
}

#[test]
fn schedstat_gives_nanoseconds_on_cpu() {
    assert_eq!(
        parse_schedstat("335549853 16430937 107\n"),
        Some(335_549_853)
    );
    assert_eq!(parse_schedstat(""), None);
}

#[test]
fn live_threads_are_found_by_their_exact_names() {
    let name = "w (x) y";
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let t = std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            // Burn some CPU, then wait to be released.
            let mut x = 0u64;
            for i in 0..50_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
            rx.recv().ok();
        })
        .expect("spawn");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let threads = threads_by_name();
    tx.send(()).ok();
    t.join().expect("join");
    let cpu = threads.get(name).copied().expect("named thread listed");
    assert!(cpu.total_us() > 0.0, "busy thread used CPU: {cpu:?}");
}

#[test]
fn steal_is_a_share_of_all_machine_cpu_time() {
    let before = "cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3 4 5 6 7 8\n";
    let after = "cpu  160 0 70 880 0 0 0 90 0 0\ncpu0 1 2 3 4 5 6 7 8\n";
    let (a, b) = (
        parse_machine_cpu(before).expect("aggregate line"),
        parse_machine_cpu(after).expect("aggregate line"),
    );
    assert_eq!(a, [100, 0, 50, 800, 0, 0, 0, 50]);
    // 40 of 200 ticks went to other guests.
    assert!((steal_frac(a, b) - 0.2).abs() < 1e-12);
    assert_eq!(steal_frac(a, a), 0.0);
    assert_eq!(parse_machine_cpu("cpu0 1 2 3\n"), None);
}

#[test]
fn status_fields_parse_in_kib() {
    let status = "Name:\tdurbench\nVmPeak:\t  2000 kB\nVmHWM:\t  1536 kB\n";
    assert_eq!(parse_status_kb(status, "VmHWM"), Some(1536));
    assert_eq!(parse_status_kb(status, "VmRSS"), None);
}

#[test]
fn catchup_is_the_time_to_deliver_the_outage_backlog() {
    // Events due every 10 ns; the subscriber is away over [25, 55). The
    // live path delivers each event 3 ns after it is due.
    let exp = [0, 1, 2, 3, 4, 5, 6, 7];
    let due = |seq: u64| seq * 10;
    let live = |seq: u64| Some(seq * 10 + 3);
    // Events 0..=2 arrived before the outage; 3..=5 (due while away)
    // and 6, 7 (due after) arrive after the reconnect at 55.
    let arrival = [
        Some(1),
        Some(11),
        Some(21),
        Some(60),
        Some(61),
        Some(75),
        Some(76),
        Some(80),
    ];
    let e = episode(0, (25, 55), &exp, &arrival, due, live).expect("backlog");
    assert_eq!(e.missed, 3);
    assert!((e.catchup_s - 20e-9).abs() < 1e-15);
    assert!((e.rate_eps() - 3.0 / 20e-9).abs() < 1.0);

    // A backlog event still in flight at the reconnect is timed from
    // its live arrival: event 5 reached live subscribers at 58, so its
    // arrival at 75 lags by 17, not 20.
    let late_live = |seq: u64| Some(if seq == 5 { 58 } else { seq * 10 + 3 });
    let e = episode(0, (25, 55), &exp, &arrival, due, late_live).expect("backlog");
    assert!((e.catchup_s - 17e-9).abs() < 1e-15);

    // Without a live arrival the due instant stands in.
    let e = episode(0, (25, 55), &exp, &arrival, due, |_| None).expect("backlog");
    assert!((e.catchup_s - 20e-9).abs() < 1e-15);

    // A backlog event that never arrives makes the catchup infinite.
    let mut lost = arrival;
    lost[4] = None;
    let e = episode(0, (25, 55), &exp, &lost, due, live).expect("backlog");
    assert_eq!(e.catchup_s, f64::INFINITY);

    // An outage with nothing due and nothing in flight has no backlog.
    assert_eq!(episode(0, (22, 29), &exp, &[Some(5); 8], due, live), None);
}
