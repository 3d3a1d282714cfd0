//! Host speed probe.
//!
//! On a shared host, other tenants' load slows this kind of program by up
//! to about half for seconds to minutes at a time, and slows every
//! workload alike (see `README.md`). A fixed task that uses no repository
//! code is timed before and after every round: heap allocation and hashing
//! over a few megabytes, then values passed back and forth between two
//! threads, the two kinds of work that slow down most. From its mean time
//! [`slowdown`] estimates how much slower than the reference speed the
//! round ran. Set-up times are divided by that and closed-loop rates
//! multiplied by it, so they read as at the reference speed. A slower
//! program does not slow the probe, so it shows in full.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// The probe's time at the reference speed: about its fastest time on the
/// host in `README.md`.
const REFERENCE_S: f64 = 0.020;

/// How closely the workloads follow the probe, as an exponent: a round
/// runs slower by the probe's slowdown to this power. Fitted over the
/// rounds of 15 runs of `campus_storm` and `failover_drill` on the host in
/// `README.md`, round rates fell with the probe's slowdown to the power
/// 0.62-0.67 (a least-squares fit, which the probe's own noise biases
/// low); 0.8 left the least spread between runs of both.
const SENSITIVITY: f64 = 0.8;

/// Entries the probe's map holds.
const ENTRIES: u64 = 50_000;
/// Round trips between the probe's two threads.
const HAND_OFFS: u64 = 2_000;

/// Runs the probe once and returns its wall time in seconds.
pub fn probe_s() -> f64 {
    let started = Instant::now();
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let map: HashMap<u64, Box<[u64; 4]>> =
        (0..ENTRIES).map(|i| (key(i), Box::new([i; 4]))).collect();
    let sum = (0..ENTRIES).fold(0u64, |acc, i| acc.wrapping_add(map[&key(i)][1]));
    black_box(sum);
    drop(map);

    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, back) = mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_in.recv() {
            if echo_out.send(v + 1).is_err() {
                break;
            }
        }
    });
    for i in 0..HAND_OFFS {
        to_echo.send(i).expect("echo thread alive");
        black_box(back.recv().expect("echo thread alive"));
    }
    drop(to_echo);
    echo.join().expect("echo thread exits cleanly");
    started.elapsed().as_secs_f64()
}

/// The estimated slowdown of a round, from the probe times just before and
/// just after it: 1 at the reference speed, above 1 when slower.
pub fn slowdown(before_s: f64, after_s: f64) -> f64 {
    ((before_s + after_s) / 2.0 / REFERENCE_S).powf(SENSITIVITY)
}
