//! A fixed reference load, timed next to every measured call, that puts
//! host times on one scale while the host's own speed drifts.
//!
//! Both gated workloads run in thread mode, where most host time goes to
//! hand-offs between OS threads (`CoreHandle` channel round trips and the
//! futex waits behind them). On a shared VM the cost of a hand-off drifts
//! by up to 1.6x over minutes, and raw block times drift with it. The
//! reference is the same kind of work with no simulator in it: two threads
//! passing a token over a pair of `std::sync::mpsc` channels. Its time and
//! the time of a block taken right after it move together, so their ratio
//! holds still where each alone does not. The reference code is part of
//! the benchmark and does not change with the simulator, so a change to
//! the simulator's speed still moves the ratio.

use std::sync::mpsc;
use std::time::Instant;

/// Token round trips in one sample (about 15–25 ms).
const ROUND_TRIPS: u64 = 5_000;

/// The length of one sample, in seconds, on the scale host times are
/// reported in: a normalized time is the time a call would take on a host
/// where one sample takes this long.
pub const NOMINAL_S: f64 = 0.020;

/// Runs one sample and returns its length in seconds.
pub fn sample() -> f64 {
    let start = Instant::now();
    let (to_echo, echo_rx) = mpsc::channel::<u64>();
    let (echo_tx, from_echo) = mpsc::channel::<u64>();
    let echo = std::thread::spawn(move || {
        while let Ok(token) = echo_rx.recv() {
            if echo_tx.send(token + 1).is_err() {
                break;
            }
        }
    });
    let mut token = 0;
    for _ in 0..ROUND_TRIPS {
        to_echo.send(token).expect("echo thread alive");
        token = from_echo.recv().expect("echo thread alive");
    }
    drop(to_echo);
    echo.join().expect("echo thread ended cleanly");
    assert_eq!(token, ROUND_TRIPS, "every round trip returned the token");
    start.elapsed().as_secs_f64()
}
