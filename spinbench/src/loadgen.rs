//! Closed- and open-loop load generation, plus the fixed-rate ladder.
//!
//! Open loop: request `i` is due at `anchor + i / rate`, whatever became
//! of earlier requests. Its latency is timed from that due time, so a
//! stall is charged to every request queued behind it, and the time the
//! generator itself ran late is kept as `lag`. Each thread owns one
//! sender (one connection) and takes every `threads`-th slot.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Most time slices [`Phase::windowed_percentile`] splits a phase into.
pub const MAX_WINDOWS: usize = 32;

/// What became of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Served, and the reply passed its check.
    Ok,
    /// The server refused it with a typed error kind.
    Refused(String),
    /// The transport broke or the reply was wrong.
    Failed(String),
}

/// Something that issues one request at a time (one connection, or one
/// in-process caller).
pub trait Sender: Send {
    /// Issues request `index`, which was due at `due`.
    fn send(&mut self, index: u64, due: Instant) -> Outcome;
}

/// How requests are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Each sender issues its next request when the previous completes.
    Closed,
    /// Requests are due at a fixed aggregate rate (per second).
    Open {
        /// Aggregate rate across all senders.
        rate: f64,
    },
}

/// One request's timing.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// Due time, s since the phase began.
    due_s: f64,
    latency_us: f64,
    lag_us: f64,
    ok: bool,
}

/// The accounting of one load phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Requests issued.
    pub attempted: u64,
    /// Requests served and checked.
    pub succeeded: u64,
    /// Requests refused by the server, by error kind.
    pub refused: BTreeMap<String, u64>,
    /// Requests that broke or returned a wrong reply.
    pub failed: u64,
    /// First failure message, for the report.
    pub first_failure: Option<String>,
    /// Wall time from the first due time to the last completion, s.
    pub wall_s: f64,
    records: Vec<Record>,
}

impl Phase {
    /// Refused requests of every kind.
    #[must_use]
    pub fn refused_total(&self) -> u64 {
        self.refused.values().sum()
    }

    /// Latencies (µs, from the due time) of successful requests.
    #[must_use]
    pub fn latencies(&self) -> Samples {
        Samples::new(
            self.records
                .iter()
                .filter(|r| r.ok)
                .map(|r| r.latency_us)
                .collect(),
        )
    }

    /// How late the generator issued each request, µs.
    #[must_use]
    pub fn lags(&self) -> Samples {
        Samples::new(self.records.iter().map(|r| r.lag_us).collect())
    }

    /// Successful requests split into `k` equal slices of due time, and
    /// the slice length in seconds.
    fn slices(&self, k: usize) -> (Vec<Samples>, f64) {
        let k = k.max(1);
        let span = self
            .records
            .iter()
            .map(|r| r.due_s)
            .fold(0.0f64, f64::max)
            .max(f64::EPSILON);
        let mut slices = vec![Samples::default(); k];
        for r in self.records.iter().filter(|r| r.ok) {
            let w = ((r.due_s / span * k as f64) as usize).min(k - 1);
            slices[w].push(r.latency_us);
        }
        (slices, span / k as f64)
    }

    /// The `q` latency percentile of each time window of the phase. Each
    /// window holds enough successes to report `q` with ten samples
    /// beyond it (1000 for p99, 100 for p90), up to [`MAX_WINDOWS`]
    /// windows; empty when even the whole phase cannot report `q`.
    #[must_use]
    pub fn window_percentiles(&self, q: f64) -> Vec<f64> {
        let window = (crate::stats::MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize;
        let k = (self.succeeded as usize / window).clamp(1, MAX_WINDOWS);
        self.slices(k)
            .0
            .iter_mut()
            .filter_map(|s| s.percentile(q))
            .collect()
    }

    /// Successful requests per second in each of `k` time windows.
    #[must_use]
    pub fn window_rates(&self, k: usize) -> Vec<f64> {
        let (slices, seconds) = self.slices(k);
        slices.iter().map(|s| s.len() as f64 / seconds).collect()
    }

    /// Largest lag among the last `fraction` of requests by due time — a
    /// backlog that grew through the phase shows here.
    #[must_use]
    pub fn tail_lag_us(&self, fraction: f64) -> f64 {
        let mut dues: Vec<&Record> = self.records.iter().collect();
        dues.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
        let skip = ((1.0 - fraction) * dues.len() as f64) as usize;
        dues[skip.min(dues.len())..]
            .iter()
            .map(|r| r.lag_us)
            .fold(0.0, f64::max)
    }

    /// Folds another phase's accounting into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        for (k, v) in other.refused {
            *self.refused.entry(k).or_default() += v;
        }
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.wall_s += other.wall_s;
        self.records.extend(other.records);
    }

    /// Counts one request that is not timed (sequential passes, control
    /// calls).
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.succeeded += 1,
            Outcome::Refused(kind) => *self.refused.entry(kind).or_default() += 1,
            Outcome::Failed(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(why);
            }
        }
    }

    fn note(&mut self, outcome: Outcome, record: Record) {
        let ok = outcome == Outcome::Ok;
        self.record(outcome);
        self.records.push(Record { ok, ..record });
    }
}

/// Sleeps until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one phase of `duration` over `senders`, one thread each.
pub fn run<S: Sender>(senders: &mut [S], mode: Mode, duration: Duration) -> Phase {
    let threads = senders.len().max(1) as u64;
    let anchor = Instant::now() + Duration::from_millis(1);
    let end = anchor + duration;
    let phases: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .iter_mut()
            .enumerate()
            .map(|(t, sender)| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut index = t as u64;
                    loop {
                        let due = match mode {
                            Mode::Closed => Instant::now().max(anchor),
                            Mode::Open { rate } => {
                                anchor + Duration::from_secs_f64(index as f64 / rate)
                            }
                        };
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let outcome = sender.send(index, due);
                        let done = Instant::now();
                        phase.note(
                            outcome,
                            Record {
                                due_s: due.duration_since(anchor).as_secs_f64(),
                                latency_us: done.duration_since(due).as_secs_f64() * 1e6,
                                lag_us: sent.duration_since(due).as_secs_f64() * 1e6,
                                ok: false,
                            },
                        );
                        phase.wall_s = done.duration_since(anchor).as_secs_f64();
                        index += threads;
                    }
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Phase::default();
    let mut wall = 0.0f64;
    for p in phases {
        wall = wall.max(p.wall_s);
        total.absorb(p);
    }
    total.wall_s = wall;
    total
}

/// One rung of the fixed-rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// p99 latency, µs, when reportable.
    pub p99_us: Option<f64>,
    /// Largest lag over the last fifth of the rung, µs.
    pub tail_lag_us: f64,
    /// Requests refused or failed.
    pub lost: u64,
    /// Whether the rung met the limit without a growing backlog.
    pub passed: bool,
}

/// Judges one rung: every request served, a reportable p99 within
/// `limit_us`, and no backlog at the end (the generator was never more
/// than `limit_us` late over the rung's last fifth).
#[must_use]
pub fn judge(rate: f64, phase: &Phase, limit_us: f64) -> Rung {
    let p99_us = phase.latencies().percentile(0.99);
    let tail_lag_us = phase.tail_lag_us(0.2);
    let lost = phase.failed + phase.refused_total();
    let passed = lost == 0 && p99_us.is_some_and(|p| p <= limit_us) && tail_lag_us <= limit_us;
    Rung {
        rate,
        p99_us,
        tail_lag_us,
        lost,
        passed,
    }
}

/// Climbs `rates` (ascending) and stops at the first rung that fails.
/// Returns the highest passing rate below that rung, and every rung run.
pub fn ladder(
    rates: &[f64],
    limit_us: f64,
    mut run_rung: impl FnMut(f64) -> Phase,
) -> (Option<f64>, Vec<Rung>) {
    let mut best = None;
    let mut rungs = Vec::new();
    for &rate in rates {
        let rung = judge(rate, &run_rung(rate), limit_us);
        let passed = rung.passed;
        rungs.push(rung);
        if !passed {
            break;
        }
        best = Some(rate);
    }
    (best, rungs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BinaryClient;
    use spinamm_server::api::{
        ApiRecallRequest, ApiRecallResponse, DeploymentKind, REQUEST_MAGIC, RESPONSE_MAGIC,
        WIRE_VERSION,
    };
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A binary-framing server that takes `service` to answer each
    /// request, one connection at a time.
    fn slow_server(service: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let body = ApiRecallResponse {
                tenant: "t".to_owned(),
                kind: DeploymentKind::Flat,
                winner: 0,
                accepted: true,
                dom: 1,
                matches: Vec::new(),
                energy_j: 1e-12,
            }
            .encode_binary();
            let mut reply = vec![RESPONSE_MAGIC, WIRE_VERSION, 200, 0];
            reply.extend_from_slice(&(body.len() as u32).to_le_bytes());
            reply.extend_from_slice(&body);
            loop {
                let mut head = [0u8; 6];
                if stream.read_exact(&mut head).is_err() || head[0] != REQUEST_MAGIC {
                    return;
                }
                let len = u32::from_le_bytes(head[2..6].try_into().expect("len")) as usize;
                let mut rest = vec![0u8; len];
                if stream.read_exact(&mut rest).is_err() {
                    return;
                }
                std::thread::sleep(service);
                if stream.write_all(&reply).is_err() {
                    return;
                }
            }
        });
        addr
    }

    struct Client(BinaryClient);

    impl Sender for Client {
        fn send(&mut self, _index: u64, _due: Instant) -> Outcome {
            let request = ApiRecallRequest {
                tenant: "t".to_owned(),
                input: vec![1, 2, 3],
            };
            match self.0.recall(&request) {
                Ok(_) => Outcome::Ok,
                Err(e) => Outcome::Failed(e.to_string()),
            }
        }
    }

    #[test]
    fn slow_server_lateness_is_charged_from_the_due_time() {
        let service = Duration::from_millis(4);
        // Offered every 2 ms against a 4 ms server: a backlog must grow.
        let addr = slow_server(service);
        let mut senders = [Client(BinaryClient::connect(addr).expect("connect"))];
        let phase = run(
            &mut senders,
            Mode::Open { rate: 500.0 },
            Duration::from_millis(400),
        );
        assert_eq!(phase.failed, 0, "{:?}", phase.first_failure);
        // Every slot due inside the phase was attempted, late or not.
        assert_eq!(phase.attempted, 200);
        let mut lat = phase.latencies();
        let lag = phase.lags();
        // The generator fell ~2 ms further behind per request.
        assert!(
            phase.tail_lag_us(0.2) > 100_000.0,
            "tail lag {}",
            phase.tail_lag_us(0.2)
        );
        // Latency from the due time includes the queueing: far above the
        // 4 ms service time, and at least lag + service for each request.
        assert!(lat.median().expect("p50") > 50_000.0);
        for r in &phase.records {
            assert!(r.latency_us >= r.lag_us + 3_900.0);
        }
        // A rung judged on this phase fails on its backlog.
        assert!(!judge(500.0, &phase, 1e9).passed);
        assert!(lag.max().expect("lag") > 100_000.0);
    }

    #[test]
    fn unloaded_open_loop_runs_on_time() {
        let service = Duration::from_millis(1);
        let addr = slow_server(service);
        let mut senders = [Client(BinaryClient::connect(addr).expect("connect"))];
        let phase = run(
            &mut senders,
            Mode::Open { rate: 100.0 },
            Duration::from_millis(300),
        );
        assert_eq!(phase.attempted, 30);
        // On time means no backlog: every request left before the next
        // was due (10 ms apart). A wake-up a few ms late on a busy host is
        // not a backlog.
        let tail_lag = phase.tail_lag_us(0.2);
        assert!(tail_lag < 10_000.0, "tail lag {tail_lag}");
        let p50 = phase.latencies().median().expect("p50");
        assert!((900.0..5_000.0).contains(&p50), "p50 {p50}");
    }

    fn synthetic(latency_us: f64, lag_us: f64, n: usize, lost: bool) -> Phase {
        let mut phase = Phase::default();
        for i in 0..n {
            let outcome = if lost && i == 0 {
                Outcome::Refused("queue_full".to_owned())
            } else {
                Outcome::Ok
            };
            phase.note(
                outcome,
                Record {
                    due_s: i as f64,
                    latency_us,
                    lag_us,
                    ok: false,
                },
            );
        }
        phase
    }

    #[test]
    fn windows_isolate_a_stalled_stretch() {
        // 3000 requests over 3 s at 100 µs, with a stall of 50 ms hitting
        // the first 100 requests: the whole-phase p99 lands in the stall,
        // only the first 1000-request window's p99 does.
        let mut phase = Phase::default();
        for i in 0..3_000 {
            let latency_us = if i < 100 { 50_000.0 } else { 100.0 };
            phase.note(
                Outcome::Ok,
                Record {
                    due_s: f64::from(i) / 1_000.0,
                    latency_us,
                    lag_us: 0.0,
                    ok: false,
                },
            );
        }
        assert_eq!(phase.latencies().percentile(0.99), Some(50_000.0));
        assert_eq!(phase.window_percentiles(0.99), vec![50_000.0, 100.0, 100.0]);
        // 100-sample windows for p90: 30 of them, less any that time
        // slicing left one sample short.
        let p90s = phase.window_percentiles(0.9);
        assert!((25..=30).contains(&p90s.len()), "{} windows", p90s.len());
        for rate in phase.window_rates(3) {
            assert!((rate - 1_000.0).abs() < 1.0, "rate {rate}");
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let mut ran = Vec::new();
        let (best, rungs) = ladder(&[100.0, 200.0, 300.0, 400.0], 1_000.0, |rate| {
            ran.push(rate);
            // 300/s misses the p99 limit; 400/s would pass but must not run.
            let latency = if rate == 300.0 { 5_000.0 } else { 100.0 };
            synthetic(latency, 0.0, 1_000, false)
        });
        assert_eq!(best, Some(200.0));
        assert_eq!(ran, vec![100.0, 200.0, 300.0]);
        assert_eq!(rungs.len(), 3);
        assert!(!rungs[2].passed);
    }

    #[test]
    fn ladder_rejects_backlog_losses_and_thin_rungs() {
        // Within the p99 limit but the generator ended far behind.
        assert!(!judge(1.0, &synthetic(100.0, 5_000.0, 1_000, false), 1_000.0).passed);
        // One refused request fails the rung.
        assert!(!judge(1.0, &synthetic(100.0, 0.0, 1_000, true), 1_000.0).passed);
        // Too few samples to report p99.
        assert!(!judge(1.0, &synthetic(100.0, 0.0, 999, false), 1_000.0).passed);
        let (best, _) = ladder(&[10.0], 1_000.0, |_| synthetic(5_000.0, 0.0, 1_000, false));
        assert_eq!(best, None);
    }
}
