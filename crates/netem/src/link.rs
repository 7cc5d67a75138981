//! The emulated bottleneck link.
//!
//! Packets are offered in non-decreasing send-time order; each is either
//! dropped (Bernoulli loss or queue overflow) or delivered at
//! `send_time + queueing + serialization + propagation + jitter`.
//! Gaussian jitter can reorder deliveries, exactly the effect the paper
//! identifies as the IP/UDP Heuristic's failure mode.

use crate::conditions::ConditionSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vcaml_netpkt::Timestamp;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Bernoulli random loss.
    Random,
    /// Drop-tail queue overflow (sustained over-subscription).
    QueueOverflow,
}

/// Outcome of offering one packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// The packet arrives at the far end at this time.
    Delivered(Timestamp),
    /// The packet never arrives.
    Dropped(DropReason),
}

/// Static link parameters (dynamic conditions come from the schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Maximum queuing delay before drop-tail, in milliseconds. Home
    /// routers commonly buffer 100–300 ms; the paper's tc-based emulation
    /// behaves similarly.
    pub max_queue_ms: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            max_queue_ms: 200.0,
        }
    }
}

/// A unidirectional emulated link.
#[derive(Debug)]
pub struct Link {
    schedule: ConditionSchedule,
    config: LinkConfig,
    rng: StdRng,
    /// Time at which the serializer becomes free.
    busy_until: Timestamp,
}

impl Link {
    /// Creates a link following `schedule`, with deterministic randomness
    /// derived from `seed`.
    pub fn new(schedule: ConditionSchedule, config: LinkConfig, seed: u64) -> Self {
        Link {
            schedule,
            config,
            rng: StdRng::seed_from_u64(seed),
            busy_until: Timestamp::ZERO,
        }
    }

    /// Offers a packet of `size_bytes` entering the link at `now`.
    ///
    /// Must be called with non-decreasing `now` values (send order); the
    /// *delivery* times it returns may be reordered by jitter.
    pub fn send(&mut self, now: Timestamp, size_bytes: usize) -> LinkVerdict {
        let cond = self.schedule.at(now);

        // Bernoulli loss applies regardless of congestion.
        if cond.loss_pct > 0.0 && self.rng.gen::<f64>() * 100.0 < cond.loss_pct {
            return LinkVerdict::Dropped(DropReason::Random);
        }

        // Queueing: the serializer frees up at `busy_until`.
        let start = self.busy_until.max(now);
        let queue_wait_ms = (start - now).as_millis_f64();
        if queue_wait_ms > self.config.max_queue_ms {
            return LinkVerdict::Dropped(DropReason::QueueOverflow);
        }

        // Serialization at the bottleneck rate in force when transmission
        // starts.
        let rate_kbps = self.schedule.at(start).throughput_kbps;
        let tx_us = (size_bytes as f64 * 8.0) / rate_kbps * 1000.0;
        let tx_end = start + Timestamp::from_micros(tx_us.round() as i64);
        self.busy_until = tx_end;

        // Propagation + Gaussian jitter (truncated at zero so time never
        // runs backwards past the transmission end).
        let jitter_ms = if cond.jitter_ms > 0.0 {
            gaussian(&mut self.rng) * cond.jitter_ms
        } else {
            0.0
        };
        let owd_ms = (cond.delay_ms + jitter_ms).max(0.0);
        let arrival = tx_end + Timestamp::from_micros((owd_ms * 1000.0).round() as i64);
        LinkVerdict::Delivered(arrival)
    }
}

/// Standard normal via Box–Muller (avoids pulling in rand_distr).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::SecondCondition;

    fn link_with(cond: SecondCondition, seed: u64) -> Link {
        Link::new(
            ConditionSchedule::constant(cond),
            LinkConfig::default(),
            seed,
        )
    }

    #[test]
    fn uncongested_delivery_is_delay_plus_serialization() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 8000.0,
                delay_ms: 10.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
            1,
        );
        // 1000 bytes at 8 Mbps = 1 ms serialization; +10 ms delay.
        match link.send(Timestamp::ZERO, 1000) {
            LinkVerdict::Delivered(t) => assert_eq!(t.as_micros(), 11_000),
            v => panic!("unexpected {v:?}"),
        }
    }

    #[test]
    fn queueing_accumulates() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 800.0,
                delay_ms: 0.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
            1,
        );
        // Each 1000-byte packet takes 10 ms to serialize at 800 kbps.
        let t1 = match link.send(Timestamp::ZERO, 1000) {
            LinkVerdict::Delivered(t) => t,
            v => panic!("unexpected {v:?}"),
        };
        let t2 = match link.send(Timestamp::ZERO, 1000) {
            LinkVerdict::Delivered(t) => t,
            v => panic!("unexpected {v:?}"),
        };
        assert_eq!(t1.as_micros(), 10_000);
        assert_eq!(t2.as_micros(), 20_000);
    }

    #[test]
    fn sustained_overload_drops_tail() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 100.0,
                delay_ms: 0.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
            1,
        );
        // 100 kbps, 1250-byte packets = 100 ms each; queue cap 200 ms.
        let mut dropped = 0;
        for _ in 0..10 {
            if matches!(
                link.send(Timestamp::ZERO, 1250),
                LinkVerdict::Dropped(DropReason::QueueOverflow)
            ) {
                dropped += 1;
            }
        }
        assert!(dropped >= 6, "only {dropped} drops");
    }

    #[test]
    fn bernoulli_loss_rate_close_to_nominal() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 1e9,
                delay_ms: 0.0,
                jitter_ms: 0.0,
                loss_pct: 10.0,
            },
            42,
        );
        let n = 20_000;
        let mut lost = 0;
        for i in 0..n {
            if matches!(
                link.send(Timestamp::from_micros(i), 100),
                LinkVerdict::Dropped(_)
            ) {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed loss {rate}");
    }

    #[test]
    fn jitter_reorders_packets() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 1e9,
                delay_ms: 50.0,
                jitter_ms: 30.0,
                loss_pct: 0.0,
            },
            7,
        );
        let mut arrivals = Vec::new();
        for i in 0..500 {
            if let LinkVerdict::Delivered(t) = link.send(Timestamp::from_millis(i * 2), 500) {
                arrivals.push(t);
            }
        }
        let reordered = arrivals.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(reordered > 0, "expected jitter-induced reordering");
    }

    #[test]
    fn no_jitter_preserves_order() {
        let mut link = link_with(
            SecondCondition {
                throughput_kbps: 5000.0,
                delay_ms: 20.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
            7,
        );
        let mut arrivals = Vec::new();
        for i in 0..200 {
            if let LinkVerdict::Delivered(t) = link.send(Timestamp::from_millis(i), 700) {
                arrivals.push(t);
            }
        }
        assert!(arrivals.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn rate_change_mid_schedule_affects_serialization() {
        let sched = ConditionSchedule::new(vec![
            SecondCondition {
                throughput_kbps: 8000.0,
                delay_ms: 0.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
            SecondCondition {
                throughput_kbps: 800.0,
                delay_ms: 0.0,
                jitter_ms: 0.0,
                loss_pct: 0.0,
            },
        ]);
        let mut link = Link::new(sched, LinkConfig::default(), 3);
        // In second 0: 1 ms; in second 1: 10 ms.
        match link.send(Timestamp::ZERO, 1000) {
            LinkVerdict::Delivered(t) => assert_eq!(t.as_micros(), 1_000),
            v => panic!("{v:?}"),
        }
        match link.send(Timestamp::from_secs(1), 1000) {
            LinkVerdict::Delivered(t) => assert_eq!(t.as_micros(), 1_010_000),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cond = SecondCondition {
            throughput_kbps: 2000.0,
            delay_ms: 30.0,
            jitter_ms: 10.0,
            loss_pct: 5.0,
        };
        let run = |seed| {
            let mut link = link_with(cond, seed);
            (0..100)
                .map(|i| match link.send(Timestamp::from_millis(i * 3), 900) {
                    LinkVerdict::Delivered(t) => t.as_micros(),
                    LinkVerdict::Dropped(_) => -1,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
