//! The untraced pass: set-up, warm-up, then replays of one workload for
//! the time asked, measured only from outside — wall clock per replay,
//! process CPU over all of them, arrival times at the sink — and one
//! further replay with the allocator counting for the heap peak.

use crate::cpu::process_cpu_seconds;
use crate::metrics::Reading;
use crate::stats::{median, QUIET_COST_PERCENTILE, QUIET_RATE_PERCENTILE};
use crate::workload::{prepare, replay, Drive, Extras, Kind, Prepared, Replay};
use std::time::{Duration, Instant};

/// Times set-up runs in one invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed replays however short `--seconds` is.
const MIN_TIMED_REPLAYS: usize = 5;
/// Wall time a batch of consecutive replays must span before its CPU time
/// is a sample: `/proc/self/stat` counts in 10 ms ticks.
const CPU_BATCH_SECONDS: f64 = 0.5;

/// What one pass measured, and how its operations fared.
#[derive(Default)]
pub struct Outcome {
    pub readings: Vec<Reading>,
    /// Replays run, each with its output checks.
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation.
    pub fn attempt(&mut self, replay: &Replay) {
        self.attempted += 1;
        if let Some(why) = &replay.failure {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why.clone());
            }
        }
    }
}

/// Runs the end-to-end pass of `kind` for `seconds` of timed replays.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> (Prepared, Outcome) {
    run_with(kind, seconds, || prepare(kind, seed))
}

/// [`run`] with set-up given as a function.
fn run_with(kind: Kind, seconds: f64, set_up: impl Fn() -> Prepared) -> (Prepared, Outcome) {
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(set_up());
        setups.push(started.elapsed().as_secs_f64());
    }
    let p = prepared.expect("set-up ran");

    let drive = kind.drive();
    for _ in 0..kind.warmups() {
        out.attempt(&replay(&p, drive, Extras::default()));
    }

    // Replays are kept whole and read after the clock stops, so the
    // benchmark's own bookkeeping stays out of the CPU figure.
    let cpu_now = || process_cpu_seconds().expect("/proc/self/stat is readable");
    let mut replays = Vec::new();
    let mut cpu_marks = vec![cpu_now()];
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while replays.len() < MIN_TIMED_REPLAYS || started.elapsed() < budget {
        replays.push(replay(&p, drive, Extras::default()));
        cpu_marks.push(cpu_now());
    }

    // The heap peak is read inline whatever the workload's own drive: with
    // worker threads it follows the depth their queues happen to reach,
    // and reads 40 % apart between identical runs.
    let counted = replay(
        &p,
        Drive::INLINE,
        Extras {
            count_allocs: true,
            ..Extras::default()
        },
    );
    out.attempt(&counted);
    let heap = counted.counted.expect("the replay counted");

    let records = p.image.records as f64;
    let mut walls = Vec::with_capacity(replays.len());
    let mut rates = Vec::with_capacity(replays.len());
    let mut lags = Vec::with_capacity(replays.len());
    for r in &replays {
        out.attempt(r);
        walls.push(r.wall.as_secs_f64());
        rates.push(records / r.wall.as_secs_f64());
        lags.push(median(&r.lags_us(&p.oracle)));
    }
    let cpu: Vec<f64> = cpu_batches(&walls, &cpu_marks, CPU_BATCH_SECONDS)
        .into_iter()
        .map(|(cpu_s, replays)| cpu_s / (records * replays as f64 / 1e6))
        .collect();
    out.readings = vec![
        Reading::quantile("pkts_per_s", &rates, QUIET_RATE_PERCENTILE),
        Reading::quantile("cpu_s_per_mpkt", &cpu, QUIET_COST_PERCENTILE),
        Reading::quantile("report_lag_p50_us", &lags, QUIET_COST_PERCENTILE),
        Reading::single("fps_mae", p.oracle.fps_mae),
        Reading::single("heap_peak_mb", heap.peak_bytes as f64 / 1e6),
        Reading::median("setup_s", &setups),
    ];
    (p, out)
}

/// Groups consecutive replays into batches spanning at least `min_wall`
/// seconds and returns each batch's CPU seconds and replay count.
/// `marks[i]` is the process CPU time before replay `i`; a short tail
/// joins the last batch.
fn cpu_batches(walls: &[f64], marks: &[f64], min_wall: f64) -> Vec<(f64, usize)> {
    let mut batches = Vec::new();
    let mut first = 0;
    let mut wall = 0.0;
    for (i, w) in walls.iter().enumerate() {
        wall += w;
        if wall >= min_wall {
            batches.push((marks[i + 1] - marks[first], i + 1 - first));
            first = i + 1;
            wall = 0.0;
        }
    }
    if first < walls.len() {
        let tail = (marks[walls.len()] - marks[first], walls.len() - first);
        match batches.last_mut() {
            Some(last) => *last = (last.0 + tail.0, last.1 + tail.1),
            None => batches.push(tail),
        }
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_batches_span_the_minimum_and_lose_nothing() {
        let walls = [0.2, 0.2, 0.2, 0.7, 0.1];
        let marks = [10.0, 10.2, 10.4, 10.6, 11.3, 11.4];
        let batches = cpu_batches(&walls, &marks, 0.5);
        assert_eq!(batches.len(), 2);
        assert!((batches[0].0 - 0.6).abs() < 1e-9 && batches[0].1 == 3);
        assert!((batches[1].0 - 0.8).abs() < 1e-9 && batches[1].1 == 2);
        let short = cpu_batches(&[0.1, 0.1], &[1.0, 1.1, 1.2], 0.5);
        assert_eq!(short.len(), 1);
        assert!((short[0].0 - 0.2).abs() < 1e-9 && short[0].1 == 2);
        assert!(cpu_batches(&[], &[1.0], 0.5).is_empty());
    }
    use crate::metrics::END_TO_END;
    use crate::workload::prepare_image;

    #[test]
    fn every_end_to_end_metric_is_reported_in_order_and_is_not_zero() {
        let _counting = crate::alloc::exclusive();
        let kind = Kind::TapMixed;
        let (_, out) = run_with(kind, 0.0, || {
            prepare_image(kind, crate::gen::small_image(5), 5)
        });
        assert_eq!((out.failed, &out.failures), (0, &Vec::new()));
        assert_eq!(
            out.attempted as usize,
            kind.warmups() + MIN_TIMED_REPLAYS + 1
        );
        let names: Vec<&str> = out.readings.iter().map(|r| r.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for r in &out.readings {
            assert!(
                r.value.is_finite() && r.value > 0.0,
                "{} = {}",
                r.name,
                r.value
            );
        }
    }
}
