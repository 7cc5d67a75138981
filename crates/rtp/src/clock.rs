//! RTP media clocks: conversion between wall-clock time and RTP timestamp
//! units, plus the "RTP lag" computation used as an RTP-ML feature.

use vcaml_netpkt::Timestamp;

/// A media sampling clock (90 kHz for video, 48 kHz for Opus audio).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpClock {
    hz: u32,
}

impl RtpClock {
    /// The 90 kHz video clock (RFC 6184).
    pub fn video() -> Self {
        RtpClock {
            hz: crate::VIDEO_CLOCK_HZ,
        }
    }

    /// The 48 kHz Opus clock (RFC 7587).
    pub fn audio() -> Self {
        RtpClock {
            hz: crate::AUDIO_CLOCK_HZ,
        }
    }

    /// A clock at an arbitrary frequency.
    pub fn new(hz: u32) -> Self {
        assert!(hz > 0, "clock frequency must be positive");
        RtpClock { hz }
    }

    /// Ticks per second.
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// Converts an elapsed duration to RTP ticks (rounded).
    pub fn ticks_for(&self, elapsed: Timestamp) -> u32 {
        ((elapsed.as_micros() as i128 * i128::from(self.hz) + 500_000) / 1_000_000) as u32
    }

    /// Converts a tick delta to seconds.
    pub fn secs_for_ticks(&self, ticks: u32) -> f64 {
        f64::from(ticks) / f64::from(self.hz)
    }

    /// The paper's *RTP lag*: for frame `i` received at `t_i` with RTP
    /// timestamp `ts_i`, the lag relative to frame 0 is
    /// `(t_i - t_0) - (ts_i - ts_0)/SF` — transmission delay under the
    /// assumption that frame 0 had zero delay. Returned in seconds.
    pub fn lag_secs(&self, t0: Timestamp, ts0: u32, ti: Timestamp, tsi: u32) -> f64 {
        let wall = (ti - t0).as_secs_f64();
        let media = f64::from(tsi.wrapping_sub(ts0)) / f64::from(self.hz);
        wall - media
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_clock_ticks() {
        let c = RtpClock::video();
        // One 30 fps frame interval = 3000 ticks.
        assert_eq!(c.ticks_for(Timestamp::from_micros(33_333)), 3000);
        assert_eq!(c.ticks_for(Timestamp::from_secs(1)), 90_000);
    }

    #[test]
    fn audio_clock_ticks() {
        let c = RtpClock::audio();
        // One 20 ms Opus frame = 960 ticks.
        assert_eq!(c.ticks_for(Timestamp::from_millis(20)), 960);
    }

    #[test]
    fn secs_roundtrip() {
        let c = RtpClock::video();
        let ticks = c.ticks_for(Timestamp::from_millis(100));
        assert!((c.secs_for_ticks(ticks) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn lag_zero_when_paced_by_clock() {
        let c = RtpClock::video();
        let t0 = Timestamp::from_secs(10);
        // Frame 30 ticks later in media time arrives exactly on schedule.
        let ti = t0 + Timestamp::from_micros(33_333);
        let lag = c.lag_secs(t0, 9000, ti, 9000 + 3000);
        assert!(lag.abs() < 1e-4, "lag = {lag}");
    }

    #[test]
    fn lag_positive_when_delayed() {
        let c = RtpClock::video();
        let t0 = Timestamp::ZERO;
        let ti = Timestamp::from_millis(133); // 100 ms late for a 33 ms frame
        let lag = c.lag_secs(t0, 0, ti, 3000);
        assert!((lag - 0.0997).abs() < 1e-3, "lag = {lag}");
    }

    #[test]
    fn lag_handles_timestamp_wrap() {
        let c = RtpClock::video();
        let t0 = Timestamp::ZERO;
        let ti = Timestamp::from_micros(33_333);
        // ts wraps around u32::MAX.
        let lag = c.lag_secs(t0, u32::MAX - 1000, ti, u32::MAX.wrapping_add(2000));
        assert!(lag.abs() < 1e-3, "lag = {lag}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_hz_rejected() {
        let _ = RtpClock::new(0);
    }
}
