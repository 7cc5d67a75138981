//! The control-socket wire grammar: typed requests, typed errors.
//!
//! One request per line, ASCII verbs, whitespace-separated arguments:
//!
//! | request | effect | reply |
//! |---|---|---|
//! | `STATS` | none | `OK` + the [`MonitorSnapshot`] JSON line |
//! | `FLUSH` | [`force_flush`](crate::control::MonitorHandle::force_flush) | `OK` |
//! | `EVICT <flow>` | [`evict_flow`](crate::control::MonitorHandle::evict_flow) | `OK` |
//! | `SET alert_fps <v>` | retune the fps floor | `OK` |
//! | `SET alert_min_kbps <v>` | retune the bitrate floor | `OK` |
//! | `SET alert_resolution_floor <height>` | retune the resolution floor (0 clears) | `OK` |
//! | `SUBSCRIBE [k=v ...]` | stream JSON-lines events | `OK subscribed` + stream |
//! | `STOP` | graceful [`stop`](crate::control::MonitorHandle::stop) | `OK stopping` |
//!
//! `<flow>` is the [`FlowKey::to_wire`] form
//! (`10.0.0.1:5000-10.0.0.2:5001/17`). `SUBSCRIBE` filters compose
//! conjunctively from `kinds=<name,...>` ([`EventKind::name`]),
//! `flows=<wire,...>`, and `min_severity=<name>`
//! ([`Severity::name`]); no arguments means the full stream.
//!
//! Parsing is total: any byte sequence either yields a [`Request`] or a
//! typed [`ControlError`] — rendered on the wire as
//! `ERR <code> <detail>` — and never panics (property-tested over
//! arbitrary input). Verbs and keys are case-insensitive; values
//! (flow tokens, names) are not.
//!
//! [`MonitorSnapshot`]: crate::control::MonitorSnapshot

use crate::bus::{EventFilter, EventKind, Severity};
use std::fmt;
use vcaml_netpkt::FlowKey;

/// Longest accepted request line, in bytes (before the newline). Longer
/// lines get [`ControlError::LineTooLong`] and the connection is
/// closed — the bound keeps a hostile client from growing the read
/// buffer without limit.
pub const MAX_LINE_BYTES: usize = 4096;

/// One parsed control request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `STATS` — reply with the live snapshot JSON.
    Stats,
    /// `FLUSH` — force provisional snapshots of pending windows.
    Flush,
    /// `EVICT <flow>` — seal one flow now.
    Evict(FlowKey),
    /// `SET <knob> <value>` — retune a live alert floor.
    Set(Setting),
    /// `SUBSCRIBE [filter]` — stream matching events as JSON lines.
    Subscribe(EventFilter),
    /// `STOP` — gracefully stop the monitored run.
    Stop,
}

/// The knobs `SET` can retune, each mapping 1:1 onto a
/// [`MonitorHandle`](crate::control::MonitorHandle) setter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setting {
    /// `SET alert_fps <v>` — the frame-rate floor.
    AlertFps(f64),
    /// `SET alert_min_kbps <v>` — the bitrate floor.
    AlertMinKbps(f64),
    /// `SET alert_resolution_floor <height>` — the resolution-class
    /// floor as a frame height, mapped through the lab ladder of the
    /// monitor's VCA; `0` clears it.
    AlertResolutionFloor(u32),
}

/// Why a request line was rejected. Every variant renders as one
/// `ERR <code> <detail>` reply; the connection stays usable (except
/// [`ControlError::LineTooLong`], after which the server closes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// Blank line.
    Empty,
    /// First token is not a known verb.
    UnknownVerb(String),
    /// The verb needs an argument that was not supplied.
    MissingArgument(&'static str),
    /// The verb got more arguments than its grammar has slots for.
    TrailingArguments(String),
    /// `EVICT`'s flow token is not a [`FlowKey::to_wire`] form.
    BadFlow(String),
    /// `SET`'s knob name is not one of the [`Setting`]s.
    UnknownSetting(String),
    /// A numeric value did not parse as a finite number.
    BadNumber(String),
    /// A `SUBSCRIBE` key is not `kinds`/`flows`/`min_severity`.
    UnknownFilterKey(String),
    /// A `kinds=` name is not an [`EventKind::name`].
    UnknownKind(String),
    /// A `min_severity=` name is not a [`Severity::name`].
    UnknownSeverity(String),
    /// The line exceeded [`MAX_LINE_BYTES`].
    LineTooLong,
    /// The line was not valid UTF-8.
    NotUtf8,
}

impl ControlError {
    /// Stable machine-readable error code (the second token of an
    /// `ERR` reply).
    pub fn code(&self) -> &'static str {
        match self {
            ControlError::Empty => "empty",
            ControlError::UnknownVerb(_) => "unknown_verb",
            ControlError::MissingArgument(_) => "missing_argument",
            ControlError::TrailingArguments(_) => "trailing_arguments",
            ControlError::BadFlow(_) => "bad_flow",
            ControlError::UnknownSetting(_) => "unknown_setting",
            ControlError::BadNumber(_) => "bad_number",
            ControlError::UnknownFilterKey(_) => "unknown_filter_key",
            ControlError::UnknownKind(_) => "unknown_kind",
            ControlError::UnknownSeverity(_) => "unknown_severity",
            ControlError::LineTooLong => "line_too_long",
            ControlError::NotUtf8 => "not_utf8",
        }
    }

    /// The full wire reply for this error: `ERR <code> <detail>`.
    /// Offending input is truncated and made printable so the reply is
    /// always one clean line.
    pub fn to_reply(&self) -> String {
        fn printable(text: &str) -> String {
            let mut out: String = text
                .chars()
                .take(64)
                .map(|c| if c.is_ascii_graphic() { c } else { '.' })
                .collect();
            if text.chars().count() > 64 {
                out.push_str("...");
            }
            out
        }
        let detail = match self {
            ControlError::Empty => "empty request line".into(),
            ControlError::UnknownVerb(verb) => format!(
                "unknown verb {:?} (expected STATS/FLUSH/EVICT/SET/SUBSCRIBE/STOP)",
                printable(verb)
            ),
            ControlError::MissingArgument(what) => format!("missing argument: {what}"),
            ControlError::TrailingArguments(extra) => {
                format!("unexpected trailing arguments: {:?}", printable(extra))
            }
            ControlError::BadFlow(token) => format!(
                "bad flow {:?} (expected ADDR:PORT-ADDR:PORT/PROTO)",
                printable(token)
            ),
            ControlError::UnknownSetting(knob) => format!(
                "unknown setting {:?} (expected alert_fps/alert_min_kbps/alert_resolution_floor)",
                printable(knob)
            ),
            ControlError::BadNumber(token) => {
                format!(
                    "bad number {:?} (expected a finite value)",
                    printable(token)
                )
            }
            ControlError::UnknownFilterKey(key) => format!(
                "unknown filter key {:?} (expected kinds/flows/min_severity)",
                printable(key)
            ),
            ControlError::UnknownKind(name) => {
                format!("unknown event kind {:?}", printable(name))
            }
            ControlError::UnknownSeverity(name) => format!(
                "unknown severity {:?} (expected info/warning/critical)",
                printable(name)
            ),
            ControlError::LineTooLong => {
                format!("request line exceeds {MAX_LINE_BYTES} bytes")
            }
            ControlError::NotUtf8 => "request line is not valid UTF-8".into(),
        };
        format!("ERR {} {detail}", self.code())
    }
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_reply())
    }
}

impl std::error::Error for ControlError {}

/// Parses one request line. Total over arbitrary input: every outcome
/// is a [`Request`] or a typed [`ControlError`], never a panic.
pub fn parse_request(line: &str) -> Result<Request, ControlError> {
    let mut tokens = line.split_whitespace();
    let Some(verb) = tokens.next() else {
        return Err(ControlError::Empty);
    };
    match verb.to_ascii_uppercase().as_str() {
        "STATS" => finish(tokens, Request::Stats),
        "FLUSH" => finish(tokens, Request::Flush),
        "STOP" => finish(tokens, Request::Stop),
        "EVICT" => {
            let token = tokens.next().ok_or(ControlError::MissingArgument("flow"))?;
            let flow = FlowKey::from_wire(token)
                .ok_or_else(|| ControlError::BadFlow(token.to_string()))?;
            finish(tokens, Request::Evict(flow))
        }
        "SET" => {
            let knob = tokens
                .next()
                .ok_or(ControlError::MissingArgument("setting name"))?;
            let value = tokens
                .next()
                .ok_or(ControlError::MissingArgument("setting value"))?;
            let setting = match knob.to_ascii_lowercase().as_str() {
                "alert_fps" => Setting::AlertFps(finite(value)?),
                "alert_min_kbps" => Setting::AlertMinKbps(finite(value)?),
                "alert_resolution_floor" => Setting::AlertResolutionFloor(
                    value
                        .parse()
                        .map_err(|_| ControlError::BadNumber(value.to_string()))?,
                ),
                _ => return Err(ControlError::UnknownSetting(knob.to_string())),
            };
            finish(tokens, Request::Set(setting))
        }
        "SUBSCRIBE" => {
            let mut filter = EventFilter::all();
            for token in tokens {
                let (key, value) = token
                    .split_once('=')
                    .ok_or_else(|| ControlError::UnknownFilterKey(token.to_string()))?;
                match key.to_ascii_lowercase().as_str() {
                    "kinds" => {
                        let kinds = value
                            .split(',')
                            .map(|name| {
                                EventKind::from_name(name)
                                    .ok_or_else(|| ControlError::UnknownKind(name.to_string()))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        filter = filter.kinds(kinds);
                    }
                    "flows" => {
                        let flows = value
                            .split(',')
                            .map(|token| {
                                FlowKey::from_wire(token)
                                    .ok_or_else(|| ControlError::BadFlow(token.to_string()))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        filter = filter.flows(flows);
                    }
                    "min_severity" => {
                        let severity = Severity::from_name(value)
                            .ok_or_else(|| ControlError::UnknownSeverity(value.to_string()))?;
                        filter = filter.min_severity(severity);
                    }
                    _ => return Err(ControlError::UnknownFilterKey(key.to_string())),
                }
            }
            Ok(Request::Subscribe(filter))
        }
        _ => Err(ControlError::UnknownVerb(verb.to_string())),
    }
}

/// Rejects leftover tokens so typos surface instead of being silently
/// swallowed (`EVICT <flow> oops`).
fn finish<'a>(
    mut rest: impl Iterator<Item = &'a str>,
    request: Request,
) -> Result<Request, ControlError> {
    match rest.next() {
        None => Ok(request),
        Some(extra) => Err(ControlError::TrailingArguments(extra.to_string())),
    }
}

fn finite(token: &str) -> Result<f64, ControlError> {
    let value: f64 = token
        .parse()
        .map_err(|_| ControlError::BadNumber(token.to_string()))?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(ControlError::BadNumber(token.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn flow() -> FlowKey {
        FlowKey::canonical(
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            5000,
            IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            5001,
            17,
        )
        .0
    }

    #[test]
    fn bare_verbs_parse_case_insensitively() {
        assert_eq!(parse_request("STATS"), Ok(Request::Stats));
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("  Flush  "), Ok(Request::Flush));
        assert_eq!(parse_request("stop"), Ok(Request::Stop));
    }

    #[test]
    fn evict_takes_a_wire_flow() {
        let line = format!("EVICT {}", flow().to_wire());
        assert_eq!(parse_request(&line), Ok(Request::Evict(flow())));
        assert!(matches!(
            parse_request("EVICT nonsense"),
            Err(ControlError::BadFlow(_))
        ));
        assert_eq!(
            parse_request("EVICT"),
            Err(ControlError::MissingArgument("flow"))
        );
    }

    #[test]
    fn set_parses_every_knob_and_rejects_the_rest() {
        assert_eq!(
            parse_request("SET alert_fps 24.5"),
            Ok(Request::Set(Setting::AlertFps(24.5)))
        );
        assert_eq!(
            parse_request("SET alert_min_kbps 500"),
            Ok(Request::Set(Setting::AlertMinKbps(500.0)))
        );
        assert_eq!(
            parse_request("SET alert_resolution_floor 360"),
            Ok(Request::Set(Setting::AlertResolutionFloor(360)))
        );
        assert!(matches!(
            parse_request("SET alert_fps NaN"),
            Err(ControlError::BadNumber(_))
        ));
        assert!(matches!(
            parse_request("SET alert_fps inf"),
            Err(ControlError::BadNumber(_))
        ));
        assert!(matches!(
            parse_request("SET volume 11"),
            Err(ControlError::UnknownSetting(_))
        ));
        assert!(matches!(
            parse_request("SET alert_resolution_floor -1"),
            Err(ControlError::BadNumber(_))
        ));
    }

    #[test]
    fn subscribe_composes_filter_axes() {
        assert!(matches!(
            parse_request("SUBSCRIBE"),
            Ok(Request::Subscribe(_))
        ));
        let line = format!(
            "SUBSCRIBE kinds=window_report,dropped flows={} min_severity=warning",
            flow().to_wire()
        );
        assert!(matches!(parse_request(&line), Ok(Request::Subscribe(_))));
        assert!(matches!(
            parse_request("SUBSCRIBE kinds=bogus"),
            Err(ControlError::UnknownKind(_))
        ));
        assert!(matches!(
            parse_request("SUBSCRIBE min_severity=apocalyptic"),
            Err(ControlError::UnknownSeverity(_))
        ));
        assert!(matches!(
            parse_request("SUBSCRIBE color=red"),
            Err(ControlError::UnknownFilterKey(_))
        ));
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(matches!(
            parse_request("STATS please"),
            Err(ControlError::TrailingArguments(_))
        ));
        assert!(matches!(
            parse_request("SET alert_fps 24 now"),
            Err(ControlError::TrailingArguments(_))
        ));
    }

    #[test]
    fn errors_render_as_single_clean_lines() {
        let err = parse_request("DESTROY \u{7}\u{7}\u{7} everything").unwrap_err();
        let reply = err.to_reply();
        assert!(reply.starts_with("ERR unknown_verb "));
        assert!(!reply.contains('\n'));
        assert!(reply.chars().all(|c| c.is_ascii_graphic() || c == ' '));
    }
}
