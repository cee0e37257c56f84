//! The traced run's span buffer.
//!
//! Spans are recorded here, in the benchmark, around each call into a
//! layer's public function; nothing inside the program is instrumented
//! and the program's own `obsv` gate stays closed. Layer calls never nest,
//! so a layer's self time is the sum of its span durations. The traced
//! end-to-end time is the wall time of the recording windows; whatever the
//! layer spans do not cover is reported as `bench.unattributed`, so the
//! table always sums to the end-to-end time.
//!
//! Calls too short and too many to keep one span each (a crash injection's
//! draw, replay, recovery and check) are timed the same way but folded into
//! per-layer totals; the timeline then shows one group span per batch with
//! the per-layer times in its arguments.

use crate::json;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Name of the leftover row.
pub const UNATTRIBUTED: &str = "bench.unattributed";

struct Span {
    name: String,
    start: Duration,
    dur: Duration,
    args: Vec<(String, String)>,
}

/// Busy time and call count of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub secs: f64,
    pub calls: u64,
}

/// Span buffer for one traced run. An `off` recorder runs the wrapped
/// calls and records nothing, so setup code can share one path.
pub struct Recorder {
    on: bool,
    origin: Instant,
    window: Option<Instant>,
    traced: Duration,
    spans: Vec<Span>,
    layers: Vec<Layer>,
}

impl Recorder {
    pub fn off() -> Self {
        Recorder {
            on: false,
            origin: Instant::now(),
            window: None,
            traced: Duration::ZERO,
            spans: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// A recorder with its first window open.
    pub fn on() -> Self {
        let now = Instant::now();
        Recorder {
            on: true,
            origin: now,
            window: Some(now),
            ..Recorder::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Closes the current window: work done until [`resume`](Self::resume)
    /// (untraced reference repetitions) is not part of the traced time.
    pub fn pause(&mut self) {
        if let Some(t0) = self.window.take() {
            self.traced += t0.elapsed();
        }
    }

    pub fn resume(&mut self) {
        if self.on && self.window.is_none() {
            self.window = Some(Instant::now());
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(layer, t0, Instant::now());
        r
    }

    /// Records an already-timed call of `layer`.
    pub fn record(&mut self, layer: &'static str, t0: Instant, t1: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name: layer.to_string(),
            start: t0 - self.origin,
            dur: t1 - t0,
            args: Vec::new(),
        });
        self.add_busy(layer, (t1 - t0).as_secs_f64(), 1);
    }

    /// Adds folded busy time (no timeline span of its own).
    pub fn add_busy(&mut self, layer: &'static str, secs: f64, calls: u64) {
        if !self.on {
            return;
        }
        match self.layers.iter_mut().find(|l| l.name == layer) {
            Some(l) => {
                l.secs += secs;
                l.calls += calls;
            }
            None => self.layers.push(Layer {
                name: layer,
                secs,
                calls,
            }),
        }
    }

    /// A timeline-only span grouping the calls between `t0` and `t1`.
    pub fn group(&mut self, name: String, t0: Instant, t1: Instant, args: Vec<(String, String)>) {
        if self.on {
            self.spans.push(Span {
                name,
                start: t0 - self.origin,
                dur: t1 - t0,
                args,
            });
        }
    }

    /// Wall time of every recording window so far.
    pub fn traced_secs(&self) -> f64 {
        let open = self.window.map_or(Duration::ZERO, |t0| t0.elapsed());
        (self.traced + open).as_secs_f64()
    }

    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    pub fn busy(&self, layer: &str) -> f64 {
        self.layers
            .iter()
            .find(|l| l.name == layer)
            .map_or(0.0, |l| l.secs)
    }

    /// Traced end-to-end time minus every layer's self time.
    pub fn unattributed_secs(&self) -> f64 {
        self.traced_secs() - self.layers.iter().map(|l| l.secs).sum::<f64>()
    }

    /// The per-layer table: self time, calls and share, then the
    /// unattributed row and the total.
    pub fn table(&self) -> String {
        let total = self.traced_secs();
        let share = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>10} {:>8}",
            "layer", "self s", "calls", "share"
        );
        for l in &self.layers {
            let _ = writeln!(
                out,
                "{:<28} {:>12.6} {:>10} {:>7.2}%",
                l.name,
                l.secs,
                l.calls,
                share(l.secs)
            );
        }
        let un = self.unattributed_secs();
        let _ = writeln!(
            out,
            "{:<28} {:>12.6} {:>10} {:>7.2}%",
            UNATTRIBUTED,
            un,
            "",
            share(un)
        );
        let _ = writeln!(
            out,
            "{:<28} {:>12.6} {:>10} {:>7.2}%",
            "traced end-to-end", total, "", 100.0
        );
        out
    }

    /// Chrome trace-event JSON (loadable in Perfetto). `meta` is a JSON
    /// object recorded as the trace's metadata.
    pub fn chrome_json(&self, meta: &str) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut events = vec![
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"mpbench\"}}"
                .to_string(),
        ];
        for s in &self.spans {
            let args: Vec<String> = s
                .args
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json::esc(k), json::esc(v)))
                .collect();
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}",
                json::esc(&s.name),
                us(s.start),
                us(s.dur),
                args.join(", ")
            ));
        }
        format!(
            "{{\"displayTimeUnit\": \"ns\", \"metadata\": {meta}, \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_and_unattributed_sum_to_traced_time() {
        let mut rec = Recorder::on();
        rec.span("a", || std::thread::sleep(Duration::from_millis(3)));
        std::thread::sleep(Duration::from_millis(1));
        rec.span("b", || std::thread::sleep(Duration::from_millis(2)));
        rec.pause();
        std::thread::sleep(Duration::from_millis(5));
        rec.resume();
        rec.span("a", || ());
        rec.pause();
        let sum: f64 = rec.layers().iter().map(|l| l.secs).sum::<f64>() + rec.unattributed_secs();
        assert!((sum - rec.traced_secs()).abs() < 1e-12);
        assert!(rec.traced_secs() < 0.0095, "paused time is not traced");
        assert_eq!(rec.layers()[0].calls, 2);
        assert!(rec.unattributed_secs() > 0.0);
        let j = rec.chrome_json("{}");
        assert!(crate::json::parse(&j).is_ok());
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("a", || 7), 7);
        assert!(rec.layers().is_empty());
        assert_eq!(rec.traced_secs(), 0.0);
    }
}
