//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! program's public functions — nothing inside the program is
//! instrumented. Each step gets one root span; every public call the step
//! makes is a child of it. Spans stay in memory while the run measures and
//! are written out once at the end.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the same tracer, or [`ROOT`].
    pub parent: u32,
    /// Pass number and step id shared by every span of one step.
    pub pass: u32,
    pub step: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
    step: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            step: 0,
        }
    }

    /// Label the spans that follow with `(pass, step)`.
    pub fn at(&mut self, pass: u32, step: u32) {
        self.pass = pass;
        self.step = step;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied().unwrap_or(ROOT),
            pass: self.pass,
            step: self.step,
        });
        self.open.push((self.spans.len() - 1) as u32);
    }

    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end without begin") as usize;
        self.spans[idx].end = self.epoch.elapsed().as_nanos() as u64;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans named `name` whose step satisfies
    /// `keep(pass, step)`.
    pub fn durations_us(&self, name: &str, keep: impl Fn(u32, u32) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.pass, s.step))
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Share of the root spans named `root` that no child span covers:
    /// Σ self time / Σ duration. Children of one span never overlap (the
    /// driver is a single thread), so self time is the duration minus the
    /// children's durations.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let (mut own, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == ROOT && s.name == root {
                own += s.ns() - child_ns[i].min(s.ns());
                total += s.ns();
            }
        }
        crate::stats::ratio(own as f64, total as f64)
    }

    /// Write the spans of the passes `keep` selects, one tab-separated
    /// line each.
    pub fn write_tsv(
        &self,
        out: &mut impl Write,
        keep: impl Fn(u32) -> bool,
    ) -> std::io::Result<()> {
        writeln!(out, "id\tparent\tpass\tstep\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s.pass)) {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.pass, s.step, s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_open_span() {
        let mut tr = Tracer::new(true);
        tr.at(0, 1);
        tr.begin("root");
        tr.begin("a");
        tr.end();
        tr.begin("b");
        tr.end();
        tr.end();
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!((s[1].parent, s[2].parent), (0, 0));
        assert!(s.iter().all(|s| s.step == 1 && s.end >= s.start));
        let share = tr.unattributed_share("root");
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin("root");
        tr.end();
        assert!(tr.spans().is_empty());
    }
}
