//! In-memory host-time spans and their attribution to layers.
//!
//! A span is opened and closed around one call into a layer's public
//! entry point. Where a library runs work the benchmark cannot wrap
//! (the sweep runner's worker threads, the service's worker processes),
//! the per-point engine spans are reconstructed from the library's own
//! per-point `wall_secs` by [`Tracer::lanes`] and marked synthetic.
//!
//! [`self_times`] splits each root span's duration among the spans of its
//! tree, so the self times of a tree always sum to the root's duration:
//! the root's own share is the time no instrumented call was running —
//! the "unaccounted" remainder.

use std::fmt::Write as _;
use std::time::Instant;

/// Layer name given to root spans: their self time is what no
/// instrumented call accounts for.
pub const UNACCOUNTED: &str = "unaccounted";

/// One timed interval, in seconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Spans of one request (one timed operation) share this id.
    pub request: u64,
    /// Index of the enclosing span, `None` for a request's root.
    pub parent: Option<usize>,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Reconstructed from library-reported durations, not timed directly.
    pub synthetic: bool,
}

/// Records spans in memory; with `on == false` every call is a no-op
/// that reads no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (inert when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under `parent` (or a new root when `parent` is inert
    /// or `None`).
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request: u64,
        parent: Option<Open>,
    ) -> Open {
        if !self.on {
            return Open(None);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            layer,
            request,
            parent: parent.and_then(|p| p.0),
            start,
            end: f64::NAN,
            synthetic: false,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Closes `span`.
    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end = self.now();
        }
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Open,
        f: impl FnOnce() -> T,
    ) -> T {
        let request = parent.0.map_or(0, |i| self.spans[i].request);
        let s = self.open(name, layer, request, Some(parent));
        let out = f();
        self.close(s);
        out
    }

    /// Reconstructs per-point engine spans under the closed span
    /// `parent`: `durations` (in the order a pool claims them) are placed
    /// greedily on `workers` lanes — each point goes to the lane that
    /// frees first — and the lanes are anchored so the busiest one ends
    /// with `parent`. Spans are clamped into `parent`.
    pub fn lanes(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Open,
        durations: &[f64],
        workers: usize,
    ) {
        let Some(p) = parent.0 else { return };
        let (p_start, p_end, request) = {
            let s = &self.spans[p];
            (s.start, s.end, s.request)
        };
        let mut free = vec![0.0f64; workers.max(1)];
        let mut placed = Vec::with_capacity(durations.len());
        for &d in durations {
            let lane = (0..free.len())
                .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                .unwrap_or(0);
            placed.push((free[lane], free[lane] + d));
            free[lane] += d;
        }
        let makespan = free.iter().copied().fold(0.0, f64::max);
        let offset = p_end - makespan;
        for (a, b) in placed {
            self.spans.push(Span {
                name,
                layer,
                request,
                parent: Some(p),
                start: (a + offset).clamp(p_start, p_end),
                end: (b + offset).clamp(p_start, p_end),
                synthetic: true,
            });
        }
    }

    /// The spans as tab-separated lines:
    /// `index parent request layer name start end synthetic`.
    pub fn to_tsv(&self) -> String {
        let mut out =
            String::from("index\tparent\trequest\tlayer\tname\tstart_s\tend_s\tsynthetic\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{:.9}\t{:.9}\t{}",
                s.request, s.layer, s.name, s.start, s.end, s.synthetic as u8
            );
        }
        out
    }
}

/// Each span's self time. Within every root's interval, each instant
/// goes in equal shares to the spans active at that instant that have no
/// active child; so two overlapping children each get half of their
/// overlap, and the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let n = spans.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let root_of = roots(spans);
    let mut out = vec![0.0; n];
    for root in (0..n).filter(|&i| spans[i].parent.is_none()) {
        let tree: Vec<usize> = (0..n).filter(|&i| root_of[i] == root).collect();
        let mut bounds: Vec<f64> = tree
            .iter()
            .flat_map(|&i| [spans[i].start, spans[i].end])
            .collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let mut active = vec![false; n];
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            let mid = (a + b) / 2.0;
            for &i in &tree {
                active[i] = spans[i].start <= mid && mid < spans[i].end;
            }
            let leaves: Vec<usize> = tree
                .iter()
                .copied()
                .filter(|&i| active[i] && !children[i].iter().any(|&c| active[c]))
                .collect();
            let share = (b - a) / leaves.len().max(1) as f64;
            for i in leaves {
                out[i] += share;
            }
        }
    }
    out
}

/// The index of each span's root.
fn roots(spans: &[Span]) -> Vec<usize> {
    (0..spans.len())
        .map(|mut r| {
            while let Some(p) = spans[r].parent {
                r = p;
            }
            r
        })
        .collect()
}

/// Self time summed per layer, largest first, over every tree whose
/// root is named `root_name`. Also returns those roots' total duration.
pub fn layer_shares(spans: &[Span], root_name: &str) -> (Vec<(&'static str, f64)>, f64) {
    let own = self_times(spans);
    let root_of = roots(spans);
    let mut layers: Vec<(&'static str, f64)> = Vec::new();
    let mut total = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of[i]].name != root_name {
            continue;
        }
        if s.parent.is_none() {
            total += s.end - s.start;
        }
        match layers.iter_mut().find(|(l, _)| *l == s.layer) {
            Some(entry) => entry.1 += own[i],
            None => layers.push((s.layer, own[i])),
        }
    }
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    (layers, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: layer,
            layer,
            request: 1,
            parent,
            start,
            end,
            synthetic: false,
        }
    }

    #[test]
    fn overlapping_children_split_their_overlap() {
        // root [0,10]; a [0,6] and b [2,8] overlap on [2,6].
        let spans = vec![
            span(UNACCOUNTED, None, 0.0, 10.0),
            span("a", Some(0), 0.0, 6.0),
            span("b", Some(0), 2.0, 8.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 2.0).abs() < 1e-12, "{own:?}");
        assert!((own[1] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own[2] - 4.0).abs() < 1e-12, "{own:?}");
        assert!((own.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn grandchildren_take_time_from_their_parent_only() {
        // a [1,9] has child c [2,4]; b [5,7] overlaps a (not c).
        let spans = vec![
            span(UNACCOUNTED, None, 0.0, 10.0),
            span("a", Some(0), 1.0, 9.0),
            span("c", Some(1), 2.0, 4.0),
            span("b", Some(0), 5.0, 7.0),
        ];
        let own = self_times(&spans);
        // a: [1,2] + [4,5] + half of [5,7] + [7,9] = 1 + 1 + 1 + 2.
        assert!((own[1] - 5.0).abs() < 1e-12, "{own:?}");
        assert!((own[2] - 2.0).abs() < 1e-12, "{own:?}");
        assert!((own[3] - 1.0).abs() < 1e-12, "{own:?}");
        assert!((own[0] - 2.0).abs() < 1e-12, "{own:?}");
    }

    #[test]
    fn shares_sum_to_the_root_durations() {
        let mut t = Tracer::new(true);
        let root = t.open("req", UNACCOUNTED, 7, None);
        t.time("work", "layer", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        t.lanes("pt", "engine", root, &[0.001, 0.001, 0.0005], 2);
        let (layers, total) = layer_shares(t.spans(), "req");
        let sum: f64 = layers.iter().map(|l| l.1).sum();
        assert!((sum - total).abs() < 1e-9, "{layers:?} vs {total}");
        assert!(t.spans().iter().all(|s| s.request == 7));
    }

    #[test]
    fn lanes_pack_greedily_and_end_with_the_parent() {
        let mut t = Tracer::new(true);
        let root = t.open("req", UNACCOUNTED, 1, None);
        t.close(root);
        t.spans[0].start = 0.0;
        t.spans[0].end = 10.0;
        t.lanes("pt", "engine", root, &[4.0, 2.0, 3.0], 2);
        // Lane 0: [0,4]; lane 1: [0,2] then [2,5]; makespan 5 → offset 5.
        let s = t.spans();
        assert_eq!((s[1].start, s[1].end), (5.0, 9.0));
        assert_eq!((s[2].start, s[2].end), (5.0, 7.0));
        assert_eq!((s[3].start, s[3].end), (7.0, 10.0));
        assert!(s[1..].iter().all(|x| x.synthetic));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("req", UNACCOUNTED, 1, None);
        assert_eq!(t.time("x", "y", root, || 3), 3);
        t.close(root);
        t.lanes("pt", "engine", root, &[1.0], 2);
        assert!(t.spans().is_empty());
    }
}
