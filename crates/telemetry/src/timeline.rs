//! Critical-path and bottleneck analysis over a fleet run.
//!
//! This module turns the raw observability outputs — schedule-relative
//! queue stamps, the span dump and per-site lock samples — into one
//! attributable [`BottleneckReport`] of where a fleet run serializes.
//!
//! # Determinism contract
//!
//! The report **core** ([`BottleneckReport::from_stamps`]) is a pure
//! function of the queue stamps: per-slot busy/blocked/idle timelines, the
//! critical path (the longest back-to-back service chain ending at the
//! makespan) and the schedule-attributed wait sites.  Under the virtual
//! clock those stamps are a pure function of the workload, so the core —
//! and its JSON rendering — is byte-identical at any worker count, exactly
//! like PR 7's span dumps (CI byte-compares two `--bottleneck-out` runs).
//!
//! The optional sections are additive and clearly labelled:
//! [`BottleneckReport::with_span_kinds`] aggregates the (also
//! deterministic) span dump by kind, while
//! [`BottleneckReport::with_lock_sites`] attaches **wall-clock** lock
//! samples — real measurements that vary run to run, so callers that need
//! byte-identity (the CI gate) leave them off, and callers that need the
//! diagnosis (`bench_snapshot`'s `contention` section,
//! `fleet_stress --obs-summary`) put them on.
//!
//! # Wait-share semantics
//!
//! Schedule sites measure *virtual* nanoseconds (hours of simulated queue
//! delay); lock sites measure *wall* nanoseconds (microseconds of real
//! serialization).  The two are never summed: each site's `share` is its
//! fraction of the total wait **of its own kind**.

use std::io::{self, Write};

use crate::export::{escape_json, json_f64};
use crate::registry::MetricsSnapshot;
use crate::sketch::sorted_quantile_ns;
use crate::span::Span;

/// Schema version of the bottleneck-report JSON document (2: dropped the
/// `amdahl` object).
pub const BOTTLENECK_JSON_SCHEMA: u32 = 2;

/// One served scenario on the queue timeline, all timestamps relative to
/// the run epoch (schedule-relative, so deterministic under the virtual
/// clock). `slot` is the FIFO server lane the scenario was stamped on
/// (`index % user_slots` in the fleet harness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedInterval {
    /// Scenario index in arrival order.
    pub index: u64,
    /// FIFO server lane.
    pub slot: u64,
    /// Arrival timestamp, ns since the run epoch.
    pub arrival_ns: u64,
    /// Service start (`max(arrival, lane free)`), ns since the run epoch.
    pub start_ns: u64,
    /// Service completion, ns since the run epoch.
    pub completion_ns: u64,
}

impl StampedInterval {
    /// Service duration.
    pub fn service_ns(&self) -> u64 {
        self.completion_ns.saturating_sub(self.start_ns)
    }

    /// Queue delay (time between arrival and service start).
    pub fn delay_ns(&self) -> u64 {
        self.start_ns.saturating_sub(self.arrival_ns)
    }
}

/// Busy/blocked/idle totals for one FIFO server lane.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTimeline {
    /// Lane id.
    pub slot: u64,
    /// Scenarios served on this lane.
    pub scenarios: u64,
    /// Total service time on this lane.
    pub busy_ns: u128,
    /// Total queue delay suffered by this lane's scenarios (overlaps the
    /// lane's own busy time: a scenario blocks *while* its predecessor is
    /// served).
    pub blocked_ns: u128,
    /// Lane idle time over the makespan (`makespan - busy`).
    pub idle_ns: u128,
}

/// The longest back-to-back service chain ending at the makespan: the
/// schedule's own critical path. No reordering of work on other lanes can
/// finish the run earlier than `start_ns + service_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Lane the chain runs on.
    pub slot: u64,
    /// Scenarios on the chain.
    pub scenarios: u64,
    /// Arrival-bound start of the chain head.
    pub start_ns: u64,
    /// Chain end (the makespan).
    pub end_ns: u64,
    /// Total service along the chain (`end - start`: the chain is gapless).
    pub service_ns: u128,
}

/// Attributed wait at one named serialization site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteAttribution {
    /// Site name (`fifo_queue`, `sweep_cache_shard`, …).
    pub site: String,
    /// `"schedule"` (virtual ns, from stamps) or `"lock"` (wall ns, from
    /// the contention sketches).
    pub kind: String,
    /// Wait samples recorded at the site.
    pub samples: u64,
    /// Samples that actually blocked.
    pub contended: u64,
    /// Total attributed wait.
    pub wait_ns: u128,
    /// Total hold time. For lock sites this covers contended acquisitions
    /// only (the uncontended fast path skips hold timing); 0 when no
    /// acquisition blocked.
    pub hold_ns: u128,
    /// p99 of the per-sample wait.
    pub p99_wait_ns: u64,
    /// Fraction of the total wait of this site's kind.
    pub share: f64,
}

/// One span kind (`category/name`) aggregated over the span dump.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanKindAttribution {
    /// Span category (`queue`, `driver`, …).
    pub category: String,
    /// Span name (`queue_wait`, `serve`, …).
    pub name: String,
    /// Spans of this kind.
    pub count: u64,
    /// Total duration of this kind.
    pub total_ns: u128,
}

/// The bottleneck diagnosis of one fleet run. Built from queue stamps
/// ([`BottleneckReport::from_stamps`], the deterministic core), optionally
/// extended with span-kind and lock-site sections. Renders as a
/// deterministic JSON document ([`BottleneckReport::to_json`]) and a
/// human-readable table ([`BottleneckReport::to_text`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckReport {
    /// Last completion on the queue timeline, ns since the run epoch.
    pub makespan_ns: u64,
    /// Scenarios analysed.
    pub scenarios: u64,
    /// Total service time across all lanes.
    pub total_service_ns: u128,
    /// Total queue delay across all scenarios.
    pub total_queue_wait_ns: u128,
    /// Average parallelism actually achieved
    /// (`total_service / makespan`; capped by the lane count).
    pub avg_parallelism: f64,
    /// Per-lane busy/blocked/idle breakdown, sorted by lane id.
    pub slots: Vec<SlotTimeline>,
    /// The schedule's critical path, when any scenario was served.
    pub critical_path: Option<CriticalPath>,
    /// Attributed wait per serialization site, schedule sites first, each
    /// kind sorted by wait descending.
    pub sites: Vec<SiteAttribution>,
    /// Span-kind aggregation of the span dump (empty until
    /// [`BottleneckReport::with_span_kinds`]).
    pub span_kinds: Vec<SpanKindAttribution>,
}

impl BottleneckReport {
    /// Build the deterministic core from queue stamps: per-lane timelines,
    /// critical path, and the `fifo_queue` schedule site. Pure function of
    /// the stamps — byte-identical at any worker count under the virtual
    /// clock.
    pub fn from_stamps(stamps: &[StampedInterval]) -> Self {
        let mut ordered: Vec<StampedInterval> = stamps.to_vec();
        ordered.sort_by_key(|s| (s.slot, s.start_ns, s.completion_ns, s.index));

        let makespan_ns = ordered.iter().map(|s| s.completion_ns).max().unwrap_or(0);
        let total_service_ns: u128 = ordered.iter().map(|s| s.service_ns() as u128).sum();
        let total_queue_wait_ns: u128 = ordered.iter().map(|s| s.delay_ns() as u128).sum();

        // Per-lane totals over the lane-sorted order.
        let mut slots: Vec<SlotTimeline> = Vec::new();
        for stamp in &ordered {
            if slots.last().map(|t| t.slot) != Some(stamp.slot) {
                slots.push(SlotTimeline {
                    slot: stamp.slot,
                    scenarios: 0,
                    busy_ns: 0,
                    blocked_ns: 0,
                    idle_ns: 0,
                });
            }
            let lane = slots.last_mut().expect("lane pushed above");
            lane.scenarios += 1;
            lane.busy_ns += stamp.service_ns() as u128;
            lane.blocked_ns += stamp.delay_ns() as u128;
        }
        for lane in &mut slots {
            lane.idle_ns = (makespan_ns as u128).saturating_sub(lane.busy_ns);
        }

        // Critical path: start from the makespan scenario (deterministic
        // tie-break on (slot, index)), walk back along its lane while each
        // scenario started the instant its predecessor completed.
        let critical_path = ordered
            .iter()
            .enumerate()
            .filter(|(_, s)| s.completion_ns == makespan_ns)
            .min_by_key(|(_, s)| (s.slot, s.index))
            .map(|(pos, _)| pos)
            .map(|mut pos| {
                let mut head = &ordered[pos];
                let mut chain = 1u64;
                let mut service: u128 = head.service_ns() as u128;
                while pos > 0 {
                    let prev = &ordered[pos - 1];
                    if prev.slot != head.slot || head.start_ns != prev.completion_ns {
                        break;
                    }
                    pos -= 1;
                    head = prev;
                    chain += 1;
                    service += head.service_ns() as u128;
                }
                CriticalPath {
                    slot: head.slot,
                    scenarios: chain,
                    start_ns: head.start_ns,
                    end_ns: makespan_ns,
                    service_ns: service,
                }
            });

        let avg_parallelism =
            if makespan_ns > 0 { total_service_ns as f64 / makespan_ns as f64 } else { 0.0 };

        let mut sites = Vec::new();
        if !ordered.is_empty() {
            let mut delays: Vec<u64> = ordered.iter().map(|s| s.delay_ns()).collect();
            delays.sort_unstable();
            sites.push(SiteAttribution {
                site: "fifo_queue".to_string(),
                kind: "schedule".to_string(),
                samples: ordered.len() as u64,
                contended: delays.iter().filter(|&&d| d > 0).count() as u64,
                wait_ns: total_queue_wait_ns,
                hold_ns: total_service_ns,
                p99_wait_ns: sorted_quantile_ns(&delays, 0.99),
                share: 0.0,
            });
        }

        let mut report = Self {
            makespan_ns,
            scenarios: ordered.len() as u64,
            total_service_ns,
            total_queue_wait_ns,
            avg_parallelism,
            slots,
            critical_path,
            sites,
            span_kinds: Vec::new(),
        };
        report.recompute_shares();
        report
    }

    /// Aggregate a span dump by `category/name` kind. The span multiset is
    /// itself deterministic under the virtual clock, so this keeps the
    /// byte-identity of the report.
    pub fn with_span_kinds(mut self, spans: &[Span]) -> Self {
        let mut kinds: Vec<SpanKindAttribution> = Vec::new();
        let mut sorted: Vec<&Span> = spans.iter().collect();
        sorted.sort_by(|a, b| (&a.category, &a.name).cmp(&(&b.category, &b.name)));
        for span in sorted {
            let same_kind = kinds
                .last()
                .map(|k| k.category == span.category && k.name == span.name)
                .unwrap_or(false);
            if !same_kind {
                kinds.push(SpanKindAttribution {
                    category: span.category.clone(),
                    name: span.name.clone(),
                    count: 0,
                    total_ns: 0,
                });
            }
            let kind = kinds.last_mut().expect("kind pushed above");
            kind.count += 1;
            kind.total_ns += span.dur_ns as u128;
        }
        kinds.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| (&a.category, &a.name).cmp(&(&b.category, &b.name)))
        });
        self.span_kinds = kinds;
        self
    }

    /// Attach per-site **wall-clock** lock samples from a metrics snapshot
    /// (the `lock_*` families recorded by
    /// [`ObservedMutex`](crate::contention::ObservedMutex)). These vary run
    /// to run — leave them off a report that must be byte-identical.
    pub fn with_lock_sites(mut self, snapshot: &MetricsSnapshot) -> Self {
        self.sites.retain(|s| s.kind != "lock");
        let mut lock_sites = Vec::new();
        for (id, wait) in &snapshot.sketches {
            if id.name != "lock_wait_ns" {
                continue;
            }
            let Some(site) = id.labels.iter().find(|(k, _)| k == "site").map(|(_, v)| v.clone())
            else {
                continue;
            };
            let labels = [("site", site.as_str())];
            let hold_ns = snapshot
                .sketches
                .iter()
                .find(|(hid, _)| hid.name == "lock_hold_ns" && hid.labels == id.labels)
                .map(|(_, hold)| hold.sum_ns())
                .unwrap_or(0);
            lock_sites.push(SiteAttribution {
                kind: "lock".to_string(),
                samples: wait.count(),
                contended: snapshot.counter("lock_contended_total", &labels).unwrap_or(0),
                wait_ns: wait.sum_ns(),
                hold_ns,
                p99_wait_ns: wait.quantile_ns(0.99),
                share: 0.0,
                site,
            });
        }
        lock_sites.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then_with(|| a.site.cmp(&b.site)));
        self.sites.extend(lock_sites);
        self.recompute_shares();
        self
    }

    /// Every site's `share` is its wait over the total wait of its own
    /// kind (schedule vs lock time live on different clocks).
    fn recompute_shares(&mut self) {
        for kind in ["schedule", "lock"] {
            let total: u128 = self.sites.iter().filter(|s| s.kind == kind).map(|s| s.wait_ns).sum();
            for site in self.sites.iter_mut().filter(|s| s.kind == kind) {
                site.share = if total > 0 { site.wait_ns as f64 / total as f64 } else { 0.0 };
            }
        }
    }

    /// The lock site with the most attributed wait, if any were attached.
    pub fn top_lock_site(&self) -> Option<&SiteAttribution> {
        self.sites
            .iter()
            .filter(|s| s.kind == "lock")
            .max_by(|a, b| a.wait_ns.cmp(&b.wait_ns).then_with(|| b.site.cmp(&a.site)))
    }

    /// Write the report as a deterministic JSON document: given equal
    /// contents, equal bytes.
    pub fn write_json<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "{{")?;
        writeln!(out, "  \"bottleneck_schema\": {BOTTLENECK_JSON_SCHEMA},")?;
        writeln!(out, "  \"makespan_ns\": {},", self.makespan_ns)?;
        writeln!(out, "  \"scenarios\": {},", self.scenarios)?;
        writeln!(out, "  \"total_service_ns\": {},", self.total_service_ns)?;
        writeln!(out, "  \"total_queue_wait_ns\": {},", self.total_queue_wait_ns)?;
        writeln!(out, "  \"avg_parallelism\": {},", json_f64(self.avg_parallelism))?;
        writeln!(out, "  \"slots\": [")?;
        for (i, lane) in self.slots.iter().enumerate() {
            let comma = if i + 1 < self.slots.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"slot\": {}, \"scenarios\": {}, \"busy_ns\": {}, \"blocked_ns\": {}, \
                 \"idle_ns\": {}}}{}",
                lane.slot, lane.scenarios, lane.busy_ns, lane.blocked_ns, lane.idle_ns, comma
            )?;
        }
        writeln!(out, "  ],")?;
        match &self.critical_path {
            Some(path) => writeln!(
                out,
                "  \"critical_path\": {{\"slot\": {}, \"scenarios\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"service_ns\": {}}},",
                path.slot, path.scenarios, path.start_ns, path.end_ns, path.service_ns
            )?,
            None => writeln!(out, "  \"critical_path\": null,")?,
        }
        writeln!(out, "  \"sites\": [")?;
        for (i, site) in self.sites.iter().enumerate() {
            let comma = if i + 1 < self.sites.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"site\": \"{}\", \"kind\": \"{}\", \"samples\": {}, \"contended\": {}, \
                 \"wait_ns\": {}, \"hold_ns\": {}, \"p99_wait_ns\": {}, \"share\": {}}}{}",
                escape_json(&site.site),
                escape_json(&site.kind),
                site.samples,
                site.contended,
                site.wait_ns,
                site.hold_ns,
                site.p99_wait_ns,
                json_f64(site.share),
                comma
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"span_kinds\": [")?;
        for (i, kind) in self.span_kinds.iter().enumerate() {
            let comma = if i + 1 < self.span_kinds.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"category\": \"{}\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}}}{}",
                escape_json(&kind.category),
                escape_json(&kind.name),
                kind.count,
                kind.total_ns,
                comma
            )?;
        }
        writeln!(out, "  ]")?;
        writeln!(out, "}}")?;
        Ok(())
    }

    /// The JSON document as a `String`.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("report emits UTF-8")
    }

    /// Render the human-readable diagnosis: run summary, critical path,
    /// per-lane timelines, top sites and span kinds.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let seconds = |ns: u128| format!("{:.3}", ns as f64 / 1e9);
        out.push_str("bottleneck report\n");
        out.push_str(&format!(
            "  makespan {} s over {} scenarios; service {} s, queue wait {} s, \
             avg parallelism {:.2}\n",
            seconds(self.makespan_ns as u128),
            self.scenarios,
            seconds(self.total_service_ns),
            seconds(self.total_queue_wait_ns),
            self.avg_parallelism,
        ));
        if let Some(path) = &self.critical_path {
            out.push_str(&format!(
                "  critical path: {} back-to-back scenarios on lane {}, {} s \
                 ({:.1}% of the makespan)\n",
                path.scenarios,
                path.slot,
                seconds(path.service_ns),
                if self.makespan_ns > 0 {
                    100.0 * path.service_ns as f64 / self.makespan_ns as f64
                } else {
                    0.0
                },
            ));
        }

        let mut lane_rows = Vec::new();
        for lane in &self.slots {
            lane_rows.push(vec![
                lane.slot.to_string(),
                lane.scenarios.to_string(),
                seconds(lane.busy_ns),
                seconds(lane.blocked_ns),
                seconds(lane.idle_ns),
            ]);
        }
        out.push_str(&render_rows(
            "lanes",
            &["lane", "scenarios", "busy_s", "blocked_s", "idle_s"],
            &lane_rows,
        ));

        let mut site_rows = Vec::new();
        for site in self.sites.iter().take(10) {
            site_rows.push(vec![
                site.site.clone(),
                site.kind.clone(),
                site.samples.to_string(),
                site.contended.to_string(),
                seconds(site.wait_ns),
                format!("{:.1}%", 100.0 * site.share),
                format!("{:.3}", site.p99_wait_ns as f64 / 1e3),
            ]);
        }
        out.push_str(&render_rows(
            "serialization sites (wait shares are per kind)",
            &["site", "kind", "samples", "contended", "wait_s", "share", "p99_wait_us"],
            &site_rows,
        ));

        if !self.span_kinds.is_empty() {
            let mut kind_rows = Vec::new();
            for kind in self.span_kinds.iter().take(10) {
                kind_rows.push(vec![
                    format!("{}/{}", kind.category, kind.name),
                    kind.count.to_string(),
                    seconds(kind.total_ns),
                ]);
            }
            out.push_str(&render_rows("span kinds", &["kind", "count", "total_s"], &kind_rows));
        }
        out
    }
}

/// Minimal aligned-column renderer (the telemetry crate sits below
/// `soclearn-core`, so it cannot use the report helpers there).
fn render_rows(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = format!("  {title}\n    ");
    for (i, header) in headers.iter().enumerate() {
        out.push_str(&format!("{:<width$}  ", header, width = widths[i]));
    }
    out.push('\n');
    for row in rows {
        out.push_str("    ");
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            } else {
                out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-lane FIFO with a saturated lane 0 (three back-to-back services)
    /// and a sparse lane 1.
    fn stamps() -> Vec<StampedInterval> {
        vec![
            StampedInterval { index: 0, slot: 0, arrival_ns: 0, start_ns: 0, completion_ns: 100 },
            StampedInterval {
                index: 2,
                slot: 0,
                arrival_ns: 50,
                start_ns: 100,
                completion_ns: 250,
            },
            StampedInterval {
                index: 4,
                slot: 0,
                arrival_ns: 90,
                start_ns: 250,
                completion_ns: 400,
            },
            StampedInterval { index: 1, slot: 1, arrival_ns: 10, start_ns: 10, completion_ns: 60 },
        ]
    }

    #[test]
    fn core_reconstructs_timelines_and_critical_path() {
        let report = BottleneckReport::from_stamps(&stamps());
        assert_eq!(report.makespan_ns, 400);
        assert_eq!(report.scenarios, 4);
        assert_eq!(report.total_service_ns, 100 + 150 + 150 + 50);
        assert_eq!(report.total_queue_wait_ns, 50 + 160);
        assert_eq!(report.slots.len(), 2);
        assert_eq!(report.slots[0].busy_ns, 400);
        assert_eq!(report.slots[0].idle_ns, 0);
        assert_eq!(report.slots[1].busy_ns, 50);
        assert_eq!(report.slots[1].idle_ns, 350);

        let path = report.critical_path.expect("nonempty run has a critical path");
        assert_eq!(path.slot, 0);
        assert_eq!(path.scenarios, 3, "all three lane-0 services are back-to-back");
        assert_eq!(path.start_ns, 0);
        assert_eq!(path.end_ns, 400);
        assert_eq!(path.service_ns, 400);

        let queue = &report.sites[0];
        assert_eq!(queue.site, "fifo_queue");
        assert_eq!(queue.samples, 4);
        assert_eq!(queue.contended, 2);
        assert_eq!(queue.share, 1.0);
    }

    #[test]
    fn json_is_deterministic_and_stamp_order_insensitive() {
        let forward = BottleneckReport::from_stamps(&stamps());
        let mut shuffled = stamps();
        shuffled.reverse();
        let backward = BottleneckReport::from_stamps(&shuffled);
        assert_eq!(forward, backward, "report must not depend on stamp order");
        assert_eq!(forward.to_json(), backward.to_json());
        assert!(forward.to_json().contains("\"bottleneck_schema\": 2"));
    }

    #[test]
    fn empty_run_renders_without_panicking() {
        let report = BottleneckReport::from_stamps(&[]);
        assert_eq!(report.makespan_ns, 0);
        assert!(report.critical_path.is_none());
        assert!(report.sites.is_empty());
        assert!(report.to_json().contains("\"critical_path\": null"));
        assert!(!report.to_text().is_empty());
    }

    #[test]
    fn span_kinds_aggregate_by_category_and_name() {
        use crate::span::Span;
        let spans = vec![
            Span::new("serve", "driver", 0, 0, 100),
            Span::new("serve", "driver", 1, 50, 200),
            Span::new("queue_wait", "queue", 0, 0, 700),
        ];
        let report = BottleneckReport::from_stamps(&stamps()).with_span_kinds(&spans);
        assert_eq!(report.span_kinds.len(), 2);
        assert_eq!(report.span_kinds[0].name, "queue_wait", "sorted by total time");
        assert_eq!(report.span_kinds[0].total_ns, 700);
        assert_eq!(report.span_kinds[1].count, 2);
        assert_eq!(report.span_kinds[1].total_ns, 300);
    }

    #[test]
    fn lock_sites_attach_from_a_snapshot_with_per_kind_shares() {
        use crate::contention::ObservedMutex;
        use crate::registry::TelemetryRegistry;
        let registry = TelemetryRegistry::new();
        let cache = ObservedMutex::new("cache_shard", ());
        let queue = ObservedMutex::new("queue_model", ());
        cache.attach(&registry);
        queue.attach(&registry);
        for _ in 0..8 {
            drop(cache.lock());
        }
        drop(queue.lock());
        let report = BottleneckReport::from_stamps(&stamps()).with_lock_sites(&registry.snapshot());
        let locks: Vec<&SiteAttribution> =
            report.sites.iter().filter(|s| s.kind == "lock").collect();
        assert_eq!(locks.len(), 2);
        assert_eq!(locks[0].samples + locks[1].samples, 9);
        let share_sum: f64 = locks.iter().map(|s| s.share).sum();
        assert!(share_sum == 0.0 || (share_sum - 1.0).abs() < 1e-9);
        // Schedule share is unaffected by lock attachment.
        assert_eq!(report.sites[0].share, 1.0);
        assert!(report.top_lock_site().is_some());
        assert!(report.to_json().contains("\"kind\": \"lock\""));
    }
}
