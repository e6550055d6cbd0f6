//! Trace-replay invariant linter: checks a recorded JSONL trace stream
//! against the metadata semantics the paper's correctness story depends
//! on, without re-executing anything.
//!
//! The manager's trace bus (PR 1) narrates subscriptions, propagation
//! rounds, containment transitions and epoch flushes. Those executions
//! must satisfy a small declarative invariant set:
//!
//! | rule | invariant |
//! |------|-----------|
//! | T1   | per-item stored versions strictly increase |
//! | T2   | epoch ids strictly increase; ≤ 1 recompute per item per round |
//! | T3   | no activity for an item after its exclusion (until re-include) |
//! | T4   | quarantine legality: trip → silence until the cool-down ends → recover or re-trip |
//! | T5   | retry attempts count 1, 2, … with non-decreasing backoff delays |
//! | T6   | stream well-formedness: seq strictly increases, time never goes backwards |
//! | T7   | span causality: every span's parent exists, precedes it, and never changes (acyclic) |
//! | T8   | lineage coverage: every span-bearing notification's roots trace back to real source-update anchors |
//!
//! [`lint`] replays a slice of [`TraceRecord`]s and returns every
//! violation; [`parse_jsonl`] reconstructs records from the JSONL
//! export, so checked-in fixture traces (and the traces the chaos/batch
//! experiments write) can be linted offline — see the `tracelint`
//! binary in `streammeta-bench`.
//!
//! The linter assumes a *serialized* trace (deterministic virtual-clock
//! executions, or any single-threaded replay). Traces interleaved by
//! racing threads can reorder adjacent records around an exclusion and
//! produce false T3/T4 positives; lint the deterministic phase of an
//! experiment instead.
//!
//! Multi-partition traces: records tagged with a partition id (the
//! `part` field a [`PartitionedMetadataPlane`] partition stamps) keep
//! separate per-item, per-seq and per-epoch lanes, so traces merged
//! with [`merge_traces`] lint without cross-partition false positives
//! while span lineage (T7/T8) still links across partitions.
//!
//! [`PartitionedMetadataPlane`]: streammeta_core::PartitionedMetadataPlane

use std::collections::{HashMap, HashSet};

use streammeta_core::{TraceEvent, TraceKind as Kind, TraceRecord};
use streammeta_time::{TimeSpan, Timestamp};

/// The invariant rules of the trace linter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceRule {
    /// Stored versions strictly increase per item.
    VersionMonotonicity,
    /// Epoch ids strictly increase; one recompute per item per round.
    EpochSerialization,
    /// No activity for an excluded item until it is included again.
    ExclusionLiveness,
    /// Quarantine state-machine legality.
    QuarantineLegality,
    /// Retry attempts are consecutive with non-decreasing delays.
    RetryConformance,
    /// Sequence numbers strictly increase and time never goes backwards.
    StreamWellFormed,
    /// Every span's parent exists, strictly precedes it in the stream,
    /// and never changes across a span's records (acyclic by induction).
    SpanCausality,
    /// Every span-bearing notification carries at least one root, and
    /// every root is a real anchor (a parentless source-update,
    /// subscribe, periodic-fired or epoch-flushed span).
    LineageCoverage,
}

impl TraceRule {
    /// Stable rule id (`T1`..`T6`).
    pub fn code(self) -> &'static str {
        match self {
            TraceRule::VersionMonotonicity => "T1",
            TraceRule::EpochSerialization => "T2",
            TraceRule::ExclusionLiveness => "T3",
            TraceRule::QuarantineLegality => "T4",
            TraceRule::RetryConformance => "T5",
            TraceRule::StreamWellFormed => "T6",
            TraceRule::SpanCausality => "T7",
            TraceRule::LineageCoverage => "T8",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            TraceRule::VersionMonotonicity => "version monotonicity",
            TraceRule::EpochSerialization => "epoch serialization",
            TraceRule::ExclusionLiveness => "exclusion liveness",
            TraceRule::QuarantineLegality => "quarantine legality",
            TraceRule::RetryConformance => "retry/backoff conformance",
            TraceRule::StreamWellFormed => "stream well-formedness",
            TraceRule::SpanCausality => "span causality",
            TraceRule::LineageCoverage => "lineage coverage",
        }
    }

    /// All rules, in id order.
    pub const ALL: [TraceRule; 8] = [
        TraceRule::VersionMonotonicity,
        TraceRule::EpochSerialization,
        TraceRule::ExclusionLiveness,
        TraceRule::QuarantineLegality,
        TraceRule::RetryConformance,
        TraceRule::StreamWellFormed,
        TraceRule::SpanCausality,
        TraceRule::LineageCoverage,
    ];
}

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceViolation {
    /// The violated rule.
    pub rule: TraceRule,
    /// Sequence number of the offending record.
    pub seq: u64,
    /// The item concerned, if the rule is per-item.
    pub key: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}] seq {}",
            self.rule.code(),
            self.rule.name(),
            self.seq
        )?;
        if let Some(key) = &self.key {
            write!(f, " {key}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Per-item quarantine phase for rule T4.
#[derive(Default)]
struct QuarState {
    /// Cool-down end of the open breaker, if quarantined.
    until: Option<Timestamp>,
}

/// Per-item retry-episode state for rule T5.
#[derive(Default)]
struct RetryState {
    last_attempt: u32,
    last_delay: Option<TimeSpan>,
}

/// Replays `records` (in stream order) and returns every invariant
/// violation, in encounter order.
pub fn lint(records: &[TraceRecord]) -> Vec<TraceViolation> {
    let mut out = Vec::new();

    // T6 state. Seq counters and epoch ids are per-manager, so in a
    // merged multi-partition trace both are tracked per partition tag
    // (`part: None` is its own lane: a stand-alone manager's trace).
    let mut last_seq: HashMap<Option<u64>, u64> = HashMap::new();
    let mut last_at: Option<Timestamp> = None;
    // T1 state.
    let mut versions: HashMap<String, u64> = HashMap::new();
    // T2 state.
    let mut last_epoch: HashMap<Option<u64>, u64> = HashMap::new();
    let mut round_seen: HashMap<(u64, String), u64> = HashMap::new();
    // T3 state.
    let mut excluded: HashMap<String, bool> = HashMap::new();
    // T4 / T5 state.
    let mut quarantine: HashMap<String, QuarState> = HashMap::new();
    let mut retries: HashMap<String, RetryState> = HashMap::new();
    // T7 state: first-seen parent per span id.
    let mut span_parents: HashMap<u64, Option<u64>> = HashMap::new();
    // T8 anchors, collected up front: epoch coalescing can legally emit
    // a notification before its flush-span record, so anchor existence
    // must not depend on emission order.
    let anchors: HashSet<u64> = records
        .iter()
        .filter_map(|r| {
            let ctx = r.span.as_ref()?;
            let anchored = ctx.parent.is_none()
                && matches!(
                    r.event.tag(),
                    Kind::SourceUpdate | Kind::Subscribe | Kind::PeriodicFired | Kind::EpochFlushed
                );
            anchored.then_some(ctx.span)
        })
        .collect();

    for rec in records {
        // Per-item state is namespaced by the record's partition tag, so
        // a merged multi-partition trace keeps each partition's item
        // incarnations (and each proxy shadow of the same key) separate.
        let pfx = |s: String| match rec.part {
            Some(p) => format!("p{p}/{s}"),
            None => s,
        };
        let key_str = rec.event.key().map(|k| pfx(k.to_string()));

        // T6: stream well-formedness.
        if let Some(&prev) = last_seq.get(&rec.part) {
            if rec.seq <= prev {
                out.push(TraceViolation {
                    rule: TraceRule::StreamWellFormed,
                    seq: rec.seq,
                    key: None,
                    message: format!("seq {} does not increase over {prev}", rec.seq),
                });
            }
        }
        if let Some(prev) = last_at {
            if rec.at < prev {
                out.push(TraceViolation {
                    rule: TraceRule::StreamWellFormed,
                    seq: rec.seq,
                    key: None,
                    message: format!("time went backwards: {} after {}", rec.at, prev),
                });
            }
        }
        last_seq.insert(rec.part, rec.seq);
        last_at = Some(rec.at);

        // T7: span causality. A child span's first record must come
        // after some record of its parent (topological emission), a
        // span never reparents, and no span is its own parent — which
        // together rule out cycles by induction on first appearance.
        if let Some(ctx) = &rec.span {
            if ctx.parent == Some(ctx.span) {
                out.push(TraceViolation {
                    rule: TraceRule::SpanCausality,
                    seq: rec.seq,
                    key: key_str.clone(),
                    message: format!("span {} is its own parent", ctx.span),
                });
            } else if let Some(&first) = span_parents.get(&ctx.span) {
                if first != ctx.parent {
                    out.push(TraceViolation {
                        rule: TraceRule::SpanCausality,
                        seq: rec.seq,
                        key: key_str.clone(),
                        message: format!(
                            "span {} reparented from {:?} to {:?}",
                            ctx.span, first, ctx.parent
                        ),
                    });
                }
            } else {
                if let Some(parent) = ctx.parent {
                    if !span_parents.contains_key(&parent) {
                        out.push(TraceViolation {
                            rule: TraceRule::SpanCausality,
                            seq: rec.seq,
                            key: key_str.clone(),
                            message: format!(
                                "span {} appeared before its parent {parent}",
                                ctx.span
                            ),
                        });
                    }
                }
                span_parents.insert(ctx.span, ctx.parent);
            }

            // T8: lineage coverage. Every span-carrying notification
            // must name at least one root, and each must be an anchor.
            // Span-less notifications pass vacuously (sampling off or
            // an unsampled cascade).
            if matches!(rec.event, TraceEvent::Notified { .. }) {
                if ctx.roots.is_empty() {
                    out.push(TraceViolation {
                        rule: TraceRule::LineageCoverage,
                        seq: rec.seq,
                        key: key_str.clone(),
                        message: "notification span carries no roots".to_string(),
                    });
                }
                for root in &ctx.roots {
                    if !anchors.contains(root) {
                        out.push(TraceViolation {
                            rule: TraceRule::LineageCoverage,
                            seq: rec.seq,
                            key: key_str.clone(),
                            message: format!(
                                "root {root} does not resolve to a source-update anchor"
                            ),
                        });
                    }
                }
            }
        }

        // T3: activity after exclusion. Subscribe/unsubscribe/exclude
        // records are bookkeeping, not item activity.
        let is_activity = matches!(
            rec.event,
            TraceEvent::PropagationStep { .. }
                | TraceEvent::PeriodicFired { .. }
                | TraceEvent::ComputeFailed { .. }
                | TraceEvent::ValueStored { .. }
                | TraceEvent::RetryScheduled { .. }
                | TraceEvent::DeadlineExceeded { .. }
        );
        if is_activity {
            if let Some(key) = &key_str {
                if excluded.get(key).copied().unwrap_or(false) {
                    out.push(TraceViolation {
                        rule: TraceRule::ExclusionLiveness,
                        seq: rec.seq,
                        key: Some(key.clone()),
                        message: format!("{} after the item was excluded", rec.event.kind()),
                    });
                }
            }
        }

        // T4: quarantine silence. Probes at/after the cool-down end are
        // the legal exit path (success recovers, failure re-trips).
        let is_quarantine_sensitive = matches!(
            rec.event,
            TraceEvent::PropagationStep { .. }
                | TraceEvent::PeriodicFired { .. }
                | TraceEvent::ComputeFailed { .. }
                | TraceEvent::ValueStored { .. }
                | TraceEvent::RetryScheduled { .. }
        );
        if is_quarantine_sensitive {
            if let Some(key) = &key_str {
                if let Some(until) = quarantine.get(key).and_then(|q| q.until) {
                    if rec.at < until {
                        out.push(TraceViolation {
                            rule: TraceRule::QuarantineLegality,
                            seq: rec.seq,
                            key: Some(key.clone()),
                            message: format!(
                                "{} at {} inside the quarantine cool-down (until {until})",
                                rec.event.kind(),
                                rec.at
                            ),
                        });
                    }
                }
            }
        }

        match &rec.event {
            TraceEvent::Include { key, .. } => {
                excluded.insert(pfx(key.to_string()), false);
            }
            TraceEvent::Exclude { key, .. } => {
                // Exclusion drops the handler, ending its incarnation:
                // a later re-inclusion starts a fresh version counter,
                // retry episode and breaker, so all per-item state
                // resets here.
                let key = pfx(key.to_string());
                versions.remove(&key);
                retries.remove(&key);
                quarantine.remove(&key);
                excluded.insert(key, true);
            }
            TraceEvent::ValueStored { key, version } => {
                let key = pfx(key.to_string());
                if let Some(&prev) = versions.get(&key) {
                    if *version <= prev {
                        out.push(TraceViolation {
                            rule: TraceRule::VersionMonotonicity,
                            seq: rec.seq,
                            key: Some(key.clone()),
                            message: format!("version {version} not above previous {prev}"),
                        });
                    }
                }
                versions.insert(key.clone(), *version);
                // A successful store ends any retry episode.
                retries.remove(&key);
            }
            TraceEvent::EpochFlushed { epoch, .. } => {
                if let Some(&prev) = last_epoch.get(&rec.part) {
                    if *epoch <= prev {
                        out.push(TraceViolation {
                            rule: TraceRule::EpochSerialization,
                            seq: rec.seq,
                            key: None,
                            message: format!("epoch {epoch} not above previous {prev}"),
                        });
                    }
                }
                last_epoch.insert(rec.part, *epoch);
            }
            TraceEvent::PropagationStep { round, key, .. } => {
                let key = pfx(key.to_string());
                let slot = round_seen.entry((*round, key.clone())).or_insert(0);
                *slot += 1;
                if *slot > 1 {
                    out.push(TraceViolation {
                        rule: TraceRule::EpochSerialization,
                        seq: rec.seq,
                        key: Some(key),
                        message: format!("recomputed {} times in round {round}", *slot),
                    });
                }
            }
            TraceEvent::RetryScheduled {
                key,
                attempt,
                delay,
            } => {
                let key = pfx(key.to_string());
                let st = retries.entry(key.clone()).or_default();
                let expected_fresh = *attempt == 1;
                let expected_next = *attempt == st.last_attempt + 1 && st.last_attempt > 0;
                if !expected_fresh && !expected_next {
                    out.push(TraceViolation {
                        rule: TraceRule::RetryConformance,
                        seq: rec.seq,
                        key: Some(key.clone()),
                        message: format!(
                            "attempt {attempt} follows attempt {} (must be 1 or {})",
                            st.last_attempt,
                            st.last_attempt + 1
                        ),
                    });
                }
                if expected_next {
                    if let Some(prev_delay) = st.last_delay {
                        if *delay < prev_delay {
                            out.push(TraceViolation {
                                rule: TraceRule::RetryConformance,
                                seq: rec.seq,
                                key: Some(key.clone()),
                                message: format!("backoff delay {delay} shrank from {prev_delay}"),
                            });
                        }
                    }
                }
                st.last_attempt = *attempt;
                st.last_delay = Some(*delay);
            }
            TraceEvent::QuarantineTripped { key, until } => {
                let key = pfx(key.to_string());
                let st = quarantine.entry(key.clone()).or_default();
                if let Some(open_until) = st.until {
                    // Re-trip is legal only from a failed probe, which
                    // runs at/after the previous cool-down end.
                    if rec.at < open_until {
                        out.push(TraceViolation {
                            rule: TraceRule::QuarantineLegality,
                            seq: rec.seq,
                            key: Some(key.clone()),
                            message: format!(
                                "re-tripped at {} before the cool-down ended ({open_until})",
                                rec.at
                            ),
                        });
                    }
                }
                st.until = Some(*until);
                retries.remove(&key);
            }
            TraceEvent::QuarantineRecovered { key } => {
                let key = pfx(key.to_string());
                let st = quarantine.entry(key.clone()).or_default();
                if st.until.is_none() {
                    out.push(TraceViolation {
                        rule: TraceRule::QuarantineLegality,
                        seq: rec.seq,
                        key: Some(key.clone()),
                        message: "recovered without a preceding trip".to_string(),
                    });
                }
                st.until = None;
                retries.remove(&key);
            }
            _ => {}
        }
    }
    out
}

/// Parses a JSONL export (as produced by
/// [`TraceRecord::to_json`](streammeta_core::TraceRecord::to_json) /
/// `RingBufferSink::to_jsonl`) back into records, line by line through
/// its inverse [`TraceRecord::from_json`]. Returns the 1-based line
/// number and a description on the first malformed line.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(TraceRecord::from_json(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

/// Merges per-partition trace streams into one lintable stream, ordered
/// by timestamp (ties broken by partition tag, then seq). The linter
/// keys per-item and per-seq state by each record's `part` tag, so the
/// merged stream lints as if every partition ran beside the others.
///
/// Cross-partition span causality (T7) additionally needs the owner's
/// parent record to *precede* the proxy's child record in merged order;
/// the plane's message channels deliver on a later pump instant, so
/// deterministic virtual-clock runs satisfy this by construction.
pub fn merge_traces(parts: &[Vec<TraceRecord>]) -> Vec<TraceRecord> {
    let mut all: Vec<TraceRecord> = parts.iter().flatten().cloned().collect();
    all.sort_by_key(|r| (r.at, r.part, r.seq));
    all
}

/// Convenience: parse and lint a JSONL export in one call. A parse
/// failure is reported as a single T6 violation at seq 0 so callers can
/// treat malformed traces and invariant violations uniformly.
pub fn lint_jsonl(input: &str) -> Vec<TraceViolation> {
    match parse_jsonl(input) {
        Ok(records) => lint(&records),
        Err(e) => vec![TraceViolation {
            rule: TraceRule::StreamWellFormed,
            seq: 0,
            key: None,
            message: format!("unparseable trace: {e}"),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammeta_core::{MetadataKey, NodeId, SpanContext};

    fn key(path: &str) -> MetadataKey {
        MetadataKey::new(NodeId(1), path)
    }

    fn rec(seq: u64, at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord::new(seq, Timestamp(at), event)
    }

    fn spanned(mut record: TraceRecord, ctx: SpanContext) -> TraceRecord {
        record.span = Some(ctx);
        record
    }

    fn codes(violations: &[TraceViolation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule.code()).collect()
    }

    #[test]
    fn clean_trace_passes() {
        let records = vec![
            rec(0, 0, TraceEvent::Subscribe { key: key("rate") }),
            rec(
                1,
                0,
                TraceEvent::Include {
                    key: key("rate"),
                    mechanism: "periodic",
                    depth: 0,
                },
            ),
            rec(
                2,
                10,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 1,
                },
            ),
            rec(
                3,
                20,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 2,
                },
            ),
            rec(
                4,
                20,
                TraceEvent::Exclude {
                    key: key("rate"),
                    remaining: 0,
                },
            ),
        ];
        assert!(lint(&records).is_empty());
    }

    #[test]
    fn t1_version_regression_fires() {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 5,
                },
            ),
            rec(
                1,
                1,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 5,
                },
            ),
        ];
        assert_eq!(codes(&lint(&records)), ["T1"]);
    }

    #[test]
    fn t2_epoch_and_round_duplication_fire() {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::EpochFlushed {
                    epoch: 2,
                    origins: 1,
                    recomputed: 1,
                    max_depth: 1,
                },
            ),
            rec(
                1,
                1,
                TraceEvent::EpochFlushed {
                    epoch: 2,
                    origins: 1,
                    recomputed: 1,
                    max_depth: 1,
                },
            ),
            rec(
                2,
                2,
                TraceEvent::PropagationStep {
                    round: 7,
                    key: key("a"),
                    depth: 1,
                    changed: true,
                },
            ),
            rec(
                3,
                3,
                TraceEvent::PropagationStep {
                    round: 7,
                    key: key("a"),
                    depth: 1,
                    changed: false,
                },
            ),
        ];
        assert_eq!(codes(&lint(&records)), ["T2", "T2"]);
    }

    #[test]
    fn t3_activity_after_exclusion_fires_until_reinclude() {
        let records = vec![
            rec(
                0,
                0,
                TraceEvent::Exclude {
                    key: key("a"),
                    remaining: 0,
                },
            ),
            rec(
                1,
                1,
                TraceEvent::ValueStored {
                    key: key("a"),
                    version: 1,
                },
            ),
            rec(
                2,
                2,
                TraceEvent::Include {
                    key: key("a"),
                    mechanism: "triggered",
                    depth: 0,
                },
            ),
            rec(
                3,
                3,
                TraceEvent::ValueStored {
                    key: key("a"),
                    version: 2,
                },
            ),
        ];
        assert_eq!(codes(&lint(&records)), ["T3"]);
    }

    #[test]
    fn t4_quarantine_violations_fire() {
        let records = vec![
            rec(
                0,
                100,
                TraceEvent::QuarantineTripped {
                    key: key("a"),
                    until: Timestamp(200),
                },
            ),
            // Illegal: a retry inside the cool-down.
            rec(
                1,
                150,
                TraceEvent::RetryScheduled {
                    key: key("a"),
                    attempt: 1,
                    delay: TimeSpan(10),
                },
            ),
            // Legal: the probe recovers at the cool-down end.
            rec(2, 200, TraceEvent::QuarantineRecovered { key: key("a") }),
            // Illegal: recovery without a trip.
            rec(3, 210, TraceEvent::QuarantineRecovered { key: key("b") }),
        ];
        assert_eq!(codes(&lint(&records)), ["T4", "T4"]);
    }

    #[test]
    fn t4_retrip_before_cooldown_fires() {
        let records = vec![
            rec(
                0,
                100,
                TraceEvent::QuarantineTripped {
                    key: key("a"),
                    until: Timestamp(200),
                },
            ),
            rec(
                1,
                150,
                TraceEvent::QuarantineTripped {
                    key: key("a"),
                    until: Timestamp(300),
                },
            ),
        ];
        assert_eq!(codes(&lint(&records)), ["T4"]);
    }

    #[test]
    fn t5_attempt_and_backoff_violations_fire() {
        let retry = |seq, at, attempt, delay| {
            rec(
                seq,
                at,
                TraceEvent::RetryScheduled {
                    key: key("a"),
                    attempt,
                    delay: TimeSpan(delay),
                },
            )
        };
        // Skipped attempt: 1 then 3.
        assert_eq!(
            codes(&lint(&[retry(0, 0, 1, 10), retry(1, 1, 3, 40)])),
            ["T5"]
        );
        // Shrinking delay within an episode.
        assert_eq!(
            codes(&lint(&[retry(0, 0, 1, 10), retry(1, 1, 2, 5)])),
            ["T5"]
        );
        // A fresh episode may restart at 1 with any delay.
        assert!(lint(&[
            retry(0, 0, 1, 10),
            retry(1, 1, 2, 20),
            rec(
                2,
                2,
                TraceEvent::ValueStored {
                    key: key("a"),
                    version: 1
                }
            ),
            retry(3, 3, 1, 10),
        ])
        .is_empty());
    }

    #[test]
    fn t6_stream_violations_fire() {
        let records = vec![
            rec(5, 10, TraceEvent::Subscribe { key: key("a") }),
            rec(5, 9, TraceEvent::Subscribe { key: key("a") }),
        ];
        assert_eq!(codes(&lint(&records)), ["T6", "T6"]);
    }

    #[test]
    fn t7_span_causality_violations_fire() {
        let root = SpanContext::root(1, Timestamp(0));
        let child = root.child(2, Timestamp(1));
        // Clean: root appears before its child, twice without reparenting.
        let clean = vec![
            spanned(
                rec(
                    0,
                    0,
                    TraceEvent::SourceUpdate {
                        origin: "n1/size".to_string(),
                        origin_kind: "item",
                    },
                ),
                root.clone(),
            ),
            spanned(
                rec(
                    1,
                    1,
                    TraceEvent::ValueStored {
                        key: key("a"),
                        version: 1,
                    },
                ),
                child.clone(),
            ),
            spanned(
                rec(
                    2,
                    1,
                    TraceEvent::PropagationStep {
                        round: 1,
                        key: key("a"),
                        depth: 1,
                        changed: true,
                    },
                ),
                child.clone(),
            ),
        ];
        assert!(lint(&clean).is_empty());
        // Orphan: the child shows up before any record of its parent.
        let orphan = vec![spanned(
            rec(
                0,
                0,
                TraceEvent::ValueStored {
                    key: key("a"),
                    version: 1,
                },
            ),
            child.clone(),
        )];
        assert_eq!(codes(&lint(&orphan)), ["T7"]);
        // Self-parent and reparenting are both illegal.
        let mut own = child.clone();
        own.parent = Some(own.span);
        assert_eq!(
            codes(&lint(&[spanned(
                rec(0, 0, TraceEvent::ComputeFailed { key: key("a") }),
                own
            )])),
            ["T7"]
        );
        let mut moved = child.clone();
        moved.parent = None;
        let reparented = vec![
            clean[0].clone(),
            clean[1].clone(),
            spanned(
                rec(2, 2, TraceEvent::ComputeFailed { key: key("a") }),
                moved,
            ),
        ];
        assert_eq!(codes(&lint(&reparented)), ["T7"]);
    }

    #[test]
    fn t8_lineage_coverage_violations_fire() {
        let root = SpanContext::root(1, Timestamp(0));
        let notify = |seq, ctx| {
            spanned(
                rec(
                    seq,
                    1,
                    TraceEvent::Notified {
                        key: key("a"),
                        version: 1,
                        observers: 1,
                    },
                ),
                ctx,
            )
        };
        let anchor = spanned(
            rec(
                0,
                0,
                TraceEvent::SourceUpdate {
                    origin: "n1/size".to_string(),
                    origin_kind: "item",
                },
            ),
            root.clone(),
        );
        // Clean: the notification's root is the source-update anchor —
        // even when the anchor record comes later in the stream, as an
        // epoch flush span legally can.
        assert!(lint(&[anchor.clone(), notify(1, root.child(2, Timestamp(1)))]).is_empty());
        assert!(
            lint(&[notify(0, root.child(2, Timestamp(1))), anchor.clone()])
                .iter()
                .all(|v| v.rule != TraceRule::LineageCoverage)
        );
        // A dangling root (no anchor record at all).
        let stray = SpanContext::root(9, Timestamp(0)).child(10, Timestamp(1));
        let got = lint(&[notify(0, stray)]);
        assert!(got.iter().any(|v| v.rule == TraceRule::LineageCoverage));
        // An empty root set on a notification span.
        let mut rootless = root.child(2, Timestamp(1));
        rootless.roots.clear();
        assert_eq!(codes(&lint(&[anchor, notify(1, rootless)])), ["T8"]);
        // Span-less notifications pass vacuously.
        assert!(lint(&[rec(
            0,
            0,
            TraceEvent::Notified {
                key: key("a"),
                version: 1,
                observers: 1,
            },
        )])
        .is_empty());
    }

    #[test]
    fn merged_partition_traces_keep_separate_lanes() {
        let tagged = |seq, at, part, event| {
            let mut r = rec(seq, at, event);
            r.part = Some(part);
            r
        };
        // Both partitions store `n1/rate` version 1 (the owner's real
        // item and another partition's proxy shadow), both restart seq
        // at 0, and both flush epoch 1 — none of which is a violation
        // in a merged stream.
        let p0 = vec![
            tagged(
                0,
                0,
                0,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 1,
                },
            ),
            tagged(
                1,
                10,
                0,
                TraceEvent::EpochFlushed {
                    epoch: 1,
                    origins: 1,
                    recomputed: 1,
                    max_depth: 1,
                },
            ),
        ];
        let p1 = vec![
            tagged(
                0,
                5,
                1,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 1,
                },
            ),
            tagged(
                1,
                10,
                1,
                TraceEvent::EpochFlushed {
                    epoch: 1,
                    origins: 1,
                    recomputed: 1,
                    max_depth: 1,
                },
            ),
        ];
        let merged = merge_traces(&[p0, p1]);
        assert_eq!(merged.len(), 4);
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(lint(&merged).is_empty());
        // A genuine per-partition regression still fires: the same
        // partition storing the same version twice.
        let bad = merge_traces(&[vec![
            tagged(
                0,
                0,
                3,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 2,
                },
            ),
            tagged(
                1,
                1,
                3,
                TraceEvent::ValueStored {
                    key: key("rate"),
                    version: 2,
                },
            ),
        ]]);
        let got = lint(&bad);
        assert_eq!(codes(&got), ["T1"]);
        assert_eq!(got[0].key.as_deref(), Some("p3/n1/rate"));
    }

    #[test]
    fn cross_partition_spans_link_in_merged_traces() {
        let root = SpanContext::root((1 << 48) | 1, Timestamp(0));
        let child = root.child((2 << 48) | 1, Timestamp(5));
        let tag = |mut r: TraceRecord, part| {
            r.part = Some(part);
            r
        };
        // Owner partition 0 anchors the update; partition 1's proxy
        // notification is its child — T7/T8 must hold across the tags.
        let p0 = vec![tag(
            spanned(
                rec(
                    0,
                    0,
                    TraceEvent::SourceUpdate {
                        origin: "n1/size".to_string(),
                        origin_kind: "item",
                    },
                ),
                root.clone(),
            ),
            0,
        )];
        let p1 = vec![tag(
            spanned(
                rec(
                    0,
                    5,
                    TraceEvent::Notified {
                        key: key("size"),
                        version: 1,
                        observers: 1,
                    },
                ),
                child,
            ),
            1,
        )];
        assert!(lint(&merge_traces(&[p0, p1])).is_empty());
    }

    #[test]
    fn keys_with_nested_paths_round_trip() {
        let k = MetadataKey::new(NodeId(42), "state.left/memory");
        let r = rec(0, 0, TraceEvent::Subscribe { key: k.clone() });
        let parsed = parse_jsonl(&format!("{}\n", r.to_json())).unwrap();
        assert_eq!(parsed[0].event.key(), Some(&k));
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let good = "{\"seq\":0,\"at\":0,\"event\":\"subscribe\",\"key\":\"n1/a\"}";
        // Each defect the strict reader knows, on line 2 (blank lines
        // count): the error names the line and the field, and the lint
        // maps it to exactly one T6 violation.
        let cases = [
            ("not json", "not a JSON object"),
            (
                "{\"seq\":1,\"at\":0,\"event\":\"teleport\"}",
                "unknown event kind `teleport`",
            ),
            (
                "{\"seq\":1,\"at\":0,\"event\":\"exclude\",\"key\":\"n1/a\"}",
                "missing field `remaining`",
            ),
            (
                "{\"seq\":1,\"at\":0,\"event\":\"exclude\",\"key\":\"n1/a\",\"remaining\":true}",
                "field `remaining` is not a valid usize",
            ),
            (
                "{\"seq\":1,\"at\":0,\"event\":\"subscribe\",\"key\":\"n1/a\",\"remaining\":1}",
                "kind `subscribe` declares no field `remaining`",
            ),
        ];
        for (bad, expected) in cases {
            let input = format!("{good}\n{bad}\n\n{good}\n");
            assert_eq!(
                parse_jsonl(&input).unwrap_err(),
                format!("line 2: {expected}")
            );
            let got = lint_jsonl(&input);
            assert_eq!(codes(&got), ["T6"]);
            assert!(got[0].message.contains(expected), "{}", got[0].message);
        }
        assert_eq!(
            parse_jsonl(&format!("{good}\n\n{good}\n")).unwrap().len(),
            2
        );
    }
}
