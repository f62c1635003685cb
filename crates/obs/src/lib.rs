//! # dde-obs — deterministic observability for the Athena reproduction
//!
//! A zero-ambient-nondeterminism tracing and metrics layer keyed to the
//! *simulated* clock. Every timestamp a [`TraceRecord`] carries is a
//! [`SimTime`](dde_logic::time::SimTime) read from the event loop — never a
//! wall clock — so two runs of the same scenario and seed emit **byte
//! identical** JSONL traces, and a trace diff is a replay-debugging tool
//! rather than a fuzzy comparison.
//!
//! - [`event`] — the typed span/event taxonomy over the full query
//!   lifecycle (query init → plan decision → request send → link transit →
//!   cache hit/miss → annotate → label share → resolve/timeout);
//! - [`sink`] — the [`Sink`] contract plus the stock implementations:
//!   [`NullSink`] (compiled-in but free), [`MemorySink`], [`JsonlSink`],
//!   [`ChromeTraceSink`], and the cloneable [`SharedSink`] handle;
//! - [`json`] — the hand-rolled JSON subset (the workspace is offline:
//!   no serde_json), with a deterministic writer and a strict parser;
//! - [`hist`] — fixed-bucket latency histograms surfacing p50/p95/p99;
//! - [`metrics`] — the live wall-clock metrics registry (lock-free
//!   counters/gauges/histograms) with a deterministic exposition snapshot,
//!   used only by the non-deterministic cluster backend (DESIGN.md §5i);
//! - [`flight`] — the bounded [`FlightRecorder`] ring sink that keeps the
//!   last N records for post-mortem dumps on live-cluster failures;
//! - [`diff`] — structural trace diffing (first divergent event,
//!   per-kind count deltas) behind the `dde-trace` CLI;
//! - [`chrome`] — Chrome trace-event (`about:tracing` / Perfetto) export;
//! - [`attrib`] — attribution keys and the normalized record view;
//! - [`feedback`] — the predicted-vs-actual planner feedback fold
//!   ([`FeedbackSink`]) behind the adaptive-planning loop;
//! - [`ledger`] — the per-decision [`CostLedger`] with its conservation
//!   invariant, built live by [`LedgerSink`] or folded from JSONL;
//! - [`critical`] — per-query critical-path extraction (queueing vs.
//!   transit vs. annotation vs. scheduler wait).

#![deny(missing_docs)]
// Determinism guardrails (see clippy.toml and dde-lint): hashed collections
// and ambient clocks/env reads are disallowed in simulation library code.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod attrib;
pub mod chrome;
pub mod critical;
pub mod diff;
pub mod event;
pub mod feedback;
pub mod flight;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod sink;

pub use attrib::{LedgerView, PredKey, ViewKind};
pub use chrome::{chrome_trace_from_jsonl, chrome_trace_from_records};
pub use critical::{PathBreakdown, PathWalk};
pub use diff::{diff_jsonl, Divergence, TraceDiff};
pub use event::{EventKind, FieldVal, TraceRecord};
pub use feedback::{EpochStats, FeedbackSink};
pub use flight::FlightRecorder;
pub use hist::{Histogram, BUCKET_BOUNDS_US, BUCKET_COUNT};
pub use json::{JsonError, JsonValue};
pub use ledger::{CostLedger, LedgerSink, PredicateWork, QueryCost};
pub use metrics::{
    parse_snapshot_document, Counter, Gauge, MetricsError, MetricsRegistry, MetricsSnapshot,
    WallHist,
};
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, NullSink, SharedSink, Sink, TeeSink};
