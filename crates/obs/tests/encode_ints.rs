//! The encoder's integers are `to_string`'s, digit for digit: the JSON
//! writer on any `i64`, and a record's fields on any `u64` they may carry
//! (a trace integer is an `i64`, so larger values saturate at
//! `i64::MAX`). The two-digit table is exercised at every width and at the
//! pair boundaries; a wall clock never enters.

use dde_logic::time::SimTime;
use dde_obs::json::write_json_int;
use dde_obs::{EventKind, TraceRecord};
use proptest::prelude::*;

/// The fixed edges: zero, each side of one and two digits, the extremes.
const EDGES: [i64; 11] = [0, 9, -9, 10, -10, 99, -99, 100, -100, i64::MIN, i64::MAX];

fn written(i: i64) -> String {
    let mut out = Vec::new();
    write_json_int(&mut out, i);
    String::from_utf8(out).expect("digits are ASCII")
}

/// A purge record carrying `v` as its count, at instant `t`, from `node`.
fn purge_line(t: u64, node: u32, v: u64) -> String {
    TraceRecord {
        at: SimTime::from_micros(t),
        node,
        kind: EventKind::Purge {
            from: node,
            to: 0,
            count: v,
        },
    }
    .to_jsonl_line()
}

/// What the line for [`purge_line`] must read.
fn expected_purge(t: u64, node: u32, v: u64) -> String {
    let cap = |x: u64| x.min(i64::MAX as u64).to_string();
    format!(
        "{{\"t\":{},\"node\":{node},\"kind\":\"purge\",\"from\":{node},\"to\":0,\"count\":{}}}",
        cap(t),
        cap(v)
    )
}

#[test]
fn the_edges_write_as_to_string() {
    for i in EDGES {
        assert_eq!(written(i), i.to_string(), "{i}");
    }
    // Every power of ten that fits, and its neighbours.
    for i in (0..=18).map(|k| 10i64.pow(k)) {
        for j in [i - 1, i, i + 1, -i, 1 - i] {
            assert_eq!(written(j), j.to_string(), "{j}");
        }
    }
    for v in [
        0,
        9,
        10,
        99,
        100,
        i64::MAX as u64,
        i64::MAX as u64 + 1,
        u64::MAX,
    ] {
        assert_eq!(purge_line(v, 9, v), expected_purge(v, 9, v), "{v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn any_i64_writes_as_to_string(i in any::<i64>(), small in -1_000i64..1_000) {
        prop_assert_eq!(written(i), i.to_string());
        prop_assert_eq!(written(small), small.to_string());
    }

    #[test]
    fn record_fields_write_as_to_string(t in any::<u64>(), node in any::<u32>(), v in any::<u64>()) {
        prop_assert_eq!(purge_line(t, node, v), expected_purge(t, node, v));
    }
}
