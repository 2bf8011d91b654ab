//! Property tests for `spi_model::json`: random [`JsonValue`] trees must
//! round-trip `write → parse` **bit-identically** (the reparsed tree equals
//! the original and re-serializes to the same byte string), and malformed
//! input — truncations, duplicate keys, overflowing integers — must be
//! rejected, never silently coerced.
//!
//! No proptest in the offline environment, so cases come from the repo's
//! usual seeded-LCG generator: a few hundred pseudo-random trees per
//! property, reproducible by seed.

use spi_model::json::JsonValue;

/// Deterministic pseudo-random case generator (64-bit LCG, same constants as
//  the other in-tree property harnesses).
use spi_testutil::Lcg as Cases;

/// A pseudo-random string drawing from characters that exercise every escape
/// class the writer knows: quotes, backslashes, control bytes, multi-byte
/// UTF-8, an astral-plane scalar (surrogate-pair escape on the wire).
fn random_string(cases: &mut Cases) -> String {
    const ALPHABET: [char; 14] = [
        'a', 'Z', '9', '"', '\\', '\n', '\t', '\r', '\u{08}', '\u{0c}', '\u{01}', 'é', '℞', '😀',
    ];
    let length = cases.below(9) as usize;
    (0..length)
        .map(|_| ALPHABET[cases.below(ALPHABET.len() as u64) as usize])
        .collect()
}

/// A random tree of bounded depth. Floats are drawn from a finite pool —
/// NaN/Inf have no JSON representation (the writer emits `null`) so they are
/// excluded from the round-trip property by construction.
fn random_tree(cases: &mut Cases, depth: usize) -> JsonValue {
    let leaf_only = depth == 0;
    match cases.below(if leaf_only { 5 } else { 7 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(cases.below(2) == 0),
        2 => {
            // Integers across the full i128-visible range the tree keeps
            // exact, including u64::MAX and negatives.
            let magnitude = match cases.below(4) {
                0 => i128::from(cases.below(1000)),
                1 => i128::from(u64::MAX),
                2 => i128::from(i64::MIN),
                _ => i128::from(cases.below(u64::MAX)) * if cases.below(2) == 0 { -1 } else { 1 },
            };
            JsonValue::Int(magnitude)
        }
        3 => {
            const FLOATS: [f64; 6] = [0.0, -0.5, 1.5, 1e300, -2.25e-8, 123456.789];
            JsonValue::Float(FLOATS[cases.below(FLOATS.len() as u64) as usize])
        }
        4 => JsonValue::Str(random_string(cases)),
        5 => {
            let length = cases.below(4) as usize;
            JsonValue::Array((0..length).map(|_| random_tree(cases, depth - 1)).collect())
        }
        _ => {
            let length = cases.below(4) as usize;
            let mut members: Vec<(String, JsonValue)> = Vec::new();
            for index in 0..length {
                // Unique keys by construction (the parser rejects duplicates).
                let key = format!("{}#{index}", random_string(cases));
                let value = random_tree(cases, depth - 1);
                members.push((key, value));
            }
            JsonValue::Object(members)
        }
    }
}

#[test]
fn random_trees_round_trip_bit_identically() {
    for seed in 0..300u64 {
        let mut cases = Cases::new(seed);
        let tree = random_tree(&mut cases, 4);
        let line = tree.to_line();
        let reparsed = JsonValue::parse(&line)
            .unwrap_or_else(|error| panic!("seed {seed}: `{line}` failed to parse: {error}"));
        assert_eq!(reparsed, tree, "seed {seed}: tree changed across the wire");
        assert_eq!(
            reparsed.to_line(),
            line,
            "seed {seed}: reserialization is not byte-identical"
        );
        // The digest (the cache key of spi-store) is a pure function of those
        // bytes, so it must survive the round trip too.
        assert_eq!(reparsed.digest(), tree.digest(), "seed {seed}");
    }
}

#[test]
fn every_strict_prefix_of_a_valid_document_is_rejected() {
    // Truncation property: chopping a valid document anywhere must error —
    // except where the prefix happens to be a complete JSON value followed by
    // nothing (cannot happen here: the document is one object, and an object
    // prefix is never a complete value).
    let document = r#"{"op":"submit","shards":[1,2,3],"name":"a\nb","nested":{"x":null,"f":1.5}}"#;
    assert!(JsonValue::parse(document).is_ok());
    for cut in 1..document.len() {
        if !document.is_char_boundary(cut) {
            continue;
        }
        let prefix = &document[..cut];
        assert!(
            JsonValue::parse(prefix).is_err(),
            "truncated prefix `{prefix}` parsed"
        );
    }
}

#[test]
fn duplicate_keys_are_rejected_past_the_linear_scan_threshold() {
    // Large objects switch to hash-set detection; the behavior must not
    // change at or around the switch-over.
    for size in [15usize, 16, 17, 64] {
        let unique: String = (0..size).map(|i| format!("\"k{i}\":{i},")).collect();
        let valid = format!("{{{}\"last\":0}}", unique);
        assert!(JsonValue::parse(&valid).is_ok(), "size {size} unique keys");
        let duplicate = format!("{{{}\"k0\":99}}", unique);
        assert!(
            JsonValue::parse(&duplicate).is_err(),
            "size {size} duplicate of the first key"
        );
        let adjacent = format!("{{{}\"k{}\":99}}", unique, size - 1);
        assert!(
            JsonValue::parse(&adjacent).is_err(),
            "size {size} duplicate of the latest key"
        );
    }
}

#[test]
fn duplicate_keys_are_rejected_at_any_depth() {
    for text in [
        r#"{"a":1,"a":2}"#,
        r#"{"a":1,"b":{"x":1,"x":2}}"#,
        r#"[{"k":null,"k":null}]"#,
        "{\"\":0,\"\":1}",
    ] {
        assert!(
            JsonValue::parse(text).is_err(),
            "`{text}` has a duplicate key and must not parse"
        );
    }
    // Same key at *different* depths is fine.
    assert!(JsonValue::parse(r#"{"a":{"a":1}}"#).is_ok());
}

#[test]
fn overflowing_integers_are_rejected_not_rounded() {
    // i128::MAX fits; one digit more must error rather than saturate or fall
    // back to lossy floats.
    let max = i128::MAX.to_string();
    assert_eq!(
        JsonValue::parse(&max).unwrap(),
        JsonValue::Int(i128::MAX),
        "i128::MAX is in range"
    );
    for text in [
        "170141183460469231731687303715884105728",  // i128::MAX + 1
        "-170141183460469231731687303715884105729", // i128::MIN - 1
        "99999999999999999999999999999999999999999999",
    ] {
        assert!(
            JsonValue::parse(text).is_err(),
            "`{text}` overflows i128 and must not parse"
        );
    }
}

#[test]
fn u64_boundary_values_survive_exactly() {
    for value in [0u64, 1, u64::MAX - 1, u64::MAX, 1 << 53, (1 << 53) + 1] {
        let line = JsonValue::Int(i128::from(value)).to_line();
        assert_eq!(
            JsonValue::parse(&line).unwrap().as_u64(),
            Some(value),
            "u64 {value} corrupted by the wire"
        );
    }
}

#[test]
fn long_multibyte_strings_parse_in_linear_time() {
    // A single-line document (a snapshot of many jobs is one) holding a
    // 64 KiB string of multi-byte characters. Re-validating the rest of the
    // input for every character made this quadratic: over a second in a
    // debug build, where a linear scan takes a few milliseconds.
    let mut text = String::new();
    for c in "é℞😀ß".chars().cycle() {
        if text.len() >= 64 * 1024 {
            break;
        }
        text.push(c);
    }
    let value = JsonValue::object([("s", JsonValue::string(text.clone()))]);
    let line = value.to_line();
    let started = std::time::Instant::now();
    let back = JsonValue::parse(&line).expect("round-trips");
    let elapsed = started.elapsed();
    assert_eq!(
        back.get("s").and_then(JsonValue::as_str),
        Some(text.as_str())
    );
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "parsing a 64 KiB string took {elapsed:?}"
    );
}
