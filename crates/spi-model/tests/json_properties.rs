//! Property tests for `spi_model::json`: random [`JsonValue`] trees must
//! round-trip `write → parse` **bit-identically** (the reparsed tree equals
//! the original and re-serializes to the same byte string), and malformed
//! input — truncations, duplicate keys, overflowing integers — must be
//! rejected, never silently coerced.
//!
//! No proptest in the offline environment, so cases come from the repo's
//! usual seeded-LCG generator: a few hundred pseudo-random trees per
//! property, reproducible by seed.

use spi_model::json::{self, JsonValue};

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

/// `tree` itself when it is an object, else an object holding it (and a
/// second random tree), so every case has members to walk.
fn as_object(tree: JsonValue, cases: &mut Cases) -> JsonValue {
    match tree {
        JsonValue::Object(_) => tree,
        other => JsonValue::object([("v", other), ("w", random_tree(cases, 2))]),
    }
}

/// Whether the scanner accepts `text` as an object, reading every member.
fn scans(text: &str) -> bool {
    json::members(text).all(|member| member.is_ok())
}

#[test]
fn scanned_members_and_elements_equal_the_parsed_ones() {
    for seed in 0..300u64 {
        let mut cases = Cases::new(seed);
        let tree = as_object(random_tree(&mut cases, 4), &mut cases);
        let line = tree.to_line();
        let scanned: Vec<(String, JsonValue)> = json::members(&line)
            .map(|member| {
                let (key, slice) = member.unwrap_or_else(|error| panic!("seed {seed}: {error}"));
                let value = JsonValue::parse(slice)
                    .unwrap_or_else(|error| panic!("seed {seed}: slice `{slice}`: {error}"));
                // A slice of a rendered line is its value's canonical line.
                assert_eq!(slice, value.to_line(), "seed {seed}");
                (key.into_owned(), value)
            })
            .collect();
        assert_eq!(Some(scanned.as_slice()), tree.as_object(), "seed {seed}");

        let array = JsonValue::Array(vec![tree.clone(), random_tree(&mut cases, 3), tree]);
        let line = array.to_line();
        let scanned: Vec<JsonValue> = json::elements(&line)
            .map(|element| JsonValue::parse(element.unwrap()).unwrap())
            .collect();
        assert_eq!(Some(scanned.as_slice()), array.as_array(), "seed {seed}");
    }
    // Whitespace around and between members, as `parse` tolerates it.
    let spaced = " {\n\t\"a\" : [ 1 , 2 ] ,\"b\":{ } }\r\n";
    let members: Vec<(String, &str)> = json::members(spaced)
        .map(|member| member.map(|(key, slice)| (key.into_owned(), slice)))
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(
        members,
        [("a".to_string(), "[ 1 , 2 ]"), ("b".to_string(), "{ }")]
    );
    assert_eq!(json::elements(" [ ] ").count(), 0);
    assert_eq!(json::members("{}").count(), 0);
}

#[test]
fn the_scanner_rejects_what_parse_rejects() {
    for seed in 0..120u64 {
        let mut cases = Cases::new(seed);
        let tree = as_object(random_tree(&mut cases, 3), &mut cases);
        let line = tree.to_line();
        // Truncated: every strict prefix.
        for cut in (1..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
            let prefix = &line[..cut];
            assert!(JsonValue::parse(prefix).is_err(), "seed {seed}: `{prefix}`");
            assert!(!scans(prefix), "seed {seed}: prefix `{prefix}` scanned");
        }
        // Trailing garbage, and the whitespace both accept.
        for suffix in ["x", ",", "}", " {}", "1", "]"] {
            let text = format!("{line}{suffix}");
            assert!(JsonValue::parse(&text).is_err(), "seed {seed}: `{text}`");
            assert!(!scans(&text), "seed {seed}: `{text}` scanned");
        }
        assert!(scans(&format!("{line} \n")));
        // A duplicate of the first key, at the top and nested in a member
        // or an element.
        let Some((first, _)) = tree.as_object().and_then(<[_]>::first) else {
            continue;
        };
        let mut key = String::new();
        json::write_string(first, &mut key);
        let duplicate = format!("{},{key}:null}}", &line[..line.len() - 1]);
        for text in [
            duplicate.clone(),
            format!("{{\"outer\":{duplicate}}}"),
            format!("{{\"outer\":[0,{duplicate}]}}"),
        ] {
            assert!(JsonValue::parse(&text).is_err(), "seed {seed}: `{text}`");
            assert!(!scans(&text), "seed {seed}: `{text}` scanned");
        }
        let list = format!("[{duplicate}]");
        assert!(json::elements(&list).any(|element| element.is_err()));
    }
    // Duplicates around the switch to hash-set detection, and what is no
    // object at all.
    for size in [15usize, 16, 17, 64] {
        let unique: String = (0..size).map(|i| format!("\"k{i}\":{i},")).collect();
        assert!(scans(&format!("{{{unique}\"last\":0}}")), "size {size}");
        assert!(!scans(&format!("{{{unique}\"k0\":9}}")), "size {size}");
        assert!(
            !scans(&format!("{{{unique}\"k{}\":9}}", size - 1)),
            "size {size}"
        );
    }
    for text in [
        "",
        "[]",
        "1",
        "\"s\"",
        "{\"a\"}",
        "{\"a\":}",
        "{,}",
        "{\"a\":1,}",
    ] {
        assert!(!scans(text), "`{text}` scanned");
    }
    assert!(json::elements("{}").any(|element| element.is_err()));
    assert!(json::elements("[1,]").any(|element| element.is_err()));
}

#[test]
fn pushed_members_render_as_the_tree_would() {
    for seed in 0..100u64 {
        let mut cases = Cases::new(seed);
        let tree = as_object(random_tree(&mut cases, 3), &mut cases);
        let value = random_tree(&mut cases, 3);
        let mut line = tree.to_line();
        json::push_member(&mut line, "pushed\n\"key\"", &value.to_line());
        let mut members = tree.as_object().unwrap().to_vec();
        members.push(("pushed\n\"key\"".to_string(), value));
        assert_eq!(line, JsonValue::Object(members).to_line(), "seed {seed}");
    }
    let mut empty = "{}".to_string();
    json::push_member(&mut empty, "a", "1");
    assert_eq!(empty, r#"{"a":1}"#);
}
