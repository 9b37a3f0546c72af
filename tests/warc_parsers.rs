//! Differential tests of the WARC layer's borrowed parsers against the
//! owning ones they replaced (`hv_fuzz::reference::warc`).
//!
//! A CDXJ line must give the same fields or the same refusal: exported
//! lines, lines with their payload keys permuted and Common Crawl's extra
//! fields mixed in, key patterns and escaped quotes inside values, every
//! truncation, and offsets or lengths that are not numbers. A WARC record
//! must give the same URI, date and body, or the same [`WarcError`] with
//! the same fields: every exported record under every truncation and under
//! single-byte mutations at every position.

use html_violations::hv_corpus::warc::{
    self, cdxj_lines, load_cdxj_lenient, parse_record, read_body, read_record, CdxjFields,
    CdxjLine, RecordView, WarcError, WarcWriter,
};
use html_violations::hv_corpus::{Archive, CorpusConfig, Snapshot};
use html_violations::hv_fuzz::reference::warc as reference;
use proptest::prelude::*;
use std::io::Cursor;

/// The production CDXJ parsers agree with the reference on `line`.
fn cdxj_agrees(line: &str) -> Result<(), TestCaseError> {
    let expected = reference::parse_cdxj_line(line);
    prop_assert_eq!(CdxjLine::parse(line), expected.clone(), "line {:?}", line);
    prop_assert_eq!(CdxjFields::parse(line).map(|f| f.to_line()), expected, "line {:?}", line);
    Ok(())
}

/// What a record parse gives, comparable across the two parsers.
type Parsed = Result<(String, String, Vec<u8>), WarcError>;

/// The production record parsers agree with the reference on `raw`.
fn record_agrees(raw: &[u8]) -> Result<(), TestCaseError> {
    let expected: Parsed = reference::parse_record(raw).map(|r| (r.url, r.date, r.body));
    let owned: Parsed = parse_record(raw).map(|r| (r.url, r.date, r.body));
    prop_assert_eq!(&owned, &expected, "raw {:?}", String::from_utf8_lossy(raw));
    let view: Parsed =
        RecordView::parse(raw).map(|v| (v.url.to_owned(), v.date.to_owned(), raw[v.body].to_vec()));
    prop_assert_eq!(&view, &expected, "raw {:?}", String::from_utf8_lossy(raw));
    // Read back from a stream at an offset, the body in its own buffer.
    let mut stream = b"padding".to_vec();
    stream.extend_from_slice(raw);
    let (offset, length) = (7, raw.len() as u64);
    let read: Parsed =
        read_record(&mut Cursor::new(&stream), offset, length).map(|r| (r.url, r.date, r.body));
    prop_assert_eq!(&read, &expected);
    let body = read_body(&mut Cursor::new(&stream), offset, length);
    prop_assert_eq!(body, expected.map(|(_, _, body)| body));
    Ok(())
}

/// A few records written by [`WarcWriter`]: empty, CRLF-rich and
/// non-ASCII bodies and URIs.
fn written_records() -> Vec<Vec<u8>> {
    let cases: [(&str, &[u8]); 4] = [
        ("https://a.example/", b"<p>one</p>"),
        ("https://b.example/z\u{00F6}lf?q=1", "<p>zw\u{F6}lf</p>\r\n\r\n<p>".as_bytes()),
        ("https://c.example/empty", b""),
        ("https://d.example/x", b"\r\n\r\n\r\n"),
    ];
    cases
        .iter()
        .map(|(url, body)| {
            let mut w = WarcWriter::new(Vec::new());
            w.write_response(url, "2022-01-20T00:00:00Z", body).unwrap();
            w.into_inner()
        })
        .collect()
}

/// Bytes a mutation writes: line structure, header syntax, digits, and
/// bytes that break or extend UTF-8.
const MUTATIONS: [u8; 12] =
    [b'\r', b'\n', b':', b' ', b'0', b'9', b'x', 0x00, 0x7f, 0xc2, 0xa0, 0xff];

#[test]
fn exported_cdxj_lines_agree() {
    let dir = std::env::temp_dir().join(format!("hv-warc-parsers-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    let (_, cdx_path, n) = warc::export_snapshot(&archive, Snapshot::ALL[7], &dir, 8).unwrap();
    let text = std::fs::read_to_string(&cdx_path).unwrap();
    assert_eq!(text.lines().count(), n);
    for line in text.lines() {
        cdxj_agrees(line).unwrap();
        // Every truncation, at every char boundary.
        for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            cdxj_agrees(&line[..cut]).unwrap();
        }
    }
    let (good, bad) = load_cdxj_lenient(&cdx_path).unwrap();
    assert!(bad.is_empty());
    let expected: Vec<CdxjLine> =
        text.lines().map(|l| reference::parse_cdxj_line(l).unwrap()).collect();
    assert_eq!(good, expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cdxj_lines_number_and_refuse_as_the_reference_does() {
    let good = "com,a)/ 20220120000000 {\"url\": \"https://a/\", \"mime\": \"text/html\", \
                \"status\": \"200\", \"offset\": \"0\", \"length\": \"9\"}";
    let text = format!("{good}\n\n   \ngarbage line\r\n{good}\r\n{{\"url\": \"x\"}}");
    let lines: Vec<(usize, &str, Option<CdxjLine>)> =
        cdxj_lines(&text).map(|(no, line, f)| (no, line, f.map(|f| f.to_line()))).collect();
    let expected: Vec<(usize, &str, Option<CdxjLine>)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i + 1, l, reference::parse_cdxj_line(l)))
        .collect();
    assert_eq!(lines, expected);
    assert_eq!(
        lines.iter().map(|l| (l.0, l.2.is_some())).collect::<Vec<_>>(),
        [(1, true), (4, false), (5, true), (6, false)]
    );
}

#[test]
fn cdxj_numbers_parse_as_the_reference_does() {
    for number in [
        "",
        "0",
        "+7",
        "-1",
        "12a",
        " 5",
        "5 ",
        "0x10",
        "18446744073709551615",
        "18446744073709551616",
        "65535",
        "65536",
        "\u{0663}",
        "1_000",
        "1e3",
    ] {
        for key in ["status", "offset", "length"] {
            let mut fields =
                [("url", "https://a/"), ("mime", "text/html"), ("status", "200")].to_vec();
            fields.extend([("offset", "10"), ("length", "20")]);
            for (k, v) in &mut fields {
                if *k == key {
                    *v = number;
                }
            }
            let payload: Vec<String> =
                fields.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
            cdxj_agrees(&format!("com,a)/ 2022 {{{}}}", payload.join(", "))).unwrap();
        }
    }
}

#[test]
fn exported_records_agree_under_truncation_and_mutation() {
    for raw in written_records() {
        record_agrees(&raw).unwrap();
        for cut in 0..raw.len() {
            record_agrees(&raw[..cut]).unwrap();
        }
        let mut mutated = raw.clone();
        for at in 0..raw.len() {
            for byte in MUTATIONS.into_iter().filter(|&b| b != raw[at]) {
                mutated[at] = byte;
                record_agrees(&mutated).unwrap();
            }
            mutated[at] = raw[at];
        }
    }
}

#[test]
fn records_with_odd_headers_agree() {
    let body = "HTTP/1.1 200 OK\r\n\r\n<p>x</p>";
    let len = body.len();
    for head in [
        format!("WARC/1.0\r\nContent-Length: {len}\r\n"),
        format!("WARC/1.0\r\nContent-Length: {len}\r\nContent-Length: nine\r\n"),
        format!("WARC/1.0\r\nContent-Length: nine\r\nContent-Length: {len}\r\n"),
        format!("WARC/1.0\nWARC-Target-URI:  https://a/ \nContent-Length:{len}\n"),
        format!("WARC/1.0\r\nWARC-Date: 1\r\nWARC-Date: 2\r\n Content-Length : {len}\r\n"),
        format!(
            "WARC/1.0\r\nWARC-Target-URI: \u{00A0}https://a/\u{3000}\r\nContent-Length: {len}\r\n"
        ),
        format!("WARC/1.0\r\nWARC-Target-URI: a:b:c\r\nContent-Length: +{len}\r\n"),
        format!("WARC/1.1\r\nContent-Length: {len}\r\n"),
        format!("WARC/1.0\r\nContent-Length: {}\r\n", usize::MAX),
        format!("WARC/1.0\r\nContent-Length: {}\r\n", len + 1),
        "WARC/1.0\r\n".to_owned(),
    ] {
        record_agrees(format!("{head}\r\n{body}\r\n\r\n").as_bytes()).unwrap();
        record_agrees(format!("{head}\r\n{body}").as_bytes()).unwrap();
    }
    record_agrees(b"").unwrap();
    record_agrees(b"\r\n\r\n").unwrap();
    record_agrees(b"WARC/1.0\r\n\r").unwrap();
}

/// Pieces of a CDXJ payload, mixed at random: every key pattern, extra
/// keys, escaped and bare quotes, and values that hold key patterns.
fn payload_piece() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("\"url\": \"".to_owned()),
        Just("\"mime\": \"".to_owned()),
        Just("\"status\": \"".to_owned()),
        Just("\"offset\": \"".to_owned()),
        Just("\"length\": \"".to_owned()),
        Just("\"digest\": \"sha1:AB3C\"".to_owned()),
        Just("\"filename\": \"crawl-data/CC-MAIN-2022-05/x.warc.gz\"".to_owned()),
        Just("\"languages\": \"eng,deu\"".to_owned()),
        Just("https://a.example/?q=\\\"mime\\\": \\\"".to_owned()),
        Just("\\\"".to_owned()),
        Just("\"".to_owned()),
        Just(", ".to_owned()),
        Just("{".to_owned()),
        Just("}".to_owned()),
        Just(" ".to_owned()),
        Just("text/html".to_owned()),
        "[0-9]{1,4}",
        "[a-z:/.]{1,6}",
        "\\PC{1,3}",
    ]
}

/// A well-formed payload's key-value pairs: the five keys plus extras.
fn payload_pairs() -> impl Strategy<Value = Vec<(String, String)>> {
    let numbers = ("[0-9]{1,6}", "[0-9]{1,6}", "[a-z/]{0,12}");
    (any::<u64>(), 0usize..4, numbers).prop_map(|(shuffle, extras, (offset, length, path))| {
        let mut pairs = vec![
            ("url".to_owned(), format!("https://a.example/{path}")),
            ("mime".to_owned(), "text/html".to_owned()),
            ("status".to_owned(), "200".to_owned()),
            ("offset".to_owned(), offset),
            ("length".to_owned(), length),
            ("digest".to_owned(), "sha1:QWERTY".to_owned()),
            ("filename".to_owned(), "crawl-data/seg/00001.warc.gz".to_owned()),
            ("languages".to_owned(), "eng".to_owned()),
        ];
        pairs.truncate(5 + extras);
        // A deterministic permutation from `shuffle`.
        let mut state = shuffle | 1;
        for i in (1..pairs.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            pairs.swap(i, (state % (i as u64 + 1)) as usize);
        }
        pairs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Permuted keys and Common Crawl's extra fields parse the same.
    #[test]
    fn permuted_payloads_agree(pairs in payload_pairs(), cut in any::<usize>()) {
        let payload: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
        let line = format!("com,a,example)/x 20220120000000 {{{}}}", payload.join(", "));
        prop_assert!(CdxjLine::parse(&line).is_some());
        cdxj_agrees(&line)?;
        let cut = cut % (line.len() + 1);
        if line.is_char_boundary(cut) {
            cdxj_agrees(&line[..cut])?;
        }
    }

    /// Random payloads built from key patterns, quotes and values.
    #[test]
    fn random_payloads_agree(pieces in proptest::collection::vec(payload_piece(), 0..24)) {
        cdxj_agrees(&format!("com,a)/ 2022 {}", pieces.concat()))?;
        cdxj_agrees(&pieces.concat())?;
    }

    /// Records over an alphabet of line structure and header syntax find
    /// the same blank lines and the same fields.
    #[test]
    fn random_records_agree(
        prefix in 0usize..3,
        bytes in proptest::collection::vec(0u8..8, 0..80),
        length in 0usize..40,
    ) {
        const ALPHABET: [u8; 8] = [b'\r', b'\n', b'\r', b'\n', b':', b' ', b'x', b'1'];
        let mut raw = match prefix {
            0 => Vec::new(),
            1 => b"WARC/1.0\r\n".to_vec(),
            _ => format!("WARC/1.0\r\nContent-Length: {length}\r\n").into_bytes(),
        };
        raw.extend(bytes.iter().map(|&b| ALPHABET[b as usize]));
        record_agrees(&raw)?;
    }
}
