//! Data-driven tree-construction conformance in the html5lib-tests `.dat`
//! format: `#data` blocks hold the input, `#document` blocks the expected
//! tree in the suite's indented notation (`| <tag>`, `|   attr="v"`,
//! `|   "text"`, foreign elements as `<svg name>`/`<math name>`).
//!
//! An optional `#errors` block between `#data` and `#document` asserts
//! the exact violation stream, one entry per line as
//! `<char offset>: <id>`, merged from both reporting channels: tokenizer
//! parse errors under their WHATWG spec names (`12: duplicate-attribute`)
//! and tree-construction recovery events under their stable ids
//! (`0: implicit-html`, `7: foster-parented`). A case without an
//! `#errors` block asserts only the tree (back-compat with the original
//! fixtures); an *empty* block asserts a fully clean parse. To annotate
//! new cases, run the ignored `dat_print_error_annotations` test and
//! hand-review its output against the spec before pasting it in.
//!
//! Fixtures live in `tests/fixtures/*.dat` — add cases there without
//! touching code.

use html_violations::spec_html::{self, Namespace, NodeData, NodeId};

/// One parsed test case.
struct DatCase {
    line: usize,
    data: String,
    expected: String,
    /// `Some` when the case has an `#errors` block (possibly empty: an
    /// empty block asserts the input parses with *no* errors).
    errors: Option<String>,
}

fn parse_dat(content: &str) -> Vec<DatCase> {
    let mut cases = Vec::new();
    let mut mode = "";
    let mut data = String::new();
    let mut expected = String::new();
    let mut errors: Option<String> = None;
    let mut case_line = 0usize;

    let flush = |cases: &mut Vec<DatCase>,
                 data: &mut String,
                 expected: &mut String,
                 errors: &mut Option<String>,
                 line: usize| {
        if !data.is_empty() || !expected.is_empty() {
            // The format's final newline in #data is an artifact of the
            // block syntax, not input.
            let d = data.strip_suffix('\n').unwrap_or(data).to_owned();
            cases.push(DatCase {
                line,
                data: d,
                expected: std::mem::take(expected),
                errors: errors.take(),
            });
            data.clear();
        }
    };

    for (i, line) in content.lines().enumerate() {
        match line {
            "#data" => {
                flush(&mut cases, &mut data, &mut expected, &mut errors, case_line);
                case_line = i + 1;
                mode = "data";
            }
            "#errors" => {
                errors = Some(String::new());
                mode = "errors";
            }
            "#document" => mode = "document",
            _ => match mode {
                "data" => {
                    data.push_str(line);
                    data.push('\n');
                }
                "errors" if !line.is_empty() => {
                    let block = errors.as_mut().expect("entered #errors mode");
                    block.push_str(line);
                    block.push('\n');
                }
                "document" if !line.is_empty() => {
                    expected.push_str(line);
                    expected.push('\n');
                }
                _ => {}
            },
        }
    }
    flush(&mut cases, &mut data, &mut expected, &mut errors, case_line);
    cases
}

/// Render a parse's full violation stream in the `#errors` block
/// notation: tokenizer/preprocess parse errors (spec ids) merged with
/// tree-construction recovery events (their stable ids), sorted by
/// character offset; at equal offsets tokenizer errors sort first.
fn render_errors(out: &spec_html::ParseOutput) -> String {
    let mut lines: Vec<(usize, String)> = Vec::new();
    for e in &out.errors {
        lines.push((e.offset, format!("{}: {}\n", e.offset, e.code.spec_id())));
    }
    for ev in &out.events {
        lines.push((ev.offset, format!("{}: {}\n", ev.offset, ev.kind.id())));
    }
    lines.sort_by_key(|(off, _)| *off); // stable: preserves stream order at ties
    lines.into_iter().map(|(_, l)| l).collect()
}

/// Render a DOM in the html5lib-tests notation.
fn render_tree(dom: &spec_html::Dom) -> String {
    let mut out = String::new();
    for child in dom.children(dom.root()) {
        render_node(dom, child, 0, &mut out);
    }
    out
}

fn render_node(dom: &spec_html::Dom, id: NodeId, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match dom.data(id) {
        NodeData::Doctype(d) => {
            out.push_str(&format!("| {indent}<!DOCTYPE {}>\n", d.name));
        }
        NodeData::Comment(c) => {
            out.push_str(&format!("| {indent}<!-- {c} -->\n"));
        }
        NodeData::Text(t) => {
            out.push_str(&format!("| {indent}\"{t}\"\n"));
        }
        NodeData::Element(e) => {
            let name = match e.ns {
                Namespace::Html => e.name.to_string(),
                Namespace::Svg => format!("svg {}", e.name),
                Namespace::MathMl => format!("math {}", e.name),
            };
            out.push_str(&format!("| {indent}<{name}>\n"));
            // Attributes sorted by name, one per line (suite convention).
            let mut attrs = dom.attrs(e.attrs).to_vec();
            attrs.sort_by(|a, b| a.name.cmp(&b.name));
            for a in attrs {
                out.push_str(&format!("| {indent}  {}=\"{}\"\n", a.name, a.value));
            }
            for child in dom.children(id) {
                render_node(dom, child, depth + 1, out);
            }
        }
        NodeData::Document => {
            for child in dom.children(id) {
                render_node(dom, child, depth, out);
            }
        }
    }
}

#[test]
fn dat_fixtures_conform() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut total = 0usize;
    let mut failures = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("dat") {
            continue;
        }
        let content = std::fs::read_to_string(&path).unwrap();
        for case in parse_dat(&content) {
            total += 1;
            let out = spec_html::parse_document(&case.data);
            let rendered = render_tree(&out.dom);
            if rendered.trim_end() != case.expected.trim_end() {
                failures.push(format!(
                    "{}:{} input {:?}\n--- expected ---\n{}--- got ---\n{}",
                    path.file_name().unwrap().to_string_lossy(),
                    case.line,
                    case.data,
                    case.expected,
                    rendered
                ));
            }
            if let Some(expected_errors) = &case.errors {
                let got = render_errors(&out);
                if got.trim_end() != expected_errors.trim_end() {
                    failures.push(format!(
                        "{}:{} input {:?}\n--- expected errors ---\n{}--- got errors ---\n{}",
                        path.file_name().unwrap().to_string_lossy(),
                        case.line,
                        case.data,
                        expected_errors,
                        got
                    ));
                }
            }
        }
    }
    assert!(total >= 80, "expected a substantive fixture suite, found {total}");
    assert!(
        failures.is_empty(),
        "{} of {total} .dat cases failed:\n\n{}",
        failures.len(),
        failures.join("\n================\n")
    );
}

/// Enough of the suite must assert its error stream that tokenizer and
/// tree-builder error regressions can't slip through on tree shape alone.
#[test]
fn dat_fixtures_assert_errors() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut annotated = 0usize;
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("dat") {
            continue;
        }
        let content = std::fs::read_to_string(&path).unwrap();
        annotated += parse_dat(&content).iter().filter(|c| c.errors.is_some()).count();
    }
    assert!(annotated >= 40, "expected >= 40 error-annotated .dat cases, found {annotated}");
}

/// Annotation helper, not a check: prints every fixture case with the
/// `#errors` block the current parser produces, for hand review against
/// the WHATWG spec before pasting into the fixture. Run with
/// `cargo test -q --test dat_conformance dat_print_error_annotations -- --ignored --nocapture`.
#[test]
#[ignore = "annotation generator; run manually with --ignored --nocapture"]
fn dat_print_error_annotations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for entry in std::fs::read_dir(&dir).expect("fixtures dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("dat") {
            continue;
        }
        println!("==== {}", path.display());
        let content = std::fs::read_to_string(&path).unwrap();
        for case in parse_dat(&content) {
            let out = spec_html::parse_document(&case.data);
            println!("#data\n{}\n#errors\n{}#document", case.data, render_errors(&out));
        }
    }
}

#[test]
fn dat_parser_handles_multiple_blocks() {
    let cases = parse_dat("#data\n<p>x\n#document\n| <p>\n\n#data\n<b>y\n#document\n| <b>\n");
    assert_eq!(cases.len(), 2);
    assert_eq!(cases[0].data, "<p>x");
    assert_eq!(cases[1].data, "<b>y");
    assert!(cases[0].expected.contains("| <p>"));
    assert!(cases[0].errors.is_none(), "no #errors block means no assertion");
}

#[test]
fn dat_parser_handles_errors_blocks() {
    let cases = parse_dat(
        "#data\n<p/x>\n#errors\n3: unexpected-solidus-in-tag\n#document\n| <p>\n\n\
         #data\n<p>clean\n#errors\n#document\n| <p>\n",
    );
    assert_eq!(cases.len(), 2);
    assert_eq!(cases[0].errors.as_deref(), Some("3: unexpected-solidus-in-tag\n"));
    // An empty #errors block is an assertion of *zero* errors, distinct
    // from a missing block.
    assert_eq!(cases[1].errors.as_deref(), Some(""));
}
