//! The owning WARC-layer parsers: a CDXJ line read by one `format!`ed key
//! search per field into owned strings, and a WARC record read by sliding
//! four-byte windows into an owned URI, date and body. Kept verbatim as
//! the reference for the borrowed parsers of
//! [`hv_corpus::warc`](hv_corpus::warc): the differential tests check that
//! [`CdxjFields::parse`](hv_corpus::warc::CdxjFields::parse) gives the same
//! fields or the same refusal, and
//! [`RecordView::parse`](hv_corpus::warc::RecordView::parse) the same body
//! or the same [`WarcError`].

use hv_corpus::warc::{CdxjLine, ReadRecord, WarcError};

/// Parse a CDXJ line (as rendered by [`CdxjLine::render`]).
pub fn parse_cdxj_line(line: &str) -> Option<CdxjLine> {
    let (surt, rest) = line.split_once(' ')?;
    let (timestamp, json) = rest.split_once(' ')?;
    let field = |key: &str| -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let start = json.find(&pat)? + pat.len();
        let end = json[start..].find('"')? + start;
        Some(json[start..end].to_owned())
    };
    Some(CdxjLine {
        surt: surt.to_owned(),
        timestamp: timestamp.to_owned(),
        url: field("url")?,
        mime: field("mime")?,
        status: field("status")?.parse().ok()?,
        offset: field("offset")?.parse().ok()?,
        length: field("length")?.parse().ok()?,
    })
}

/// Parse one raw WARC record (headers + HTTP response + trailing CRLFs).
pub fn parse_record(raw: &[u8]) -> Result<ReadRecord, WarcError> {
    let head_end = find(raw, b"\r\n\r\n").ok_or(WarcError::MissingWarcTerminator)?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| WarcError::HeaderNotUtf8)?;
    if !head.starts_with("WARC/1.0") {
        return Err(WarcError::NotWarc);
    }
    let mut url = String::new();
    let mut date = String::new();
    let mut content_length = None;
    for line in head.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            let v = v.trim();
            match k.trim() {
                "WARC-Target-URI" => url = v.to_owned(),
                "WARC-Date" => date = v.to_owned(),
                "Content-Length" => content_length = v.parse::<usize>().ok(),
                _ => {}
            }
        }
    }
    let content_length = content_length.ok_or(WarcError::MissingContentLength)?;
    // A length near `usize::MAX` saturates: it is a record we do not have,
    // not an overflow.
    let need = (head_end + 4).saturating_add(content_length);
    let content =
        raw.get(head_end + 4..need).ok_or(WarcError::Truncated { need, have: raw.len() })?;
    // Strip the embedded HTTP response head.
    let http_end = find(content, b"\r\n\r\n").ok_or(WarcError::MissingHttpTerminator)?;
    Ok(ReadRecord { url, date, body: content[http_end + 4..].to_vec() })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
