//! Scanning on-disk WARC/CDXJ archives — the bridge to *real* Common Crawl
//! data.
//!
//! `hva gen --warc` exports the synthetic archive in standard form; this
//! module opens any such pair (or extracts pulled from the real Common
//! Crawl with its index client) as a [`WarcSource`], one more
//! [`PageSource`] for the scan engine. The scan gets the engine's workers,
//! failure model, metrics, streaming and resume, and produces the same
//! [`ResultStore`] the virtual pipeline fills — so every table/figure
//! renderer works on real data unchanged.
//!
//! The WARC layer copies nothing it does not keep. Opening walks each
//! snapshot's CDXJ indexes with the borrowed line parser
//! ([`cdxj_lines`]) and allocates one URL per page and one name per host.
//! A fetch reads the record with [`read_body`], which returns the body in
//! the buffer the record was read into. A crawl may ship one snapshot in
//! many files; they are read in path order, so a host split across them
//! numbers its pages the same on every file system.

use crate::format::StoreHeader;
use crate::outcome::{ErrorClass, QuarantineEntry};
use crate::run::{scan_snapshots, Listing, PageSource, ScanOptions, Slot};
use crate::store::ResultStore;
use hv_core::HvError;
use hv_corpus::warc::{cdxj_lines, read_body};
use hv_corpus::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A (WARC, CDXJ) file pair associated with a snapshot.
#[derive(Debug, Clone)]
pub struct WarcInput {
    pub warc: PathBuf,
    pub cdx: PathBuf,
    pub snapshot: Snapshot,
}

/// Discover `<CC-MAIN-*>.warc` / `.cdxj` pairs in a directory (the layout
/// `hva gen --warc` produces), ordered by snapshot, then path. Snapshot
/// association comes from the crawl-id file stem.
pub fn discover(dir: &Path) -> Result<Vec<WarcInput>, HvError> {
    let mut inputs = Vec::new();
    let listing = std::fs::read_dir(dir)
        .map_err(|e| HvError::io(format!("listing WARC directory {}", dir.display()), e))?;
    for entry in listing {
        let path =
            entry.map_err(|e| HvError::io("reading WARC directory entry".to_string(), e))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("warc") {
            continue;
        }
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        let Some(snapshot) = snapshot_from_crawl_id(stem) else { continue };
        let cdx = path.with_extension("cdxj");
        if cdx.exists() {
            inputs.push(WarcInput { warc: path, cdx, snapshot });
        }
    }
    inputs.sort_by(|a, b| (a.snapshot, &a.warc).cmp(&(b.snapshot, &b.warc)));
    Ok(inputs)
}

fn snapshot_from_crawl_id(stem: &str) -> Option<Snapshot> {
    // CC-MAIN-2019-04 → 2019.
    let year: u16 = stem.strip_prefix("CC-MAIN-")?.get(..4)?.parse().ok()?;
    Snapshot::from_year(year)
}

/// Room for a record's WARC and HTTP headers on top of the byte budget: a
/// longer indexed record cannot hold an in-budget body, so it is refused
/// without being read.
const HEADER_ALLOWANCE: u64 = 64 * 1024;

/// Where one record lives: (index of its WARC file, offset, length).
#[derive(Debug, Clone, Copy)]
pub struct RecordSpan(usize, u64, u64);

/// WARC+CDXJ files as a [`PageSource`]. Opening parses every CDXJ index
/// once, keeping only each page's URL, offset and length, grouped by
/// snapshot and by URL host; domain ids are stable hashes of the host.
/// Bodies are read on demand with positional reads, so concurrent workers
/// share no seek cursor.
///
/// Real crawl dumps are never entirely clean, so one poisoned record must
/// not abort the scan: malformed CDXJ lines are quarantined at listing,
/// unreadable records per page. Only I/O failures on the files themselves
/// abort.
pub struct WarcSource {
    files: Vec<File>,
    listings: BTreeMap<Snapshot, Listing<Vec<RecordSpan>>>,
    universe: usize,
}

impl WarcSource {
    /// Open each input's WARC file, then load the CDXJ indexes one
    /// snapshot at a time.
    pub fn open(inputs: &[WarcInput]) -> Result<WarcSource, HvError> {
        let files = inputs
            .iter()
            .map(|input| {
                File::open(&input.warc)
                    .map_err(|e| HvError::io(format!("opening WARC {}", input.warc.display()), e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut listings = BTreeMap::new();
        for snap in inputs.iter().map(|input| input.snapshot).collect::<BTreeSet<_>>() {
            listings.insert(snap, list_snapshot(inputs, snap)?);
        }
        let universe = listings
            .values()
            .flat_map(|listing| &listing.slots)
            .map(|slot| slot.domain_name.as_str())
            .collect::<BTreeSet<_>>()
            .len();
        Ok(WarcSource { files, listings, universe })
    }

    /// The snapshots the inputs cover, ascending.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.listings.keys().copied().collect()
    }
}

/// One snapshot's listing from the CDXJ indexes of its inputs. A
/// snapshot may span several inputs: each host's pages follow the inputs'
/// order, then each index's line order. Hosts are grouped through a map
/// that borrows from the index text, so a page costs one URL string and a
/// host one name.
fn list_snapshot(
    inputs: &[WarcInput],
    snap: Snapshot,
) -> Result<Listing<Vec<RecordSpan>>, HvError> {
    let members: Vec<usize> = (0..inputs.len()).filter(|&i| inputs[i].snapshot == snap).collect();
    let texts = members
        .iter()
        .map(|&i| {
            let cdx = &inputs[i].cdx;
            std::fs::read_to_string(cdx)
                .map_err(|e| HvError::io(format!("reading CDXJ index {}", cdx.display()), e))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut listing = Listing::default();
    let mut by_host: BTreeMap<&str, usize> = BTreeMap::new();
    for (&file, text) in members.iter().zip(&texts) {
        for (line_no, _, fields) in cdxj_lines(text) {
            // Index lines the CDXJ parser refused: quarantined under a
            // synthetic per-file pseudo-domain (there is no trustworthy URL
            // to group by), keyed by line number for the audit trail.
            let Some(line) = fields else {
                listing.quarantine.push(QuarantineEntry {
                    domain_id: 0,
                    snapshot: snap,
                    page_index: line_no,
                    url: format!("cdxj:{}#L{line_no}", inputs[file].cdx.display()),
                    class: ErrorClass::MalformedCdx,
                });
                continue;
            };
            let host = host_of(line.url);
            let at = *by_host.entry(host).or_insert_with(|| {
                listing.slots.push(Slot {
                    domain_id: hv_corpus::rng::str_key(host),
                    domain_name: host.to_owned(),
                    rank: 0,
                    urls: Vec::new(),
                    locator: Vec::new(),
                });
                listing.slots.len() - 1
            });
            let slot = &mut listing.slots[at];
            slot.urls.push(line.url.to_owned());
            slot.locator.push(RecordSpan(file, line.offset, line.length));
        }
    }
    Ok(listing)
}

impl PageSource for WarcSource {
    type Locator = Vec<RecordSpan>;

    /// WARC stores carry no corpus seed or scale; the universe is every
    /// host the indexes name.
    fn header(&self) -> StoreHeader {
        StoreHeader { seed: 0, scale: 0.0, universe: self.universe }
    }

    fn list(&self, snap: Snapshot) -> Listing<Vec<RecordSpan>> {
        self.listings.get(&snap).cloned().unwrap_or_default()
    }

    fn fetch(
        &self,
        at: &Vec<RecordSpan>,
        page: usize,
        budget: usize,
    ) -> Result<Vec<u8>, ErrorClass> {
        let RecordSpan(file, offset, length) = at[page];
        // The indexed length is outside input: refuse a record too long to
        // hold an in-budget body before reading (or allocating for) it.
        if length > (budget as u64).saturating_add(HEADER_ALLOWANCE) {
            return Err(ErrorClass::OversizedBody);
        }
        read_body(&mut ReadAt(&self.files[file], 0), offset, length)
            .map_err(|_| ErrorClass::TruncatedRecord)
    }
}

/// A `Read + Seek` view of a shared file with a position of its own: reads
/// are positional, so views of one file never race on a seek cursor.
struct ReadAt<'f>(&'f File, u64);

impl Read for ReadAt<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        #[cfg(unix)]
        let n = std::os::unix::fs::FileExt::read_at(self.0, buf, self.1)?;
        #[cfg(windows)]
        let n = std::os::windows::fs::FileExt::seek_read(self.0, buf, self.1)?;
        self.1 += n as u64;
        Ok(n)
    }
}

impl Seek for ReadAt<'_> {
    /// Absolute seeks only — all `read_body` makes.
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        match to {
            SeekFrom::Start(pos) => {
                self.1 = pos;
                Ok(pos)
            }
            _ => Err(io::ErrorKind::Unsupported.into()),
        }
    }
}

/// Scan WARC inputs into a [`ResultStore`]: [`scan_snapshots`] over a
/// [`WarcSource`] with the default options (one worker per core).
pub fn scan_warc(inputs: &[WarcInput]) -> Result<ResultStore, HvError> {
    let source = WarcSource::open(inputs)?;
    Ok(scan_snapshots(&source, &source.snapshots(), ScanOptions::new()))
}

fn host_of(url: &str) -> &str {
    let stripped =
        url.strip_prefix("https://").or_else(|| url.strip_prefix("http://")).unwrap_or(url);
    stripped.split('/').next().unwrap_or(stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hv_corpus::{Archive, CorpusConfig};

    #[test]
    fn warc_scan_agrees_with_virtual_scan() {
        // Export a snapshot to disk, scan the files, and compare per-domain
        // kinds against scanning the virtual archive directly.
        let archive = Archive::new(CorpusConfig { seed: 606, scale: 0.002 });
        let dir = std::env::temp_dir().join("hv_warcscan_test");
        std::fs::remove_dir_all(&dir).ok();
        let snap = Snapshot::ALL[7];
        hv_corpus::warc::export_snapshot(&archive, snap, &dir, 12).unwrap();

        let inputs = discover(&dir).unwrap();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].snapshot, snap);
        let warc_store = scan_warc(&inputs).unwrap();

        let virtual_store = crate::run::scan_snapshots(
            &archive,
            &[snap],
            crate::run::ScanOptions::new().threads(2),
        );

        // Align by domain name over the exported subset.
        for wrec in &warc_store.records {
            let vrec = virtual_store
                .records
                .iter()
                .find(|r| r.domain_name == wrec.domain_name)
                .unwrap_or_else(|| panic!("{} missing from virtual scan", wrec.domain_name));
            assert_eq!(wrec.kinds, vrec.kinds, "kinds differ for {}", wrec.domain_name);
            assert_eq!(wrec.pages_analyzed, vrec.pages_analyzed, "{}", wrec.domain_name);
            assert_eq!(wrec.mitigations, vrec.mitigations);
            assert_eq!(wrec.uses_math, vrec.uses_math);
        }
        assert!(!warc_store.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A budget near `usize::MAX` means "no budget": the pre-read bound
    /// saturates instead of overflowing into refusing every record.
    #[test]
    fn unbounded_budget_reads_every_record() {
        let archive = Archive::new(CorpusConfig { seed: 606, scale: 0.002 });
        let dir = std::env::temp_dir().join(format!("hv_warcscan_budget_{}", std::process::id()));
        hv_corpus::warc::export_snapshot(&archive, Snapshot::ALL[7], &dir, 3).unwrap();
        let source = WarcSource::open(&discover(&dir).unwrap()).unwrap();
        let opts = ScanOptions::new().threads(1);
        let bounded = scan_snapshots(&source, &source.snapshots(), opts);
        let unbounded = scan_snapshots(&source, &source.snapshots(), opts.byte_budget(usize::MAX));
        assert!(bounded.records.iter().any(|r| r.pages_analyzed > 0));
        assert_eq!(
            serde_json::to_string(&bounded).unwrap(),
            serde_json::to_string(&unbounded).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record whose `Content-Length` overflows the end offset is
    /// quarantined as truncated; the scan and its workers go on.
    #[test]
    fn huge_content_length_is_a_truncated_record() {
        use hv_corpus::warc::{self, CdxjLine};
        use std::io::Write;
        let archive = Archive::new(CorpusConfig { seed: 606, scale: 0.002 });
        let dir = std::env::temp_dir().join(format!("hv_warcscan_overflow_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let snap = Snapshot::ALL[7];
        let (warc_path, cdx_path, _) = warc::export_snapshot(&archive, snap, &dir, 3).unwrap();
        let url = "https://overflow.example/";
        let record = format!(
            "WARC/1.0\r\nWARC-Type: response\r\nWARC-Target-URI: {url}\r\n\
             Content-Length: {}\r\n\r\nHTTP/1.1 200 OK\r\n\r\n<p>x</p>\r\n\r\n",
            usize::MAX
        );
        let mut file = std::fs::OpenOptions::new().append(true).open(&warc_path).unwrap();
        let offset = file.metadata().unwrap().len();
        file.write_all(record.as_bytes()).unwrap();
        let line = CdxjLine {
            surt: warc::surt(url),
            timestamp: warc::snapshot_timestamp(snap),
            url: url.to_owned(),
            mime: "text/html".to_owned(),
            status: 200,
            offset,
            length: record.len() as u64,
        };
        let mut cdx = std::fs::OpenOptions::new().append(true).open(&cdx_path).unwrap();
        writeln!(cdx, "{}", line.render()).unwrap();

        let store = scan_warc(&discover(&dir).unwrap()).unwrap();
        let quarantined: Vec<(&str, ErrorClass)> =
            store.quarantine.iter().map(|q| (q.url.as_str(), q.class)).collect();
        assert_eq!(quarantined, [(url, ErrorClass::TruncatedRecord)]);
        assert!(store.records.iter().any(|r| r.pages_analyzed > 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discover_ignores_unrelated_files() {
        let dir = std::env::temp_dir().join("hv_warcscan_discover");
        std::fs::create_dir_all(&dir).ok();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::write(dir.join("random.warc"), "x").unwrap(); // no crawl id / no cdxj
        let inputs = discover(&dir).unwrap();
        assert!(inputs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_grouping() {
        assert_eq!(host_of("https://a.example.com/x/y"), "a.example.com");
        assert_eq!(host_of("http://b.example"), "b.example");
    }

    #[test]
    fn snapshot_from_crawl_ids() {
        assert_eq!(snapshot_from_crawl_id("CC-MAIN-2015-14"), Snapshot::from_year(2015));
        assert_eq!(snapshot_from_crawl_id("CC-MAIN-2022-05"), Snapshot::from_year(2022));
        assert_eq!(snapshot_from_crawl_id("whatever"), None);
    }
}
