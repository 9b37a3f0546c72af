//! WARC input end to end: one snapshot exported to WARC+CDXJ, damaged the
//! way real crawl dumps are, and scanned from disk.
//!
//! The damage: one CDXJ line replaced with garbage, one line whose offset
//! points into the middle of another record, and three appended records
//! whose bodies start with the gzip magic, exceed the 1 MiB byte budget,
//! and are not UTF-8. The quarantine entries, the per-record counters and
//! the universe are pinned exactly. WARC input runs on the one scan
//! engine, so it also gets the engine's thread invariance, byte budget,
//! failure-model harness and streaming.

use html_violations::hv_corpus::rng::str_key;
use html_violations::hv_corpus::warc::{self, CdxjLine, WarcWriter};
use html_violations::hv_corpus::{Archive, CorpusConfig, FaultPlan, Snapshot};
use html_violations::hv_pipeline::warcscan::{discover, scan_warc, WarcInput, WarcSource};
use html_violations::hv_pipeline::{
    run_chaos, scan_snapshots, scan_streamed, DomainYearRecord, ErrorClass, IndexedStore,
    ResultStore, ScanOptions,
};
use html_violations::hv_report;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The host the appended records live under.
const DAMAGED_HOST: &str = "damaged.example";
/// Domain ids: the FNV-1a hash of the host.
const DAMAGED: u64 = 0x59ba_c1ad_86ab_9448;
const AEROLABS: u64 = 0x2371_4d07_ec22_97b3;
const STORE_DIGEST: u64 = 0xb0c7_21c9_ebd9_f046;

/// `hv_report::render("aux", …)` of every WARC store. Its header names
/// seed 0 at scale 0.0, a one-domain universe the WARC holds no record of,
/// so the side studies never read a WARC store's records.
const WARC_AUX: &str = "\
Auxiliary studies (§5.1 / §5.2)

§5.1 dynamically loaded content (top 1 domains, 2021):
  fragments checked:          49
  domains with ≥1 violation:  0.0%   (paper: \"more than 60%\")
  top fragment violations:   \x20
  math-related violations:    0   (paper: \"hardly appear\")

§5.2 less popular websites (1 per population, CC-MAIN-2021-04):
  violating share:   popular 0.0%  vs  long tail 61.2%
  kinds per domain:  popular 0.00  vs  long tail 1.77   (paper: popular sites violate more)
  HF5 (namespace):   popular 0.0%  vs  long tail 2.0%   (paper: complex SVGs on top sites)
";

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hv-warc-scan-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Export snapshot 2022 at scale 0.002 into `dir`, then damage it.
fn damaged_export(dir: &Path) {
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    let snap = Snapshot::ALL[7];
    let (warc_path, cdx_path, _) = warc::export_snapshot(&archive, snap, dir, usize::MAX).unwrap();
    let text = std::fs::read_to_string(&cdx_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();

    // Line 4 becomes garbage the CDXJ parser refuses.
    lines[3] = "com,broken)/ 2022 {not a cdxj payload".to_owned();
    // Line 11 points into the middle of line 12's record.
    let next = CdxjLine::parse(&lines[11]).unwrap();
    let mut moved = CdxjLine::parse(&lines[10]).unwrap();
    moved.offset = next.offset + next.length / 2;
    lines[10] = moved.render();

    // Three records appended to the WARC file, indexed at the end.
    let mut file = std::fs::OpenOptions::new().append(true).open(&warc_path).unwrap();
    let base = file.metadata().unwrap().len();
    let mut writer = WarcWriter::new(Vec::new());
    let bodies: [(&str, Vec<u8>); 3] = [
        ("gzip", [0x1f, 0x8b, 0x08, 0x00].iter().copied().chain(*b"not deflate").collect()),
        ("oversized", b"<p>".iter().copied().cycle().take((1 << 20) + 1).collect()),
        ("latin1", b"<p>caf\xe9</p>".to_vec()),
    ];
    for (name, body) in bodies {
        let url = format!("https://{DAMAGED_HOST}/{name}");
        let (offset, length) =
            writer.write_response(&url, &warc::snapshot_date(snap), &body).unwrap();
        let line = CdxjLine {
            surt: warc::surt(&url),
            timestamp: warc::snapshot_timestamp(snap),
            url,
            mime: "text/html".to_owned(),
            status: 200,
            offset: base + offset,
            length,
        };
        lines.push(line.render());
    }
    file.write_all(&writer.into_inner()).unwrap();
    std::fs::write(&cdx_path, lines.join("\n") + "\n").unwrap();
}

/// (domain id, page index, class, URL with `dir` stripped) per entry.
fn quarantine_of(store: &ResultStore, dir: &Path) -> Vec<(u64, usize, ErrorClass, String)> {
    let prefix = format!("{}/", dir.display());
    store
        .quarantine
        .iter()
        .map(|q| (q.domain_id, q.page_index, q.class, q.url.replace(&prefix, "")))
        .collect()
}

/// FNV-1a over the store's JSON with `dir` stripped: every byte pinned.
fn digest(store: &ResultStore, dir: &Path) -> u64 {
    let json = serde_json::to_string(store).unwrap();
    str_key(&json.replace(&format!("{}/", dir.display()), ""))
}

fn counters(store: &ResultStore, host: &str) -> (usize, usize, usize, usize, usize) {
    let r = store.records.iter().find(|r| r.domain_name == host).unwrap();
    (r.pages_found, r.pages_analyzed, r.pages_quarantined, r.pages_faulted, r.pages_degraded)
}

#[test]
fn damaged_warc_scan_is_pinned() {
    let dir = tmpdir("damaged");
    damaged_export(&dir);
    let inputs = discover(&dir).unwrap();
    assert_eq!(inputs.len(), 1);
    let store = scan_warc(&inputs).unwrap();

    assert_eq!(
        quarantine_of(&store, &dir),
        vec![
            (0, 4, ErrorClass::MalformedCdx, "cdxj:CC-MAIN-2022-05.cdxj#L4".to_owned()),
            (
                AEROLABS,
                9,
                ErrorClass::TruncatedRecord,
                "https://aerolabs.com/page/18.html".to_owned()
            ),
            (DAMAGED, 0, ErrorClass::CorruptCompression, format!("https://{DAMAGED_HOST}/gzip")),
            (DAMAGED, 1, ErrorClass::OversizedBody, format!("https://{DAMAGED_HOST}/oversized")),
        ]
    );
    // found, analyzed, quarantined, faulted, degraded
    assert_eq!(counters(&store, DAMAGED_HOST), (3, 0, 2, 0, 0));
    assert_eq!(counters(&store, "aerolabs.com"), (99, 98, 1, 0, 0));
    // 49 exported hosts plus the damaged one.
    assert_eq!(store.universe, 50);
    assert_eq!(store.records.len(), 50);
    let sum = |f: fn(&DomainYearRecord) -> usize| store.records.iter().map(f).sum::<usize>();
    assert_eq!(
        (sum(|r| r.pages_found), sum(|r| r.pages_analyzed), sum(|r| r.pages_quarantined)),
        (4402, 4398, 3)
    );
    assert_eq!(digest(&store, &dir), STORE_DIGEST);

    // One engine for every source: byte-identical at 1 and 4 workers.
    let source = WarcSource::open(&inputs).unwrap();
    let json_at = |threads| {
        let opts = ScanOptions::new().threads(threads);
        serde_json::to_string(&scan_snapshots(&source, &source.snapshots(), opts)).unwrap()
    };
    let one = json_at(1);
    assert_eq!(one, json_at(4));
    assert_eq!(one, serde_json::to_string(&store).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Common Crawl ships one crawl in many WARC files. One snapshot exported
/// as two WARC/CDXJ pairs, split inside one host's pages, scans to the
/// store of the one-file export whichever file is created first: the
/// split host's pages keep their numbering, so a truncated record past the
/// split and every injected fault land on the same page indices.
#[test]
fn multi_file_snapshot_scans_as_its_one_file_export() {
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    let snap = Snapshot::ALL[7];
    let one = tmpdir("one-file");
    let (warc_path, cdx_path, _) = warc::export_snapshot(&archive, snap, &one, 6).unwrap();
    let raw = std::fs::read(&warc_path).unwrap();
    let text = std::fs::read_to_string(&cdx_path).unwrap();
    let mut lines: Vec<CdxjLine> = text.lines().map(|l| CdxjLine::parse(l).unwrap()).collect();
    let host = |line: &CdxjLine| line.url.split('/').nth(2).unwrap().to_owned();
    // Split after the third page of the host in the middle of the index.
    let mid = lines.len() / 2;
    let first = (0..mid).rev().take_while(|&i| host(&lines[i]) == host(&lines[mid])).last();
    let split = first.unwrap_or(mid) + 3;
    assert_eq!(host(&lines[split - 1]), host(&lines[split]), "the split is inside a host");
    // A record past the split, cut short.
    lines[split + 1].length -= 10;
    let render = |lines: &[CdxjLine]| lines.iter().map(|l| l.render() + "\n").collect::<String>();
    std::fs::write(&cdx_path, render(&lines)).unwrap();

    let faults = FaultPlan::new(9, 0.2).unwrap();
    let scans = |dir: &Path| {
        let source = WarcSource::open(&discover(dir).unwrap()).unwrap();
        let json = |opts| serde_json::to_string(&scan_snapshots(&source, &[snap], opts)).unwrap();
        (json(ScanOptions::new()), json(ScanOptions::new().inject_faults(faults)))
    };
    let expected = scans(&one);
    let split_host = host(&lines[split]);
    let truncated = scan_warc(&discover(&one).unwrap()).unwrap().quarantine;
    assert_eq!(truncated.len(), 1);
    assert_eq!(
        (truncated[0].url.as_str(), truncated[0].class),
        (lines[split + 1].url.as_str(), ErrorClass::TruncatedRecord)
    );
    assert!(truncated[0].url.contains(&split_host));

    // A directory lists its files in an order of its own (ext4 by a hash
    // of the name, tmpfs by creation), so try several names, each pair
    // created in both orders.
    let parts = [&lines[..split], &lines[split..]];
    for names in [["00000", "00001"], ["1", "2"], ["3", "4"], ["6", "7"]] {
        for order in [[0, 1], [1, 0]] {
            let dir = tmpdir(&format!("two-files-{}-{}", names[order[0]], names[order[1]]));
            for part in order {
                let mut warc_bytes = Vec::new();
                let mut moved = Vec::new();
                for line in parts[part] {
                    let at = line.offset as usize;
                    let record = &raw[at..at + line.length as usize];
                    moved.push(CdxjLine { offset: warc_bytes.len() as u64, ..line.clone() });
                    warc_bytes.extend_from_slice(record);
                }
                let stem = dir.join(format!("CC-MAIN-2022-05-{}", names[part]));
                std::fs::write(stem.with_extension("warc"), warc_bytes).unwrap();
                std::fs::write(stem.with_extension("cdxj"), render(&moved)).unwrap();
            }
            assert_eq!(discover(&dir).unwrap().len(), 2);
            assert!(
                scans(&dir) == expected,
                "{}: the store differs from the one-file export's",
                dir.display()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&one).ok();
}

/// A WARC store of the 2021 snapshot, the one §5.2 reads, renders the
/// side studies of the seed-0 universe its header names, not of its
/// records (see [`WARC_AUX`]).
#[test]
fn warc_store_renders_the_seed_0_side_studies() {
    let dir = tmpdir("aux");
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    warc::export_snapshot(&archive, Snapshot::ALL[6], &dir, 4).unwrap();
    let store = scan_warc(&discover(&dir).unwrap()).unwrap();
    assert_eq!((store.seed, store.scale, store.records.len()), (0, 0.0, 4));
    assert_eq!(hv_report::render("aux", &IndexedStore::new(store)).unwrap(), WARC_AUX);
    std::fs::remove_dir_all(&dir).ok();
}

/// A CDXJ length is outside input: a line claiming 512 MiB in a short file
/// is refused as oversized without being read.
#[test]
fn oversized_index_length_is_refused_unread() {
    let dir = tmpdir("claims");
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    let (_, cdx_path, _) = warc::export_snapshot(&archive, Snapshot::ALL[7], &dir, 2).unwrap();
    let text = std::fs::read_to_string(&cdx_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut claim = CdxjLine::parse(&lines[0]).unwrap();
    claim.length = 512 << 20;
    lines[0] = claim.render();
    std::fs::write(&cdx_path, lines.join("\n") + "\n").unwrap();

    let store = scan_warc(&discover(&dir).unwrap()).unwrap();
    let refused: Vec<(&str, ErrorClass)> =
        store.quarantine.iter().map(|q| (q.url.as_str(), q.class)).collect();
    assert_eq!(refused, [(claim.url.as_str(), ErrorClass::OversizedBody)]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Only the files themselves abort a scan: a missing CDXJ index or WARC
/// file is an error, not a quarantine entry.
#[test]
fn unreadable_inputs_are_errors() {
    let dir = tmpdir("unreadable");
    let archive = Archive::new(CorpusConfig { seed: 4740657, scale: 0.002 });
    warc::export_snapshot(&archive, Snapshot::ALL[7], &dir, 1).unwrap();
    let input = discover(&dir).unwrap().remove(0);
    let missing = dir.join("missing");
    for bad in [
        WarcInput { cdx: missing.clone(), ..input.clone() },
        WarcInput { warc: missing.clone(), ..input.clone() },
    ] {
        let err = scan_warc(&[bad]).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The failure-model harness on WARC input: every `hva chaos` invariant,
/// crash-resume included, holds for a [`WarcSource`].
#[test]
fn chaos_invariants_hold_on_warc_input() {
    let dir = tmpdir("chaos");
    let archive = Archive::new(CorpusConfig { seed: 77, scale: 0.002 });
    warc::export_snapshot(&archive, Snapshot::ALL[7], &dir, 12).unwrap();
    let inputs = discover(&dir).unwrap();
    let source = WarcSource::open(&inputs).unwrap();
    let snaps = source.snapshots();

    let report = run_chaos(&source, FaultPlan::new(9, 0.2).unwrap(), &snaps, &[1, 3]);
    assert!(report.passed(), "{}", report.render());
    let checks: Vec<&str> = report.checks.iter().map(|c| c.name).collect();
    assert_eq!(
        checks,
        [
            "workers-survive",
            "quarantine-thread-invariant",
            "clean-pages-unchanged",
            "quarantine-accounting",
            "crash-resume-identical"
        ]
    );
    assert!(report.pages_faulted > 0, "a 20% rate must fault something");
    assert!(report.pages_quarantined > 0);

    // Streaming a WARC scan writes the bytes scan_warc + save_v1 writes.
    let (streamed, saved) = (dir.join("streamed.hvs"), dir.join("saved.hvs"));
    scan_streamed(&source, &snaps, ScanOptions::new(), &streamed).unwrap();
    scan_warc(&inputs).unwrap().save_v1(&saved).unwrap();
    assert_eq!(std::fs::read(&streamed).unwrap(), std::fs::read(&saved).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}
