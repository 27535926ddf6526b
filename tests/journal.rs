//! Journal integrity through the API: a damaged journal entry is an
//! ordinary miss — the work re-runs and the report is byte-identical to
//! a clean run — and a scenario report is only answered from the
//! journal when every option that shapes it matches.

mod common;

use common::repo_path;
use helix_rc::api::{execute, Request, Response, RunOptions, SpecSource};
use helix_rc::campaign::CampaignRunStats;
use helix_rc::resilient::Journal;
use helix_rc::workloads::builtin_spec;
use helix_rc::CampaignSource;
use std::path::{Path, PathBuf};

/// A fresh, empty journal directory for one test.
fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-journal-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every `.cell` file in a journal, sorted by name.
fn cell_files(journal: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(journal)
        .expect("journal dir exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    files.sort();
    files
}

/// The smoke campaign through `execute`: report JSON and counters.
fn smoke(options: RunOptions) -> (String, CampaignRunStats) {
    match execute(Request::RunCampaign {
        source: CampaignSource::Path(repo_path("campaigns/smoke.toml")),
        options,
    }) {
        Response::Campaign { json, stats, .. } => (json, stats),
        other => panic!("expected a campaign response, got {other:?}"),
    }
}

/// One scenario through `execute`: report JSON, whether it was
/// answered from the journal, and the report's fingerprint (its
/// deterministic content; the JSON also carries wall-clock times) when
/// it was simulated.
fn scenario(options: RunOptions) -> (String, bool, Option<String>) {
    let spec = builtin_spec("164.gzip").expect("builtin spec");
    match execute(Request::RunScenario {
        source: SpecSource::Inline(spec.to_toml()),
        options,
    }) {
        Response::Scenario {
            json,
            cached,
            report,
        } => (json, cached, report.map(|r| r.fingerprint())),
        other => panic!("expected a scenario response, got {other:?}"),
    }
}

/// A grid-cell file that lost its last line re-runs on resume instead
/// of being decoded short: the resumed report equals a clean run byte
/// for byte, and every other cell is still a journal hit.
#[test]
fn truncated_campaign_cell_reruns_on_resume() {
    let journal = temp_journal("campaign");
    let (clean, first) = smoke(RunOptions::new().with_journal(&journal));
    assert_eq!(first.journal_hits, 0);
    let cell = cell_files(&journal)
        .into_iter()
        .find(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            text.starts_with("helix-cell v1\n") && text.contains("\npoint\t")
        })
        .expect("a journaled grid cell with points");
    let text = std::fs::read_to_string(&cell).unwrap();
    let shortened = text.trim_end_matches('\n').rsplit_once('\n').unwrap().0;
    std::fs::write(&cell, format!("{shortened}\n")).unwrap();

    let (resumed, stats) = smoke(RunOptions::new().with_journal(&journal).with_resume(true));
    assert_eq!(resumed, clean, "resumed report differs from a clean run");
    assert_eq!(stats.journal_hits, stats.cells - 1, "{stats:?}");
    assert_eq!(stats.simulated, 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&journal);
}

/// A top-core `generations` cell whose file has no derived row (as an
/// older build wrote it) is a miss even with an intact trailer: it
/// re-runs, and the resumed report equals a clean run byte for byte.
#[test]
fn generations_cell_without_its_derived_row_reruns_on_resume() {
    let journal_dir = temp_journal("derived");
    let (clean, _) = smoke(RunOptions::new().with_journal(&journal_dir));
    let journal = Journal::open(&journal_dir).expect("journal opens");
    let (digest, text) = cell_files(&journal_dir)
        .iter()
        .map(|p| {
            let stem = p.file_stem().unwrap().to_str().unwrap();
            let digest = u64::from_str_radix(stem, 16).expect("hex digest");
            (digest, journal.load(digest).expect("intact entry"))
        })
        .find(|(_, text)| text.lines().any(|l| l.starts_with("derived\t")))
        .expect("a journaled cell with a derived row");
    let stripped: String = text
        .lines()
        .filter(|l| !l.starts_with("derived\t") && !l.starts_with("nest\t"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(stripped.starts_with("helix-cell v1\n"), "{stripped}");
    journal.store(digest, &stripped).unwrap();

    let (resumed, stats) = smoke(
        RunOptions::new()
            .with_journal(&journal_dir)
            .with_resume(true),
    );
    assert_eq!(resumed, clean, "resumed report differs from a clean run");
    assert_eq!(stats.simulated, 1, "{stats:?}");
    assert_eq!(stats.derived_computed, 1, "{stats:?}");
    assert_eq!(stats.journal_hits, stats.cells - 1, "{stats:?}");
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// A truncated scenario-report entry is a miss: the scenario simulates
/// again and its report matches a clean run.
#[test]
fn truncated_scenario_report_reruns_on_resume() {
    let journal = temp_journal("scenario");
    let (_, cached, clean) = scenario(RunOptions::new().with_journal(&journal));
    assert!(!cached);
    let [entry] = cell_files(&journal).try_into().expect("one journal entry");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..300]).unwrap();

    let (_, cached, resumed) = scenario(RunOptions::new().with_journal(&journal).with_resume(true));
    assert!(!cached, "a truncated entry must not answer the request");
    assert_eq!(resumed, clean);
    let _ = std::fs::remove_dir_all(&journal);
}

/// `--attribution` changes the scenario report, so a report journaled
/// without it must not answer a request with it.
#[test]
fn attribution_is_part_of_the_scenario_journal_key() {
    let journal = temp_journal("attribution");
    let (plain, _, _) = scenario(RunOptions::new().with_journal(&journal));
    assert!(!plain.contains("\"attribution\""));
    let (attributed, cached, _) = scenario(
        RunOptions::new()
            .with_journal(&journal)
            .with_resume(true)
            .with_attribution(true),
    );
    assert!(!cached, "a plain report answered an --attribution request");
    assert!(attributed.contains("\"attribution\""), "{attributed}");
    let _ = std::fs::remove_dir_all(&journal);
}
