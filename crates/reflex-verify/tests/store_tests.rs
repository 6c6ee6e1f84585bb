//! Integration tests for the on-disk proof store: the file layer must
//! round-trip certificates across store instances (i.e. across
//! processes), shrug off corrupt or stale entries as cache misses, and
//! produce bit-identical directories regardless of thread fan-out.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use reflex_ast::fingerprint::{Fp, FpHasher};
use reflex_parser::parse_program;
use reflex_typeck::{check, CheckedProgram};
use reflex_verify::{
    certificate_to_bytes, verify_with_store, FaultyFs, FsFault, FsFaultPlan, FsOp, ProofStore,
    ProverOptions, STORE_VERSION,
};

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rx-store-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn checked(name: &str, source: &str) -> CheckedProgram {
    check(&parse_program(name, source).expect("parses")).expect("checks")
}

/// Every segment log file across the store's shard directories.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).expect("store directory exists") {
        let path = entry.expect("readable entry").path();
        let shard = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("shard-"));
        if path.is_dir() && shard {
            for seg in fs::read_dir(&path).expect("readable shard") {
                let seg = seg.expect("readable entry").path();
                if seg.extension().is_some_and(|e| e == "log") {
                    files.push(seg);
                }
            }
        }
    }
    files.sort();
    assert!(!files.is_empty(), "store has segment files");
    files
}

/// `relative path -> bytes` for the whole store tree (shards included).
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("store directory exists") {
            let path = entry.expect("readable entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_str()
                    .expect("utf-8 path")
                    .to_owned();
                out.insert(rel, fs::read(&path).expect("readable file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn certificates_survive_process_boundaries() {
    let dir = temp_store("roundtrip");
    let options = ProverOptions::default();
    let program = checked("ssh", reflex_kernels::ssh::SOURCE);

    // First "process": everything proves from scratch and is saved.
    let first = {
        let store = ProofStore::open(&dir).expect("store opens");
        let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
        assert_eq!(sr.loaded, 0, "a fresh store has nothing to serve");
        assert!(sr.saved > 0, "proved certificates are persisted");
        assert_eq!(sr.report.reproved.len(), program.program().properties.len());
        sr.report.outcomes
    };

    // Second "process": a brand-new store instance over the same
    // directory serves every certificate, and each one is re-validated
    // and byte-identical to the first run's.
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, program.program().properties.len());
    assert_eq!(sr.report.reused.len(), program.program().properties.len());
    assert!(sr.report.reproved.is_empty());
    for ((n1, o1), (n2, o2)) in first.iter().zip(&sr.report.outcomes) {
        assert_eq!(n1, n2);
        assert_eq!(
            o1.certificate(),
            o2.certificate(),
            "{n1}: store round-trip must be byte-identical"
        );
        assert!(o2.is_proved(), "{n1}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatch_degrades_to_a_miss() {
    let dir = temp_store("version");
    let options = ProverOptions::default();
    let program = checked("ssh", reflex_kernels::ssh::SOURCE);
    {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&program, &options, &store, 1).expect("verifies");
    }
    // Bump the format version byte of every segment's first frame (frame
    // layout: 4 bytes magic, then the version as u32 LE). The open-time
    // scan stops at the first invalid frame, darkening the whole segment.
    for path in segment_files(&dir) {
        let mut bytes = fs::read(&path).expect("readable segment");
        bytes[4] ^= 0x01;
        fs::write(&path, &bytes).expect("writable segment");
    }
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("still verifies");
    assert_eq!(sr.loaded, 0, "future-version entries must read as misses");
    assert_eq!(sr.report.reproved.len(), program.program().properties.len());
    assert!(sr.report.outcomes.iter().all(|(_, o)| o.is_proved()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_corrupted_entries_degrade_to_misses() {
    let dir = temp_store("corrupt");
    let options = ProverOptions::default();
    let program = checked("browser", reflex_kernels::browser::SOURCE);
    {
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&program, &options, &store, 1).expect("verifies");
    }
    // Mangle each segment a different way, always hitting the *first*
    // frame so the scan finds nothing live: truncate mid-header, truncate
    // to zero, flip the first payload byte — round-robin over segments.
    for (i, path) in segment_files(&dir).into_iter().enumerate() {
        let mut bytes = fs::read(&path).expect("readable segment");
        match i % 3 {
            0 => bytes.truncate(22),
            1 => bytes.clear(),
            _ => bytes[44] ^= 0xFF,
        }
        fs::write(&path, &bytes).expect("writable segment");
    }
    let store = ProofStore::open(&dir).expect("store re-opens");
    let sr = verify_with_store(&program, &options, &store, 1).expect("still verifies");
    assert_eq!(sr.loaded, 0, "mangled entries must read as misses");
    assert_eq!(sr.report.reproved.len(), program.program().properties.len());
    assert!(sr.report.outcomes.iter().all(|(_, o)| o.is_proved()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn parallel_and_serial_stores_are_bit_identical() {
    let options = ProverOptions::default();
    let base = checked("browser", reflex_kernels::browser::SOURCE);
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {",
        "    if (host == sender.domain && host != \"\") {",
    );
    assert_ne!(edited_src, reflex_kernels::browser::SOURCE);
    let edited = checked("browser", &edited_src);

    // The same prime-then-edit session, serial and with 8 workers.
    let mut snapshots = Vec::new();
    for (tag, jobs) in [("serial", 1), ("jobs8", 8)] {
        let dir = temp_store(tag);
        let store = ProofStore::open(&dir).expect("store opens");
        verify_with_store(&base, &options, &store, jobs).expect("prime verifies");
        let sr = verify_with_store(&edited, &options, &store, jobs).expect("edit verifies");
        assert!(sr.loaded > 0, "{tag}: the edit run uses stored proofs");
        let contents = snapshot(&dir);
        snapshots.push((dir, contents));
    }
    let (serial, parallel) = (&snapshots[0].1, &snapshots[1].1);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "same entry set regardless of thread fan-out"
    );
    for (name, bytes) in serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name}: store contents must be bit-identical across jobs counts"
        );
    }
    for (dir, _) in &snapshots {
        let _ = fs::remove_dir_all(dir);
    }
}

/// The store has one layout: segment logs. A key the index does not
/// hold is a miss decided in memory — no disk read that a failing disk
/// could turn into an I/O error — and a stray file in the pre-segment
/// flat format (`{prog}-{prop}-{opts}.cert` in the root) is neither
/// indexed nor touched by compaction.
#[test]
fn unindexed_misses_touch_no_disk_and_stray_flat_files_are_ignored() {
    let dir = temp_store("no-flat-tier");
    fs::create_dir_all(&dir).expect("store dir");
    let options = ProverOptions::default();
    let program = checked("car", reflex_kernels::car::SOURCE);
    let fps = program.fingerprints();
    let opts_fp = options.fingerprint();
    let (name, outcome) = reflex_verify::prove_all(&program, &options).remove(0);
    let pfp = fps.property(&name).expect("known property");

    // A well-formed flat entry: magic, version, payload fingerprint,
    // certificate bytes.
    let payload = certificate_to_bytes(outcome.certificate().expect("car proves"));
    let mut hasher = FpHasher::new();
    hasher.write(&payload);
    let mut flat = b"RXPS".to_vec();
    flat.extend_from_slice(&STORE_VERSION.to_le_bytes());
    flat.extend_from_slice(&hasher.finish().0.to_le_bytes());
    flat.extend_from_slice(&payload);
    let stray = dir.join(format!("{}-{pfp}-{opts_fp}.cert", fps.program));
    fs::write(&stray, &flat).expect("stray flat entry written");

    // Opening an empty store reads only MANIFEST (read #0); the next
    // read of any kind fails with EIO.
    let faulty = FaultyFs::new(FsFaultPlan::Scripted(vec![(
        FsOp::Read,
        1,
        FsFault::ReadEio,
    )]));
    let store = ProofStore::open_with(&dir, Arc::new(faulty.clone())).expect("store opens");
    let io_before = store.io_errors();

    assert!(store.load(fps.program, Fp(0xab5e), opts_fp).is_none());
    assert_eq!(store.io_errors(), io_before, "a miss is not an I/O error");
    assert_eq!(faulty.injected(), 0, "a miss performs no read");

    assert!(
        store.load(fps.program, pfp, opts_fp).is_none(),
        "the stray flat entry is not served"
    );
    assert_eq!(faulty.injected(), 0);

    assert!(store.entries().is_empty(), "the stray file is not indexed");
    let report = store.compact(None).expect("compacts");
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert_eq!(
        fs::read(&stray).expect("stray file survives compaction"),
        flat,
        "compaction leaves the stray file untouched"
    );
    assert!(store.entries().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_drops_superseded_frames_and_keeps_the_live_set() {
    let dir = temp_store("compact");
    let options = ProverOptions::default();
    let base = checked("browser", reflex_kernels::browser::SOURCE);
    let edited_src = reflex_kernels::browser::SOURCE.replace(
        "    if (host == sender.domain) {",
        "    if (host == sender.domain && host != \"\") {",
    );
    let edited = checked("browser", &edited_src);

    let store = ProofStore::open(&dir).expect("store opens");
    verify_with_store(&base, &options, &store, 1).expect("prime");
    verify_with_store(&edited, &options, &store, 1).expect("edit");

    let before = store.entries();
    let loaded_before = {
        let sr = verify_with_store(&edited, &options, &store, 1).expect("warm");
        sr.loaded
    };
    let report = store.compact(Some((&edited, &options))).expect("compacts");
    assert!(report.quarantined.is_empty(), "nothing was corrupt");
    assert_eq!(report.checker_rejected, 0);
    assert_eq!(store.entries(), before, "compaction preserves the live set");

    // Reopen: the compacted layout serves exactly what it served before.
    let store = ProofStore::open(&dir).expect("store re-opens");
    assert_eq!(store.entries(), before);
    let sr = verify_with_store(&edited, &options, &store, 1).expect("verifies");
    assert_eq!(sr.loaded, loaded_before);
    assert_eq!(sr.report.reused.len(), edited.program().properties.len());
    let _ = fs::remove_dir_all(&dir);
}
