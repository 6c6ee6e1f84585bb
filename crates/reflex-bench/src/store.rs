//! The proof-store stress bench: the flat layout the store used before
//! segment logs (one fsync-gated file per certificate) against the
//! log-structured [`ProofStore`], at 100k+ entries. The flat layout now
//! lives only here, as [`FlatStore`], the baseline.
//!
//! Three phases per layout, wall-timed separately:
//!
//! * **write** — `entries` distinct synthetic keys carrying one real
//!   (prover-produced, checker-accepted) certificate payload each. The
//!   flat layout pays tmp-write + fsync + rename per entry; the log
//!   layout appends into segments and group-commits.
//! * **open** — a cold open over the populated directory, i.e. the
//!   index rebuild a daemon restart would pay.
//! * **lookup** — `lookups` loads. The flat row draws keys uniformly
//!   (no admission tier could hold the full set); the log row cycles a
//!   hot window sized under the LRU tier, the warm `rx watch` pattern
//!   the hot tier exists for. The two modes are recorded in the JSON.
//!
//! After the write phases the two stores' certificate sets are diffed
//! key by key and byte by byte; a mismatch fails the bench (and CI).

use std::collections::HashSet;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use reflex_ast::fingerprint::Fp;
use reflex_parser::parse_program;
use reflex_typeck::check;
use reflex_verify::{
    certificate_from_bytes, certificate_to_bytes, Certificate, ProofStore, ProverOptions,
};

use crate::BenchError;

/// The hot-window size for the log row's warm lookups: comfortably under
/// the store's LRU capacity (256) so a steady-state watch session hits.
const HOT_WINDOW: usize = 128;

/// A store key: (program fp, property fp, options fp).
type Key = (Fp, Fp, Fp);

/// The flat baseline layout: one `{prog}-{prop}-{opts}.cert` file per
/// key holding [`certificate_to_bytes`], written to a temporary file,
/// fsynced, then renamed into place. Opening lists the directory into an
/// in-memory key set; a load reads and decodes one file.
struct FlatStore {
    root: PathBuf,
    keys: HashSet<Key>,
}

impl FlatStore {
    fn entry_path(root: &Path, (program, property, options): Key) -> PathBuf {
        root.join(format!("{program}-{property}-{options}.cert"))
    }

    /// Writes one entry durably: temporary file, `sync_all`, rename.
    fn write(root: &Path, key: Key, cert: &Certificate) -> io::Result<()> {
        let path = FlatStore::entry_path(root, key);
        let tmp = path.with_extension("tmp");
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&certificate_to_bytes(cert))?;
        file.sync_all()?;
        std::fs::rename(&tmp, &path)
    }

    /// Indexes every entry file under `root` by the key in its name.
    fn open(root: &Path) -> io::Result<FlatStore> {
        let mut keys = HashSet::new();
        for entry in std::fs::read_dir(root)? {
            let name = entry?.file_name();
            if let Some(key) = name.to_str().and_then(parse_entry_name) {
                keys.insert(key);
            }
        }
        Ok(FlatStore {
            root: root.to_path_buf(),
            keys,
        })
    }

    fn load(&self, key: Key) -> Option<Certificate> {
        if !self.keys.contains(&key) {
            return None;
        }
        certificate_from_bytes(&std::fs::read(FlatStore::entry_path(&self.root, key)).ok()?)
    }
}

/// Parses a `{prog}-{prop}-{opts}.cert` file name back into its key.
fn parse_entry_name(name: &str) -> Option<Key> {
    let mut parts = name.strip_suffix(".cert")?.split('-');
    let mut fp = || {
        let s = parts.next().filter(|s| s.len() == 16)?;
        u64::from_str_radix(s, 16).ok().map(Fp)
    };
    let key = (fp()?, fp()?, fp()?);
    parts.next().is_none().then_some(key)
}

/// Knobs for one stress run.
#[derive(Debug, Clone, Copy)]
pub struct StoreBenchConfig {
    /// Certificates written per layout.
    pub entries: usize,
    /// Timed loads per layout.
    pub lookups: usize,
    /// Key-stream seed (the payload certificate is seed-independent).
    pub seed: u64,
}

/// One layout's measurements.
#[derive(Debug, Clone)]
pub struct LayoutRow {
    /// `"flat"` or `"log"`.
    pub layout: &'static str,
    /// How lookup keys were drawn: `"uniform"` or `"hot-window"`.
    pub lookup_mode: &'static str,
    /// Wall-clock seconds for the write phase.
    pub write_s: f64,
    /// Wall-clock seconds for the cold open (index rebuild).
    pub open_s: f64,
    /// Wall-clock seconds for the lookup phase.
    pub lookup_s: f64,
    /// Entries persisted per second.
    pub writes_per_s: f64,
    /// Entries indexed per second during the cold open.
    pub open_entries_per_s: f64,
    /// Loads served per second.
    pub lookups_per_s: f64,
    /// Total on-disk bytes after the write phase.
    pub bytes: u64,
    /// Files on disk after the write phase (entries + metadata).
    pub files: usize,
}

/// The whole run: both layouts over identical keys and payload.
#[derive(Debug, Clone)]
pub struct StoreBench {
    /// Certificates written per layout.
    pub entries: usize,
    /// Timed loads per layout.
    pub lookups: usize,
    /// Key-stream seed.
    pub seed: u64,
    /// The flat one-file-per-certificate baseline.
    pub flat: LayoutRow,
    /// The log-structured store.
    pub log: LayoutRow,
    /// Whether the two stores served byte-identical certificate sets.
    pub cert_sets_match: bool,
}

impl StoreBench {
    /// Log write throughput over flat write throughput.
    pub fn write_speedup(&self) -> f64 {
        ratio(self.log.writes_per_s, self.flat.writes_per_s)
    }

    /// Log open throughput over flat open throughput.
    pub fn open_speedup(&self) -> f64 {
        ratio(self.log.open_entries_per_s, self.flat.open_entries_per_s)
    }

    /// Log warm-lookup throughput over flat lookup throughput.
    pub fn lookup_speedup(&self) -> f64 {
        ratio(self.log.lookups_per_s, self.flat.lookups_per_s)
    }

    /// Whole-workload throughput ratio: total flat wall-clock for the
    /// open+lookup+write run over the log store's total.
    pub fn overall_speedup(&self) -> f64 {
        ratio(
            self.flat.write_s + self.flat.open_s + self.flat.lookup_s,
            self.log.write_s + self.log.open_s + self.log.lookup_s,
        )
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The `i`-th synthetic key of the stream: one fixed program/options
/// pair, property fingerprints spread by a splitmix-style constant so
/// the shard hash sees well-distributed bits.
fn key_at(seed: u64, i: u64) -> Key {
    (
        Fp(0xB5EED ^ seed),
        Fp(i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i) | 1),
        Fp(0x0715),
    )
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rx-bench-store-{tag}-{seed}-{}",
        std::process::id()
    ))
}

/// Recursively sums file sizes and counts files under `dir`.
fn disk_usage(dir: &std::path::Path) -> (u64, usize) {
    let (mut bytes, mut files) = (0u64, 0usize);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(meta) = std::fs::metadata(&path) {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}

/// Runs the stress bench: writes, cold-opens and looks up the same
/// workload on both layouts, then diffs their certificate sets.
///
/// # Errors
///
/// Proving the payload certificate, store I/O during the write phases,
/// or a certificate-set mismatch between the layouts.
pub fn run_store_bench(config: &StoreBenchConfig) -> Result<StoreBench, BenchError> {
    let program = parse_program("car", reflex_kernels::car::SOURCE)
        .map_err(|e| BenchError(format!("car kernel parses: {e}")))?;
    let checked = check(&program).map_err(|e| BenchError(format!("car kernel checks: {e}")))?;
    let options = ProverOptions::default();
    let cert = reflex_verify::prove_all(&checked, &options)
        .into_iter()
        .find_map(|(_, o)| o.certificate().cloned())
        .ok_or_else(|| BenchError("the car kernel must prove at least one property".into()))?;
    let entries = config.entries as u64;

    let flat_dir = scratch("flat", config.seed);
    let log_dir = scratch("log", config.seed);
    let _ = std::fs::remove_dir_all(&flat_dir);
    let _ = std::fs::remove_dir_all(&log_dir);

    // Write phases. The flat path writes one atomic fsync-gated file per
    // entry. The log path appends and group-commits, with one final flush
    // standing in for session end.
    let flat_write = {
        std::fs::create_dir_all(&flat_dir).map_err(|e| BenchError(e.to_string()))?;
        let t = Instant::now();
        for i in 0..entries {
            FlatStore::write(&flat_dir, key_at(config.seed, i), &cert)
                .map_err(|e| BenchError(format!("flat write {i}: {e}")))?;
        }
        t.elapsed().as_secs_f64()
    };
    let log_write = {
        let store = ProofStore::open(&log_dir).map_err(|e| BenchError(e.to_string()))?;
        let t = Instant::now();
        for i in 0..entries {
            let (p, f, o) = key_at(config.seed, i);
            store
                .save(p, f, o, &cert)
                .map_err(|e| BenchError(format!("log write {i}: {e}")))?;
        }
        store
            .flush()
            .map_err(|e| BenchError(format!("log flush: {e}")))?;
        t.elapsed().as_secs_f64()
    };

    let (flat_bytes, flat_files) = disk_usage(&flat_dir);
    let (log_bytes, log_files) = disk_usage(&log_dir);

    // Cold opens: the index rebuild a restart pays.
    let t = Instant::now();
    let flat_store = FlatStore::open(&flat_dir).map_err(|e| BenchError(e.to_string()))?;
    let flat_open = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let log_store = ProofStore::open(&log_dir).map_err(|e| BenchError(e.to_string()))?;
    let log_open = t.elapsed().as_secs_f64();

    // Certificate-set diff: every key must round-trip identically from
    // both layouts.
    let mut mismatches = 0usize;
    for i in 0..entries {
        let key = key_at(config.seed, i);
        let (p, f, o) = key;
        if flat_store.load(key).as_ref() != Some(&cert)
            || log_store.load(p, f, o).as_deref() != Some(&cert)
        {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        return Err(BenchError(format!(
            "{mismatches} of {entries} keys failed the flat-vs-log certificate diff"
        )));
    }

    // Lookup phases (fresh opens, so the diff above leaves no hot tier).
    let flat_store = FlatStore::open(&flat_dir).map_err(|e| BenchError(e.to_string()))?;
    let log_store = ProofStore::open(&log_dir).map_err(|e| BenchError(e.to_string()))?;
    let flat_lookup = {
        let mut x = config.seed | 1;
        let t = Instant::now();
        for _ in 0..config.lookups {
            // xorshift64 over the full key range: uniform, cold.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if flat_store.load(key_at(config.seed, x % entries)).is_none() {
                return Err(BenchError("flat lookup missed a written key".into()));
            }
        }
        t.elapsed().as_secs_f64()
    };
    let log_lookup = {
        let window = HOT_WINDOW.min(config.entries) as u64;
        let t = Instant::now();
        for i in 0..config.lookups as u64 {
            let (p, f, o) = key_at(config.seed, i % window);
            if log_store.load(p, f, o).is_none() {
                return Err(BenchError("warm lookup missed a written key".into()));
            }
        }
        t.elapsed().as_secs_f64()
    };

    let _ = std::fs::remove_dir_all(&flat_dir);
    let _ = std::fs::remove_dir_all(&log_dir);

    let row =
        |layout, lookup_mode, write_s: f64, open_s: f64, lookup_s: f64, bytes, files| LayoutRow {
            layout,
            lookup_mode,
            write_s,
            open_s,
            lookup_s,
            writes_per_s: ratio(config.entries as f64, write_s),
            open_entries_per_s: ratio(config.entries as f64, open_s),
            lookups_per_s: ratio(config.lookups as f64, lookup_s),
            bytes,
            files,
        };
    Ok(StoreBench {
        entries: config.entries,
        lookups: config.lookups,
        seed: config.seed,
        flat: row(
            "flat",
            "uniform",
            flat_write,
            flat_open,
            flat_lookup,
            flat_bytes,
            flat_files,
        ),
        log: row(
            "log",
            "hot-window",
            log_write,
            log_open,
            log_lookup,
            log_bytes,
            log_files,
        ),
        cert_sets_match: true,
    })
}

/// Renders the bench as a text table.
pub fn render_store(bench: &StoreBench) -> String {
    let mut out = format!(
        "store stress: {} entries, {} lookups, seed {}\n\
         {:<6} {:>12} {:>14} {:>14} {:>12} {:>8}\n",
        bench.entries,
        bench.lookups,
        bench.seed,
        "layout",
        "writes/s",
        "open entries/s",
        "lookups/s",
        "bytes",
        "files"
    );
    for r in [&bench.flat, &bench.log] {
        out.push_str(&format!(
            "{:<6} {:>12.0} {:>14.0} {:>14.0} {:>12} {:>8}\n",
            r.layout, r.writes_per_s, r.open_entries_per_s, r.lookups_per_s, r.bytes, r.files
        ));
    }
    out.push_str(&format!(
        "speedup (log/flat): write {:.2}x, open {:.2}x, lookup {:.2}x ({} vs {}), \
         overall {:.2}x\n",
        bench.write_speedup(),
        bench.open_speedup(),
        bench.lookup_speedup(),
        bench.log.lookup_mode,
        bench.flat.lookup_mode,
        bench.overall_speedup(),
    ));
    out
}

fn row_json(indent: &str, r: &LayoutRow) -> String {
    format!(
        "{indent}{{\"layout\": \"{}\", \"lookup_mode\": \"{}\", \
         \"write_s\": {:.3}, \"open_s\": {:.3}, \"lookup_s\": {:.3}, \
         \"writes_per_s\": {:.1}, \"open_entries_per_s\": {:.1}, \
         \"lookups_per_s\": {:.1}, \"bytes\": {}, \"files\": {}}}",
        r.layout,
        r.lookup_mode,
        r.write_s,
        r.open_s,
        r.lookup_s,
        r.writes_per_s,
        r.open_entries_per_s,
        r.lookups_per_s,
        r.bytes,
        r.files
    )
}

/// Renders the bench as the `BENCH_store.json` document: the flat
/// baseline and the log-structured rows side by side, with speedups.
pub fn render_store_json(bench: &StoreBench) -> String {
    format!(
        "{{\n  \"suite\": \"store\",\n  \"entries\": {},\n  \"lookups\": {},\n  \
         \"seed\": {},\n  \"cert_sets_match\": {},\n  \"baseline\": [\n{}\n  ],\n  \
         \"optimized\": [\n{}\n  ],\n  \"speedup\": [\n    \
         {{\"write\": {:.2}, \"open\": {:.2}, \"lookup\": {:.2}, \
         \"overall\": {:.2}}}\n  ]\n}}\n",
        bench.entries,
        bench.lookups,
        bench.seed,
        bench.cert_sets_match,
        row_json("    ", &bench.flat),
        row_json("    ", &bench.log),
        bench.write_speedup(),
        bench.open_speedup(),
        bench.lookup_speedup(),
        bench.overall_speedup(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_entry_names_parse_back() {
        let key = (Fp(0xdead), Fp(1), Fp(u64::MAX));
        let path = FlatStore::entry_path(Path::new("."), key);
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
        assert_eq!(parse_entry_name(name), Some(key));
        assert_eq!(parse_entry_name("head-x-y.head"), None);
        assert_eq!(parse_entry_name("junk.cert"), None);
        assert_eq!(
            parse_entry_name(&format!("{}-{}-{}-{}.cert", key.0, key.1, key.2, key.0)),
            None
        );
    }

    #[test]
    fn reduced_run_measures_both_layouts_and_sets_match() {
        let bench = run_store_bench(&StoreBenchConfig {
            entries: 300,
            lookups: 600,
            seed: 7,
        })
        .expect("bench runs");
        assert!(bench.cert_sets_match);
        for r in [&bench.flat, &bench.log] {
            assert!(r.writes_per_s > 0.0, "{}: writes timed", r.layout);
            assert!(r.open_entries_per_s > 0.0, "{}: open timed", r.layout);
            assert!(r.lookups_per_s > 0.0, "{}: lookups timed", r.layout);
            assert!(r.bytes > 0 && r.files > 0, "{}: disk usage", r.layout);
        }
        // The flat layout burns one file (and one fsync) per entry; the
        // log layout needs far fewer files than entries.
        assert!(bench.flat.files >= 300);
        assert!(bench.log.files < 300);
        let json = render_store_json(&bench);
        assert!(json.contains("\"suite\": \"store\""));
        assert!(json.contains("\"cert_sets_match\": true"));
        assert!(render_store(&bench).contains("speedup (log/flat)"));
    }
}
