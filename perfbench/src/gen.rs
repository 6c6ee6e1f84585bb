//! Seeded input generators. The workload seed goes in; kernel sources,
//! the request mix and the edit script come out. The program under test
//! only ever sees these generated inputs.

use reflex_kernels::synth::{self, SynthConfig};
use reflex_rng::{derive, SimRng};
use reflex_service::Request;

/// The expected outcome of one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A certificate the checker accepts.
    Proved,
    /// No certificate: the property does not hold.
    Failed,
}

impl Verdict {
    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Failed => "failed",
        }
    }
}

/// One kernel with the verdict every property must reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Program name.
    pub name: String,
    /// `.rx` source.
    pub source: String,
    /// `(property, verdict)` in declaration order.
    pub expect: Vec<(String, Verdict)>,
}

/// The property that `car` with [`CAR_FALSE_PROPERTY`] appended must fail.
pub const CAR_FALSE_NAME: &str = "InjectedAirbagBeforeCrash";

/// A property of `car` that does not hold: a crash report does not need
/// an airbag deployment before it.
pub const CAR_FALSE_PROPERTY: &str =
    "  InjectedAirbagBeforeCrash:\n    [Send(Airbag(), Deploy())] Enables [Recv(Engine(), Crash())];\n";

/// Declared property names of `source`, in order.
pub fn property_names(name: &str, source: &str) -> Result<Vec<String>, String> {
    let program = reflex_parser::parse_program(name, source).map_err(|e| format!("{name}: {e}"))?;
    Ok(program.properties.iter().map(|p| p.name.clone()).collect())
}

/// A kernel whose every property must prove.
fn provable(name: &str, source: String) -> Kernel {
    let expect = property_names(name, &source)
        .expect("generated and bundled kernels parse")
        .into_iter()
        .map(|p| (p, Verdict::Proved))
        .collect();
    Kernel {
        name: name.to_owned(),
        source,
        expect,
    }
}

/// The seven paper kernels, each expecting exactly its Figure 6 rows to
/// prove.
pub fn paper_kernels() -> Vec<Kernel> {
    reflex_kernels::all_benchmarks()
        .into_iter()
        .map(|b| Kernel {
            name: b.name.to_owned(),
            source: b.source.to_owned(),
            expect: reflex_kernels::figure6::ROWS
                .iter()
                .filter(|r| r.benchmark == b.name)
                .map(|r| (r.property.to_owned(), Verdict::Proved))
                .collect(),
        })
        .collect()
}

/// `car` with one appended property that does not hold.
pub fn car_false() -> Kernel {
    let base = reflex_kernels::car::SOURCE.trim_end();
    let cut = base.rfind('}').expect("car ends with its properties block");
    let source = format!("{}{}}}\n", &base[..cut], CAR_FALSE_PROPERTY);
    let mut k = provable("car", source);
    for (name, verdict) in &mut k.expect {
        if name == CAR_FALSE_NAME {
            *verdict = Verdict::Failed;
        }
    }
    k
}

/// A synth kernel from a preset (or the edit-replay size), provable by
/// construction.
pub fn synth_kernel(config: &SynthConfig) -> Kernel {
    let k = synth::generate(config);
    provable(&k.name, k.source)
}

/// The edit-replay base size: between the `small` (6×2, 24 properties)
/// and `medium` (16×3, 120 properties) presets.
pub fn edit_config(seed: u64) -> SynthConfig {
    SynthConfig {
        components: 8,
        handlers: 2,
        properties: 32,
        high_components: 1,
        seed,
    }
}

/// The seed every workload's synth kernels (and the serve-mix catalog's
/// `Check` items) derive from. It is fixed, not the workload seed: synth
/// kernels of one size differ up to tenfold in cost, so seeded ones would
/// make a run's cost, its median kernel and its set-up time a property of
/// the seed rather than of the program. The workload seed varies the
/// order kernels are proved in, the request order, the arrival schedule
/// and the edit scripts.
const FIXED_INPUT_SEED: u64 = 1;

/// Synth seeds for one workload, derived from `seed`.
pub fn synth_seeds(seed: u64, label: &str, count: usize) -> Vec<u64> {
    let mut rng = SimRng::new(derive(seed, label));
    (0..count).map(|_| rng.below(1 << 30) as u64 + 1).collect()
}

/// prove-cold inputs: the paper kernels, then `synth` small kernels
/// (the same ones for every workload seed).
pub fn prove_cold_inputs(synth: usize) -> Vec<Kernel> {
    let mut v = paper_kernels();
    for s in synth_seeds(FIXED_INPUT_SEED, "prove-cold", synth) {
        let cfg = SynthConfig::preset("small", s).expect("small preset exists");
        v.push(synth_kernel(&cfg));
    }
    v
}

/// `0..n` in a seeded order: a Fisher-Yates shuffle driven by `rng`.
fn shuffled(rng: &mut SimRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// The order prove-cold proves its `n` kernels in, round `round`.
pub fn round_order(seed: u64, round: usize, n: usize) -> Vec<usize> {
    shuffled(&mut SimRng::new(derive(seed, &format!("round-{round}"))), n)
}

/// One entry of the serve-mix catalog.
#[derive(Debug, Clone)]
pub struct MixItem {
    /// Short label for reports.
    pub label: String,
    /// The kernel (for `Check` items, only its name and source are used).
    pub kernel: Kernel,
    /// `true`: a `Verify` request; `false`: a `Check` request.
    pub verify: bool,
    /// Copies of this item in each shuffled bag of the request mix.
    pub weight: usize,
}

impl MixItem {
    /// The wire request for this item.
    pub fn request(&self) -> Request {
        if self.verify {
            Request::Verify {
                name: self.kernel.name.clone(),
                source: self.kernel.source.clone(),
                property: None,
                budget_ms: None,
                budget_nodes: None,
                want_events: false,
                deadline_ms: None,
                idempotency_key: None,
            }
        } else {
            Request::Check {
                name: self.kernel.name.clone(),
                source: self.kernel.source.clone(),
            }
        }
    }
}

/// `small` synth kernels sharing the serve mix's one synth slot. A small
/// kernel costs several times a paper kernel and kernels differ widely,
/// so one kernel per seed would make the mix's cost a lottery; spread
/// over this many, it is nearly the same for every seed.
pub const SERVE_SYNTH_KERNELS: usize = 16;

/// The serve-mix catalog: verify each paper kernel, verify a `small`
/// synth kernel (one slot, shared by [`SERVE_SYNTH_KERNELS`] kernels),
/// verify `car` with a false property, and check two paper kernels.
/// Every slot but the synth one's has the same weight. The catalog is
/// the same for every workload seed (see [`FIXED_INPUT_SEED`]).
pub fn serve_catalog() -> Vec<MixItem> {
    let seed = FIXED_INPUT_SEED;
    let slot = SERVE_SYNTH_KERNELS;
    let mut items: Vec<MixItem> = paper_kernels()
        .into_iter()
        .map(|k| MixItem {
            label: format!("verify:{}", k.name),
            kernel: k,
            verify: true,
            weight: slot,
        })
        .collect();
    for s in synth_seeds(seed, "serve-small", SERVE_SYNTH_KERNELS) {
        let small = synth_kernel(&SynthConfig::preset("small", s).expect("small preset"));
        items.push(MixItem {
            label: "verify:synth-small".into(),
            kernel: small,
            verify: true,
            weight: 1,
        });
    }
    items.push(MixItem {
        label: "verify:car+false".into(),
        kernel: car_false(),
        verify: true,
        weight: slot,
    });
    let papers = paper_kernels();
    let mut rng = SimRng::new(derive(seed, "serve-check"));
    for _ in 0..2 {
        let k = papers[rng.below(papers.len())].clone();
        items.push(MixItem {
            label: format!("check:{}", k.name),
            kernel: k,
            verify: false,
            weight: slot,
        });
    }
    items
}

/// The request order one connection (or the open-loop sender) follows:
/// `len` catalog indices from stream `stream` of `seed`. Indices come
/// from shuffled bags that hold each item `weight` times, so every stretch
/// of a bag's length has the same mix and only the order depends on the
/// seed.
pub fn request_sequence(seed: u64, stream: &str, catalog: &[MixItem], len: usize) -> Vec<usize> {
    let mut rng = SimRng::new(derive(seed, stream));
    let bag: Vec<usize> = catalog
        .iter()
        .enumerate()
        .flat_map(|(i, item)| std::iter::repeat_n(i, item.weight))
        .collect();
    let mut seq = Vec::with_capacity(len + bag.len());
    while seq.len() < len {
        seq.extend(shuffled(&mut rng, bag.len()).into_iter().map(|j| bag[j]));
    }
    seq.truncate(len);
    seq
}

/// Open-loop arrival offsets (ns from the phase start) for `count`
/// requests at `rate` per second: a seeded Poisson process.
pub fn arrivals_ns(seed: u64, stream: &str, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = SimRng::new(derive(seed, stream));
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1] from 30 random bits.
            let u = (rng.below(1 << 30) as f64 + 1.0) / f64::from(1u32 << 30);
            t += -u.ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// What an edit does to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A comment line is added: same program, exact store hit.
    Comment,
    /// One property's bound variable is renamed.
    Rename,
    /// A forwarding handler and its property are appended (in the style
    /// of `synth::generate_variant`): most properties re-prove.
    Append,
    /// Back to an earlier version: every certificate is in the store.
    Revert,
}

impl EditKind {
    /// Every kind, in report order.
    pub const ALL: [EditKind; 4] = [
        EditKind::Comment,
        EditKind::Rename,
        EditKind::Append,
        EditKind::Revert,
    ];

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            EditKind::Comment => "comment",
            EditKind::Rename => "rename",
            EditKind::Append => "append",
            EditKind::Revert => "revert",
        }
    }
}

/// Edit kinds per bag of twenty. No measured edit distribution exists
/// for reflex, so this is an assumption: each of the four kinds gets the
/// same share, favouring neither the store-hit path (comment, revert)
/// nor the re-prove path (rename, append).
const EDIT_MIX: [(EditKind, usize); 4] = [
    (EditKind::Comment, 5),
    (EditKind::Rename, 5),
    (EditKind::Append, 5),
    (EditKind::Revert, 5),
];

/// One step of the edit script: the kind and the full source after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// What changed.
    pub kind: EditKind,
    /// The whole kernel after the edit.
    pub source: String,
}

/// `kernels` base kernels, each with `len` seeded edits of its own: a
/// workspace of files edited in turn. The base kernels are the same for
/// every seed (see [`FIXED_INPUT_SEED`]); the edits depend on it.
pub fn edit_scripts(seed: u64, kernels: usize, len: usize) -> Vec<(Kernel, Vec<Edit>)> {
    (0..kernels)
        .map(|k| edit_script(edit_base(k), derive(seed, &format!("edit-file-{k}")), len))
        .collect()
}

/// The `k`-th base kernel of the edit-replay workspace.
pub fn edit_base(k: usize) -> Kernel {
    let label = format!("edit-base-{k}");
    synth_kernel(&edit_config(synth_seeds(FIXED_INPUT_SEED, &label, 1)[0]))
}

/// `len` seeded edits over `base`.
pub fn edit_script(base: Kernel, seed: u64, len: usize) -> (Kernel, Vec<Edit>) {
    let mut rng = SimRng::new(derive(seed, "edit-script"));
    let mut history: Vec<String> = vec![base.source.clone()];
    let mut current = base.source.clone();
    let (mut comments, mut renames, mut appends) = (0u32, 0u32, 0u32);
    let mut edits = Vec::with_capacity(len);
    let mut bag: Vec<EditKind> = Vec::new();
    for _ in 0..len {
        // Kinds come from a shuffled bag of twenty (`EDIT_MIX`), so
        // every run replays the same mix and only the order depends on
        // the seed: the median edit sits between the hit and re-prove
        // costs, and would move with the mix.
        if bag.is_empty() {
            bag = EDIT_MIX
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            for i in (1..bag.len()).rev() {
                bag.swap(i, rng.below(i + 1));
            }
        }
        let kind = bag.pop().expect("the bag was just refilled");
        let next = match kind {
            EditKind::Comment => {
                comments += 1;
                format!("// edit {comments}: reviewed\n{current}")
            }
            EditKind::Rename => {
                renames += 1;
                rename_one(&current, &mut rng, &format!("r{renames}"))
            }
            EditKind::Append => {
                let v = appends;
                appends += 1;
                append_forward(&current, v)
            }
            EditKind::Revert => {
                // Any earlier version but the current one.
                let options: Vec<&String> = history.iter().filter(|s| **s != current).collect();
                if options.is_empty() {
                    current.clone()
                } else {
                    options[rng.below(options.len())].clone()
                }
            }
        };
        if !history.contains(&next) {
            history.push(next.clone());
        }
        current = next;
        edits.push(Edit {
            kind,
            source: current.clone(),
        });
    }
    (base, edits)
}

/// Renames the bound variable of one `forall` property to `fresh`.
fn rename_one(src: &str, rng: &mut SimRng, fresh: &str) -> String {
    let props_at = src.find("properties {").unwrap_or(0);
    let headers: Vec<usize> = src[props_at..]
        .match_indices(": forall ")
        .map(|(i, _)| props_at + i)
        .collect();
    if headers.is_empty() {
        return src.to_owned();
    }
    let at = headers[rng.below(headers.len())];
    let var_start = at + ": forall ".len();
    let var_len = src[var_start..]
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(0);
    let var = &src[var_start..var_start + var_len];
    let end = at + src[at..].find(';').map_or(src.len() - at, |i| i + 1);
    let body = replace_word(&src[at..end], var, fresh);
    format!("{}{}{}", &src[..at], body, &src[end..])
}

/// Replaces whole-identifier occurrences of `word` in `text`.
fn replace_word(text: &str, word: &str, with: &str) -> String {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find(word) {
        let before = rest[..i]
            .chars()
            .next_back()
            .or_else(|| out.chars().next_back());
        let after = rest[i + word.len()..].chars().next();
        out.push_str(&rest[..i]);
        if before.is_none_or(|c| !ident(c)) && after.is_none_or(|c| !ident(c)) {
            out.push_str(with);
        } else {
            out.push_str(word);
        }
        rest = &rest[i + word.len()..];
    }
    out.push_str(rest);
    out
}

/// Appends `EditIn{v}`/`EditOut{v}`, a `C0` handler forwarding one to
/// the other, and its `Ensures` property.
fn append_forward(src: &str, v: u32) -> String {
    let insert_before = |s: &str, marker: &str, text: &str| -> String {
        let at = s.find(marker).expect("synth kernels have every section");
        format!("{}{}{}", &s[..at], text, &s[at..])
    };
    let s = insert_before(
        src,
        "}\n\nstate {",
        &format!("  EditIn{v}();\n  EditOut{v}();\n"),
    );
    let s = insert_before(
        &s,
        "}\n\nproperties {",
        &format!("  when C0:EditIn{v}() {{\n    send(K1, EditOut{v}());\n  }}\n"),
    );
    let cut = s
        .trim_end()
        .rfind('}')
        .expect("kernel ends with its properties block");
    format!(
        "{}  EditEnsures{v}:\n    [Recv(C0(), EditIn{v}())] Ensures [Send(C1(), EditOut{v}())];\n}}\n",
        &s[..cut]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_a_function_of_the_seed() {
        let a = serve_catalog();
        let b = serve_catalog();
        assert_eq!(
            a.iter().map(|i| &i.kernel).collect::<Vec<_>>(),
            b.iter().map(|i| &i.kernel).collect::<Vec<_>>()
        );
        assert_eq!(
            request_sequence(7, "conn-0", &a, 500),
            request_sequence(7, "conn-0", &a, 500)
        );
        assert_ne!(
            request_sequence(7, "conn-0", &a, 500),
            request_sequence(8, "conn-0", &a, 500)
        );
        assert_eq!(
            arrivals_ns(7, "open", 100.0, 50),
            arrivals_ns(7, "open", 100.0, 50)
        );
        // Every catalog entry shows up in a long sequence.
        let seq = request_sequence(3, "conn-1", &a, 20_000);
        assert!((0..a.len()).all(|i| seq.contains(&i)));
        // The synth kernels share one slot: about 1 request in 11.
        let synth = seq
            .iter()
            .filter(|&&i| a[i].label == "verify:synth-small")
            .count();
        assert!((1400..2300).contains(&synth), "{synth}");
        // Every bag-long stretch from the start holds each item `weight`
        // times: only the order depends on the seed.
        let bag: usize = a.iter().map(|i| i.weight).sum();
        for chunk in seq.chunks_exact(bag) {
            for (i, item) in a.iter().enumerate() {
                assert_eq!(chunk.iter().filter(|&&j| j == i).count(), item.weight);
            }
        }
    }

    #[test]
    fn prove_cold_corpus_is_fixed_and_its_order_seeded() {
        assert_eq!(prove_cold_inputs(4), prove_cold_inputs(4));
        let order = round_order(7, 0, 31);
        assert_eq!(order, round_order(7, 0, 31));
        assert_ne!(order, round_order(8, 0, 31));
        assert_ne!(order, round_order(7, 1, 31));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..31).collect::<Vec<_>>());
    }

    #[test]
    fn catalog_has_the_paper_kernels_small_synth_false_car_and_checks() {
        let c = serve_catalog();
        assert_eq!(
            c.iter().filter(|i| i.verify).count(),
            8 + SERVE_SYNTH_KERNELS
        );
        assert_eq!(c.iter().filter(|i| !i.verify).count(), 2);
        let fals = c.iter().find(|i| i.label == "verify:car+false").unwrap();
        let failed: Vec<_> = fals
            .kernel
            .expect
            .iter()
            .filter(|(_, v)| *v == Verdict::Failed)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, CAR_FALSE_NAME);
        let paper: usize = paper_kernels().iter().map(|k| k.expect.len()).sum();
        assert_eq!(paper, 41);
        // Figure 6 names exactly the properties each kernel declares.
        for k in paper_kernels() {
            let mut declared = property_names(&k.name, &k.source).unwrap();
            let mut rows: Vec<String> = k.expect.iter().map(|(p, _)| p.clone()).collect();
            declared.sort();
            rows.sort();
            assert_eq!(declared, rows, "{}", k.name);
        }
    }

    #[test]
    fn edit_script_is_a_function_of_the_seed() {
        let (base_a, a) = edit_script(edit_base(0), 11, 120);
        let (base_b, b) = edit_script(edit_base(0), 11, 120);
        assert_eq!(base_a, base_b);
        assert_eq!(a, b);
        let (_, c) = edit_script(edit_base(0), 12, 120);
        assert_ne!(a, c);
        let files = edit_scripts(11, 3, 10);
        assert_eq!(files, edit_scripts(11, 3, 10));
        assert_ne!(files[0].0, files[1].0);
        // Every bag of twenty holds the fixed mix.
        for (kind, n) in EDIT_MIX {
            let got = a[..100].iter().filter(|e| e.kind == kind).count();
            assert_eq!(got, 5 * n, "{kind:?}");
        }
    }

    #[test]
    fn every_edited_source_parses_and_typechecks() {
        let (base, edits) = edit_script(edit_base(1), 5, 60);
        for (i, e) in std::iter::once(&base.source)
            .chain(edits.iter().map(|e| &e.source))
            .enumerate()
        {
            let p = reflex_parser::parse_program(&base.name, e)
                .unwrap_or_else(|err| panic!("edit {i}: {err}\n{e}"));
            reflex_typeck::check(&p).unwrap_or_else(|err| panic!("edit {i}: {err}"));
        }
    }

    #[test]
    fn edits_do_what_they_say() {
        let (base, edits) = edit_script(edit_base(2), 2, 80);
        let fp = |src: &str| {
            let p = reflex_parser::parse_program(&base.name, src).unwrap();
            reflex_typeck::check(&p).unwrap().fingerprints().clone()
        };
        let mut prev = base.source.clone();
        for e in &edits {
            let (a, b) = (fp(&prev), fp(&e.source));
            match e.kind {
                EditKind::Comment => {
                    assert_eq!(a.program, b.program, "comment changed the program")
                }
                EditKind::Rename => assert_ne!(prev, e.source),
                EditKind::Append => assert_ne!(a.program, b.program),
                EditKind::Revert => {}
            }
            prev = e.source.clone();
        }
    }

    #[test]
    fn replace_word_respects_identifier_boundaries() {
        assert_eq!(
            replace_word("forall u: str. [T(u)] Ensures [F(u, uu)]", "u", "r1"),
            "forall r1: str. [T(r1)] Ensures [F(r1, uu)]"
        );
    }
}
