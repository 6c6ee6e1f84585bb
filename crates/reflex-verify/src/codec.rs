//! The deterministic binary codec: the proof store's certificate,
//! head and manifest payloads and the `rxd` wire protocol's payloads all
//! go through [`Enc`] and [`Dec`].
//!
//! Little-endian fixed-width integers; strings as u32 length + UTF-8
//! bytes; sequences as u32 length + elements; enums as a u8 tag + payload.
//! The encoder writes exactly what the decoder reads — no padding, no
//! timestamps — so equal values produce equal bytes, which is what makes
//! the store content-addressed: concurrent writers racing on one key
//! write identical frames, and serial vs `--jobs N` stores stay
//! byte-identical.
//!
//! Decoding rebuilds the exact stored structure (terms are re-interned
//! without re-simplification), so round-tripping is the identity; any
//! truncation, trailing garbage or tag mismatch decodes to `None`, which
//! the store reports as a cache miss.

use reflex_ast::fingerprint::Fp;
use reflex_ast::{ActionPat, CompPat, PatField, Ty, Value};
use reflex_symbolic::{SymKind, SymVar, Term, TermRef};

use crate::canon::Guard;
use crate::certificate::{
    CaseCert, Certificate, CompOriginRef, DepSet, InvCaseCert, InvPathJust, InvariantCert,
    Justification, LemmaCert, NegPrior, NegPriorStep, NiCaseCert, NiCert, PathCert, TraceCert,
};

/// Append-only encoder: little-endian fixed-width integers, `u32`
/// length prefixes, no padding. Shared by the proof store and the `rxd`
/// wire protocol, so both formats have exactly one writer.
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[inline]
    pub fn new() -> Enc {
        Enc::default()
    }
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `i64`.
    #[inline]
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends a sequence or byte length as a `u32`.
    ///
    /// # Panics
    ///
    /// If `v` does not fit in a `u32`.
    #[inline]
    pub fn len(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("sequence fits in u32"));
    }
    /// Appends a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Appends a byte string with a `u32` length prefix.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }
    /// Appends a UTF-8 string with a `u32` byte-length prefix.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    /// Appends a fingerprint as its `u64`.
    #[inline]
    pub(crate) fn fp(&mut self, fp: Fp) {
        self.u64(fp.0);
    }
    /// Appends an optional `u64` (presence byte, then the value).
    #[inline]
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(n) => {
                self.u8(1);
                self.u64(n);
            }
        }
    }
    /// Appends an optional `usize`, widened to `u64`.
    #[inline]
    pub(crate) fn opt_usize(&mut self, v: Option<usize>) {
        self.opt_u64(v.map(|n| n as u64));
    }
    /// Appends an optional string (presence byte, then the string).
    #[inline]
    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

/// Checked decoder over a byte slice: every accessor returns `None` on
/// truncation or an invalid tag, so hostile input can never index out
/// of bounds or panic.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    #[inline]
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// Reads an `i64`.
    #[inline]
    pub(crate) fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    /// Reads a sequence or byte length.
    #[inline]
    pub fn len(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        // A declared length can never exceed the remaining bytes (every
        // element is at least one byte): reject early so corrupt lengths
        // cannot trigger huge allocations.
        (n <= self.buf.len() - self.pos).then_some(n)
    }
    /// Reads a `bool`; any byte other than 0/1 is invalid.
    #[inline]
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    /// Reads a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.len()?;
        self.take(n)
    }
    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
    /// Reads a fingerprint.
    #[inline]
    pub(crate) fn fp(&mut self) -> Option<Fp> {
        Some(Fp(self.u64()?))
    }
    /// Reads a `u64` that must fit in a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    /// Reads an optional `u64`.
    #[inline]
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }
    /// Reads an optional `usize`.
    #[inline]
    pub(crate) fn opt_usize(&mut self) -> Option<Option<usize>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.usize()?)),
            _ => None,
        }
    }
    /// Reads an optional string.
    #[inline]
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }
    /// Whether every byte has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
    /// Succeeds only when every byte was consumed: trailing garbage is
    /// corruption.
    #[inline]
    pub fn finish(&self) -> Option<()> {
        self.is_empty().then_some(())
    }
}

fn enc_ty(e: &mut Enc, ty: Ty) {
    e.u8(match ty {
        Ty::Bool => 0,
        Ty::Num => 1,
        Ty::Str => 2,
        Ty::Fdesc => 3,
        Ty::Comp => 4,
    });
}

fn dec_ty(d: &mut Dec) -> Option<Ty> {
    Some(match d.u8()? {
        0 => Ty::Bool,
        1 => Ty::Num,
        2 => Ty::Str,
        3 => Ty::Fdesc,
        4 => Ty::Comp,
        _ => return None,
    })
}

fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Bool(b) => {
            e.u8(0);
            e.bool(*b);
        }
        Value::Num(n) => {
            e.u8(1);
            e.i64(*n);
        }
        Value::Str(s) => {
            e.u8(2);
            e.str(s);
        }
        Value::Fdesc(fd) => {
            e.u8(3);
            e.u64(fd.raw());
        }
        Value::Comp(id) => {
            e.u8(4);
            e.u64(id.raw());
        }
    }
}

fn dec_value(d: &mut Dec) -> Option<Value> {
    Some(match d.u8()? {
        0 => Value::Bool(d.bool()?),
        1 => Value::Num(d.i64()?),
        2 => Value::Str(d.str()?),
        3 => Value::Fdesc(reflex_ast::Fdesc::new(d.u64()?)),
        4 => Value::Comp(reflex_ast::CompId::new(d.u64()?)),
        _ => return None,
    })
}

fn enc_sym(e: &mut Enc, s: &SymVar) {
    e.u32(s.id);
    enc_ty(e, s.ty);
    match &s.kind {
        SymKind::StateVar(n) => {
            e.u8(0);
            e.str(n);
        }
        SymKind::Param(n) => {
            e.u8(1);
            e.str(n);
        }
        SymKind::SenderCfg(i) => {
            e.u8(2);
            e.u64(*i as u64);
        }
        SymKind::LookupCfg(i) => {
            e.u8(3);
            e.u64(*i as u64);
        }
        SymKind::CallResult(f) => {
            e.u8(4);
            e.str(f);
        }
        SymKind::CompId => e.u8(5),
        SymKind::PropVar(n) => {
            e.u8(6);
            e.str(n);
        }
        SymKind::Fresh => e.u8(7),
    }
}

fn dec_sym(d: &mut Dec) -> Option<SymVar> {
    let id = d.u32()?;
    let ty = dec_ty(d)?;
    let kind = match d.u8()? {
        0 => SymKind::StateVar(d.str()?),
        1 => SymKind::Param(d.str()?),
        2 => SymKind::SenderCfg(d.usize()?),
        3 => SymKind::LookupCfg(d.usize()?),
        4 => SymKind::CallResult(d.str()?),
        5 => SymKind::CompId,
        6 => SymKind::PropVar(d.str()?),
        7 => SymKind::Fresh,
        _ => return None,
    };
    Some(SymVar { id, ty, kind })
}

fn enc_term(e: &mut Enc, t: &Term) {
    match t {
        Term::Lit(v) => {
            e.u8(0);
            enc_value(e, v);
        }
        Term::Sym(s) => {
            e.u8(1);
            enc_sym(e, s);
        }
        Term::Un(op, inner) => {
            e.u8(2);
            e.u8(match op {
                reflex_ast::UnOp::Not => 0,
                reflex_ast::UnOp::Neg => 1,
            });
            enc_term(e, inner);
        }
        Term::Bin(op, l, r) => {
            e.u8(3);
            e.u8(bin_op_tag(*op));
            enc_term(e, l);
            enc_term(e, r);
        }
    }
}

fn bin_op_tag(op: reflex_ast::BinOp) -> u8 {
    use reflex_ast::BinOp as B;
    match op {
        B::Eq => 0,
        B::Ne => 1,
        B::And => 2,
        B::Or => 3,
        B::Add => 4,
        B::Sub => 5,
        B::Lt => 6,
        B::Le => 7,
        B::Cat => 8,
    }
}

fn dec_bin_op(tag: u8) -> Option<reflex_ast::BinOp> {
    use reflex_ast::BinOp as B;
    Some(match tag {
        0 => B::Eq,
        1 => B::Ne,
        2 => B::And,
        3 => B::Or,
        4 => B::Add,
        5 => B::Sub,
        6 => B::Lt,
        7 => B::Le,
        8 => B::Cat,
        _ => return None,
    })
}

/// Decodes a term, rebuilding the *exact* stored tree. Compound nodes are
/// re-interned via [`TermRef::new`] directly — not through the normalizing
/// [`Term::bin`]/[`Term::un`] constructors — because the stored tree was
/// already normalized at prove time and must round-trip unchanged for the
/// byte-identity guarantees to hold.
fn dec_term(d: &mut Dec) -> Option<Term> {
    Some(match d.u8()? {
        0 => Term::Lit(dec_value(d)?),
        1 => Term::Sym(dec_sym(d)?),
        2 => {
            let op = match d.u8()? {
                0 => reflex_ast::UnOp::Not,
                1 => reflex_ast::UnOp::Neg,
                _ => return None,
            };
            Term::Un(op, TermRef::new(dec_term(d)?))
        }
        3 => {
            let op = dec_bin_op(d.u8()?)?;
            let l = dec_term(d)?;
            let r = dec_term(d)?;
            Term::Bin(op, TermRef::new(l), TermRef::new(r))
        }
        _ => return None,
    })
}

fn enc_pat_field(e: &mut Enc, f: &PatField) {
    match f {
        PatField::Lit(v) => {
            e.u8(0);
            enc_value(e, v);
        }
        PatField::Var(n) => {
            e.u8(1);
            e.str(n);
        }
        PatField::Any => e.u8(2),
    }
}

fn dec_pat_field(d: &mut Dec) -> Option<PatField> {
    Some(match d.u8()? {
        0 => PatField::Lit(dec_value(d)?),
        1 => PatField::Var(d.str()?),
        2 => PatField::Any,
        _ => return None,
    })
}

fn enc_pat_fields(e: &mut Enc, fs: &[PatField]) {
    e.len(fs.len());
    for f in fs {
        enc_pat_field(e, f);
    }
}

fn dec_pat_fields(d: &mut Dec) -> Option<Vec<PatField>> {
    let n = d.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(dec_pat_field(d)?);
    }
    Some(out)
}

fn enc_comp_pat(e: &mut Enc, c: &CompPat) {
    match &c.ctype {
        None => e.u8(0),
        Some(t) => {
            e.u8(1);
            e.str(t);
        }
    }
    match &c.config {
        None => e.u8(0),
        Some(fs) => {
            e.u8(1);
            enc_pat_fields(e, fs);
        }
    }
}

fn dec_comp_pat(d: &mut Dec) -> Option<CompPat> {
    let ctype = match d.u8()? {
        0 => None,
        1 => Some(d.str()?),
        _ => return None,
    };
    let config = match d.u8()? {
        0 => None,
        1 => Some(dec_pat_fields(d)?),
        _ => return None,
    };
    Some(CompPat { ctype, config })
}

fn enc_action_pat(e: &mut Enc, p: &ActionPat) {
    match p {
        ActionPat::Select { comp } => {
            e.u8(0);
            enc_comp_pat(e, comp);
        }
        ActionPat::Recv { comp, msg, args } => {
            e.u8(1);
            enc_comp_pat(e, comp);
            e.str(msg);
            enc_pat_fields(e, args);
        }
        ActionPat::Send { comp, msg, args } => {
            e.u8(2);
            enc_comp_pat(e, comp);
            e.str(msg);
            enc_pat_fields(e, args);
        }
        ActionPat::Spawn { comp } => {
            e.u8(3);
            enc_comp_pat(e, comp);
        }
        ActionPat::Call { func, args, result } => {
            e.u8(4);
            e.str(func);
            match args {
                None => e.u8(0),
                Some(fs) => {
                    e.u8(1);
                    enc_pat_fields(e, fs);
                }
            }
            enc_pat_field(e, result);
        }
    }
}

fn dec_action_pat(d: &mut Dec) -> Option<ActionPat> {
    Some(match d.u8()? {
        0 => ActionPat::Select {
            comp: dec_comp_pat(d)?,
        },
        1 => ActionPat::Recv {
            comp: dec_comp_pat(d)?,
            msg: d.str()?,
            args: dec_pat_fields(d)?,
        },
        2 => ActionPat::Send {
            comp: dec_comp_pat(d)?,
            msg: d.str()?,
            args: dec_pat_fields(d)?,
        },
        3 => ActionPat::Spawn {
            comp: dec_comp_pat(d)?,
        },
        4 => {
            let func = d.str()?;
            let args = match d.u8()? {
                0 => None,
                1 => Some(dec_pat_fields(d)?),
                _ => return None,
            };
            let result = dec_pat_field(d)?;
            ActionPat::Call { func, args, result }
        }
        _ => return None,
    })
}

fn enc_guard(e: &mut Enc, g: &Guard) {
    e.len(g.atoms.len());
    for (t, pol) in &g.atoms {
        enc_term(e, t);
        e.bool(*pol);
    }
}

fn dec_guard(d: &mut Dec) -> Option<Guard> {
    let n = d.len()?;
    let mut atoms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = dec_term(d)?;
        let pol = d.bool()?;
        atoms.push((t, pol));
    }
    // Direct construction: the stored atom order is the canonical one.
    Some(Guard { atoms })
}

fn enc_justification(e: &mut Enc, j: &Justification) {
    match j {
        Justification::Refuted => e.u8(0),
        Justification::Witness { index } => {
            e.u8(1);
            e.u64(*index as u64);
        }
        Justification::Invariant { inv_id } => {
            e.u8(2);
            e.u64(*inv_id as u64);
        }
        Justification::NoMatch { prior } => {
            e.u8(3);
            match prior {
                NegPrior::EmptyTrace => e.u8(0),
                NegPrior::Invariant { inv_id } => {
                    e.u8(1);
                    e.u64(*inv_id as u64);
                }
                NegPrior::MissedLookup { lookup_index } => {
                    e.u8(2);
                    e.u64(*lookup_index as u64);
                }
            }
        }
        Justification::ViaCompOrigin { origin, lemma_id } => {
            e.u8(4);
            match origin {
                CompOriginRef::Sender => e.u8(0),
                CompOriginRef::Lookup { index } => {
                    e.u8(1);
                    e.u64(*index as u64);
                }
            }
            e.opt_usize(*lemma_id);
        }
    }
}

fn dec_justification(d: &mut Dec) -> Option<Justification> {
    Some(match d.u8()? {
        0 => Justification::Refuted,
        1 => Justification::Witness { index: d.usize()? },
        2 => Justification::Invariant { inv_id: d.usize()? },
        3 => {
            let prior = match d.u8()? {
                0 => NegPrior::EmptyTrace,
                1 => NegPrior::Invariant { inv_id: d.usize()? },
                2 => NegPrior::MissedLookup {
                    lookup_index: d.usize()?,
                },
                _ => return None,
            };
            Justification::NoMatch { prior }
        }
        4 => {
            let origin = match d.u8()? {
                0 => CompOriginRef::Sender,
                1 => CompOriginRef::Lookup { index: d.usize()? },
                _ => return None,
            };
            let lemma_id = d.opt_usize()?;
            Justification::ViaCompOrigin { origin, lemma_id }
        }
        _ => return None,
    })
}

fn enc_path_cert(e: &mut Enc, p: &PathCert) {
    e.len(p.obligations.len());
    for (idx, j) in &p.obligations {
        e.u64(*idx as u64);
        enc_justification(e, j);
    }
}

fn dec_path_cert(d: &mut Dec) -> Option<PathCert> {
    let n = d.len()?;
    let mut obligations = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = d.usize()?;
        let j = dec_justification(d)?;
        obligations.push((idx, j));
    }
    Some(PathCert { obligations })
}

fn enc_inv_path_just(e: &mut Enc, j: &InvPathJust) {
    match j {
        InvPathJust::GuardUnsat => e.u8(0),
        InvPathJust::Preserved => e.u8(1),
        InvPathJust::Witness { index } => {
            e.u8(2);
            e.u64(*index as u64);
        }
        InvPathJust::ViaInvariant { inv_id } => {
            e.u8(3);
            e.u64(*inv_id as u64);
        }
        InvPathJust::NegativeOk { prior } => {
            e.u8(4);
            match prior {
                NegPriorStep::Ih => e.u8(0),
                NegPriorStep::Invariant { inv_id } => {
                    e.u8(1);
                    e.u64(*inv_id as u64);
                }
                NegPriorStep::EmptyTrace => e.u8(2),
            }
        }
    }
}

fn dec_inv_path_just(d: &mut Dec) -> Option<InvPathJust> {
    Some(match d.u8()? {
        0 => InvPathJust::GuardUnsat,
        1 => InvPathJust::Preserved,
        2 => InvPathJust::Witness { index: d.usize()? },
        3 => InvPathJust::ViaInvariant { inv_id: d.usize()? },
        4 => {
            let prior = match d.u8()? {
                0 => NegPriorStep::Ih,
                1 => NegPriorStep::Invariant { inv_id: d.usize()? },
                2 => NegPriorStep::EmptyTrace,
                _ => return None,
            };
            InvPathJust::NegativeOk { prior }
        }
        _ => return None,
    })
}

fn enc_invariant(e: &mut Enc, inv: &InvariantCert) {
    e.len(inv.vars.len());
    for (name, ty) in &inv.vars {
        e.str(name);
        enc_ty(e, *ty);
    }
    enc_guard(e, &inv.guard);
    enc_action_pat(e, &inv.pattern);
    e.bool(inv.positive);
    e.len(inv.base.len());
    for j in &inv.base {
        enc_inv_path_just(e, j);
    }
    e.len(inv.cases.len());
    for c in &inv.cases {
        e.str(&c.ctype);
        e.str(&c.msg);
        e.bool(c.skipped);
        e.len(c.paths.len());
        for j in &c.paths {
            enc_inv_path_just(e, j);
        }
    }
}

fn dec_invariant(d: &mut Dec) -> Option<InvariantCert> {
    let nv = d.len()?;
    let mut vars = Vec::with_capacity(nv);
    for _ in 0..nv {
        let name = d.str()?;
        let ty = dec_ty(d)?;
        vars.push((name, ty));
    }
    let guard = dec_guard(d)?;
    let pattern = dec_action_pat(d)?;
    let positive = d.bool()?;
    let nb = d.len()?;
    let mut base = Vec::with_capacity(nb);
    for _ in 0..nb {
        base.push(dec_inv_path_just(d)?);
    }
    let nc = d.len()?;
    let mut cases = Vec::with_capacity(nc);
    for _ in 0..nc {
        let ctype = d.str()?;
        let msg = d.str()?;
        let skipped = d.bool()?;
        let np = d.len()?;
        let mut paths = Vec::with_capacity(np);
        for _ in 0..np {
            paths.push(dec_inv_path_just(d)?);
        }
        cases.push(InvCaseCert {
            ctype,
            msg,
            skipped,
            paths,
        });
    }
    Some(InvariantCert {
        vars,
        guard,
        pattern,
        positive,
        base,
        cases,
    })
}

fn enc_dep_set(e: &mut Enc, deps: &DepSet) {
    e.fp(deps.decls);
    e.fp(deps.property);
    e.fp(deps.ranges);
    e.len(deps.handlers.len());
    for (ctype, msg, fp) in &deps.handlers {
        e.str(ctype);
        e.str(msg);
        e.fp(*fp);
    }
    e.len(deps.syntactic_only.len());
    for (ctype, msg) in &deps.syntactic_only {
        e.str(ctype);
        e.str(msg);
    }
}

fn dec_dep_set(d: &mut Dec) -> Option<DepSet> {
    let decls = d.fp()?;
    let property = d.fp()?;
    let ranges = d.fp()?;
    let nh = d.len()?;
    let mut handlers = Vec::with_capacity(nh);
    for _ in 0..nh {
        let ctype = d.str()?;
        let msg = d.str()?;
        let fp = d.fp()?;
        handlers.push((ctype, msg, fp));
    }
    let ns = d.len()?;
    let mut syntactic_only = Vec::with_capacity(ns);
    for _ in 0..ns {
        let ctype = d.str()?;
        let msg = d.str()?;
        syntactic_only.push((ctype, msg));
    }
    Some(DepSet {
        decls,
        property,
        ranges,
        handlers,
        syntactic_only,
    })
}

fn enc_trace_cert(e: &mut Enc, t: &TraceCert) {
    e.str(&t.property);
    e.len(t.base.len());
    for p in &t.base {
        enc_path_cert(e, p);
    }
    e.len(t.cases.len());
    for c in &t.cases {
        e.str(&c.ctype);
        e.str(&c.msg);
        e.bool(c.skipped);
        e.len(c.paths.len());
        for p in &c.paths {
            enc_path_cert(e, p);
        }
    }
    e.len(t.invariants.len());
    for inv in &t.invariants {
        enc_invariant(e, inv);
    }
    e.len(t.lemmas.len());
    for lemma in &t.lemmas {
        e.len(lemma.vars.len());
        for (name, ty) in &lemma.vars {
            e.str(name);
            enc_ty(e, *ty);
        }
        enc_action_pat(e, &lemma.a);
        enc_action_pat(e, &lemma.b);
        enc_trace_cert(e, &lemma.cert);
    }
    enc_dep_set(e, &t.deps);
}

fn dec_trace_cert(d: &mut Dec) -> Option<TraceCert> {
    let property = d.str()?;
    let nb = d.len()?;
    let mut base = Vec::with_capacity(nb);
    for _ in 0..nb {
        base.push(dec_path_cert(d)?);
    }
    let nc = d.len()?;
    let mut cases = Vec::with_capacity(nc);
    for _ in 0..nc {
        let ctype = d.str()?;
        let msg = d.str()?;
        let skipped = d.bool()?;
        let np = d.len()?;
        let mut paths = Vec::with_capacity(np);
        for _ in 0..np {
            paths.push(dec_path_cert(d)?);
        }
        cases.push(CaseCert {
            ctype,
            msg,
            skipped,
            paths,
        });
    }
    let ni = d.len()?;
    let mut invariants = Vec::with_capacity(ni);
    for _ in 0..ni {
        invariants.push(dec_invariant(d)?);
    }
    let nl = d.len()?;
    let mut lemmas = Vec::with_capacity(nl);
    for _ in 0..nl {
        let nv = d.len()?;
        let mut vars = Vec::with_capacity(nv);
        for _ in 0..nv {
            let name = d.str()?;
            let ty = dec_ty(d)?;
            vars.push((name, ty));
        }
        let a = dec_action_pat(d)?;
        let b = dec_action_pat(d)?;
        let cert = dec_trace_cert(d)?;
        lemmas.push(LemmaCert { vars, a, b, cert });
    }
    let deps = dec_dep_set(d)?;
    Some(TraceCert {
        property,
        base,
        cases,
        invariants,
        lemmas,
        deps,
    })
}

pub(crate) fn enc_certificate(e: &mut Enc, cert: &Certificate) {
    match cert {
        Certificate::Trace(t) => {
            e.u8(0);
            enc_trace_cert(e, t);
        }
        Certificate::NonInterference(n) => {
            e.u8(1);
            e.str(&n.property);
            e.len(n.cases.len());
            for c in &n.cases {
                e.str(&c.ctype);
                e.str(&c.msg);
                e.opt_usize(c.low_paths);
                e.opt_usize(c.high_paths);
            }
            enc_dep_set(e, &n.deps);
        }
    }
}

pub(crate) fn dec_certificate(d: &mut Dec) -> Option<Certificate> {
    Some(match d.u8()? {
        0 => Certificate::Trace(dec_trace_cert(d)?),
        1 => {
            let property = d.str()?;
            let nc = d.len()?;
            let mut cases = Vec::with_capacity(nc);
            for _ in 0..nc {
                let ctype = d.str()?;
                let msg = d.str()?;
                let low_paths = d.opt_usize()?;
                let high_paths = d.opt_usize()?;
                cases.push(NiCaseCert {
                    ctype,
                    msg,
                    low_paths,
                    high_paths,
                });
            }
            let deps = dec_dep_set(d)?;
            Certificate::NonInterference(NiCert {
                property,
                cases,
                deps,
            })
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::ProverOptions;

    /// Round-trips a certificate through the binary codec in memory.
    fn round_trip(cert: &Certificate) -> Certificate {
        let mut e = Enc::new();
        enc_certificate(&mut e, cert);
        let mut d = Dec::new(&e.buf);
        let back = dec_certificate(&mut d).expect("decodes");
        d.finish().expect("fully consumed");
        back
    }

    #[test]
    fn certificates_round_trip_bit_exactly() {
        let checked = reflex_kernels::ssh::checked();
        let options = ProverOptions::default();
        for (name, outcome) in crate::prove_all(&checked, &options) {
            let cert = outcome.certificate().expect("proved");
            assert_eq!(&round_trip(cert), cert, "{name}");
        }
    }

    #[test]
    fn truncated_and_corrupt_payloads_are_misses() {
        let checked = reflex_kernels::car::checked();
        let options = ProverOptions::default();
        let (_, outcome) = crate::prove_all(&checked, &options).remove(0);
        let cert = outcome.certificate().expect("proved").clone();
        let mut e = Enc::new();
        enc_certificate(&mut e, &cert);
        // Every truncation point fails to decode (or fails `finish`).
        for cut in 0..e.buf.len() {
            let mut d = Dec::new(&e.buf[..cut]);
            let ok = dec_certificate(&mut d).is_some() && d.finish().is_some();
            assert!(!ok, "truncation at {cut} must be a miss");
        }
        // Trailing garbage is rejected by `finish`.
        let mut padded = e.buf.clone();
        padded.push(0);
        let mut d = Dec::new(&padded);
        let _ = dec_certificate(&mut d);
        assert!(d.finish().is_none());
    }
}
