//! The tape optimizer: one pass over every compiled [`Tape`], run by
//! [`TapeProc::compile`](crate::tape::TapeProc::compile) on every
//! procedure. The interpreter, the native C printer and `disasm` all see
//! its output; the tree-walker stays the unoptimized reference.
//!
//! It makes four rewrites, all legal by construction and all invisible
//! to draws, RNG words and work accounting:
//!
//! * **Loop-invariant code motion.** A pure, statically charged
//!   instruction (constants, outer loop indices, loads, row selections,
//!   lengths, scalar arithmetic) moves from a loop body into that loop's
//!   *preheader* when every register it reads is defined outside the loop
//!   or by an instruction already hoisted into the same preheader, no
//!   instruction in the loop region stores to the buffer it reads, and
//!   it runs on every iteration (it precedes the body's first branch and
//!   sits in no nested loop).
//!   The preheader runs once per entry of a loop that runs at least once,
//!   so a zero-trip loop raises nothing it did not raise before. A
//!   hoisted instruction charges nothing where it now runs; its full
//!   per-iteration charge moves into the loop's `LoopEnd { w }`.
//! * **Invariant log-density vectors.** A Categorical `LlStore` whose
//!   only operand varying in a loop `L` is the index `k` of a loop `K`
//!   nested in `L` — `log θ[d][k]` in LDA's `z` update, `log π[k]` in
//!   HGMM's — is evaluated for every `k` once per entry of `L`, by an
//!   [`TInstr::LlFill`] in `L`'s preheader, into a scratch vector sized
//!   from the specialized shape. The weights and `K`'s bounds must be
//!   defined outside `L` or hoisted into `L`'s own preheader: a register
//!   hoisted only into `K`'s preheader is not yet defined when `L`'s
//!   runs. The store then reads the vector ([`TInstr::LlScratch`]) and
//!   keeps the `LlStore`'s charge.
//! * **Fused log-weight stores.** The body of a finite-sum weight loop —
//!   HGMM's `w[k] <- 0; w[k] += log π[k]; w[k] += log N(y[n] | mu[k],
//!   Sigma[k])`, LDA's over `log φ[k][w]` — becomes one
//!   [`TInstr::LlWeight`] per component. A contiguous run fuses when
//!   every store in it goes to the same cell `Cell1 { buf, i: k }`, in
//!   order: an optional reset `WriteImm <- c`, an optional prior term
//!   `LlScratch` at `k`, zero or more loads of row or cell `k` of other
//!   buffers, and one `LlStore` whose operands are those loads or
//!   registers defined before the run. No other instruction may read a
//!   load's register, no operand may be a region of the destination's
//!   buffer, and control enters the run only at its first instruction.
//! * **Statistic-loop scatter plans.** A conjugate Gibbs update's
//!   sufficient statistics — HGMM's `n[z[i]] += 1`, `s[z[i]] += y[i]`,
//!   `S[z[i]] += OuterSub(y[i], mu[z[i]])`, LDA's topic counts — are
//!   `AtmPar` or `Seq` loops whose body only loads cells and rows and
//!   `+=`s into buffers it never reads. Such a loop gets a [`Scatter`]
//!   plan beside the tape (the instruction stream is unchanged), which
//!   the interpreter runs in one out-of-line loop. The body may hold only
//!   its own `LoopIdx`, `ChargeW`, `LoadCell1` of a vector, `LoadCell2`
//!   and `LoadRow1` of rows of vectors, and `+=` stores into cell-arena
//!   buffers no load of the body reads: a `WriteImm`, or a `Write` of a
//!   cell load, into a `Cell0`/`Cell1`/`Cell2`; a `Write` of a row load,
//!   or an `AccStore` of `OuterSub` over two row loads, into a `Row1`.
//!   Every index is the loop index, a load earlier in the body, or a
//!   register defined before the loop, and no instruction outside the
//!   body reads a register the body defines. A plan checks an iteration
//!   exactly as its instructions would and, at the first that fails,
//!   hands it back to them.
//!
//! The pass is linear in tape length (store lookups add a logarithm).
//! Registers are single-definition, so "defined outside the loop" is a
//! range test on the defining instruction's position.

use augur_dist::DistKind;
use augur_low::il::{AssignOp, LoopKind, OpN};

use crate::state::{BufId, RowElem, Shape, State};
use crate::tape::{
    op_class_of, reads, region_len, stored_buf, writes, Opd, Prior, Scatter, ScatterDest,
    ScatterLoad, ScatterSrc, ScatterStore, TDest, TInstr, Tape, Weight, WeightLoad,
    MAX_SCATTER_BUFS, MAX_SCATTER_ROWS, MAX_SCATTER_VALS,
};

/// The longest vector the pass and the C printer keep in scratch: the
/// invariant log-density vectors and the inline categorical draw's
/// weights. Native code holds them on its stack.
pub(crate) const MAX_SCRATCH: usize = 4096;

/// "No instruction / no loop".
const NONE: u32 = u32::MAX;

/// One loop of the tape: its `LoopStart`/`LoopEnd` positions, its
/// nesting level (the `env` slot its index occupies) and its enclosing
/// loop.
struct Loop {
    start: u32,
    end: u32,
    level: u32,
    parent: u32,
}

impl Loop {
    /// Whether instruction `pc` lies in this loop's region.
    fn holds(&self, pc: u32) -> bool {
        self.start < pc && pc <= self.end
    }
}

/// The full work an instruction charges per execution, when it is one
/// the pass may hoist out of a loop at nesting `level`. These are
/// exactly the interpreter's charges, helpers' included (a `LoadCell1`
/// is its two units plus `index_view`'s one).
fn hoist_charge(i: &TInstr, level: u32) -> Option<u32> {
    Some(match i {
        TInstr::LoopIdx { depth, .. } if *depth < level => 1,
        TInstr::ConstF { .. }
        | TInstr::LoadScalar { .. }
        | TInstr::RefBufV { .. }
        | TInstr::LenV { .. }
        | TInstr::BinopF { .. }
        | TInstr::NegF { .. }
        | TInstr::Call1F { .. } => 1,
        TInstr::LoadCell1 { .. } | TInstr::LoadRow1 { .. } => 3,
        TInstr::LoadCell2 { .. } => 5,
        TInstr::NumOf { .. } => 0,
        _ => return None,
    })
}

/// The buffer a hoistable instruction reads.
fn read_buf(i: &TInstr) -> Option<BufId> {
    match i {
        TInstr::LoadScalar { buf, .. }
        | TInstr::RefBufV { buf, .. }
        | TInstr::LoadCell1 { buf, .. }
        | TInstr::LoadRow1 { buf, .. }
        | TInstr::LoadCell2 { buf, .. } => Some(*buf),
        _ => None,
    }
}

fn is_cell(d: &TDest) -> bool {
    matches!(d, TDest::Cell0 { .. } | TDest::Cell1 { .. } | TDest::Cell2 { .. })
}

/// The exp-array length of a `SampleLogits` the native printer draws
/// inline: its weights are a vector region (`w_def` defines them) of at
/// most [`MAX_SCRATCH`] cells, and its destination a directly-addressed
/// cell. `None` keeps the draw a callback.
pub(crate) fn inline_sample_len(
    state: &State,
    lhs: &TDest,
    w_def: Option<&TInstr>,
) -> Option<usize> {
    match w_def.and_then(|d| region_len(state, d)) {
        Some((n, true)) if is_cell(lhs) && (1..=MAX_SCRATCH).contains(&n) => Some(n),
        _ => None,
    }
}

/// Per-tape counts for the explain plan: instructions hoisted into
/// preheaders, log-density vectors filled, categorical draws the native
/// printer inlines, fused log-weight stores, and statistic loops with a
/// scatter plan.
pub(crate) fn summary(tape: &Tape, state: &State) -> [usize; 5] {
    let mut vdef = vec![NONE; tape.n_vregs];
    let (mut pre, mut fills, mut samples, mut weights) = (0, 0, 0, 0);
    for (pc, i) in tape.instrs.iter().enumerate() {
        match i {
            TInstr::LoopStart { body, .. } => pre += *body as usize - pc - 1,
            TInstr::LlFill { .. } => fills += 1,
            TInstr::LlWeight(_) => weights += 1,
            TInstr::SampleLogits { lhs, w } if w.is_view() => {
                let def = tape.instrs.get(vdef[w.index()] as usize);
                samples += usize::from(inline_sample_len(state, lhs, def).is_some());
            }
            _ => {}
        }
        if let Some(d) = writes(i).filter(|d| d.is_view()) {
            vdef[d.index()] = pc as u32;
        }
    }
    [pre - fills, fills, samples, weights, tape.scatters.len()]
}

/// Runs the pass over a freshly emitted tape.
pub(crate) fn optimize(tape: Tape, state: &State) -> Tape {
    let instrs = &tape.instrs;
    let n = instrs.len();

    // Loops, and for every instruction the innermost loop whose body
    // holds it directly (`owner`) and whether a branch of that body
    // precedes it (`guarded`).
    let mut loops: Vec<Loop> = Vec::new();
    let mut owner = vec![NONE; n];
    let mut guarded = vec![false; n];
    let mut open: Vec<(u32, bool)> = Vec::new();
    for (pc, i) in instrs.iter().enumerate() {
        if let Some(&(l, branched)) = open.last() {
            owner[pc] = l;
            guarded[pc] = branched;
        }
        match i {
            TInstr::LoopStart { .. } => {
                let parent = open.last().map_or(NONE, |&(l, _)| l);
                let level = open.len() as u32;
                loops.push(Loop { start: pc as u32, end: NONE, level, parent });
                open.push((loops.len() as u32 - 1, false));
            }
            TInstr::LoopEnd { .. } => {
                let (l, _) = open.pop().expect("LoopEnd closes a LoopStart");
                loops[l as usize].end = pc as u32;
            }
            TInstr::JumpIfNe { .. } | TInstr::Jump { .. } => {
                if let Some(top) = open.last_mut() {
                    top.1 = true;
                }
            }
            _ => {}
        }
    }

    let mut fdef = vec![NONE; tape.n_fregs];
    let mut vdef = vec![NONE; tape.n_vregs];
    let mut stores: Vec<Vec<u32>> = vec![Vec::new(); state.num_buffers()];
    for (pc, i) in instrs.iter().enumerate() {
        match writes(i) {
            Some(d) if d.is_view() => vdef[d.index()] = pc as u32,
            Some(d) => fdef[d.index()] = pc as u32,
            None => {}
        }
        if let Some(b) = stored_buf(i) {
            stores[b].push(pc as u32);
        }
    }
    let def = |o: Opd| if o.is_view() { vdef[o.index()] } else { fdef[o.index()] };
    let def_instr = |o: Opd| instrs.get(def(o) as usize);
    let written_in = |buf: BufId, l: &Loop| {
        let pcs = &stores[buf];
        pcs.get(pcs.partition_point(|&p| p < l.start)).is_some_and(|&p| p <= l.end)
    };

    // Loop-invariant code motion, in program order so an instruction can
    // follow the ones it reads into the preheader. `hoisted_to[pc]` is
    // the loop whose preheader instruction `pc` moved into: a register is
    // available in loop `l`'s preheader when it is defined outside `l`
    // or hoisted into `l` itself, not into a loop nested in `l` (whose
    // preheader runs later).
    let mut hoisted_to = vec![NONE; n];
    let available = |hoisted_to: &[u32], o: Opd, l: u32| {
        let d = def(o);
        !loops[l as usize].holds(d) || hoisted_to[d as usize] == l
    };
    let mut pre: Vec<Vec<TInstr>> = (0..loops.len()).map(|_| Vec::new()).collect();
    let mut hoist_w = vec![0u32; loops.len()];
    for (pc, i) in instrs.iter().enumerate() {
        let l = owner[pc];
        if l == NONE || guarded[pc] {
            continue;
        }
        let lp = &loops[l as usize];
        let Some(w) = hoist_charge(i, lp.level) else { continue };
        if read_buf(i).is_some_and(|b| written_in(b, lp)) {
            continue;
        }
        let mut invariant = true;
        reads(i, &mut |o| invariant &= available(&hoisted_to, o, l));
        // A length prints inline in C only over a buffer region; a
        // callback in the preheader would charge its unit twice.
        if let TInstr::LenV { a, .. } = i {
            invariant &= def_instr(Opd::v(*a)).is_some_and(|d| region_len(state, d).is_some());
        }
        if invariant {
            hoisted_to[pc] = l;
            pre[l as usize].push(i.clone());
            hoist_w[l as usize] += w;
        }
    }

    // Invariant log-density vectors.
    let static_bound = |r: u32| match instrs.get(fdef[r as usize] as usize)? {
        TInstr::ConstF { val, .. } if *val >= 0.0 && val.is_finite() => Some(*val as usize),
        TInstr::LenV { a, .. } => region_len(state, def_instr(Opd::v(*a))?).map(|(n, _)| n),
        _ => None,
    };
    let mut n_scratch = tape.n_scratch;
    let mut fills: Vec<Vec<TInstr>> = (0..loops.len()).map(|_| Vec::new()).collect();
    let mut replace: Vec<Option<TInstr>> = vec![None; n];
    for (pc, i) in instrs.iter().enumerate() {
        let TInstr::LlStore { lhs, op, dist, args, n_args, point } = i else { continue };
        let k_loop = owner[pc];
        if point.is_view() || !is_cell(lhs) || k_loop == NONE || guarded[pc] {
            continue;
        }
        let kl = &loops[k_loop as usize];
        if kl.parent == NONE || guarded[kl.start as usize] {
            continue;
        }
        let lp = &loops[kl.parent as usize];
        match def_instr(*point) {
            Some(TInstr::LoopIdx { depth, .. }) if *depth == kl.level => {}
            _ => continue,
        }
        let TInstr::LoopStart { lo, hi, .. } = instrs[kl.start as usize] else { unreachable!() };
        let lo_ok = matches!(
            instrs.get(fdef[lo as usize] as usize),
            Some(TInstr::ConstF { val, .. }) if *val >= 0.0
        );
        let bounds_ok = available(&hoisted_to, Opd::f(lo), kl.parent)
            && available(&hoisted_to, Opd::f(hi), kl.parent);
        let len = match static_bound(hi) {
            Some(len) if lo_ok && bounds_ok && (1..=MAX_SCRATCH).contains(&len) => len,
            _ => continue,
        };
        // A Categorical over a vector region of a buffer `L` does not
        // write, which the native printer evaluates inline.
        let w = args[0];
        let weights_ok = *dist == DistKind::Categorical
            && *n_args == 1
            && w.is_view()
            && available(&hoisted_to, w, kl.parent)
            && def_instr(w).is_some_and(|d| {
                matches!(region_len(state, d), Some((_, true)))
                    && read_buf(d).is_some_and(|b| !written_in(b, lp))
            });
        if !weights_ok {
            continue;
        }
        let s = n_scratch as u32;
        n_scratch += len;
        fills[kl.parent as usize].push(TInstr::LlFill {
            s,
            len: len as u32,
            dist: *dist,
            args: *args,
            n_args: *n_args,
            lo,
            hi,
        });
        replace[pc] =
            Some(TInstr::LlScratch { lhs: *lhs, op: *op, dist: *dist, s, k: point.index() as u32 });
    }

    // Rebuild: each loop's preheader (hoisted instructions, then fills)
    // right after its `LoopStart`; jump targets renumbered.
    let mut out: Vec<TInstr> = Vec::with_capacity(n + fills.iter().map(Vec::len).sum::<usize>());
    let mut new_pc = vec![0u32; n + 1];
    let mut next_loop = 0;
    let mut open: Vec<usize> = Vec::new();
    for (pc, i) in instrs.iter().enumerate() {
        new_pc[pc] = out.len() as u32;
        if hoisted_to[pc] != NONE {
            continue;
        }
        match i {
            TInstr::LoopStart { kind, lo, hi, exit, split, .. } => {
                let l = next_loop;
                next_loop += 1;
                open.push(l);
                let body = (out.len() + 1 + pre[l].len() + fills[l].len()) as u32;
                out.push(TInstr::LoopStart {
                    kind: *kind,
                    lo: *lo,
                    hi: *hi,
                    body,
                    exit: *exit,
                    split: *split,
                });
                out.append(&mut pre[l]);
                out.append(&mut fills[l]);
            }
            TInstr::LoopEnd { w } => {
                let l = open.pop().expect("LoopEnd closes a LoopStart");
                out.push(TInstr::LoopEnd { w: w + hoist_w[l] });
            }
            _ => out.push(replace[pc].take().unwrap_or_else(|| i.clone())),
        }
    }
    new_pc[n] = out.len() as u32;
    for i in &mut out {
        match i {
            TInstr::JumpIfNe { target, .. }
            | TInstr::Jump { target }
            | TInstr::LoopStart { exit: target, .. } => *target = new_pc[*target as usize],
            _ => {}
        }
    }
    plan_scatters(fuse_weights(Tape { instrs: out, n_scratch, ..tape }, state), state)
}

/// The most loads one fused weight takes: its density's operands.
const MAX_WEIGHT_LOADS: usize = 3;

/// Fused log-weight stores (the module docs' third rewrite), over the
/// tape the first two produced, so hoisted instructions no longer
/// separate a run's parts.
fn fuse_weights(tape: Tape, state: &State) -> Tape {
    let instrs = &tape.instrs;
    let n = instrs.len();
    let mut fdef = vec![NONE; tape.n_fregs];
    let mut vdef = vec![NONE; tape.n_vregs];
    let (mut f_uses, mut v_uses) = (vec![0u32; tape.n_fregs], vec![0u32; tape.n_vregs]);
    // Where control arrives other than by falling through.
    let mut entry = vec![false; n + 1];
    for (pc, i) in instrs.iter().enumerate() {
        match writes(i) {
            Some(d) if d.is_view() => vdef[d.index()] = pc as u32,
            Some(d) => fdef[d.index()] = pc as u32,
            None => {}
        }
        reads(i, &mut |o| {
            if o.is_view() {
                v_uses[o.index()] += 1
            } else {
                f_uses[o.index()] += 1
            }
        });
        match i {
            TInstr::JumpIfNe { target, .. } | TInstr::Jump { target } => {
                entry[*target as usize] = true
            }
            TInstr::LoopStart { body, exit, .. } => {
                entry[*body as usize] = true;
                entry[*exit as usize] = true;
            }
            _ => {}
        }
    }

    // Each `LlStore` into a `Cell1`: the first position of the run that
    // ends at it, and its weight.
    let mut runs: Vec<Option<(usize, Weight)>> = vec![None; n];
    for (pc, i) in instrs.iter().enumerate() {
        let TInstr::LlStore { lhs, op, dist, args, n_args, point } = i else { continue };
        let &TDest::Cell1 { buf, i: k, .. } = lhs else { continue };
        let mut p = pc;
        let mut loads = Vec::new();
        while p > 0 && !entry[p] && loads.len() < MAX_WEIGHT_LOADS {
            let load = match instrs[p - 1] {
                TInstr::LoadRow1 { dst, buf: b, i } if i == k && b != buf => {
                    matches!(state.shape(b), Shape::Matrix(_) | Shape::Rows { .. })
                        .then_some(WeightLoad { dst, buf: b, row: true })
                }
                TInstr::LoadCell1 { dst, buf: b, i } if i == k && b != buf => {
                    matches!(state.shape(b), Shape::Vector(_)).then_some(WeightLoad {
                        dst,
                        buf: b,
                        row: false,
                    })
                }
                _ => None,
            };
            let Some(load) = load else { break };
            loads.insert(0, load);
            p -= 1;
        }
        let mut prior = None;
        if p > 0 && !entry[p] {
            if let TInstr::LlScratch { lhs: l, op, dist, s, k: at } = &instrs[p - 1] {
                if l == lhs && *at == k {
                    prior = Some(Prior { op: *op, s: *s, dist: *dist });
                    p -= 1;
                }
            }
        }
        let mut reset = None;
        if p > 0 && !entry[p] {
            if let TInstr::WriteImm { lhs: l, op: AssignOp::Set, val } = &instrs[p - 1] {
                if l == lhs {
                    reset = Some(*val);
                    p -= 1;
                }
            }
        }
        if p == pc {
            continue;
        }
        let (op, dist, args, n_args, point) = (*op, *dist, *args, *n_args, *point);
        let wt = Weight { lhs: *lhs, reset, prior, loads, op, dist, args, n_args, point };
        // The density reads the loads, and only it does; its other
        // operands come from before the run, and none is a region of the
        // destination's buffer.
        let uses = |o: Opd| if o.is_view() { v_uses[o.index()] } else { f_uses[o.index()] };
        let loads_private = wt
            .loads
            .iter()
            .all(|l| uses(l.opd()) == wt.operands().filter(|x| *x == l.opd()).count() as u32);
        let outside_ok = wt.operands().filter(|o| !wt.loads_into(*o)).all(|o| {
            let d = if o.is_view() { vdef[o.index()] } else { fdef[o.index()] };
            (d as usize) < p
                && (!o.is_view()
                    || match &instrs[d as usize] {
                        TInstr::RefBufV { buf: b, .. } | TInstr::LoadRow1 { buf: b, .. } => {
                            *b != buf
                        }
                        TInstr::Op1 { .. } | TInstr::Op2 { .. } | TInstr::DistGrad { .. } => true,
                        _ => false,
                    })
        });
        if loads_private && outside_ok {
            runs[pc] = Some((p, wt));
        }
    }

    // Rebuild: each run becomes its weight, at the run's first position
    // (the only one control enters); jump targets renumbered.
    let mut skip = vec![false; n];
    for (pc, run) in runs.iter().enumerate() {
        if let Some((p, _)) = run {
            skip[*p..pc].fill(true);
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut new_pc = vec![0u32; n + 1];
    for (pc, i) in instrs.iter().enumerate() {
        new_pc[pc] = out.len() as u32;
        match runs[pc].take() {
            Some((_, wt)) => out.push(TInstr::LlWeight(Box::new(wt))),
            None if !skip[pc] => out.push(i.clone()),
            None => {}
        }
    }
    new_pc[n] = out.len() as u32;
    for i in &mut out {
        match i {
            TInstr::JumpIfNe { target, .. }
            | TInstr::Jump { target }
            | TInstr::LoopStart { exit: target, .. } => *target = new_pc[*target as usize],
            _ => {}
        }
        if let TInstr::LoopStart { body, .. } = i {
            *body = new_pc[*body as usize];
        }
    }
    Tape { instrs: out, ..tape }
}

/// Statistic-loop scatter plans (the module docs' fourth rewrite), over
/// the tape the first three produced. The instruction stream is
/// unchanged: the plans go beside it, in `Tape::scatters`.
fn plan_scatters(mut tape: Tape, state: &State) -> Tape {
    let mut fdef = vec![NONE; tape.n_fregs];
    for (pc, i) in tape.instrs.iter().enumerate() {
        match writes(i) {
            Some(d) if !d.is_view() => fdef[d.index()] = pc as u32,
            _ => {}
        }
    }
    let mut open = Vec::new();
    let mut scatters = Vec::new();
    for (pc, i) in tape.instrs.iter().enumerate() {
        match i {
            TInstr::LoopStart { .. } => open.push(pc),
            TInstr::LoopEnd { .. } => {
                let start = open.pop().expect("LoopEnd closes a LoopStart");
                let level = open.len() as u32;
                scatters.extend(scatter_plan(&tape.instrs, start, pc, level, &fdef, state));
            }
            _ => {}
        }
    }
    scatters.sort_by_key(|s| s.pc);
    tape.scatters = scatters;
    tape
}

/// The plan of the loop `start..=end` at nesting `level`, when it is a
/// statistic loop.
fn scatter_plan(
    instrs: &[TInstr],
    start: usize,
    end: usize,
    level: u32,
    fdef: &[u32],
    state: &State,
) -> Option<Scatter> {
    let TInstr::LoopStart { kind: LoopKind::AtmPar | LoopKind::Seq, body, .. } = instrs[start]
    else {
        return None;
    };
    let TInstr::LoopEnd { w } = instrs[end] else { unreachable!("a loop ends in a LoopEnd") };
    let body = body as usize;
    let mut b = ScatterBuilder {
        state,
        fdef,
        body: body as u32,
        sc: Scatter {
            pc: start as u32,
            bufs: Vec::new(),
            pre: Vec::new(),
            loads: Vec::new(),
            stores: Vec::new(),
            work: w as u64,
            work_eng: 0,
            retired: (end + 1 - body) as u64,
            classes: [0; crate::metrics::N_OP_CLASSES],
        },
        vals: vec![],
        rows: vec![],
        loaded: vec![],
    };
    for i in &instrs[body..=end] {
        b.sc.classes[op_class_of(i)] += 1;
    }
    for i in &instrs[body..end] {
        b.instr(i, level)?;
    }
    // A statistic loop stores, into cell-arena buffers its loads never
    // read, and nothing after it reads a register its body defines.
    let stored: Vec<BufId> = instrs[body..end].iter().filter_map(stored_buf).collect();
    let loaded_bufs = b.sc.loads.iter().map(|l| match *l {
        ScatterLoad::Cell { buf, .. }
        | ScatterLoad::Cell2 { buf, .. }
        | ScatterLoad::Row { buf, .. } => b.sc.bufs[buf as usize],
    });
    if stored.is_empty() || stored.iter().any(|&s| state.is_data(s)) {
        return None;
    }
    if loaded_bufs.into_iter().any(|l| stored.contains(&l)) {
        return None;
    }
    let defined: Vec<Opd> = instrs[body..end].iter().filter_map(writes).collect();
    let mut escapes = false;
    for (pc, i) in instrs.iter().enumerate() {
        if !(body..end).contains(&pc) {
            reads(i, &mut |o| escapes |= defined.contains(&o));
        }
    }
    (!escapes).then_some(b.sc)
}

/// Builds a [`Scatter`] one body instruction at a time.
struct ScatterBuilder<'a> {
    state: &'a State,
    fdef: &'a [u32],
    body: u32,
    sc: Scatter,
    /// Scalar registers with a value slot, and view registers with a row
    /// slot.
    vals: Vec<(u32, u8)>,
    rows: Vec<(u32, u8)>,
    /// Registers a cell load defines.
    loaded: Vec<u32>,
}

impl ScatterBuilder<'_> {
    /// Adds body instruction `i` of a loop at nesting `level`; `None` when
    /// the plan's grammar does not hold it.
    fn instr(&mut self, i: &TInstr, level: u32) -> Option<()> {
        let state = self.state;
        let rows_of_vecs =
            |b: BufId| matches!(state.shape(b), Shape::Rows { elem: RowElem::Vec, .. });
        match *i {
            TInstr::LoopIdx { dst, depth } if depth == level => {
                self.sc.work += 1;
                self.vals.push((dst, 0));
            }
            TInstr::ChargeW { n } => self.sc.work += n as u64,
            TInstr::LoadCell1 { dst, buf, i } if matches!(state.shape(buf), Shape::Vector(_)) => {
                let (i, buf) = (self.index(i)?, self.buf(buf)?);
                let dst = self.val(dst)?;
                self.sc.loads.push(ScatterLoad::Cell { dst, buf, i });
                (self.sc.work, self.sc.work_eng) = (self.sc.work + 2, self.sc.work_eng + 1);
            }
            TInstr::LoadCell2 { dst, buf, row, col } if rows_of_vecs(buf) => {
                let (row, col, buf) = (self.index(row)?, self.index(col)?, self.buf(buf)?);
                let dst = self.val(dst)?;
                self.sc.loads.push(ScatterLoad::Cell2 { dst, buf, row, col });
                (self.sc.work, self.sc.work_eng) = (self.sc.work + 3, self.sc.work_eng + 2);
            }
            TInstr::LoadRow1 { dst, buf, i } if rows_of_vecs(buf) => {
                let (i, buf) = (self.index(i)?, self.buf(buf)?);
                let slot = self.rows.len() as u8;
                (self.rows.len() < MAX_SCATTER_ROWS).then_some(())?;
                self.rows.push((dst, slot));
                self.sc.loads.push(ScatterLoad::Row { dst: slot, buf, i });
                (self.sc.work, self.sc.work_eng) = (self.sc.work + 2, self.sc.work_eng + 1);
            }
            TInstr::WriteImm { lhs, op: AssignOp::Inc, val } => {
                self.sc.work += 2;
                self.store(lhs, ScatterSrc::Imm(val))?;
            }
            TInstr::Write { lhs, op: AssignOp::Inc, src } if !src.is_view() => {
                let r = src.index() as u32;
                self.loaded.contains(&r).then_some(())?;
                self.sc.work += 1;
                self.store(lhs, ScatterSrc::Val(self.slot(r)?))?;
            }
            TInstr::Write { lhs: lhs @ TDest::Row1 { .. }, op: AssignOp::Inc, src } => {
                self.store(lhs, ScatterSrc::Row(self.row(src)?))?;
            }
            TInstr::AccStore { lhs: lhs @ TDest::Row1 { .. }, vop: OpN::OuterSub, a, b } => {
                self.sc.work += 1;
                self.store(lhs, ScatterSrc::Outer(self.row(a)?, self.row(b)?))?;
            }
            _ => return None,
        }
        Some(())
    }

    /// Adds a `+=` store of `src` into `lhs`.
    fn store(&mut self, lhs: TDest, src: ScatterSrc) -> Option<()> {
        let shape = |b: BufId| self.state.shape(b);
        let dest = match lhs {
            TDest::Cell0 { buf } if *shape(buf) == Shape::Num => {
                ScatterDest::Cell0 { buf: self.buf(buf)? }
            }
            TDest::Cell1 { buf, i, len } if shape(buf).num_cells() == len as usize => {
                ScatterDest::Cell1 { buf: self.buf(buf)?, i: self.index(i)?, len }
            }
            TDest::Cell2 { buf, row, col } if matches!(shape(buf), Shape::Rows { .. }) => {
                let (row, col) = (self.index(row)?, self.index(col)?);
                ScatterDest::Cell2 { buf: self.buf(buf)?, row, col }
            }
            TDest::Row1 { buf, i } if matches!(shape(buf), Shape::Rows { .. }) => {
                ScatterDest::Row1 { buf: self.buf(buf)?, i: self.index(i)? }
            }
            _ => return None,
        };
        // A scalar goes into a cell, a row or an outer product into a row.
        let scalar = matches!(src, ScatterSrc::Imm(_) | ScatterSrc::Val(_));
        let cell = !matches!(dest, ScatterDest::Row1 { .. });
        (scalar == cell && self.sc.stores.len() < MAX_SCATTER_ROWS).then_some(())?;
        self.sc.stores.push(ScatterStore { dest, src });
        Some(())
    }

    /// The value slot of scalar register `r`, if it has one.
    fn slot(&self, r: u32) -> Option<u8> {
        self.vals.iter().find(|&&(reg, _)| reg == r).map(|&(_, s)| s)
    }

    /// The value slot of an index register: the loop index, a load earlier
    /// in the body, or a register defined before the loop (read at entry).
    fn index(&mut self, r: u32) -> Option<u8> {
        if let Some(s) = self.slot(r) {
            return Some(s);
        }
        (self.fdef[r as usize] < self.body).then_some(())?;
        let s = self.next_val()?;
        self.vals.push((r, s));
        self.sc.pre.push((r, s));
        Some(s)
    }

    /// A new value slot for the cell load defining `r`.
    fn val(&mut self, r: u32) -> Option<u8> {
        let s = self.next_val()?;
        self.vals.push((r, s));
        self.loaded.push(r);
        Some(s)
    }

    fn next_val(&self) -> Option<u8> {
        // Slot 0 is the loop index's.
        let n = 1 + self.vals.iter().filter(|&&(_, s)| s != 0).count();
        (n < MAX_SCATTER_VALS).then_some(n as u8)
    }

    /// The row slot of a row load earlier in the body.
    fn row(&self, o: Opd) -> Option<u8> {
        let r = o.index() as u32;
        o.is_view().then_some(())?;
        self.rows.iter().find(|&&(reg, _)| reg == r).map(|&(_, s)| s)
    }

    /// The plan's slot of buffer `id`.
    fn buf(&mut self, id: BufId) -> Option<u8> {
        let bufs = &mut self.sc.bufs;
        match bufs.iter().position(|&b| b == id) {
            Some(k) => Some(k as u8),
            None if bufs.len() < MAX_SCATTER_BUFS => {
                bufs.push(id);
                Some(bufs.len() as u8 - 1)
            }
            None => None,
        }
    }
}

#[cfg(test)]
mod properties;
