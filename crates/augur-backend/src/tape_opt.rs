//! The tape optimizer: one pass over every compiled [`Tape`], run by
//! [`TapeProc::compile`](crate::tape::TapeProc::compile) on every
//! procedure. The interpreter, the native C printer and `disasm` all see
//! its output; the tree-walker stays the unoptimized reference.
//!
//! It makes three rewrites, all legal by construction and all invisible
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
//!
//! The pass is linear in tape length (store lookups add a logarithm).
//! Registers are single-definition, so "defined outside the loop" is a
//! range test on the defining instruction's position.

use augur_dist::DistKind;
use augur_low::il::AssignOp;

use crate::state::{BufId, Shape, State};
use crate::tape::{
    reads, region_len, stored_buf, writes, Opd, Prior, TDest, TInstr, Tape, Weight, WeightLoad,
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
/// printer inlines, and fused log-weight stores.
pub(crate) fn summary(tape: &Tape, state: &State) -> [usize; 4] {
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
    [pre - fills, fills, samples, weights]
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
            TInstr::LoopStart { kind, lo, hi, exit, rng_free, .. } => {
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
                    rng_free: *rng_free,
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
    fuse_weights(Tape { instrs: out, n_scratch, ..tape }, state)
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

#[cfg(test)]
mod properties;
