package loopir

import (
	"fmt"
	"sync"
)

// This file is the kernel compiler: it specializes a statement tree into a
// form the runtime can execute at close to memory speed, replacing the
// tree-walking interpreter (eval.go, the semantic reference and the
// fallback for non-affine bodies) on the hot path. Its instruction tree
// and analysis verdicts are also the input of the Go emitter (emit.go).
//
// What makes a kernel fast:
//
//   - Affine flat offsets are precomputed per array reference ("sites"):
//     at loop entry each site's offset is evaluated once and then advanced
//     by a constant stride per iteration (strength reduction), so no
//     per-element linear-form evaluation happens.
//   - Loop variables live in a flat []int register file; free variables are
//     bound once per Run call, never through a map in the inner loop.
//   - Bounds checks are hoisted to loop entry: an affine offset over a
//     counted range is monotonic in the loop variable, so checking the two
//     endpoint offsets covers every iteration. Only references under an If
//     (which may never execute) or inside a data-dependent BreakIf loop
//     (which may exit early) keep a per-access check.
//   - Expressions run on a tiny postfix stack machine with no error path;
//     malformed programs are rejected at compile time instead.
//
// RangeKernel additionally analyzes the distributed loop for parallel
// execution across worker goroutines (see CompileRangeKernel).

// Opcode kinds of the expression stack machine.
const (
	opConst = iota
	opLoad
	opAdd
	opSub
	opMul
	opDiv
)

// Comparison kinds (conditions and break tests).
const (
	cmpLT = iota
	cmpLE
	cmpGT
	cmpGE
	cmpEQ
	cmpNE
)

// kop is one postfix instruction.
type kop struct {
	kind byte
	site int32   // opLoad: site index
	c    float64 // opConst
}

// ksite is one array-reference site: a flat affine offset into one array's
// storage, advanced incrementally by its owning loop.
type ksite struct {
	data  []float64
	name  string
	flat  lin
	check bool // per-access bounds check (conditional code); else hoisted
}

// kprep initializes a site at its owning loop's entry.
type kprep struct {
	site  int32
	step  int // per-iteration offset increment (coefficient of the loop reg)
	hoist bool
}

// kadv advances a site's offset per iteration (preps with step != 0).
type kadv struct {
	site int32
	step int
}

// kexec is the per-call (and per-worker) execution state of a kernel.
type kexec struct {
	regs      []int
	offs      []int
	stack     []float64
	recording bool
	rec       []chainEntry
}

// chainEntry is one deferred reduction-chain application (parallel mode):
// replayed strictly in sequential iteration order, it reproduces the
// sequential floating-point chain bit for bit.
type chainEntry struct {
	a   *kassign
	off int
	val float64
}

// kinstr is one compiled statement.
type kinstr interface {
	run(k *Kernel, x *kexec)
}

type kloop struct {
	reg    int
	lo, hi lin
	preps  []kprep
	advs   []kadv
	body   []kinstr
	brk    *kcond
}

func (l *kloop) run(k *Kernel, x *kexec) {
	lo, hi := l.lo.eval(x.regs), l.hi.eval(x.regs)
	if hi <= lo {
		return
	}
	x.regs[l.reg] = lo
	k.initPreps(l.preps, hi-lo, x)
	for v := lo; ; {
		for _, ins := range l.body {
			ins.run(k, x)
		}
		if l.brk != nil && l.brk.eval(k, x) {
			return
		}
		v++
		if v >= hi {
			return
		}
		x.regs[l.reg] = v
		for _, a := range l.advs {
			x.offs[a.site] += a.step
		}
	}
}

type kassign struct {
	dst  int32
	code []kop
	// Chain metadata: a range-invariant store of the form r = r ⊕ expr
	// (or a plain overwrite) that parallel execution defers and replays in
	// iteration order. Only consulted when kexec.recording is set.
	chain     bool
	chainOp   byte // '+', '-', '*', '/'; 0 = plain overwrite
	chainLeft bool // the r operand is the left operand of the RHS
	dcode     []kop
}

func (a *kassign) run(k *Kernel, x *kexec) {
	if x.recording && a.chain {
		d := k.eval(a.dcode, x)
		x.rec = append(x.rec, chainEntry{a: a, off: x.offs[a.dst], val: d})
		return
	}
	v := k.eval(a.code, x)
	s := &k.sites[a.dst]
	off := x.offs[a.dst]
	if s.check && uint(off) >= uint(len(s.data)) {
		panic(fmt.Sprintf("loopir: kernel store to %q out of range: %d not in [0,%d)", s.name, off, len(s.data)))
	}
	s.data[off] = v
}

type kcond struct {
	l, r []kop
	op   byte
}

func (c *kcond) eval(k *Kernel, x *kexec) bool {
	lv := k.eval(c.l, x)
	rv := k.eval(c.r, x)
	switch c.op {
	case cmpLT:
		return lv < rv
	case cmpLE:
		return lv <= rv
	case cmpGT:
		return lv > rv
	case cmpGE:
		return lv >= rv
	case cmpEQ:
		return lv == rv
	default:
		return lv != rv
	}
}

type kif struct {
	cond      kcond
	then, els []kinstr
}

func (f *kif) run(k *Kernel, x *kexec) {
	body := f.els
	if f.cond.eval(k, x) {
		body = f.then
	}
	for _, ins := range body {
		ins.run(k, x)
	}
}

// Kernel is a compiled statement list. It is immutable after compilation
// and safe for concurrent Run calls: all mutable state lives in per-call
// kexec records drawn from a pool.
type Kernel struct {
	code      []kinstr
	sites     []ksite
	rootPreps []kprep
	regIndex  map[string]int
	nregs     int
	depth     int
	pool      sync.Pool
}

func (k *Kernel) getExec() *kexec {
	if v := k.pool.Get(); v != nil {
		x := v.(*kexec)
		for i := range x.regs {
			x.regs[i] = 0
		}
		x.recording = false
		x.rec = x.rec[:0]
		return x
	}
	return &kexec{
		regs:  make([]int, k.nregs),
		offs:  make([]int, len(k.sites)),
		stack: make([]float64, 0, k.depth),
	}
}

func (k *Kernel) putExec(x *kexec) { k.pool.Put(x) }

func (k *Kernel) applyBind(x *kexec, bind map[string]int) {
	for name, v := range bind {
		if r, ok := k.regIndex[name]; ok {
			x.regs[r] = v
		}
	}
}

// initPreps evaluates each site's start offset for a loop executing trip
// iterations and performs the hoisted range check: affine offsets are
// monotonic in the loop variable, so the two endpoint offsets bound every
// access of the loop.
func (k *Kernel) initPreps(preps []kprep, trip int, x *kexec) {
	for i := range preps {
		p := &preps[i]
		s := &k.sites[p.site]
		off := s.flat.eval(x.regs)
		x.offs[p.site] = off
		if p.hoist {
			mn, mx := off, off+p.step*(trip-1)
			if mn > mx {
				mn, mx = mx, mn
			}
			if mn < 0 || mx >= len(s.data) {
				panic(fmt.Sprintf("loopir: kernel access to %q out of range: [%d,%d] not in [0,%d)",
					s.name, mn, mx, len(s.data)))
			}
		}
	}
}

// eval runs one postfix program and returns its value.
func (k *Kernel) eval(code []kop, x *kexec) float64 {
	st := x.stack
	for i := range code {
		op := &code[i]
		switch op.kind {
		case opConst:
			st = append(st, op.c)
		case opLoad:
			s := &k.sites[op.site]
			off := x.offs[op.site]
			if s.check && uint(off) >= uint(len(s.data)) {
				panic(fmt.Sprintf("loopir: kernel load from %q out of range: %d not in [0,%d)", s.name, off, len(s.data)))
			}
			st = append(st, s.data[off])
		case opAdd:
			n := len(st) - 1
			st[n-1] += st[n]
			st = st[:n]
		case opSub:
			n := len(st) - 1
			st[n-1] -= st[n]
			st = st[:n]
		case opMul:
			n := len(st) - 1
			st[n-1] *= st[n]
			st = st[:n]
		default: // opDiv
			n := len(st) - 1
			st[n-1] /= st[n]
			st = st[:n]
		}
	}
	v := st[len(st)-1]
	x.stack = st[:0]
	return v
}

func (k *Kernel) exec(x *kexec) {
	k.initPreps(k.rootPreps, 1, x)
	for _, ins := range k.code {
		ins.run(k, x)
	}
}

// Run executes the kernel. bind supplies values for free variables (loop
// variables of enclosing scopes not bound inside the kernel); unbound
// registers are zero. Safe for concurrent callers.
func (k *Kernel) Run(bind map[string]int) {
	x := k.getExec()
	k.applyBind(x, bind)
	k.exec(x)
	k.putExec(x)
}

// applyChain replays deferred reduction-chain entries in order. Because
// each worker records its entries in its own (ascending) iteration order
// and workers cover ascending contiguous ranges, replaying worker streams
// in worker order reproduces the exact sequential operation chain.
func (k *Kernel) applyChain(entries []chainEntry) {
	for i := range entries {
		e := &entries[i]
		a := e.a
		s := &k.sites[a.dst]
		if s.check && uint(e.off) >= uint(len(s.data)) {
			panic(fmt.Sprintf("loopir: kernel store to %q out of range: %d not in [0,%d)", s.name, e.off, len(s.data)))
		}
		cur := s.data[e.off]
		var v float64
		switch a.chainOp {
		case 0:
			v = e.val
		case '+':
			if a.chainLeft {
				v = cur + e.val
			} else {
				v = e.val + cur
			}
		case '-':
			if a.chainLeft {
				v = cur - e.val
			} else {
				v = e.val - cur
			}
		case '*':
			if a.chainLeft {
				v = cur * e.val
			} else {
				v = e.val * cur
			}
		default: // '/'
			if a.chainLeft {
				v = cur / e.val
			} else {
				v = e.val / cur
			}
		}
		s.data[e.off] = v
	}
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// krefInfo records one array reference for the parallel-safety analysis.
type krefInfo struct {
	arr   *Array
	dims  []lin
	flat  lin
	write bool
	asg   *kassign // writes only
	src   *Assign  // writes only
	dExpr Expr     // writes only: the non-r operand of a chain candidate
}

// klevel is the compile-time context of one loop nesting level.
type klevel struct {
	reg      int // -1 at the root
	canHoist bool
	preps    []kprep
	advs     []kadv
	siteOf   map[string]int32
	prepIdx  map[int32]int
}

func newLevel(reg int, canHoist bool) *klevel {
	return &klevel{reg: reg, canHoist: canHoist, siteOf: map[string]int32{}, prepIdx: map[int32]int{}}
}

type kcompiler struct {
	lw       *lowerer
	sites    []ksite
	refs     []krefInfo
	depth    int
	internal map[int]bool // registers bound by loops inside the kernel
}

func linKey(l lin) string {
	key := fmt.Sprintf("%d", l.c)
	for _, t := range l.terms {
		key += fmt.Sprintf("|%d*r%d", t.coef, t.reg)
	}
	return key
}

func linCoef(l lin, reg int) int {
	if reg < 0 {
		return 0
	}
	for _, t := range l.terms {
		if t.reg == reg {
			return t.coef
		}
	}
	return 0
}

// linIsReg reports whether l is exactly the register reg (coefficient 1,
// no constant, no other terms).
func linIsReg(l lin, reg int) bool {
	return l.c == 0 && len(l.terms) == 1 && l.terms[0].reg == reg && l.terms[0].coef == 1
}

func linUsesAny(l lin, regs map[int]bool) bool {
	for _, t := range l.terms {
		if regs[t.reg] {
			return true
		}
	}
	return false
}

func linEqual(a, b lin) bool {
	if a.c != b.c || len(a.terms) != len(b.terms) {
		return false
	}
	for i := range a.terms {
		if a.terms[i] != b.terms[i] {
			return false
		}
	}
	return true
}

// addSite interns one (array, flat offset) reference at its owning level.
// conditional references (under an If, or in a loop that can break early)
// keep per-access checks; unconditional ones get the hoisted entry check.
func (kc *kcompiler) addSite(arr *Array, flat lin, lvl *klevel, conditional bool) int32 {
	key := arr.Name + "|" + linKey(flat)
	hoist := !conditional && lvl.canHoist
	if id, ok := lvl.siteOf[key]; ok {
		if hoist && kc.sites[id].check {
			kc.sites[id].check = false
			lvl.preps[lvl.prepIdx[id]].hoist = true
		}
		return id
	}
	id := int32(len(kc.sites))
	kc.sites = append(kc.sites, ksite{data: arr.Data, name: arr.Name, flat: flat, check: !hoist})
	step := linCoef(flat, lvl.reg)
	lvl.siteOf[key] = id
	lvl.prepIdx[id] = len(lvl.preps)
	lvl.preps = append(lvl.preps, kprep{site: id, step: step, hoist: hoist})
	if step != 0 {
		lvl.advs = append(lvl.advs, kadv{site: id, step: step})
	}
	return id
}

func (kc *kcompiler) lowerRef(r Ref) (*Array, []lin, lin, error) {
	arr, ok := kc.lw.in.Arrays[r.Array]
	if !ok {
		return nil, nil, lin{}, fmt.Errorf("unknown array %q", r.Array)
	}
	dims := make([]lin, len(r.Idx))
	flat := lin{}
	for d, ie := range r.Idx {
		l, err := kc.lw.lowerIndex(ie)
		if err != nil {
			return nil, nil, lin{}, err
		}
		dims[d] = l
		flat = flat.add(l.scale(arr.Stride[d]))
	}
	return arr, dims, flat, nil
}

// compileExpr appends postfix code for e and returns the updated code and
// the expression's stack depth.
func (kc *kcompiler) compileExpr(e Expr, lvl *klevel, conditional bool, code []kop) ([]kop, int, error) {
	switch e := e.(type) {
	case Const:
		return append(code, kop{kind: opConst, c: float64(e)}), 1, nil
	case Ref:
		arr, dims, flat, err := kc.lowerRef(e)
		if err != nil {
			return nil, 0, err
		}
		site := kc.addSite(arr, flat, lvl, conditional)
		kc.refs = append(kc.refs, krefInfo{arr: arr, dims: dims, flat: flat})
		return append(code, kop{kind: opLoad, site: site}), 1, nil
	case Bin:
		code, dl, err := kc.compileExpr(e.L, lvl, conditional, code)
		if err != nil {
			return nil, 0, err
		}
		code, dr, err := kc.compileExpr(e.R, lvl, conditional, code)
		if err != nil {
			return nil, 0, err
		}
		var kind byte
		switch e.Op {
		case '+':
			kind = opAdd
		case '-':
			kind = opSub
		case '*':
			kind = opMul
		case '/':
			kind = opDiv
		default:
			return nil, 0, fmt.Errorf("bad arithmetic op %q", string(e.Op))
		}
		depth := dl
		if dr+1 > depth {
			depth = dr + 1
		}
		return append(code, kop{kind: kind}), depth, nil
	}
	return nil, 0, fmt.Errorf("unknown expression %T", e)
}

func (kc *kcompiler) compileCond(c Cond, lvl *klevel, conditional bool) (kcond, error) {
	l, dl, err := kc.compileExpr(c.L, lvl, conditional, nil)
	if err != nil {
		return kcond{}, err
	}
	r, dr, err := kc.compileExpr(c.R, lvl, conditional, nil)
	if err != nil {
		return kcond{}, err
	}
	if dl > kc.depth {
		kc.depth = dl
	}
	if dr > kc.depth {
		kc.depth = dr
	}
	var op byte
	switch c.Op {
	case "<":
		op = cmpLT
	case "<=":
		op = cmpLE
	case ">":
		op = cmpGT
	case ">=":
		op = cmpGE
	case "==":
		op = cmpEQ
	case "!=":
		op = cmpNE
	default:
		return kcond{}, fmt.Errorf("bad comparison op %q", c.Op)
	}
	return kcond{l: l, r: r, op: op}, nil
}

func (kc *kcompiler) compileAssign(s *Assign, lvl *klevel, conditional bool) (*kassign, error) {
	arr, dims, flat, err := kc.lowerRef(s.LHS)
	if err != nil {
		return nil, err
	}
	dst := kc.addSite(arr, flat, lvl, conditional)
	code, d, err := kc.compileExpr(s.RHS, lvl, conditional, nil)
	if err != nil {
		return nil, err
	}
	if d > kc.depth {
		kc.depth = d
	}
	a := &kassign{dst: dst, code: code}

	// Recognize the chain shape r = r ⊕ expr (either operand order) where
	// the r operand names the identical element as the LHS. The stripped
	// expr is compiled too, so parallel execution can defer the chain.
	ref := krefInfo{arr: arr, dims: dims, flat: flat, write: true, asg: a, src: s}
	if b, ok := s.RHS.(Bin); ok {
		operand := func(e Expr) bool {
			r, ok := e.(Ref)
			if !ok || r.Array != s.LHS.Array {
				return false
			}
			_, _, rflat, err := kc.lowerRef(r)
			return err == nil && linEqual(rflat, flat)
		}
		var dExpr Expr
		switch {
		case operand(b.L):
			a.chainOp, a.chainLeft, dExpr = b.Op, true, b.R
		case operand(b.R):
			a.chainOp, a.chainLeft, dExpr = b.Op, false, b.L
		}
		if dExpr != nil {
			// Note: compiling the stripped operand interns no new sites
			// beyond those the full RHS already created.
			dcode, dd, err := kc.compileExpr(dExpr, lvl, conditional, nil)
			if err != nil {
				return nil, err
			}
			if dd > kc.depth {
				kc.depth = dd
			}
			a.dcode = dcode
			ref.dExpr = dExpr
		}
	}
	kc.refs = append(kc.refs, ref)
	return a, nil
}

func (kc *kcompiler) compileStmts(stmts []Stmt, lvl *klevel, conditional bool) ([]kinstr, error) {
	var out []kinstr
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			lo, err := kc.lw.lowerIndex(s.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := kc.lw.lowerIndex(s.Hi)
			if err != nil {
				return nil, err
			}
			reg := kc.lw.regFor(s.Var)
			kc.internal[reg] = true
			inner := newLevel(reg, s.BreakIf == nil)
			body, err := kc.compileStmts(s.Body, inner, false)
			if err != nil {
				return nil, err
			}
			l := &kloop{reg: reg, lo: lo, hi: hi, body: body}
			if s.BreakIf != nil {
				brk, err := kc.compileCond(*s.BreakIf, inner, false)
				if err != nil {
					return nil, err
				}
				l.brk = &brk
			}
			l.preps, l.advs = inner.preps, inner.advs
			out = append(out, l)
		case *Assign:
			a, err := kc.compileAssign(s, lvl, conditional)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		case *If:
			cond, err := kc.compileCond(s.Cond, lvl, conditional)
			if err != nil {
				return nil, err
			}
			then, err := kc.compileStmts(s.Then, lvl, true)
			if err != nil {
				return nil, err
			}
			els, err := kc.compileStmts(s.Else, lvl, true)
			if err != nil {
				return nil, err
			}
			out = append(out, &kif{cond: cond, then: then, els: els})
		default:
			return nil, fmt.Errorf("unknown statement %T", s)
		}
	}
	return out, nil
}

func (in *Instance) compileKernel(stmts []Stmt) (*Kernel, *kcompiler, error) {
	kc := &kcompiler{lw: &lowerer{in: in, regIndex: map[string]int{}}, internal: map[int]bool{}}
	root := newLevel(-1, true)
	code, err := kc.compileStmts(stmts, root, false)
	if err != nil {
		return nil, nil, err
	}
	k := &Kernel{
		code:      code,
		sites:     kc.sites,
		rootPreps: root.preps,
		regIndex:  kc.lw.regIndex,
		nregs:     kc.lw.nregs,
		depth:     kc.depth + 1,
	}
	return k, kc, nil
}

// CompileKernel compiles a statement list against this instance's arrays.
// Variables that are neither parameters nor bound by loops inside the
// statement list become free variables, set per call via Run's bind map.
// It fails for programs with non-affine subscripts (use the interpreter).
func (in *Instance) CompileKernel(stmts []Stmt) (*Kernel, error) {
	k, _, err := in.compileKernel(stmts)
	return k, err
}

// RunKernel compiles the whole program body to a kernel and executes it.
func (in *Instance) RunKernel() error {
	k, err := in.CompileKernel(in.Prog.Body)
	if err != nil {
		return err
	}
	k.Run(nil)
	return nil
}

// ---------------------------------------------------------------------------
// RangeKernel: the distributed loop, partitionable across workers
// ---------------------------------------------------------------------------

// Free variables carrying the executed range into a RangeKernel.
const (
	kernelLoVar = "__klo"
	kernelHiVar = "__khi"
)

// RangeKernel is a compiled distributed loop `for v in [lo,hi) { body }`
// whose range is supplied per call. CompileRangeKernel also proves (or
// refuses to prove) that distinct iterations touch disjoint data, so the
// range can be partitioned across worker goroutines with outputs
// bit-identical to sequential execution:
//
//   - Every written array must either be partitioned by the range variable
//     (each write's subscript in some dimension is exactly v, and every
//     read's subscript in that dimension is v too — or range-invariant and
//     guarded at run time to fall outside [lo,hi), e.g. LU's pivot column)
//   - or be written only at range-invariant locations through recognized
//     reduction chains r = r ⊕ expr (expr free of r): workers defer those
//     stores and the chain is replayed in iteration order afterwards,
//     reproducing the sequential floating-point result exactly.
//
// Anything else falls back to sequential execution of the same kernel.
type RangeKernel struct {
	k         *Kernel
	loReg     int
	hiReg     int
	parOK     bool
	seqReason string
	guards    []lin
	hasChains bool
}

// CompileRangeKernel compiles body as a distributed-range kernel over
// distVar.
func (in *Instance) CompileRangeKernel(distVar string, body []Stmt) (*RangeKernel, error) {
	rk, _, err := in.newRangeKernel(distVar, body)
	return rk, err
}

// newRangeKernel wraps body in the distributed loop over [__klo,__khi),
// compiles it and runs the parallel-safety analysis. The compiler state is
// returned too: the Go emitter walks it to produce the native twin.
func (in *Instance) newRangeKernel(distVar string, body []Stmt) (*RangeKernel, *kcompiler, error) {
	wrapped := []Stmt{For(distVar, Iv(kernelLoVar), Iv(kernelHiVar), body...)}
	k, kc, err := in.compileKernel(wrapped)
	if err != nil {
		return nil, nil, err
	}
	rk := &RangeKernel{
		k:     k,
		loReg: k.regIndex[kernelLoVar],
		hiReg: k.regIndex[kernelHiVar],
	}
	rk.analyze(kc, k.regIndex[distVar], body)
	return rk, kc, nil
}

// countExprReads counts reads of array name in an expression.
func countExprReads(e Expr, name string) int {
	switch e := e.(type) {
	case Ref:
		if e.Array == name {
			return 1
		}
	case Bin:
		return countExprReads(e.L, name) + countExprReads(e.R, name)
	}
	return 0
}

// countStmtReads counts reads of array name across a statement list,
// including If and BreakIf conditions (LHS positions are not reads).
func countStmtReads(stmts []Stmt, name string) int {
	n := 0
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			if s.BreakIf != nil {
				n += countExprReads(s.BreakIf.L, name) + countExprReads(s.BreakIf.R, name)
			}
			n += countStmtReads(s.Body, name)
		case *Assign:
			n += countExprReads(s.RHS, name)
		case *If:
			n += countExprReads(s.Cond.L, name) + countExprReads(s.Cond.R, name)
			n += countStmtReads(s.Then, name)
			n += countStmtReads(s.Else, name)
		}
	}
	return n
}

func (rk *RangeKernel) analyze(kc *kcompiler, vReg int, body []Stmt) {
	type agroup struct {
		writes []*krefInfo
		reads  []*krefInfo
	}
	groups := map[*Array]*agroup{}
	order := []*Array{}
	for i := range kc.refs {
		r := &kc.refs[i]
		g := groups[r.arr]
		if g == nil {
			g = &agroup{}
			groups[r.arr] = g
			order = append(order, r.arr)
		}
		if r.write {
			g.writes = append(g.writes, r)
		} else {
			g.reads = append(g.reads, r)
		}
	}
	for _, arr := range order {
		g := groups[arr]
		if len(g.writes) == 0 {
			continue
		}
		invariant := true
		for _, w := range g.writes {
			if linCoef(w.flat, vReg) != 0 {
				invariant = false
				break
			}
		}
		if invariant {
			if !rk.analyzeChains(arr, g.writes, body) {
				return
			}
			continue
		}
		if !rk.analyzePartition(arr, g.writes, g.reads, vReg, kc.internal) {
			return
		}
	}
	rk.parOK = true
}

// analyzeChains checks that a range-invariantly written array is touched
// only through deferred-replayable chain statements.
func (rk *RangeKernel) analyzeChains(arr *Array, writes []*krefInfo, body []Stmt) bool {
	allowed := 0
	for _, w := range writes {
		a := w.asg
		if w.dExpr != nil {
			if countExprReads(w.dExpr, arr.Name) != 0 {
				rk.seqReason = fmt.Sprintf("reduction operand of %q reads %q", arr.Name, arr.Name)
				return false
			}
			allowed++
		} else {
			if countExprReads(w.src.RHS, arr.Name) != 0 {
				rk.seqReason = fmt.Sprintf("non-chain self-referential write to %q", arr.Name)
				return false
			}
			a.chainOp = 0
			a.dcode = a.code
		}
		a.chain = true
	}
	if countStmtReads(body, arr.Name) != allowed {
		rk.seqReason = fmt.Sprintf("replicated array %q read outside its reduction chain", arr.Name)
		return false
	}
	rk.hasChains = true
	return true
}

// analyzePartition finds a dimension along which every write is owned by
// exactly its iteration, making cross-iteration accesses provably disjoint.
func (rk *RangeKernel) analyzePartition(arr *Array, writes, reads []*krefInfo, vReg int, internal map[int]bool) bool {
	rank := len(arr.Dims)
	for d := 0; d < rank; d++ {
		owned := true
		for _, w := range writes {
			if !linIsReg(w.dims[d], vReg) {
				owned = false
				break
			}
		}
		if !owned {
			continue
		}
		var guards []lin
		good := true
		for _, r := range reads {
			sub := r.dims[d]
			if linIsReg(sub, vReg) {
				continue
			}
			if !linUsesAny(sub, internal) {
				guards = append(guards, sub)
				continue
			}
			good = false
			break
		}
		if good {
			rk.guards = append(rk.guards, guards...)
			return true
		}
	}
	rk.seqReason = fmt.Sprintf("cross-iteration access to %q", arr.Name)
	return false
}

// ParallelSafe reports whether the kernel's iterations were proven
// independent (possibly subject to per-call runtime guards).
func (rk *RangeKernel) ParallelSafe() bool { return rk.parOK }

// SeqReason explains why the kernel is sequential-only ("" if parallel).
func (rk *RangeKernel) SeqReason() string { return rk.seqReason }

// Run executes iterations [lo,hi) sequentially.
func (rk *RangeKernel) Run(lo, hi int, bind map[string]int) {
	k := rk.k
	x := k.getExec()
	k.applyBind(x, bind)
	x.regs[rk.loReg], x.regs[rk.hiReg] = lo, hi
	k.exec(x)
	k.putExec(x)
}

// Workers resolves how many workers a parallel run over [lo,hi) may use:
// want, clamped by the range width, dropped to 1 when the kernel is not
// provably parallel or a runtime guard (a range-invariant read of a
// partitioned array) lands inside the executed range.
func (rk *RangeKernel) Workers(lo, hi int, bind map[string]int, want int) int {
	if want > hi-lo {
		want = hi - lo
	}
	if want <= 1 || !rk.parOK {
		return 1
	}
	if len(rk.guards) > 0 {
		k := rk.k
		x := k.getExec()
		k.applyBind(x, bind)
		blocked := false
		for _, g := range rk.guards {
			if v := g.eval(x.regs); v >= lo && v < hi {
				blocked = true
				break
			}
		}
		k.putExec(x)
		if blocked {
			return 1
		}
	}
	return want
}

// RunParallel executes iterations [lo,hi) across up to workers goroutines
// and returns the worker count actually used. Results are bit-identical to
// Run for every worker count: non-reduction writes are provably disjoint,
// and reduction chains are recorded per worker and replayed in iteration
// order.
func (rk *RangeKernel) RunParallel(lo, hi int, bind map[string]int, workers int) int {
	w := rk.Workers(lo, hi, bind, workers)
	if w <= 1 {
		if hi > lo {
			rk.Run(lo, hi, bind)
		}
		return 1
	}
	k := rk.k
	width := hi - lo
	execs := make([]*kexec, w)
	var wg sync.WaitGroup
	var panicked sync.Map
	for i := 0; i < w; i++ {
		x := k.getExec()
		k.applyBind(x, bind)
		x.regs[rk.loReg] = lo + i*width/w
		x.regs[rk.hiReg] = lo + (i+1)*width/w
		x.recording = rk.hasChains
		execs[i] = x
		wg.Add(1)
		go func(i int, x *kexec) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicked.Store(i, p)
				}
			}()
			k.exec(x)
		}(i, x)
	}
	wg.Wait()
	if p, ok := panicked.Load(0); ok {
		panic(p)
	}
	panicked.Range(func(_, p interface{}) bool { panic(p) })
	for _, x := range execs {
		k.applyChain(x.rec)
		k.putExec(x)
	}
	return w
}
