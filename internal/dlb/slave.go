package dlb

import (
	"fmt"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/loopir"
)

// rangeLo and rangeHi are the free variables of the interpreted range
// fragment that executes a contiguous run of owned distributed-loop
// iterations whose body the kernel compiler refuses.
const (
	rangeLo = "__lo"
	rangeHi = "__hi"
)

// fragRunner is a compiled or interpreted compute fragment. Affine bodies
// compile to VM kernels (loopir.Kernel); bodies the kernel compiler refuses
// — indirect subscripts like a[idx[i]] — fall back to the tree-walking
// InterpFragment, which runs the same statements against the same arrays.
type fragRunner interface {
	Run(bind map[string]int)
}

type slave struct {
	id     int
	slaves int
	cfg    *Config
	exec   *compile.Exec
	grain  int

	ep   Endpoint
	inst *loopir.Instance
	own  *core.Ownership

	frags      map[*compile.OwnedLoop]fragRunner
	kernels    map[*compile.OwnedLoop]*loopir.RangeKernel
	ownerFrags map[*compile.OwnerBlock]fragRunner
	allFrags   []allFrag
	env        map[string]int
	redSnap    map[string][]float64 // reduction arrays at the last Combine

	// iarr marks owned loops whose bodies use indirect (array-valued)
	// subscripts: their per-unit cost is data-dependent, so the flop
	// estimate walks each unit instead of sampling the midpoint.
	iarr map[*compile.OwnedLoop]bool

	// Per-unit cost measurement (learned cost model, and always-on for
	// indirect programs so the imbalance metric stays weighted): costAcc
	// accumulates modeled busy seconds per owned unit since the last
	// report; execHook drains it into CostBlock summaries.
	costOn  bool
	costAcc []float64

	// tier is the resolved kernel tier; aot carries the run's shared
	// native kernels and aotKernels the per-instance bindings (only
	// regions the emitter accepted — others fall back to the VM).
	tier       string
	aot        *aotBundle
	aotKernels map[*compile.OwnedLoop]*aot.BoundKernel

	// cores is the resolved per-slave worker count (Config.Cores); owned
	// runs wide enough to amortize goroutine startup are partitioned
	// across this many kernel workers.
	cores         int
	aotUnits      int64 // units executed through AOT-built native kernels
	kernelUnits   int64 // units executed through compiled range kernels
	fallbackUnits int64 // units executed through the interpreter fallback

	// Split-loop async ghost exchange (Config.Overlap): pending maps a
	// carrier loop to the exchanges whose sends were posted but whose
	// receives are deferred until after the carrier's interior pass.
	// Entries only live between an Exchange step and the OwnedLoop that
	// directly follows it (the compile-time carrier), so the map is empty
	// across hooks, combines, and epoch restarts.
	overlapOn       bool
	pending         map[*compile.OwnedLoop][]*compile.Exchange
	overlapRounds   int64
	overlapFallback int64

	ownedCache []int // sorted owned units; nil means rebuild
	// Ghost-list caches, keyed by delta: ownership only changes at hooks
	// (moves, deactivation, recovery — all funneled through
	// invalidateOwned), so the per-iteration exchange and pipeline lists
	// are reused until then.
	needsCache    map[int][]int
	suppliesCache map[int][]supply

	hookVisit   int
	nextContact int
	phase       int
	unitsDone   float64
	busyMark    time.Duration
	lastMove    time.Duration
	lastInter   time.Duration
	blockLo     int
	blockHi     int

	// part routes master traffic through the group hierarchy when set
	// (grouped legacy runs): members report to their group leader, the
	// leader aggregates and talks to the master, and instructions relay
	// back the same way. nil: every slave talks to the master directly.
	part *hier.Partition

	// fault is the slave-side fault-tolerance policy; noSlaveFault keeps
	// legacy behavior identical (the state below stays at zero values).
	fault         slaveFault
	epoch         int
	alive         []bool // nil until the first recovery: everyone alive
	ff            bool   // fast-forwarding control flow to ffUntil
	ffUntil       int
	skipInstrOnce bool // first post-recovery contact restores pipelining
	lastHB        time.Duration
	hbEvery       time.Duration
	joinAt        time.Duration // joiner: when to register (joiner iff joiner=true)
	joiner        bool
}

func (s *slave) runOn(ep Endpoint) {
	s.ep = ep
	plan := s.exec.Plan

	// Local instance: full-size arrays, zeroed — only data delivered by the
	// scatter, exchanges, broadcasts, and work movement is valid, so any
	// read of non-owned data surfaces as corruption instead of silently
	// using initial values.
	inst, err := loopir.NewInstance(plan.Prog, s.exec.Params)
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	for _, a := range inst.Arrays {
		a.Fill(nil)
	}
	s.inst = inst

	// Local ownership map — the paper's index array, kept in sync with the
	// master by applying the same instructions.
	s.own = core.NewBlockOwnership(s.exec.Units, s.slaves)
	lo, hi := s.exec.InitialActive()
	s.deactivateOutside(lo, hi)

	// Compile the generated code against the local arrays: one range
	// kernel (or an interpreted fragment) per distributed loop, one
	// fragment per owner block.
	s.frags = map[*compile.OwnedLoop]fragRunner{}
	s.kernels = map[*compile.OwnedLoop]*loopir.RangeKernel{}
	s.ownerFrags = map[*compile.OwnerBlock]fragRunner{}
	s.aotKernels = map[*compile.OwnedLoop]*aot.BoundKernel{}
	s.iarr = map[*compile.OwnedLoop]bool{}
	if s.tier == "" {
		s.tier = KernelVM
	}
	s.compileSteps(plan.Steps)
	s.cores = s.cfg.CoreCount()

	// Per-unit cost measurement: always on for indirect (data-dependent)
	// programs so the weighted imbalance metric is meaningful in either
	// mode; the learned mode additionally feeds the master's model.
	mode, err := s.cfg.CostModelMode()
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	s.costOn = mode == CostLearned || loopir.UsesIArr(plan.Prog.Body)
	if s.costOn {
		s.costAcc = make([]float64, s.exec.Units)
	}

	on, err := s.cfg.OverlapOn()
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	s.overlapOn = on
	s.pending = map[*compile.OwnedLoop][]*compile.Exchange{}

	s.env = map[string]int{}
	for k, v := range s.exec.Params {
		s.env[k] = v
	}

	if s.joiner {
		// An idle node: register at joinAt and wait to be adopted into a
		// recovery epoch. If the run ends first, the master's shutdown
		// EvictMsg releases us.
		if !s.fault.join(s) {
			return
		}
	} else {
		// Initial scatter from the master.
		init := s.ep.Recv(cluster.MasterID, "init").Data.(InitMsg)
		for arr, units := range init.Owned {
			dim := plan.DistArrays[arr]
			for u, vals := range units {
				setUnitSlice(s.inst.Arrays[arr], dim, u, vals)
			}
		}
		for arr, vals := range init.Replicated {
			copy(s.inst.Arrays[arr].Data, vals)
		}
		// Snapshot reduction arrays so Combine can merge per-slave deltas.
		s.redSnap = map[string][]float64{}
		for _, r := range plan.Reductions {
			s.redSnap[r.Array] = append([]float64(nil), s.inst.Arrays[r.Array].Data...)
		}
	}
	s.busyMark = s.ep.Busy()
	s.lastHB = s.ep.Now()

	// Epoch loop: a recovery AdoptMsg unwinds execution (epochRestart) back
	// to here; the slave restores the checkpoint and re-enters the step tree,
	// fast-forwarding to the checkpoint hook. Legacy runs make one pass. The
	// termination announcement and the wait for the master's commit are part
	// of the recoverable region: a slave that finished can still be rolled
	// back if a peer died in the final round.
	for !s.fault.runEpoch(s) {
	}

	// Final gather: ship every owned unit of every distributed array back
	// to the master; slave 0 also reports the combined reduction values.
	g := GatherMsg{Data: map[string]map[int][]float64{}}
	bytes := msgHeader
	for arr, dim := range plan.DistArrays {
		m := map[int][]float64{}
		for _, u := range s.own.Owned(s.id) {
			vals := unitSlice(s.inst.Arrays[arr], dim, u)
			m[u] = vals
			bytes += 8*len(vals) + 16
		}
		g.Data[arr] = m
	}
	// The designated (lowest alive) slave reports the combined reduction
	// values — identical on every slave after Combine; legacy: slave 0.
	if s.designated() && len(plan.Reductions) > 0 {
		g.Reduced = map[string][]float64{}
		for _, r := range plan.Reductions {
			vals := append([]float64(nil), s.inst.Arrays[r.Array].Data...)
			g.Reduced[r.Array] = vals
			bytes += 8 * len(vals)
		}
	}
	s.ep.Send(cluster.MasterID, "gather", bytes, g)
}

func (s *slave) eval(e loopir.IExpr) int {
	v, err := loopir.EvalIndex(e, s.env)
	if err != nil {
		panic(fmt.Sprintf("slave%d: %v", s.id, err))
	}
	return v
}

// compileSteps compiles every compute fragment ahead of execution.
func (s *slave) compileSteps(steps []compile.Step) {
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.SeqLoop:
			s.compileSteps(st.Body)
		case *compile.StripLoop:
			s.compileSteps(st.Body)
		case *compile.OwnedLoop:
			// The range kernel is the hot path (and, on the aot tier, the
			// oracle for guard and worker resolution). A body it refuses
			// (non-affine subscripts) would be refused by CompileKernel
			// too, so execOwned runs it through the interpreter.
			if rk, err := s.inst.CompileRangeKernel(st.Var, st.Body); err == nil {
				s.kernels[st] = rk
			} else {
				s.frags[st] = &loopir.InterpFragment{In: s.inst, Stmts: []loopir.Stmt{
					loopir.For(st.Var, loopir.Iv(rangeLo), loopir.Iv(rangeHi), st.Body...),
				}}
			}
			if k := s.aot.kernelFor(st); k != nil && s.tier == KernelAOT {
				if bk, err := k.Bind(s.inst.Arrays); err == nil {
					s.aotKernels[st] = bk
				}
			}
			s.iarr[st] = loopir.UsesIArr(st.Body)
		case *compile.OwnerBlock:
			s.ownerFrags[st] = s.compileOrInterp(st.Body)
		case *compile.AllStmts:
			s.allFrags = append(s.allFrags, allFrag{st, s.compileOrInterp(st.Body)})
		}
	}
}

// compileOrInterp compiles statements to a VM kernel, falling back to the
// tree-walking interpreter for bodies the kernel compiler refuses
// (indirect subscripts).
func (s *slave) compileOrInterp(stmts []loopir.Stmt) fragRunner {
	if k, err := s.inst.CompileKernel(stmts); err == nil {
		return k
	}
	return &loopir.InterpFragment{In: s.inst, Stmts: stmts}
}

type allFrag struct {
	step *compile.AllStmts
	frag fragRunner
}

func (s *slave) execSteps(steps []compile.Step) {
	for _, st := range steps {
		switch st := st.(type) {
		case *compile.SeqLoop:
			lo, hi := s.eval(st.Lo), s.eval(st.Hi)
			for v := lo; v < hi; v++ {
				s.env[st.Var] = v
				s.execSteps(st.Body)
				// During fast-forward the condition is forced false: the
				// checkpointed execution demonstrably got past this point, so
				// the original evaluation was false (and restored data may
				// not support re-evaluating it here).
				if st.BreakIf != nil && !s.ff && s.evalBreak(st.BreakIf) {
					break
				}
			}
			delete(s.env, st.Var)
		case *compile.StripLoop:
			lo, hi := s.eval(st.Lo), s.eval(st.Hi)
			g := s.grain
			if g < 1 {
				g = 1
			}
			for start := lo; start < hi; start += g {
				end := start + g
				if end > hi {
					end = hi
				}
				s.blockLo, s.blockHi = start, end
				s.execSteps(st.Pre)
				for v := start; v < end; v++ {
					s.env[st.Var] = v
					s.execSteps(st.Body)
				}
				delete(s.env, st.Var)
				s.blockLo, s.blockHi = start, end
				s.execSteps(st.Post)
			}
		case *compile.OwnedLoop:
			s.execOwned(st)
		case *compile.OwnerBlock:
			s.execOwnerBlock(st)
		case *compile.AllStmts:
			s.execAll(st)
		case *compile.Exchange:
			s.execExchange(st)
		case *compile.PipeRecv:
			s.execPipeRecv(st)
		case *compile.PipeSend:
			s.execPipeSend(st)
		case *compile.Bcast:
			s.execBcast(st)
		case *compile.Combine:
			s.execCombine(st)
		case *compile.Hook:
			s.execHook(st)
		}
	}
}

// evalBreak evaluates a data-dependent loop termination condition against
// local (replicated, post-Combine) data — identical on every slave.
func (s *slave) evalBreak(c *loopir.Cond) bool {
	l, err1 := s.inst.EvalExpr(c.L, s.env)
	r, err2 := s.inst.EvalExpr(c.R, s.env)
	if err1 != nil || err2 != nil {
		panic(fmt.Sprintf("slave%d: break condition: %v %v", s.id, err1, err2))
	}
	switch c.Op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "==":
		return l == r
	case "!=":
		return l != r
	}
	panic(fmt.Sprintf("slave%d: bad break op %q", s.id, c.Op))
}

// execCombine all-reduces a reduction array: deltas since the last Combine
// are exchanged all-to-all and summed in slave order, so every slave ends
// with bit-identical values.
func (s *slave) execCombine(st *compile.Combine) {
	if s.ff {
		return
	}
	arr := s.inst.Arrays[st.Array]
	snap := s.redSnap[st.Array]
	n := len(arr.Data)
	delta := make([]float64, n)
	for i := range delta {
		delta[i] = arr.Data[i] - snap[i]
	}
	tag := "reduce:" + st.Array
	for o := 0; o < s.slaves; o++ {
		if o == s.id || !s.peerAlive(o) {
			continue
		}
		s.send(o, tag, floatsBytes(n), append([]float64(nil), delta...))
	}
	parts := make([][]float64, s.slaves)
	parts[s.id] = delta
	for o := 0; o < s.slaves; o++ {
		if o == s.id || !s.peerAlive(o) {
			continue
		}
		parts[o] = s.recvPeer(o, tag).Data.([]float64)
	}
	for i := 0; i < n; i++ {
		v := snap[i]
		for o := 0; o < s.slaves; o++ {
			if parts[o] != nil {
				v += parts[o][i]
			}
		}
		arr.Data[i] = v
		snap[i] = v
	}
}

// drainCostBlocks summarizes the per-unit cost accumulated since the last
// report into at most maxCostBlocks contiguous blocks and resets the
// accumulator. Chunks whose units all carry the identical cost report that
// exact value (no mean computation), so a genuinely uniform program's
// reports are exactly uniform and the master's model never leaves the
// dense prior.
func (s *slave) drainCostBlocks() []CostBlock {
	if !s.costOn {
		return nil
	}
	// Contiguous runs of touched units.
	type span struct{ lo, hi int }
	var spans []span
	touched := 0
	for u := 0; u < len(s.costAcc); u++ {
		if s.costAcc[u] <= 0 {
			continue
		}
		if len(spans) > 0 && spans[len(spans)-1].hi == u {
			spans[len(spans)-1].hi = u + 1
		} else {
			spans = append(spans, span{u, u + 1})
		}
		touched++
	}
	if touched == 0 {
		return nil
	}
	chunk := (touched + maxCostBlocks - 1) / maxCostBlocks
	if chunk < 1 {
		chunk = 1
	}
	var blocks []CostBlock
	for _, sp := range spans {
		for lo := sp.lo; lo < sp.hi; lo += chunk {
			hi := lo + chunk
			if hi > sp.hi {
				hi = sp.hi
			}
			mn, mx, sum := s.costAcc[lo], s.costAcc[lo], 0.0
			for u := lo; u < hi; u++ {
				v := s.costAcc[u]
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
				sum += v
				s.costAcc[u] = 0
			}
			per := mn
			if mn != mx {
				per = sum / float64(hi-lo)
			}
			blocks = append(blocks, CostBlock{Lo: lo, Hi: hi, PerUnit: per})
		}
	}
	return blocks
}

func (s *slave) owned() []int {
	if s.ownedCache == nil {
		s.ownedCache = s.own.Owned(s.id)
	}
	return s.ownedCache
}

func (s *slave) invalidateOwned() {
	s.ownedCache = nil
	s.needsCache = nil
	s.suppliesCache = nil
}

// ghostNeedsCached returns ghostNeeds(own, me, delta), memoized until the
// next ownership or active-set change (invalidateOwned).
func (s *slave) ghostNeedsCached(delta int) []int {
	if n, ok := s.needsCache[delta]; ok {
		return n
	}
	if s.needsCache == nil {
		s.needsCache = map[int][]int{}
	}
	n := ghostNeeds(s.own, s.id, delta)
	s.needsCache[delta] = n
	return n
}

// ghostSuppliesCached is the supply-side twin of ghostNeedsCached.
func (s *slave) ghostSuppliesCached(delta int) []supply {
	if sp, ok := s.suppliesCache[delta]; ok {
		return sp
	}
	if s.suppliesCache == nil {
		s.suppliesCache = map[int][]supply{}
	}
	sp := ghostSupplies(s.own, s.id, delta)
	s.suppliesCache[delta] = sp
	return sp
}

func (s *slave) perUnitFlops(body []loopir.Stmt, distVar string, mid int) float64 {
	local := map[string]int{}
	for k, v := range s.env {
		local[k] = v
	}
	local[distVar] = mid
	return loopir.EstFlops(body, local)
}

func (s *slave) execOwned(st *compile.OwnedLoop) {
	if s.ff {
		return
	}
	// Long compute stretches between hooks must not starve the master's
	// failure detector (the more work a slave inherits, the longer its
	// silent stretches — exactly when false eviction hurts most).
	s.fault.heartbeat(s)
	// Deferred ghost exchanges targeting this loop (split-loop overlap):
	// their receives complete after the interior pass below. Every early
	// return must still drain them — the ghost data is needed by later
	// steps, and an unconsumed (sender, tag) mailbox would desequence the
	// next exchange on the same array.
	pend := s.pending[st]
	if len(pend) > 0 {
		delete(s.pending, st)
	}
	lo, hi := s.eval(st.Lo), s.eval(st.Hi)
	if lo < 0 {
		lo = 0
	}
	if hi > s.exec.Units {
		hi = s.exec.Units
	}
	if hi <= lo {
		s.drainPending(pend)
		return
	}
	runs := contiguousRuns(s.owned(), lo, hi)
	count := 0
	for _, r := range runs {
		count += r[1] - r[0]
	}
	if count == 0 {
		s.drainPending(pend)
		return
	}
	bind := map[string]int{}
	for k, v := range s.env {
		bind[k] = v
	}

	// Resolve the worker count per contiguous run: the kernel must be
	// provably partition-safe, the run wide enough that per-worker work
	// amortizes goroutine startup, and no runtime guard (a range-invariant
	// read of a partitioned array) may land inside the run. The virtual
	// Charge is divided by the same worker count, so simulated multicore
	// slaves speed up exactly as real ones do. On the aot tier the VM
	// range kernel stays the oracle for guard and worker resolution, but
	// dispatch goes to the native kernel; a native kernel that refuses
	// parallel dispatch (reduction chain, subprocess runner) caps w at 1.
	rk := s.kernels[st]
	ak := s.aotKernels[st]
	iarr := s.iarr[st]
	var perUnit float64
	var unitFlops []float64 // per-unit estimates, indirect bodies only
	if iarr {
		// Data-dependent body: the midpoint sample is meaningless, so walk
		// the owned units and estimate each one against the live arrays.
		// The simulated charge then reflects the real skew — exactly the
		// signal the learned cost model measures.
		local := map[string]int{}
		for k, v := range s.env {
			local[k] = v
		}
		unitFlops = make([]float64, 0, count)
		for _, r := range runs {
			for u := r[0]; u < r[1]; u++ {
				local[st.Var] = u
				unitFlops = append(unitFlops, s.inst.EstFlops(st.Body, local))
			}
		}
	} else {
		perUnit = s.perUnitFlops(st.Body, st.Var, lo+(hi-lo)/2)
	}
	// bw is the boundary width of the pending overlap: units within bw of a
	// run edge may read a ghost and form the boundary region; everything
	// deeper is interior and safe to compute before the receives complete.
	bw := 0
	for _, ex := range pend {
		d := ex.Delta
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	ws := make([]int, len(runs))
	charge := 0.0
	chargeInt := 0.0 // interior share of charge when splitting
	flopSec := s.cfg.FlopCost.Seconds()
	ui := 0
	for i, r := range runs {
		runFlops := perUnit * float64(r[1]-r[0])
		if iarr {
			runFlops = 0
			for k := 0; k < r[1]-r[0]; k++ {
				runFlops += unitFlops[ui+k]
			}
		}
		// Worker counts resolve on the FULL run even when splitting, so the
		// per-unit cost attribution and the virtual charge sum match the
		// synchronous schedule exactly.
		w := 1
		if rk != nil && s.cores > 1 && rk.ParallelSafe() && (ak == nil || ak.K.CanParallel()) {
			w = s.cores
			if lim := int(runFlops / kernelParMinFlops); lim < w {
				w = lim
			}
			if w > 1 {
				w = rk.Workers(r[0], r[1], bind, w)
			}
			if w < 1 {
				w = 1
			}
		}
		ws[i] = w
		charge += runFlops / float64(w)
		if bw > 0 {
			if ilo, ihi := r[0]+bw, r[1]-bw; ihi > ilo {
				intFlops := perUnit * float64(ihi-ilo)
				if iarr {
					intFlops = 0
					for u := ilo; u < ihi; u++ {
						intFlops += unitFlops[ui+u-r[0]]
					}
				}
				chargeInt += intFlops / float64(w)
			}
		}
		if s.costOn {
			for u := r[0]; u < r[1]; u++ {
				f := perUnit
				if iarr {
					f = unitFlops[ui+u-r[0]]
				}
				s.costAcc[u] += f / float64(w) * flopSec
			}
		}
		ui += r[1] - r[0]
	}
	total := time.Duration(charge * float64(s.cfg.FlopCost))

	frag := s.frags[st]
	runRange := func(rlo, rhi, w int) {
		if rhi <= rlo {
			return
		}
		switch {
		case ak != nil && w > 1:
			ak.RunParallel(rlo, rhi, bind, w)
		case ak != nil:
			ak.Run(rlo, rhi, bind)
		case rk == nil:
			bind[rangeLo], bind[rangeHi] = rlo, rhi
			frag.Run(bind)
		case w > 1:
			rk.RunParallel(rlo, rhi, bind, w)
		default:
			rk.Run(rlo, rhi, bind)
		}
	}
	if bw == 0 {
		// Synchronous schedule (no deferred exchange): one charge, one pass.
		s.ep.Charge(total)
		s.ep.Timed(func() {
			for i, r := range runs {
				runRange(r[0], r[1], ws[i])
			}
		})
	} else {
		// Split schedule: interior compute overlaps the in-flight ghosts,
		// then the receives complete, then the boundary units run. The
		// boundary charge is the exact remainder of the synchronous total,
		// so Busy — and with it every status report and master decision —
		// is bit-identical to the synchronous path; only idle (elapsed)
		// time shrinks. Values match too: eligibility rules out reductions
		// and in-place stencils, so unit results are order-independent, and
		// interior units never read a ghost.
		intDur := time.Duration(chargeInt * float64(s.cfg.FlopCost))
		s.ep.Charge(intDur)
		s.ep.Timed(func() {
			for i, r := range runs {
				runRange(r[0]+bw, r[1]-bw, ws[i])
			}
		})
		s.completeGhosts(pend)
		s.ep.Charge(total - intDur)
		s.ep.Timed(func() {
			for i, r := range runs {
				ilo, ihi := r[0]+bw, r[1]-bw
				if ihi <= ilo {
					runRange(r[0], r[1], ws[i])
					continue
				}
				runRange(r[0], ilo, ws[i])
				runRange(ihi, r[1], ws[i])
			}
		})
		s.overlapRounds++
	}
	s.unitsDone += float64(count)
	switch {
	case ak != nil:
		s.aotUnits += int64(count)
	case rk != nil:
		s.kernelUnits += int64(count)
	default:
		s.fallbackUnits += int64(count)
	}
}

// kernelParMinFlops is the minimum estimated work per worker before an
// owned run is split across cores; below it goroutine startup dominates
// the compute it buys.
const kernelParMinFlops = 20000

// drainPending completes deferred ghost receives on a carrier loop that
// ran no interior work (nothing owned in range this round): the overlap
// bought nothing, which counts as a fallback round.
func (s *slave) drainPending(pend []*compile.Exchange) {
	if len(pend) == 0 {
		return
	}
	s.completeGhosts(pend)
	s.overlapFallback++
}

func (s *slave) execOwnerBlock(st *compile.OwnerBlock) {
	if s.ff {
		return
	}
	idx := s.eval(st.Index)
	if idx < 0 || idx >= s.exec.Units || s.own.OwnerOf(idx) != s.id {
		return
	}
	flops := loopir.EstFlops(st.Body, s.env)
	s.ep.Charge(time.Duration(flops * float64(s.cfg.FlopCost)))
	s.ep.Timed(func() { s.ownerFrags[st].Run(s.env) })
}

func (s *slave) execAll(st *compile.AllStmts) {
	if s.ff {
		return
	}
	for _, af := range s.allFrags {
		if af.step == st {
			flops := loopir.EstFlops(st.Body, s.env)
			s.ep.Charge(time.Duration(flops * float64(s.cfg.FlopCost)))
			s.ep.Timed(func() { af.frag.Run(s.env) })
			// Replicated statements run identically on every slave, so
			// their result is shared state: refresh reduction snapshots so
			// the next Combine's deltas are measured from here (e.g. the
			// residual reset at the top of a convergence sweep).
			for arr, snap := range s.redSnap {
				copy(snap, s.inst.Arrays[arr].Data)
			}
			return
		}
	}
}

// execExchange performs the sweep-start ghost exchange: whole-unit
// transfers of old boundary values (paper Figure 3a's first send/receive).
// Split-loop eligible exchanges (with overlap enabled) only post their
// sends here; the receives are deferred to the carrier loop's execOwned,
// which runs its interior units first so the round-trip hides behind
// compute. The send order is identical either way, and the deferred
// receives drain each (sender, tag) mailbox in the same order the
// synchronous path would, so the data flow — and every value — matches the
// synchronous schedule exactly.
func (s *slave) execExchange(st *compile.Exchange) {
	if s.ff {
		return
	}
	s.sendGhosts(st)
	if s.overlapOn && st.Overlap && st.Carrier != nil {
		s.pending[st.Carrier] = append(s.pending[st.Carrier], st)
		return
	}
	s.recvGhosts(st)
}

// sendGhosts posts one exchange's boundary-unit sends.
func (s *slave) sendGhosts(st *compile.Exchange) {
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "ghost:" + st.Array
	for _, sp := range s.ghostSuppliesCached(st.Delta) {
		vals := unitSlice(arr, dim, sp.Unit)
		s.send(sp.To, tag, floatsBytes(len(vals)), SliceMsg{Unit: sp.Unit, RowLo: -1, RowHi: -1, Vals: vals})
	}
}

// recvGhosts completes one exchange's ghost receives. The needs list is
// stable between posting and completion: ownership and the active set only
// change at hooks, and compile-time eligibility guarantees no hook sits
// between an overlapped exchange and its carrier loop.
func (s *slave) recvGhosts(st *compile.Exchange) {
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "ghost:" + st.Array
	for _, g := range s.ghostNeedsCached(st.Delta) {
		m := s.recvPeer(s.own.OwnerOf(g), tag).Data.(SliceMsg)
		if m.Unit != g {
			panic(fmt.Sprintf("slave%d: ghost mismatch: got unit %d, want %d", s.id, m.Unit, g))
		}
		setUnitSlice(arr, dim, g, m.Vals)
	}
}

// completeGhosts drains a carrier's deferred exchange receives in posting
// order.
func (s *slave) completeGhosts(pend []*compile.Exchange) {
	for _, st := range pend {
		s.recvGhosts(st)
	}
}

// execPipeRecv receives the current strip block's rows of the pipeline
// ghost unit — values the neighbor computed earlier in this sweep.
func (s *slave) execPipeRecv(st *compile.PipeRecv) {
	if s.ff {
		return
	}
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "pipe:" + st.Array
	for _, g := range s.ghostNeedsCached(st.Delta) {
		m := s.recvPeer(s.own.OwnerOf(g), tag).Data.(SliceMsg)
		if m.Unit != g || m.RowLo != s.blockLo {
			panic(fmt.Sprintf("slave%d: pipe mismatch: got unit %d rows [%d,%d), want unit %d rows [%d,%d)",
				s.id, m.Unit, m.RowLo, m.RowHi, g, s.blockLo, s.blockHi))
		}
		setUnitSliceRows(arr, dim, g, st.RowDim, m.RowLo, m.RowHi, m.Vals)
	}
}

// execPipeSend sends the current strip block's rows of our boundary units
// to the neighbors that read them next.
func (s *slave) execPipeSend(st *compile.PipeSend) {
	if s.ff {
		return
	}
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "pipe:" + st.Array
	for _, sp := range s.ghostSuppliesCached(-st.Delta) {
		vals := unitSliceRows(arr, dim, sp.Unit, st.RowDim, s.blockLo, s.blockHi)
		s.send(sp.To, tag, floatsBytes(len(vals)),
			SliceMsg{Unit: sp.Unit, RowLo: s.blockLo, RowHi: s.blockHi, Vals: vals})
	}
}

// flatBcast forces the legacy owner-sends-to-everyone broadcast. It exists
// for the differential test that pins the binomial tree's results to the
// flat path's.
var flatBcast = false

// execBcast broadcasts one unit from its owner to everyone else (§4.6)
// along a binomial tree over the alive roster: the owner seeds the relay
// and every receiver forwards to the peers in its subtree, so the critical
// path is O(log P) messages instead of the owner serializing P−1 sends.
// Every slave derives the identical tree from the shared ownership and
// alive state, and the payload is relayed verbatim, so the received values
// are bit-identical to the flat path.
func (s *slave) execBcast(st *compile.Bcast) {
	if s.ff {
		return
	}
	idx := s.eval(st.Index)
	if idx < 0 || idx >= s.exec.Units {
		return
	}
	arr := s.inst.Arrays[st.Array]
	dim := s.exec.Plan.DistArrays[st.Array]
	tag := "bcast:" + st.Array
	owner := s.own.OwnerOf(idx)
	if flatBcast {
		if owner == s.id {
			// unitSlice already returns a fresh snapshot and receivers only
			// copy out of Vals, so one shared payload serves every peer — no
			// per-message defensive copy.
			vals := unitSlice(arr, dim, idx)
			for other := 0; other < s.own.Slaves(); other++ {
				if other == s.id || !s.peerAlive(other) {
					continue
				}
				s.send(other, tag, floatsBytes(len(vals)),
					SliceMsg{Unit: idx, RowLo: -1, RowHi: -1, Vals: vals})
			}
			return
		}
		m := s.recvPeer(owner, tag).Data.(SliceMsg)
		if m.Unit != idx {
			panic(fmt.Sprintf("slave%d: bcast mismatch: got unit %d, want %d", s.id, m.Unit, idx))
		}
		setUnitSlice(arr, dim, idx, m.Vals)
		return
	}

	// Alive roster in id order; ranks are relative to the owner's position
	// so the owner is the tree root (relative rank 0).
	peers := make([]int, 0, s.own.Slaves())
	myPos, rootPos := -1, -1
	for o := 0; o < s.own.Slaves(); o++ {
		if o != s.id && !s.peerAlive(o) {
			continue
		}
		if o == s.id {
			myPos = len(peers)
		}
		if o == owner {
			rootPos = len(peers)
		}
		peers = append(peers, o)
	}
	if rootPos < 0 {
		// Owner not alive in our view: recovery will rewind this epoch.
		return
	}
	n := len(peers)
	rel := (myPos - rootPos + n) % n

	var vals []float64
	if rel == 0 {
		vals = unitSlice(arr, dim, idx)
	}
	// Receive phase: find the lowest set bit of our relative rank — the
	// peer rel−mask sends to us.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := peers[(rel-mask+rootPos)%n]
			m := s.recvPeer(src, tag).Data.(SliceMsg)
			if m.Unit != idx {
				panic(fmt.Sprintf("slave%d: bcast mismatch: got unit %d, want %d", s.id, m.Unit, idx))
			}
			setUnitSlice(arr, dim, idx, m.Vals)
			vals = m.Vals
			break
		}
		mask <<= 1
	}
	// Relay phase: forward down the subtree, halving the mask. The payload
	// is shared — receivers only copy out of Vals.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			dst := peers[(rel+mask+rootPos)%n]
			s.send(dst, tag, floatsBytes(len(vals)),
				SliceMsg{Unit: idx, RowLo: -1, RowHi: -1, Vals: vals})
		}
	}
}

func (s *slave) deactivateOutside(lo, hi int) {
	for u := 0; u < s.own.Units(); u++ {
		if (u < lo || u >= hi) && s.own.IsActive(u) {
			s.own.Deactivate(u)
		}
	}
	s.invalidateOwned()
}

// execHook implements the load-balancing hook (§4.2/§4.3): skip counting,
// status reporting, instruction receipt, and work movement.
func (s *slave) execHook(st *compile.Hook) {
	if st.Level != s.exec.ActiveLevel {
		return
	}
	if s.ff {
		// Fast-forward counts hook visits without contacting the master;
		// the checkpoint already contains the effects of hook ffUntil, so
		// normal execution resumes immediately after it.
		hv := s.hookVisit
		s.hookVisit++
		if hv == s.ffUntil {
			s.ff = false
		}
		return
	}
	s.fault.heartbeat(s)
	hv := s.hookVisit
	s.hookVisit++
	if !s.cfg.DLB || hv != s.nextContact {
		s.ep.Charge(s.cfg.HookCheckCost)
		return
	}

	busyStart := s.ep.Busy()
	status := StatusMsg{
		Phase:      s.phase,
		HookIndex:  hv,
		Units:      s.unitsDone,
		Busy:       busyStart - s.busyMark,
		MoveCost:   s.lastMove,
		InterCost:  s.lastInter,
		Epoch:      s.epoch,
		CostBlocks: s.drainCostBlocks(),
	}
	if s.part != nil {
		s.sendStatusHier(status)
	} else {
		s.ep.Send(cluster.MasterID, "status", 64, status)
	}
	s.unitsDone = 0

	wantInstr := true
	if !s.cfg.Synchronous && s.phase == 0 {
		wantInstr = false // pipelined: nothing in flight yet
	}
	if s.skipInstrOnce {
		wantInstr = false // ditto right after a recovery epoch restart
		s.skipInstrOnce = false
	}
	ckptSeq := 0
	if wantInstr {
		// The interaction cost fed to the period rule (20x bound) is the
		// CPU overhead of the exchange, not time spent blocked waiting for
		// the instruction (pipelining exists precisely to hide that wait).
		s.lastInter = s.ep.Busy() - busyStart
		var instr InstrMsg
		if s.part != nil {
			instr = s.recvInstrHier()
		} else {
			instr = s.fault.recvInstr(s)
		}
		s.applyInstr(instr)
		ckptSeq = instr.CkptSeq
	} else {
		s.lastInter = s.ep.Busy() - busyStart
		// No instruction consumed (first pipelined contact): keep
		// contacting every hook until the master assigns a skip.
		s.nextContact = s.hookVisit
	}
	s.phase++
	s.busyMark = s.ep.Busy()
	s.fault.checkpoint(s, hv, ckptSeq)
}

// applyInstr updates the active set, executes the work movement this slave
// participates in, and adopts the new hook-skip count.
func (s *slave) applyInstr(instr InstrMsg) {
	meta := s.exec.Phases[instr.HookIndex]
	s.deactivateOutside(meta.ActiveLo, meta.ActiveHi)

	if len(instr.Moves) > 0 {
		t0 := s.ep.Now()
		for _, m := range instr.Moves {
			s.applyMove(m)
		}
		s.invalidateOwned()
		s.lastMove = s.ep.Now() - t0
	}
	s.nextContact = s.hookVisit + instr.SkipHooks
	if s.nextContact < s.hookVisit {
		s.nextContact = s.hookVisit
	}
}

func (s *slave) applyMove(m core.Move) {
	plan := s.exec.Plan
	switch {
	case m.From == s.id:
		moved := map[int]bool{}
		for _, u := range m.Units {
			moved[u] = true
		}
		w := WorkMsg{Units: m.Units, Data: map[string][][]float64{}, Ghosts: map[string]map[int][]float64{}}
		bytes := msgHeader
		for arr, dim := range plan.DistArrays {
			a := s.inst.Arrays[arr]
			slices := make([][]float64, len(m.Units))
			for i, u := range m.Units {
				slices[i] = unitSlice(a, dim, u)
				bytes += 8 * len(slices[i])
			}
			w.Data[arr] = slices
			// Ghost payload: data adjacent to the moved range so the new
			// owner's stale copies are refreshed (§4.5).
			if len(plan.GhostDeltas) > 0 {
				gm := map[int][]float64{}
				for _, delta := range plan.GhostDeltas {
					for _, u := range m.Units {
						g := u + delta
						if g < 0 || g >= s.exec.Units || moved[g] {
							continue
						}
						if _, dup := gm[g]; dup {
							continue
						}
						gm[g] = unitSlice(a, dim, g)
						bytes += 8 * len(gm[g])
					}
				}
				w.Ghosts[arr] = gm
			}
		}
		s.send(m.To, "work", bytes, w)
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	case m.To == s.id:
		msg := s.recvPeer(m.From, "work").Data.(WorkMsg)
		for arr, slices := range msg.Data {
			dim := plan.DistArrays[arr]
			a := s.inst.Arrays[arr]
			for i, u := range msg.Units {
				setUnitSlice(a, dim, u, slices[i])
			}
		}
		for arr, gm := range msg.Ghosts {
			dim := plan.DistArrays[arr]
			a := s.inst.Arrays[arr]
			for g, vals := range gm {
				// Only refresh units we do not hold authoritative data
				// for: the sender's ghost copy is stale for units we own.
				if s.own.OwnerOf(g) == s.id {
					continue
				}
				setUnitSlice(a, dim, g, vals)
			}
		}
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	default:
		if err := s.own.Apply(m); err != nil {
			panic(fmt.Sprintf("slave%d: %v", s.id, err))
		}
	}
}

// send is the slave-to-slave send (epoch-scoped tag under the FT policy).
func (s *slave) send(to int, tag string, bytes int, data interface{}) {
	s.ep.Send(to, s.fault.commTag(s, tag), bytes, data)
}

// recvPeer is the slave-to-slave blocking receive.
func (s *slave) recvPeer(from int, tag string) cluster.Msg {
	return s.fault.recvPeer(s, from, tag)
}

func (s *slave) peerAlive(o int) bool { return s.fault.peerAlive(s, o) }

func (s *slave) designated() bool { return s.fault.designated(s) }

// sendStatusHier routes the contact report through the hierarchy: a
// member reports to its group leader; the leader collects its members'
// reports in id order, charges the per-report processing cost that the
// centralized master would otherwise pay for them, and ships one
// aggregate to the master.
func (s *slave) sendStatusHier(status StatusMsg) {
	g := s.part.GroupOf(s.id)
	if !s.part.IsLeader(s.id) {
		s.ep.Send(s.part.Leader(g), "status", 64, status)
		return
	}
	members := s.part.Members(g)
	gs := GroupStatusMsg{
		Group:    g,
		Ids:      make([]int, 0, len(members)),
		Statuses: make([]StatusMsg, 0, len(members)),
	}
	gs.Ids = append(gs.Ids, s.id)
	gs.Statuses = append(gs.Statuses, status)
	for _, m := range members {
		if m == s.id {
			continue
		}
		st := s.ep.Recv(m, "status").Data.(StatusMsg)
		gs.Ids = append(gs.Ids, m)
		gs.Statuses = append(gs.Statuses, st)
	}
	s.ep.Charge(time.Duration(len(members)) * s.cfg.PerReportCost)
	s.ep.Send(cluster.MasterID, "gstatus", 64*len(members), gs)
}

// recvInstrHier receives the grouped instruction. The leader takes the
// master's GroupShiftMsg and relays the instruction to its members BEFORE
// applying it itself: applying may block on work transfers from members,
// and the members are blocked waiting for this very instruction.
func (s *slave) recvInstrHier() InstrMsg {
	g := s.part.GroupOf(s.id)
	if !s.part.IsLeader(s.id) {
		return s.ep.Recv(s.part.Leader(g), "instr").Data.(InstrMsg)
	}
	instr := s.ep.Recv(cluster.MasterID, "ginstr").Data.(GroupShiftMsg).Instr
	bytes := 64
	for _, mv := range instr.Moves {
		bytes += 16 + 8*len(mv.Units)
	}
	for _, m := range s.part.Members(g) {
		if m == s.id {
			continue
		}
		s.ep.Send(m, "instr", bytes, instr)
	}
	return instr
}

// sendDoneHier routes the termination announcement through the
// hierarchy. Every slave follows the identical schedule, so when the
// leader finishes its members finish in the same round; the leader
// aggregates their announcements and the master receives one per group.
func (s *slave) sendDoneHier(done StatusMsg) {
	g := s.part.GroupOf(s.id)
	if !s.part.IsLeader(s.id) {
		s.ep.Send(s.part.Leader(g), "done", 64, done)
		return
	}
	members := s.part.Members(g)
	gs := GroupStatusMsg{
		Group:    g,
		Ids:      make([]int, 0, len(members)),
		Statuses: make([]StatusMsg, 0, len(members)),
	}
	gs.Ids = append(gs.Ids, s.id)
	gs.Statuses = append(gs.Statuses, done)
	for _, m := range members {
		if m == s.id {
			continue
		}
		st := s.ep.Recv(m, "done").Data.(StatusMsg)
		gs.Ids = append(gs.Ids, m)
		gs.Statuses = append(gs.Statuses, st)
	}
	s.ep.Send(cluster.MasterID, "gdone", 64*len(members), gs)
}

// runTree executes the step tree once and announces termination: with
// data-dependent break conditions the number of balancing phases is only
// known here, at run time (§4.1).
func (s *slave) runTree() {
	s.execSteps(s.exec.Plan.Steps)
	done := StatusMsg{
		Phase:           s.phase,
		HookIndex:       s.hookVisit,
		Done:            true,
		Epoch:           s.epoch,
		AotUnits:        s.aotUnits,
		KernelUnits:     s.kernelUnits,
		FallbackUnits:   s.fallbackUnits,
		OverlapRounds:   s.overlapRounds,
		OverlapFallback: s.overlapFallback,
	}
	if s.part != nil {
		s.sendDoneHier(done)
		return
	}
	s.ep.Send(cluster.MasterID, "done", 64, done)
}

// applyRecover installs a recovery epoch: restore the checkpointed arrays,
// ownership and reduction state, adopt the (possibly repaired and grown)
// membership, and arm the fast-forward that replays control flow up to the
// checkpoint hook.
func (s *slave) applyRecover(a AdoptMsg) {
	plan := s.exec.Plan
	s.epoch = a.Epoch
	s.slaves = a.Slaves
	s.alive = append([]bool(nil), a.Alive...)
	s.own = core.OwnershipFromMap(a.Owner, a.Active, a.Slaves)
	s.invalidateOwned()

	for arr := range plan.DistArrays {
		s.inst.Arrays[arr].Fill(nil)
	}
	for arr, units := range a.Owned {
		dim := plan.DistArrays[arr]
		for u, vals := range units {
			setUnitSlice(s.inst.Arrays[arr], dim, u, vals)
		}
	}
	for arr, vals := range a.Replicated {
		copy(s.inst.Arrays[arr].Data, vals)
	}
	// Per-slave reduction values override the shared replicated copy.
	for arr, vals := range a.Red {
		copy(s.inst.Arrays[arr].Data, vals)
	}
	s.redSnap = map[string][]float64{}
	for arr, vals := range a.RedSnap {
		s.redSnap[arr] = append([]float64(nil), vals...)
	}

	s.phase = a.Phase
	s.nextContact = a.NextContact
	s.hookVisit = 0
	s.ff = a.Hook >= 0
	s.ffUntil = a.Hook
	s.skipInstrOnce = !s.cfg.Synchronous && a.Hook >= 0
	s.unitsDone = 0
	s.aotUnits, s.kernelUnits, s.fallbackUnits = 0, 0, 0
	// Overlap rounds are replayed by the restarted epoch, so the counter
	// resets with the other dispatch counters; abandoned rounds are not
	// replayed as overlap (their in-flight ghosts died with the old
	// epoch's tags), so the fallback count survives the restart.
	if len(s.pending) > 0 {
		s.pending = map[*compile.OwnedLoop][]*compile.Exchange{}
		s.overlapFallback++
	}
	s.overlapRounds = 0
	for i := range s.costAcc {
		s.costAcc[i] = 0
	}
	s.busyMark = s.ep.Busy()
	s.lastMove, s.lastInter = 0, 0
	s.blockLo, s.blockHi = 0, 0
	s.lastHB = s.ep.Now()
	s.env = map[string]int{}
	for k, v := range s.exec.Params {
		s.env[k] = v
	}
}
