package dlb

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/loopir"
)

// Message payloads. In the simulated cluster these travel by reference but
// all float data is copied at send time, so the timing model and the data
// flow match a real message-passing system.

// StatusMsg is a slave's report at a load-balancing contact (or, with
// tag "done", its termination announcement).
type StatusMsg struct {
	Phase     int
	HookIndex int
	Units     float64       // work units completed since the last contact
	Busy      time.Duration // busy time spent computing since the last contact
	MoveCost  time.Duration // measured cost of the last work movement
	InterCost time.Duration // measured cost of the previous interaction
	Done      bool
	// Epoch is the recovery epoch this report belongs to (fault-tolerant
	// runs only); the master drops reports from earlier epochs.
	Epoch int
	// Dispatch accounting, reported with the termination announcement:
	// how many owned units ran through AOT-built native kernels, compiled
	// range kernels, or the interpreter fallback (engine counters
	// aot_units / kernel_units / fallback_units).
	AotUnits      int64
	KernelUnits   int64
	FallbackUnits int64
	// Overlap accounting (engine counters overlap_rounds /
	// overlap_fallback): owned-loop executions that ran the split
	// interior/boundary schedule with ghost receives deferred past the
	// interior pass, and eligible exchange rounds that ended up effectively
	// synchronous at run time (drained with no interior work, or abandoned
	// by an epoch restart).
	OverlapRounds   int64
	OverlapFallback int64
	// CostBlocks summarizes the measured per-unit cost of the work this
	// report covers (learned cost model; nil under the uniform model).
	// Ranges are clamped to maxCostBlocks entries per report.
	CostBlocks []CostBlock
}

// InstrMsg is the master's reply: redistribution moves and the hook-skip
// count until the next contact.
type InstrMsg struct {
	Phase     int // the contact phase whose statuses produced this instruction
	HookIndex int
	Moves     []core.Move
	SkipHooks int
	Epoch     int // recovery epoch (fault-tolerant runs); stale instrs are dropped
	// CkptSeq pairs this instruction with the CheckpointRequestMsg sent
	// immediately before it (0: none). The slave answers exactly that
	// request after applying this instruction; matching by sequence — not
	// just mailbox order — keeps the cut consistent even when the master
	// races a full round ahead of a descheduled slave process.
	CkptSeq int
}

// GroupStatusMsg aggregates one group's per-member status reports (tag
// "gstatus") or termination announcements (tag "gdone"), assembled by the
// group leader so the master receives one message per group instead of
// one per slave. Ids and Statuses are aligned, member order ascending,
// leader first.
type GroupStatusMsg struct {
	Group    int
	Ids      []int
	Statuses []StatusMsg
}

// GroupShiftMsg is the master's grouped reply (tag "ginstr"): the round's
// instruction, which the receiving leader relays to its members before
// applying it itself. The embedded instruction already carries both the
// intra-group rebalancing moves and the diffusive cross-boundary shifts —
// a shift is an ordinary adjacent move whose endpoints straddle a group
// boundary.
type GroupShiftMsg struct {
	Instr InstrMsg
}

// WorkMsg carries moved work units' data plus the ghost slices adjacent to
// the moved range (§4.5: moved iterations must arrive in a consistent
// state; shipping the sender's ghost data achieves that).
type WorkMsg struct {
	Units  []int
	Data   map[string][][]float64       // array -> slices aligned with Units
	Ghosts map[string]map[int][]float64 // array -> ghost unit -> slice
}

// SliceMsg is a pipeline, exchange, or broadcast transfer of (part of) one
// unit slice.
type SliceMsg struct {
	Unit         int
	RowLo, RowHi int // -1,-1 for a whole-unit transfer
	Vals         []float64
}

// InitMsg is the initial scatter: a slave's owned slices of each
// distributed array plus full copies of the replicated arrays.
type InitMsg struct {
	Owned      map[string]map[int][]float64
	Replicated map[string][]float64
	// FromCache marks a bulk-free scatter: the receiving daemon announced
	// it still holds this plan's init payload from an earlier run, so the
	// master shipped only this marker and the daemon re-plays its cached
	// copy (netrun's plan-hash init cache).
	FromCache bool
}

// GatherMsg is the final collection of a slave's owned data.
type GatherMsg struct {
	Data map[string]map[int][]float64
	// Reduced carries the final combined values of reduction arrays
	// (reported by slave 0; identical on every slave after Combine).
	Reduced map[string][]float64
}

// Fault-tolerance messages (internal/fault subsystem). All are exchanged
// with the master only; slave-to-slave traffic is instead epoch-scoped by
// tag suffix so stale in-flight data from before a recovery is never
// consumed.

// HeartbeatMsg is a slave's lightweight sign of life, emitted at hook sites
// and while blocked in a receive, so the master can distinguish a crashed
// slave from one that is merely computing or waiting between contacts.
type HeartbeatMsg struct {
	Epoch     int
	Phase     int
	HookIndex int
}

// EvictMsg is sent by the master directly to a slave it has declared dead.
// A stalled slave that resumes after eviction (a "zombie") sees it at its
// next receive and terminates instead of corrupting the recovered epoch.
// It also shuts down joiner processes that were never admitted.
type EvictMsg struct {
	Epoch  int
	Reason string
}

// CheckpointRequestMsg asks every live slave for a snapshot at its next
// master contact. It is sent immediately before the round's InstrMsg, so
// FIFO delivery guarantees the slave observes it exactly when it consumes
// that instruction — the same hook on every slave, a consistent cut.
type CheckpointRequestMsg struct {
	Epoch int
	Seq   int
}

// CheckpointMsg is one slave's part of checkpoint Seq: its owned slices of
// the distributed arrays plus resume coordinates. Only the designated slave
// (lowest alive id) ships the shared state — ownership map, replicated
// arrays, reduction snapshots — which is identical on every slave.
type CheckpointMsg struct {
	Epoch       int
	Seq         int
	Slave       int
	Hook        int // hook index the snapshot was taken at
	Phase       int // contact-phase counter to resume with
	NextContact int
	Owned       map[string]map[int][]float64
	// Red holds this slave's reduction arrays: mid-interval partial
	// accumulations differ per slave and must be restored per slave.
	Red map[string][]float64
	// Shared state, present only in the designated slave's part.
	Meta       bool
	Slaves     int
	Owner      []int
	Active     []bool
	Replicated map[string][]float64
	RedSnap    map[string][]float64
}

// FinAckMsg commits run completion: only after receiving it may a slave
// stop participating in recovery and ship its final data (a slave that
// announced "done" can still be rolled back if a peer died in the final
// round before the master saw every survivor finish).
type FinAckMsg struct {
	Epoch int
}

// JoinMsg announces an idle node asking to be folded into the computation.
type JoinMsg struct {
	Slave int
}

// AdoptMsg restarts a recovery epoch: every surviving (and newly admitted)
// slave restores the carried checkpoint state, fast-forwards its control
// flow to the checkpoint hook, and resumes. It is a full re-scatter, so
// slaves need not retain local snapshots.
type AdoptMsg struct {
	Epoch       int
	Seq         int
	Hook        int // -1: restart from the initial distribution
	Phase       int
	NextContact int
	Slaves      int
	Alive       []bool
	Owner       []int
	Active      []bool
	Owned       map[string]map[int][]float64 // this slave's units (plus needed ghosts) under the repaired map
	Red         map[string][]float64         // this slave's reduction arrays (dead slaves' deltas folded in)
	Replicated  map[string][]float64
	RedSnap     map[string][]float64
}

const msgHeader = 32 // estimated fixed framing bytes per message

func floatsBytes(n int) int { return msgHeader + 8*n }

// unitSize returns the number of elements in one distributed slice of the
// array.
func unitSize(a *loopir.Array, dim int) int {
	return len(a.Data) / a.Dims[dim]
}

// unitSlice copies the elements of the array with index dim fixed at u, in
// canonical (row-major, dim removed) order. The selection decomposes into
// contiguous runs copied with copy() (or a tight strided loop when runs
// degenerate to single elements); the per-element walk remains as the
// fallback and as the oracle the fast path is tested against.
func unitSlice(a *loopir.Array, dim, u int) []float64 {
	out := make([]float64, 0, unitSize(a, dim))
	if fast, ok := gatherUnit(out, a, dim, u, -1, 0, 0); ok {
		return fast
	}
	forEachUnitElem(a, dim, u, -1, 0, 0, func(flat int) {
		out = append(out, a.Data[flat])
	})
	return out
}

// setUnitSlice writes a slice produced by unitSlice back at index u.
func setUnitSlice(a *loopir.Array, dim, u int, vals []float64) {
	if scatterUnit(a, dim, u, -1, 0, 0, vals) {
		return
	}
	i := 0
	forEachUnitElem(a, dim, u, -1, 0, 0, func(flat int) {
		a.Data[flat] = vals[i]
		i++
	})
	if i != len(vals) {
		panic(fmt.Sprintf("dlb: slice length %d does not match unit size %d", len(vals), i))
	}
}

// unitSliceRows copies the elements with index dim = u and rowDim in
// [rowLo, rowHi).
func unitSliceRows(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) []float64 {
	if fast, ok := gatherUnit(nil, a, dim, u, rowDim, rowLo, rowHi); ok {
		return fast
	}
	var out []float64
	forEachUnitElem(a, dim, u, rowDim, rowLo, rowHi, func(flat int) {
		out = append(out, a.Data[flat])
	})
	return out
}

// setUnitSliceRows writes back a slice produced by unitSliceRows.
func setUnitSliceRows(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, vals []float64) {
	if scatterUnit(a, dim, u, rowDim, rowLo, rowHi, vals) {
		return
	}
	i := 0
	forEachUnitElem(a, dim, u, rowDim, rowLo, rowHi, func(flat int) {
		a.Data[flat] = vals[i]
		i++
	})
	if i != len(vals) {
		panic(fmt.Sprintf("dlb: row slice length %d does not match selection %d", len(vals), i))
	}
}

// runShape is the contiguous-run decomposition of a unit selection: the
// canonical-order walk visits runs of n consecutive elements, one per
// combination of the outer loop counters, each starting at
// off + Σ v_i·oStride_i.
type runShape struct {
	off, n            int
	nOuter            int
	oLo, oHi, oStride [4]int
}

// total is the element count of the whole selection.
func (sh *runShape) total() int {
	t := sh.n
	for i := 0; i < sh.nOuter; i++ {
		t *= sh.oHi[i] - sh.oLo[i]
	}
	return t
}

// unitRunShape computes the run decomposition for the selection
// (dim = u, optionally rowDim in [rowLo, rowHi)). The innermost dim that
// breaks contiguity is k = max(dim, restricted rowDim): everything after k
// is iterated fully, so each setting of the dims up to k yields one
// contiguous run — Stride[dim] elements at u·Stride[dim] when k == dim,
// (hi−lo)·Stride[k] elements starting at lo·Stride[k] when k == rowDim.
// Dims before k (minus the fixed dim) become the outer loops. Returns
// ok = false for shapes it does not cover (rowDim == dim, > 4 outer dims);
// the caller falls back to the per-element walk.
func unitRunShape(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) (runShape, bool) {
	var sh runShape
	if dim < 0 || dim >= len(a.Dims) || rowDim == dim || rowDim >= len(a.Dims) {
		return sh, false
	}
	k := dim
	lo, hi := 0, 0
	if rowDim >= 0 {
		lo, hi = rowLo, rowHi
		if lo < 0 {
			lo = 0
		}
		if hi > a.Dims[rowDim] {
			hi = a.Dims[rowDim]
		}
		if hi < lo {
			hi = lo
		}
		if rowDim > k {
			k = rowDim
		}
	}
	sh.off, sh.n = u*a.Stride[dim], a.Stride[dim]
	if rowDim == k && rowDim >= 0 {
		sh.off += lo * a.Stride[k]
		sh.n = (hi - lo) * a.Stride[k]
	}
	for d := 0; d < k; d++ {
		if d == dim {
			continue
		}
		if sh.nOuter == len(sh.oLo) {
			return sh, false
		}
		l, h := 0, a.Dims[d]
		if d == rowDim {
			l, h = lo, hi
		}
		sh.oLo[sh.nOuter], sh.oHi[sh.nOuter], sh.oStride[sh.nOuter] = l, h, a.Stride[d]
		sh.nOuter++
	}
	return sh, true
}

// gatherUnit appends the selection to dst using contiguous copies (or a
// tight strided loop when runs are single elements, the column-distributed
// 2D case). ok = false means nothing was appended — fall back.
func gatherUnit(dst []float64, a *loopir.Array, dim, u, rowDim, rowLo, rowHi int) ([]float64, bool) {
	sh, ok := unitRunShape(a, dim, u, rowDim, rowLo, rowHi)
	if !ok {
		return dst, false
	}
	switch sh.nOuter {
	case 0:
		return append(dst, a.Data[sh.off:sh.off+sh.n]...), true
	case 1:
		l, h, s := sh.oLo[0], sh.oHi[0], sh.oStride[0]
		if sh.n == 1 {
			i := len(dst)
			dst = append(dst, make([]float64, h-l)...)
			col := a.Data[sh.off:]
			for v := l; v < h; v++ {
				dst[i] = col[v*s]
				i++
			}
			return dst, true
		}
		for v := l; v < h; v++ {
			o := sh.off + v*s
			dst = append(dst, a.Data[o:o+sh.n]...)
		}
		return dst, true
	case 2:
		for v0 := sh.oLo[0]; v0 < sh.oHi[0]; v0++ {
			b0 := sh.off + v0*sh.oStride[0]
			for v1 := sh.oLo[1]; v1 < sh.oHi[1]; v1++ {
				o := b0 + v1*sh.oStride[1]
				dst = append(dst, a.Data[o:o+sh.n]...)
			}
		}
		return dst, true
	}
	return dst, false
}

// scatterUnit writes vals over the selection with contiguous copies.
// Returns false (having written nothing) on uncovered shapes or a length
// mismatch — the fallback walk then reproduces the legacy panic.
func scatterUnit(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, vals []float64) bool {
	sh, ok := unitRunShape(a, dim, u, rowDim, rowLo, rowHi)
	if !ok || sh.total() != len(vals) {
		return false
	}
	switch sh.nOuter {
	case 0:
		copy(a.Data[sh.off:sh.off+sh.n], vals)
		return true
	case 1:
		l, h, s := sh.oLo[0], sh.oHi[0], sh.oStride[0]
		if sh.n == 1 {
			col := a.Data[sh.off:]
			for i, v := 0, l; v < h; v++ {
				col[v*s] = vals[i]
				i++
			}
			return true
		}
		i := 0
		for v := l; v < h; v++ {
			o := sh.off + v*s
			copy(a.Data[o:o+sh.n], vals[i:])
			i += sh.n
		}
		return true
	case 2:
		i := 0
		for v0 := sh.oLo[0]; v0 < sh.oHi[0]; v0++ {
			b0 := sh.off + v0*sh.oStride[0]
			for v1 := sh.oLo[1]; v1 < sh.oHi[1]; v1++ {
				o := b0 + v1*sh.oStride[1]
				copy(a.Data[o:o+sh.n], vals[i:])
				i += sh.n
			}
		}
		return true
	}
	return false
}

// forEachUnitElem visits the flat offsets of the array with index dim = u,
// optionally restricted to rowDim in [rowLo, rowHi), in canonical order.
func forEachUnitElem(a *loopir.Array, dim, u, rowDim, rowLo, rowHi int, fn func(flat int)) {
	idx := make([]int, len(a.Dims))
	var rec func(d, flat int)
	rec = func(d, flat int) {
		if d == len(a.Dims) {
			fn(flat)
			return
		}
		if d == dim {
			rec(d+1, flat+u*a.Stride[d])
			return
		}
		lo, hi := 0, a.Dims[d]
		if d == rowDim {
			lo, hi = rowLo, rowHi
			if lo < 0 {
				lo = 0
			}
			if hi > a.Dims[d] {
				hi = a.Dims[d]
			}
		}
		for v := lo; v < hi; v++ {
			idx[d] = v
			rec(d+1, flat+v*a.Stride[d])
		}
	}
	rec(0, 0)
}

// ghostNeeds lists the units (ascending) that slave me must receive to
// satisfy reads at the given distributed-dimension offset: units g = j +
// delta read by my active owned units j but owned elsewhere. OwnedActive
// yields ascending distinct units, so g = j + delta is already ascending
// and distinct — no dedup or sort needed.
func ghostNeeds(o *core.Ownership, me, delta int) []int {
	var out []int
	for _, j := range o.OwnedActive(me) {
		g := j + delta
		if g < 0 || g >= o.Units() || o.OwnerOf(g) == me {
			continue
		}
		out = append(out, g)
	}
	return out
}

// ghostSupply lists (ascending by unit) the units slave me must send, with
// their destinations: units g owned by me whose reader j = g − delta is an
// active unit owned by another slave.
type supply struct {
	Unit int
	To   int
}

func ghostSupplies(o *core.Ownership, me, delta int) []supply {
	// Owned yields ascending distinct units, and each unit has exactly one
	// reader j = g − delta, so the (Unit, To) pairs are unique and already
	// in canonical order — no dedup or sort needed.
	var out []supply
	for _, g := range o.Owned(me) {
		j := g - delta
		if j < 0 || j >= o.Units() || !o.IsActive(j) {
			continue
		}
		to := o.OwnerOf(j)
		if to == me {
			continue
		}
		out = append(out, supply{Unit: g, To: to})
	}
	return out
}

// contiguousRuns decomposes an ascending unit list intersected with
// [lo, hi) into maximal [start, end) runs.
func contiguousRuns(units []int, lo, hi int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(units); {
		u := units[i]
		if u < lo {
			i++
			continue
		}
		if u >= hi {
			break
		}
		start := u
		end := u + 1
		i++
		for i < len(units) && units[i] == end && end < hi {
			end++
			i++
		}
		runs = append(runs, [2]int{start, end})
	}
	return runs
}
