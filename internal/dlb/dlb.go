// Package dlb is the run-time library for automatically generated parallel
// programs with dynamic load balancing — the paper's master/slave system
// (§3, §4) executing compile.Plan programs on a simulated workstation
// cluster.
//
// One master process and N slave processes run on a cluster.Cluster.
// Slaves execute the generated step tree on full-size local arrays (only
// owned slices hold valid data; the ownership map is the paper's index
// array), exchanging boundary and pipeline data directly with each other.
// At load-balancing hooks they report work units per second of busy time to
// the master, which runs the internal/core balancing algorithm and returns
// redistribution instructions; work (data slices plus adjacent ghost
// slices) then moves directly between slaves. Master interactions are
// pipelined by default (§3.3) — instructions received at hook n were
// computed from the statuses of hook n−1 — or synchronous for the ablation
// experiment.
package dlb

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hier"
	"repro/internal/loopir"
	"repro/internal/metrics"
	"repro/internal/vtime"
)

// Config controls one parallel run.
type Config struct {
	// Plan is the compiled program.
	Plan *compile.Plan
	// Params binds the program parameters.
	Params map[string]int
	// DLB enables dynamic load balancing; when false the initial block
	// distribution is kept for the whole run (the paper's "parallel
	// execution" baseline).
	DLB bool
	// Synchronous selects blocking master interactions instead of
	// pipelined ones (§3.3 ablation).
	Synchronous bool
	// Balancer overrides parts of the core configuration. Slaves,
	// Restricted and Quantum are filled in by the runtime.
	MinImprovement       float64 // 0 means the paper's 10%
	DisableFilter        bool
	DisableProfitability bool
	// FlopCost is the virtual CPU time per floating-point operation at
	// baseline speed. The default (1 µs) calibrates the simulated
	// workstations to the paper's Sun 4/330s (~1 Mflop/s), matching the
	// axis scale of Figures 5-8.
	FlopCost time.Duration
	// HookCheckCost is the bookkeeping cost of visiting an inactive hook.
	HookCheckCost time.Duration
	// MasterDecisionCost is the master's CPU cost per load-balancing phase.
	MasterDecisionCost time.Duration
	// GrainFactor scales the strip-mining grain (blocks cost GrainFactor x
	// quantum); the paper uses 1.5. ForcedGrain overrides the computed
	// grain when positive (grain-size ablation; 1 disables strip mining's
	// benefit, reproducing Figure 3b's fine-grain pipeline).
	GrainFactor float64
	ForcedGrain int
	// CompileOpts carries the hook cost model for instantiation.
	CompileOpts compile.Options
	// Groups partitions the slaves into that many contiguous groups for
	// two-level hierarchical balancing (internal/hier): each group's
	// leader aggregates its members' reports, the balancer runs within
	// each group every period, and groups exchange whole block ranges
	// diffusively on a slower cadence. 0 or 1 keeps the flat centralized
	// master, bit-identical to earlier releases.
	Groups int
	// GroupExchangeEvery is the inter-group exchange cadence in decision
	// rounds (default 4): between exchanges groups balance independently.
	GroupExchangeEvery int
	// GroupDiffusion is the diffusive under-relaxation factor alpha in
	// (0, 1] (default 0.5): the fraction of the completion-time-equalizing
	// flow shifted per exchange.
	GroupDiffusion float64
	// PerReportCost is the master's (or a leader's) CPU cost to process
	// one status report, on top of MasterDecisionCost per round. The
	// default 0 keeps earlier schedules bit-identical; the scale
	// experiment sets it to make the O(slaves) centralized fan-in cost
	// visible.
	PerReportCost time.Duration
	// Cores sets the per-slave worker count for partition-safe owned
	// loops: 0 or 1 runs sequentially (the default — simulated schedules
	// stay bit-identical to earlier releases), -1 uses every hardware
	// core, N > 1 uses exactly N workers.
	Cores int
	// Kernel selects the execution tier for distributed-loop bodies:
	// "kernel" (the default) runs the compiled postfix-VM range kernels,
	// and "aot" emits real Go source, builds it with the toolchain into a
	// cached native artifact, and dispatches to it — falling back to the
	// VM for regions the emitter refuses. Bodies the kernel compiler
	// refuses (indirect subscripts) run interpreted on either tier. Both
	// tiers are bit-identical.
	Kernel string
	// CostModel selects how the master weighs work units when balancing:
	// "uniform" (the default) keeps the classic every-unit-equal
	// assumption, "learned" has slaves measure per-block busy time online
	// and the master learn relative per-unit weights (EWMA, seeded from
	// the uniform prior) so irregular programs — sparse matrices,
	// power-law particle bins — balance on estimated cost instead of unit
	// counts. Dense programs produce uniform measurements and stay
	// bit-identical to the uniform mode.
	CostModel string
	// Overlap gates the split-loop async ghost exchange: for exchanges the
	// compiler marked split-loop eligible, slaves post the ghost sends,
	// compute the interior units (whose stencil reads cannot touch a
	// ghost), receive, and finish with the boundary units — hiding the
	// network round-trip behind interior compute. "" or "on" enables it
	// (the default), "off" forces every exchange synchronous. Results,
	// schedules and ownership are bit-identical either way; only elapsed
	// time differs. The knob does not enter the plan hash — eligibility is
	// recorded in the rendered plan source, the knob only gates the
	// runtime.
	Overlap string
	// CollectTrace records per-phase rate/work samples (Figure 9).
	CollectTrace bool
	// RealQuantum is the grain-sizing target quantum for RunReal (default
	// 10 ms; real OS slices are far shorter than the Sun 4/330's 100 ms).
	RealQuantum time.Duration
	// RealDrag slows individual slaves in RunReal by the given factor
	// (>= 1), emulating slower or loaded machines with controlled sleeps.
	RealDrag []float64
	// Fault enables the fault-tolerant runtime and injects the given
	// failure schedule (which may be empty: detection, checkpointing and
	// elastic join stay armed without any injected fault). Requires DLB —
	// the load-balancing hooks are the heartbeat and checkpoint substrate.
	Fault *fault.Plan
	// Ckpt throttles periodic checkpoints (fault-tolerant runs).
	Ckpt fault.CkptPolicy
	// Detect tunes master-side failure detection (fault-tolerant runs).
	Detect fault.DetectorConfig
	// Preempt, when set, lets a scheduler request a cooperative stop: the
	// master forces a checkpoint at the next consumable round, evicts every
	// slave, and returns ErrPreempted with Result.Checkpoint holding the
	// committed snapshot. Transport-driven runs only (RunMasterOn).
	Preempt *PreemptControl
	// Resume, when set, restarts a preempted run from the given snapshot
	// instead of the initial data: the initial membership must match the
	// checkpoint's, and the run's first act is a recovery epoch that
	// re-ships the snapshot state and fast-forwards the slaves to the cut
	// hook. Transport-driven runs only (RunMasterOn).
	Resume *fault.Checkpoint
}

func (c Config) withDefaults() Config {
	if c.FlopCost <= 0 {
		c.FlopCost = time.Microsecond
	}
	if c.HookCheckCost <= 0 {
		c.HookCheckCost = 10 * time.Microsecond
	}
	if c.MasterDecisionCost <= 0 {
		c.MasterDecisionCost = 200 * time.Microsecond
	}
	if c.GrainFactor <= 0 {
		c.GrainFactor = 1.5
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.10
	}
	if c.GroupExchangeEvery <= 0 {
		c.GroupExchangeEvery = 4
	}
	if c.GroupDiffusion <= 0 || c.GroupDiffusion > 1 {
		c.GroupDiffusion = 0.5
	}
	return c
}

// Kernel execution tiers, ordered kernel < aot.
const (
	KernelVM  = "kernel"
	KernelAOT = "aot"
)

// KernelTier resolves the Kernel knob ("" means the VM tier) or returns
// an error naming the valid tiers.
func (c Config) KernelTier() (string, error) {
	switch c.Kernel {
	case "", KernelVM:
		return KernelVM, nil
	case KernelAOT:
		return c.Kernel, nil
	}
	return "", fmt.Errorf("dlb: unknown kernel tier %q (want \"\", %q or %q)",
		c.Kernel, KernelVM, KernelAOT)
}

// SameTierBaseline returns the configuration of the wall-clock sequential
// baseline for c: the same plan, parameters and kernel tier on one slave
// (run it with RunReal(cfg, 1)) with balancing, groups, multicore
// dispatch, drag and fault injection off. Speedup and efficiency against
// it compare like with like; a baseline on another tier would credit the
// tier's speed to the parallel run.
func (c Config) SameTierBaseline() Config {
	c.DLB, c.Groups, c.Cores, c.RealDrag, c.Fault = false, 0, 1, nil, nil
	return c
}

// Cost-model modes for the balancer's view of work units.
const (
	CostUniform = "uniform"
	CostLearned = "learned"
)

// CostModelMode resolves the CostModel knob ("" means uniform) or returns
// an error naming the valid modes.
func (c Config) CostModelMode() (string, error) {
	switch c.CostModel {
	case "", CostUniform:
		return CostUniform, nil
	case CostLearned:
		return CostLearned, nil
	}
	return "", fmt.Errorf("dlb: unknown cost model %q (want %q or %q)",
		c.CostModel, CostUniform, CostLearned)
}

// Overlap modes for the split-loop async ghost exchange.
const (
	OverlapEnabled  = "on"
	OverlapDisabled = "off"
)

// OverlapOn resolves the Overlap knob ("" means on) or returns an error
// naming the valid modes.
func (c Config) OverlapOn() (bool, error) {
	switch c.Overlap {
	case "", OverlapEnabled:
		return true, nil
	case OverlapDisabled:
		return false, nil
	}
	return false, fmt.Errorf("dlb: unknown overlap mode %q (want %q or %q)",
		c.Overlap, OverlapEnabled, OverlapDisabled)
}

// CoreCount resolves the Cores knob to an effective worker count.
func (c Config) CoreCount() int {
	switch {
	case c.Cores < 0:
		return runtime.NumCPU()
	case c.Cores == 0:
		return 1
	}
	return c.Cores
}

// Sample is one trace record: a slave's reported and filtered rates and its
// resulting work assignment at a load-balancing phase (Figure 9's series).
type Sample struct {
	Time     time.Duration
	Phase    int
	Slave    int
	RawRate  float64
	Filtered float64
	Work     int
	// SkipHooks is the hook-skip count chosen at this phase (§4.3; grows
	// as per-invocation work shrinks, e.g. LU §4.7).
	SkipHooks int
	// Period is the target load-balancing period chosen at this phase.
	Period time.Duration
}

// LoadSample is one balancing round's weighted load distribution: the max
// and mean per-slave weighted active backlog after the round's moves.
type LoadSample struct {
	Phase     int
	Max, Mean float64
}

// Result summarizes a run.
type Result struct {
	// Elapsed is the virtual time from start to the last gather.
	Elapsed time.Duration
	// ComputeElapsed is the virtual time of the compute portion (after the
	// initial scatter, before the final gather).
	ComputeElapsed time.Duration
	// Usage is each slave's accounting over the whole run.
	Usage []cluster.Usage
	// MasterUsage is the master process's accounting — per-round busy time
	// here is the centralized coordination cost the hierarchy attacks.
	MasterUsage cluster.Usage
	// Final holds the gathered arrays.
	Final map[string]*loopir.Array
	// Exec is the instantiated plan that was executed.
	Exec *compile.Exec
	// Grain is the strip-mining block size used.
	Grain int
	// Phases is the number of master interactions.
	Phases int
	// Moves counts issued work movements; UnitsMoved the total units.
	Moves, UnitsMoved int
	// Trace holds Figure 9 samples when CollectTrace is set.
	Trace []Sample
	// Loads records the weighted load distribution at each balancing
	// round: max and mean per-slave weighted backlog under the run's cost
	// model (all weights 1.0 in uniform mode). max/mean is the imbalance
	// factor the -stats flag reports.
	Loads []LoadSample
	// Counters holds the engine's named event counters — the same names on
	// every endpoint (simulated, wall-clock, TCP).
	Counters metrics.Counters
	// Fault-tolerant runs: recovery epochs started, checkpoints committed,
	// slaves declared dead, joiner slots admitted, and the deterministic
	// fault-handling event trace.
	Recoveries  int
	Checkpoints int
	Evicted     []int
	Joined      []int
	FaultLog    *fault.Log
	// Checkpoint is the committed stop snapshot of a preempted run
	// (ErrPreempted); hand it to Config.Resume to continue the run later.
	Checkpoint *fault.Checkpoint
	// Owner is the final unit-to-slave ownership map: the state of the
	// replicated map when the run committed.
	Owner []int
	// AotInfo describes the native-kernel build when the run used the aot
	// tier: cache key, warm/cold, emit/build/load durations.
	AotInfo *aot.BuildInfo
}

// Run executes the plan on the given cluster configuration and returns the
// result. It builds its own virtual-time kernel; the run is a deterministic
// function of (cfg, cc).
func Run(cfg Config, cc cluster.Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("dlb: no plan")
	}
	slaves := cc.Slaves
	if slaves < 1 {
		return nil, fmt.Errorf("dlb: need at least one slave")
	}
	if cfg.Preempt != nil || cfg.Resume != nil {
		return nil, fmt.Errorf("dlb: preemption and resume are transport-driven features (RunMasterOn)")
	}
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	ft := cfg.Fault != nil
	if ft {
		if !cfg.DLB {
			return nil, fmt.Errorf("dlb: fault tolerance requires DLB (hooks are the heartbeat and checkpoint substrate)")
		}
		if err := cfg.Fault.Validate(); err != nil {
			return nil, err
		}
	}
	var part *hier.Partition
	if cfg.Groups > 1 {
		if !cfg.DLB {
			return nil, fmt.Errorf("dlb: hierarchical groups require DLB (leaders aggregate the balancing contacts)")
		}
		p, err := hier.Split(slaves, cfg.Groups)
		if err != nil {
			return nil, err
		}
		part = p
	}

	// Master instance: initial data source and final destination.
	masterInst, err := loopir.NewInstance(cfg.Plan.Prog, cfg.Params)
	if err != nil {
		return nil, err
	}

	// Instantiate once to estimate per-unit cost, derive the grain from
	// the 1.5-quantum rule (§4.4), then re-instantiate so the phase
	// schedule reflects the strip-mined structure.
	probe, err := cfg.Plan.Instantiate(cfg.Params, 1, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}
	grain := 1
	if cfg.Plan.StripMined {
		if cfg.ForcedGrain > 0 {
			grain = cfg.ForcedGrain
		} else {
			ccd := cc
			quantum := ccd.Quantum
			if quantum <= 0 {
				quantum = 100 * time.Millisecond
			}
			// Startup measurement: the cost of one strip-row is the work of
			// one row of an even share of the active units.
			lo, hi := probe.InitialActive()
			perSlaveUnits := (hi - lo + slaves - 1) / slaves
			rowFlops := probe.FlopsPerUnit * float64(perSlaveUnits)
			rowCost := time.Duration(rowFlops * float64(cfg.FlopCost))
			grain = core.GrainSize(rowCost, quantum, cfg.GrainFactor)
		}
	}
	exec, err := cfg.Plan.Instantiate(cfg.Params, grain, cfg.CompileOpts)
	if err != nil {
		return nil, err
	}

	// Native kernels are built before any cooperative process spawns: the
	// Go toolchain subprocess must not run inside the virtual-time
	// scheduler. The bundle is shared read-only by all slaves.
	tier, err := cfg.KernelTier()
	if err != nil {
		return nil, err
	}
	if _, err := cfg.CostModelMode(); err != nil {
		return nil, err
	}
	if _, err := cfg.OverlapOn(); err != nil {
		return nil, err
	}
	var bundle *aotBundle
	var aotInfo *aot.BuildInfo
	if tier == KernelAOT {
		bundle, err = buildAOT(cfg.Plan, cfg.Params)
		if err != nil {
			return nil, err
		}
		aotInfo = &bundle.prog.Info
	}

	k := vtime.NewKernel()
	simCC := cc
	var joins []time.Duration
	total := slaves
	if ft {
		// Joiner processes occupy cluster slots beyond the initial slaves;
		// they idle until their join time and are folded in by recovery.
		joins = cfg.Fault.Joins()
		total = slaves + len(joins)
		simCC.Slaves = total
	}
	c := cluster.New(k, simCC)

	r := &Result{Exec: exec, Grain: grain, AotInfo: aotInfo}
	var pol FaultPolicy = noFaultPolicy{}
	var inj *fault.Injector
	var flog *fault.Log
	var hbEvery time.Duration
	if ft {
		flog = &fault.Log{}
		r.FaultLog = flog
		inj = fault.NewInjector(cfg.Fault)
		hbEvery = fault.NewDetector(cfg.Detect, 1).Config().HeartbeatEvery
		pol = &ftPolicy{log: flog}
	}
	eng := &engine{
		cfg:     &cfg,
		cc:      c.Config(),
		initial: slaves,
		total:   total,
		exec:    exec,
		inst:    masterInst,
		res:     r,
		pol:     pol,
		part:    part,
		relay:   part != nil && !ft,
	}
	c.Spawn("master", cluster.MasterID, func(p *vtime.Proc, n *cluster.Node) {
		eng.runOn(&simEndpoint{p: p, n: n})
	})
	for i := 0; i < total; i++ {
		s := &slave{
			id:      i,
			slaves:  slaves,
			cfg:     &cfg,
			exec:    exec,
			grain:   grain,
			tier:    tier,
			aot:     bundle,
			fault:   slaveFaultFor(ft),
			hbEvery: hbEvery,
		}
		if eng.relay {
			s.part = part
		}
		if i >= slaves {
			s.joiner = true
			s.joinAt = joins[i-slaves]
		}
		id := i
		c.Spawn(fmt.Sprintf("slave%d", id), id, func(p *vtime.Proc, n *cluster.Node) {
			// An injected crash (or a zombie's eviction) kills the process
			// by panic; recover it so the proc dies silently, exactly as a
			// failed workstation would. Legacy runs never inject faults, so
			// the wrapper is inert there.
			defer func() {
				if rec := recover(); rec != nil && !isFaultExit(rec) {
					panic(rec)
				}
			}()
			s.runOn(newFaultEP(&simEndpoint{p: p, n: n}, id, inj, flog))
		})
	}
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("dlb: %w", err)
	}
	r.Elapsed = k.Now()
	for i := 0; i < total; i++ {
		n := c.Node(i)
		n.FinishAt(k.Now())
		r.Usage = append(r.Usage, n.Usage())
	}
	mn := c.Node(cluster.MasterID)
	mn.FinishAt(k.Now())
	r.MasterUsage = mn.Usage()
	if eng.err != nil {
		return nil, eng.err
	}
	r.Final = eng.final
	r.ComputeElapsed = eng.computeEnd - eng.computeStart
	return r, nil
}

// SequentialTime estimates the sequential execution time of the program on
// a dedicated baseline workstation under the same calibration, and runs the
// computation to produce reference arrays.
func SequentialTime(plan *compile.Plan, params map[string]int, flopCost time.Duration) (time.Duration, map[string]*loopir.Array, error) {
	if flopCost <= 0 {
		flopCost = time.Microsecond
	}
	inst, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		return 0, nil, err
	}
	if err := inst.Run(); err != nil {
		return 0, nil, err
	}
	var flops float64
	if loopir.UsesIArr(plan.Prog.Body) {
		// Indirect programs' trip counts are data-dependent: estimate
		// against a freshly initialized instance (pre-Run values of the
		// index arrays equal the post-init values the parallel run charges
		// against, since index arrays are never written).
		est, err := loopir.NewInstance(plan.Prog, params)
		if err != nil {
			return 0, nil, err
		}
		env := map[string]int{}
		for k, v := range params {
			env[k] = v
		}
		flops = est.EstFlops(plan.Prog.Body, env)
	} else {
		flops = loopir.EstFlops(plan.Prog.Body, params)
	}
	return time.Duration(flops * float64(flopCost)), inst.Arrays, nil
}
