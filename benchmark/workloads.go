package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"time"

	"repro/internal/aot"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/dlb"
	"repro/internal/fault"
	"repro/internal/lang"
	"repro/internal/loopir"
	"repro/internal/netrun"
)

// Backends a workload runs on.
const (
	backendReal = "real" // dlb.RunReal: goroutine slaves, wall clock
	backendTCP  = "tcp"  // netrun.RunMaster against in-process slave daemons
	backendSim  = "sim"  // dlb.Run: simulated cluster, virtual time
)

// workload is one fixed configuration of a library program. The seed
// changes only the hash(k) salts of its array initializers.
type workload struct {
	name    string
	prog    string
	params  map[string]int
	dist    depend.DistSpec
	backend string
	slaves  int
	kernel  string
	// drag slows slave i of a RunReal run (emulated constant load).
	drag []float64
	// load is the competing load on each simulated slave.
	load []cluster.LoadProfile
}

var workloads = []*workload{
	{
		name: "mm-aot-loaded",
		prog: "mm", params: map[string]int{"n": 384},
		dist:    depend.DistSpec{Dims: map[string]int{"c": 1, "b": 1}, Loops: []string{"j"}},
		backend: backendReal, slaves: 2, kernel: dlb.KernelAOT,
		drag: []float64{2.0},
	},
	{
		name: "jacobi-tcp",
		prog: "jacobi", params: map[string]int{"n": 256, "maxiter": 200},
		dist:    depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
		backend: backendTCP, slaves: 2,
	},
	{
		name: "sor-sim-wave",
		prog: "sor", params: map[string]int{"n": 512, "maxiter": 48},
		dist:    depend.DistSpec{Dims: map[string]int{"b": 0}, Loops: []string{"j"}},
		backend: backendSim, slaves: 8,
		load: []cluster.LoadProfile{cluster.SquareWave{Period: 20 * time.Second, OnDuration: 10 * time.Second, Tasks: 1}},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var saltRE = regexp.MustCompile(`hash\(\d+\)`)

// source renders the library program as source text with every hash(k)
// salt replaced by one drawn from the seed, so the program sees only
// generated inputs.
func (w *workload) source(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	return saltRE.ReplaceAllStringFunc(lang.Format(loopir.Library()[w.prog]), func(string) string {
		return fmt.Sprintf("hash(%d)", 1+rng.Int63n(1<<31))
	})
}

// compile parses and compiles source text.
func (w *workload) compile(src string, tr *tracer, parent int) (*compile.Plan, error) {
	s := tr.begin("lang.Parse", parent)
	prog, err := lang.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", w.prog, err)
	}
	s = tr.begin("compile.Compile", parent)
	plan, err := compile.Compile(prog, compile.Options{Dist: w.dist})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.prog, err)
	}
	return plan, nil
}

func (w *workload) config(plan *compile.Plan) dlb.Config {
	return dlb.Config{
		Plan: plan, Params: w.params, DLB: true, Cores: 1,
		Kernel: w.kernel, RealDrag: w.drag,
	}
}

func (w *workload) cluster(slaves int) cluster.Config {
	cc := cluster.Config{Slaves: slaves}
	if slaves == w.slaves {
		cc.Load = w.load
	}
	return cc
}

// ready is a workload set up for its first run.
type ready struct {
	plan  *compile.Plan
	cfg   dlb.Config
	pre   *dlb.Prepared // wall-clock backends
	units int
}

// prepareSpan names the instantiation step of each backend: the simulator
// instantiates under virtual time and needs no wall-clock grain
// measurement.
func (w *workload) prepareSpan() string {
	if w.backend == backendSim {
		return "compile.Plan.Instantiate"
	}
	return "dlb.Prepare"
}

// setup takes source text to a ready first run: parse, compile, prepare,
// and on the aot tier the native-kernel build into DLB_AOT_CACHE.
func (w *workload) setup(src string, tr *tracer, parent int) (*ready, error) {
	root := tr.begin("setup", parent)
	defer tr.end(root)
	plan, err := w.compile(src, tr, root)
	if err != nil {
		return nil, err
	}
	r := &ready{plan: plan, cfg: w.config(plan)}
	s := tr.begin(w.prepareSpan(), root)
	if w.backend == backendSim {
		var exec *compile.Exec
		exec, err = plan.Instantiate(w.params, 1, r.cfg.CompileOpts)
		if exec != nil {
			r.units = exec.Units
		}
	} else {
		r.pre, err = dlb.Prepare(r.cfg, w.slaves)
		if r.pre != nil {
			r.units = r.pre.Exec.Units
		}
	}
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.prog, err)
	}
	if w.kernel == dlb.KernelAOT {
		if err := buildAOT(plan, w.params, tr, root); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// buildAOT builds the plan's native kernels exactly as dlb.RunReal does,
// so the run finds them in the in-process memo.
func buildAOT(plan *compile.Plan, params map[string]int, tr *tracer, parent int) error {
	spec := aot.Spec{Prog: plan.Prog, Params: params}
	for _, r := range compile.KernelRegions(plan) {
		spec.Regions = append(spec.Regions, aot.Region{DistVar: r.Var, Body: r.Body})
	}
	start := time.Now()
	s := tr.begin("aot.Build", parent)
	p, err := aot.Build(spec)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("aot build: %w", err)
	}
	info := p.Info
	tr.add("aot.emit", s, start, info.EmitDur)
	tr.add("aot.build", s, start.Add(info.EmitDur), info.BuildDur)
	tr.add("aot.load", s, start.Add(info.EmitDur+info.BuildDur), info.LoadDur)
	return nil
}

// reference runs the program sequentially with loopir.Instance.Run.
func reference(prog *loopir.Program, params map[string]int) (map[string]*loopir.Array, error) {
	inst, err := loopir.NewInstance(prog, params)
	if err != nil {
		return nil, err
	}
	if err := inst.Run(); err != nil {
		return nil, err
	}
	return inst.Arrays, nil
}

// repOut is one repetition: the run call's result and wall time, the
// bytes allocated meanwhile, and for TCP runs the daemon teardown.
type repOut struct {
	res      *dlb.Result
	wall     time.Duration
	alloc    uint64
	closeDur time.Duration
	wedged   bool
	err      error
}

const closeDeadline = time.Second

// run executes one repetition of the workload's run call.
func (w *workload) run(r *ready, tr *tracer, parent int) repOut {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var out repOut
	switch w.backend {
	case backendReal:
		s := tr.begin("dlb.RunReal", parent)
		t0 := time.Now()
		out.res, out.err = dlb.RunReal(r.cfg, w.slaves)
		out.wall = time.Since(t0)
		tr.end(s)
	case backendSim:
		s := tr.begin("dlb.Run", parent)
		t0 := time.Now()
		out.res, out.err = dlb.Run(r.cfg, w.cluster(w.slaves))
		out.wall = time.Since(t0)
		tr.end(s)
	case backendTCP:
		return w.runTCP(r, tr, parent)
	}
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	return out
}

// runTCP starts fresh slave daemons, runs the master against them, and
// tears them down. A teardown that misses closeDeadline is a wedge: the
// daemons are abandoned and the repetition fails.
func (w *workload) runTCP(r *ready, tr *tracer, parent int) repOut {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var out repOut
	var srvs []*netrun.Server
	var addrs []string
	for i := 0; i < w.slaves; i++ {
		s := tr.begin("netrun.NewServer", parent)
		srv, err := netrun.NewServer(netrun.ServerOptions{})
		tr.end(s)
		if err != nil {
			out.err = fmt.Errorf("start slave daemon: %w", err)
			break
		}
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.Addr())
		go srv.Serve() // returns once Close shuts the listener
	}
	if out.err == nil {
		s := tr.begin("netrun.RunMaster", parent)
		t0 := time.Now()
		out.res, out.err = netrun.RunMaster(r.cfg, addrs, netrun.MasterOptions{Prepared: r.pre})
		out.wall = time.Since(t0)
		tr.end(s)
	}
	runtime.ReadMemStats(&m1)
	out.alloc = m1.TotalAlloc - m0.TotalAlloc

	s := tr.begin("netrun.Server.Close", parent)
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		for _, srv := range srvs {
			srv.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		out.closeDur = time.Since(t0)
		tr.end(s)
	case <-time.After(closeDeadline):
		// The span stays open and is left out of the trace file.
		out.closeDur, out.wedged = closeDeadline, true
		if out.err == nil {
			out.err = fmt.Errorf("slave daemon teardown wedged: Server.Close did not return within %v", closeDeadline)
		}
	}
	return out
}

// sameTier runs the baseline: one slave, no balancing, one core, the
// workload's own kernel tier, no load.
func (w *workload) sameTier(r *ready, tr *tracer, parent int) repOut {
	cfg := r.cfg
	cfg.DLB, cfg.RealDrag, cfg.Cores = false, nil, 1
	var out repOut
	t0 := time.Now()
	if w.backend == backendSim {
		s := tr.begin("dlb.Run", parent)
		out.res, out.err = dlb.Run(cfg, w.cluster(1))
		tr.end(s)
	} else {
		s := tr.begin("dlb.RunReal", parent)
		out.res, out.err = dlb.RunReal(cfg, 1)
		tr.end(s)
	}
	out.wall = time.Since(t0)
	return out
}

// inProcess runs the TCP workload's configuration on dlb.RunReal under the
// same fault-tolerant policy netrun always uses, so the difference from
// the TCP makespan is the transport's.
func (w *workload) inProcess(r *ready, tr *tracer, parent int) repOut {
	cfg := r.cfg
	cfg.Fault = &fault.Plan{}
	var out repOut
	s := tr.begin("dlb.RunReal", parent)
	t0 := time.Now()
	out.res, out.err = dlb.RunReal(cfg, w.slaves)
	out.wall = time.Since(t0)
	tr.end(s)
	return out
}
