package dlb

import (
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/fault"
	"repro/internal/loopir"
	"repro/internal/testx"
)

// verifyRealPlan checks a RunReal result against the sequential reference:
// distributed data must be exact; reduction arrays tolerate reassociation.
func verifyRealPlan(t *testing.T, res *Result, plan *compile.Plan, params map[string]int) {
	t.Helper()
	ref, err := loopir.NewInstance(plan.Prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	reduction := map[string]bool{}
	for _, r := range plan.Reductions {
		reduction[r.Array] = true
	}
	for name, want := range ref.Arrays {
		got := res.Final[name]
		if got == nil {
			t.Fatalf("array %q missing", name)
		}
		d := want.MaxAbsDiff(got)
		if reduction[name] {
			if d > 1e-9 {
				t.Errorf("reduction %q differs by %g", name, d)
			}
		} else if d != 0 {
			t.Errorf("array %q differs by %g (real run)", name, d)
		}
	}
}

func compilePlan(t *testing.T, prog *loopir.Program, dims map[string]int, loops []string) *compile.Plan {
	t.Helper()
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: dims, Loops: loops},
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestRealRunMM(t *testing.T) {
	plan := planFor(t, "mm")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 64}, DLB: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 64})
	if res.Elapsed <= 0 {
		t.Fatal("no wall time recorded")
	}
}

func TestRealRunSORPipelined(t *testing.T) {
	plan := planFor(t, "sor")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 64, "maxiter": 6}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 64, "maxiter": 6})
	if res.Grain < 1 {
		t.Fatalf("grain = %d", res.Grain)
	}
}

func TestRealRunLU(t *testing.T) {
	plan := planFor(t, "lu")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 48}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 48})
}

func TestRealRunConvergence(t *testing.T) {
	prog := loopir.Library()["jacobi-converge"]
	plan := compilePlan(t, prog, map[string]int{"a": 0, "anew": 0}, []string{"i", "i2"})
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 24, "maxiter": 200}, DLB: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 24, "maxiter": 200})
}

func TestRealRunSingleSlave(t *testing.T) {
	plan := planFor(t, "jacobi")
	res, err := RunReal(Config{Plan: plan, Params: map[string]int{"n": 24, "maxiter": 3}, DLB: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, map[string]int{"n": 24, "maxiter": 3})
}

func TestRealParallelSpeedup(t *testing.T) {
	testx.NeedMultiCore(t)
	plan := planFor(t, "mm")
	params := map[string]int{"n": 256}
	t0 := time.Now()
	res1, err := RunReal(Config{Plan: plan, Params: params, DLB: false}, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := time.Since(t0)
	res4, err := RunReal(Config{Plan: plan, Params: params, DLB: false}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res4, plan, params)
	// Loose bound: 4 goroutines on >=2 cores should clearly beat 1.
	if res4.Elapsed.Seconds() > 0.8*res1.Elapsed.Seconds() {
		t.Logf("warning: little speedup: 1 slave %v, 4 slaves %v (wall %v)", res1.Elapsed, res4.Elapsed, one)
	}
}

func TestRealDragTriggersMovement(t *testing.T) {
	// Slave 0 is dragged 3x. The run is long enough (> the 500ms period
	// floor) for at least one rebalancing to fire on real measured rates.
	plan := planFor(t, "mm")
	params := map[string]int{"n": 320}
	res, err := RunReal(Config{
		Plan:     plan,
		Params:   params,
		DLB:      true,
		RealDrag: []float64{3.0},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, params)
	if res.Moves == 0 {
		t.Log("no movement occurred (run may have been too fast on this machine); data still verified")
	}
}

// TestSameTierBaseline pins the wall-clock baseline to the parallel run's
// tier: from an aot configuration with groups, cores, drag and a fault
// plan, the baseline must be a plain one-slave aot run that dispatches its
// owned units natively and matches the sequential reference. A baseline
// on another tier credits the tier's speed to the parallel run, and lets
// one-slave efficiency exceed 1.
func TestSameTierBaseline(t *testing.T) {
	plan := planFor(t, "mm")
	params := map[string]int{"n": 48}
	cfg := Config{
		Plan: plan, Params: params, DLB: true, Groups: 2, Cores: 4,
		Kernel: KernelAOT, RealDrag: []float64{2},
		Fault: (&fault.Plan{}).CrashAt(0, time.Millisecond),
	}
	base := cfg.SameTierBaseline()
	if base.DLB || base.Groups != 0 || base.Cores != 1 || base.RealDrag != nil || base.Fault != nil {
		t.Fatalf("baseline keeps balancing, groups, cores, drag or faults: %+v", base)
	}
	if base.Kernel != KernelAOT {
		t.Fatalf("baseline tier = %q, want %q", base.Kernel, KernelAOT)
	}
	res, err := RunReal(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	verifyRealPlan(t, res, plan, params)
	if res.AotInfo == nil || res.Counters.Get("aot_units") == 0 {
		t.Errorf("baseline did not run on the aot tier: %v", res.Counters)
	}
	if n := res.Counters.Get("kernel_units") + res.Counters.Get("fallback_units"); n != 0 {
		t.Errorf("baseline ran %d units off the aot tier: %v", n, res.Counters)
	}
	if res.Moves != 0 {
		t.Errorf("baseline moved %d times", res.Moves)
	}
}
