package dlb

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/depend"
	"repro/internal/loopir"
)

// TestKernelTierDifferential runs the acceptance matrix for the AOT tier:
// jacobi, sor, mm and lu at 1, 2 and 4 workers under both kernel tiers
// must produce bit-identical distributed arrays (runAndVerify already
// pins each run to the sequential reference; the cross-tier comparison
// below additionally pins reduction arrays, which runAndVerify only
// bounds). The aot runs must actually dispatch to native kernels.
func TestKernelTierDifferential(t *testing.T) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"jacobi", map[string]int{"n": 48, "maxiter": 2}},
		{"sor", map[string]int{"n": 24, "maxiter": 3}},
		{"mm", map[string]int{"n": 24}},
		{"lu", map[string]int{"n": 24}},
	}
	for _, p := range progs {
		plan := planFor(t, p.name)
		for _, cores := range []int{1, 2, 4} {
			var base map[string]*loopir.Array
			for _, tier := range []string{KernelVM, KernelAOT} {
				t.Run(fmt.Sprintf("%s/c%d/%s", p.name, cores, tier), func(t *testing.T) {
					res := runAndVerify(t, plan, p.params,
						Config{DLB: true, Cores: cores, Kernel: tier},
						cluster.Config{Slaves: 3})
					if tier == KernelAOT {
						if res.AotInfo == nil {
							t.Fatal("aot run has no AotInfo")
						}
						if res.Counters.Get("aot_units") == 0 {
							t.Errorf("aot tier never dispatched natively: %v", res.Counters)
						}
					}
					if base == nil {
						base = res.Final
						return
					}
					for name, want := range base {
						got := res.Final[name]
						if got == nil {
							t.Fatalf("array %q missing", name)
						}
						if d := want.MaxAbsDiff(got); d != 0 {
							t.Errorf("array %q differs across tiers by %g", name, d)
						}
					}
				})
			}
		}
	}
}

// TestKernelTierChainsAndGuards covers the regions the fast path cannot
// parallelize: jacobi-converge's residual sweep carries a reduction chain
// (native dispatch must stay sequential yet bit-identical across tiers,
// including the replicated residual), and unknown tier names must be
// rejected up front — "interp" too: the interpreter is the fallback for
// bodies the kernel compiler refuses, not a selectable tier.
func TestKernelTierChainsAndGuards(t *testing.T) {
	prog := loopir.Library()["jacobi-converge"]
	plan, err := compile.Compile(prog, compile.Options{
		Dist: depend.DistSpec{Dims: map[string]int{"a": 0, "anew": 0}, Loops: []string{"i", "i2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int{"n": 32, "maxiter": 4}
	var base map[string]*loopir.Array
	for _, tier := range []string{KernelVM, KernelAOT} {
		res, runErr := Run(Config{Plan: plan, Params: params, DLB: true, Cores: 4, Kernel: tier},
			cluster.Config{Slaves: 3})
		if runErr != nil {
			t.Fatalf("%s: %v", tier, runErr)
		}
		if base == nil {
			base = res.Final
			continue
		}
		for name, want := range base {
			if d := want.MaxAbsDiff(res.Final[name]); d != 0 {
				t.Errorf("%s: array %q differs across tiers by %g", tier, name, d)
			}
		}
	}

	for _, tier := range []string{"jit", "interp"} {
		if _, err := Run(Config{Plan: plan, Params: params, DLB: true, Kernel: tier},
			cluster.Config{Slaves: 2}); err == nil {
			t.Errorf("unknown kernel tier %q accepted", tier)
		}
	}
}
