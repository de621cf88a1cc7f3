package loopir

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func kernelTestParams() map[string]map[string]int {
	return map[string]map[string]int{
		"mm":              {"n": 12},
		"sor":             {"n": 14, "maxiter": 4},
		"lu":              {"n": 12},
		"jacobi":          {"n": 12, "maxiter": 3},
		"threshold-relax": {"n": 10, "maxiter": 3},
		"axpy":            {"n": 50, "maxiter": 4},
		"periodic-sor":    {"n": 14, "maxiter": 4},
		"jacobi-converge": {"n": 12, "maxiter": 60},
		"jacobi3d":        {"n": 8, "maxiter": 2},
		"spmv":            {"n": 96, "maxiter": 2},
		"pbin":            {"n": 48, "maxiter": 2},
	}
}

// TestKernelMatchesInterpreter is the core equivalence check: on every
// library program the compiled kernel must reproduce the tree-walking
// interpreter bit for bit — sequential kernels preserve even reduction
// chains exactly. Programs the kernel compiler refuses (indirect
// subscripts) run through the interpreted fragment the slaves fall back
// to, under the same comparison.
func TestKernelMatchesInterpreter(t *testing.T) {
	params := kernelTestParams()
	for name, prog := range Library() {
		prm, ok := params[name]
		if !ok {
			t.Fatalf("no test parameters for program %q", name)
		}
		ref, err := NewInstance(prog, prm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ref.Interpret(); err != nil {
			t.Fatalf("%s: interpret: %v", name, err)
		}
		fast := ref.Clone()
		k, err := fast.CompileKernel(fast.Prog.Body)
		if err != nil {
			if !UsesIArr(prog.Body) {
				t.Fatalf("%s: compile kernel: %v", name, err)
			}
			(&InterpFragment{In: fast, Stmts: fast.Prog.Body}).Run(nil)
		} else {
			k.Run(nil)
		}
		for arr := range ref.Arrays {
			if d := ref.Arrays[arr].MaxAbsDiff(fast.Arrays[arr]); d != 0 {
				t.Errorf("%s: array %q differs by %g between interpreter and kernel", name, arr, d)
			}
		}
	}
}

// distVarOf returns the outermost loop variable of a single-nest program
// body, the natural distribution variable for range-kernel tests.
func distVarOf(t *testing.T, prog *Program) (string, *Loop) {
	t.Helper()
	outer, ok := prog.Body[0].(*Loop)
	if !ok {
		t.Fatalf("%s: body does not start with a loop", prog.Name)
	}
	return outer.Var, outer
}

// TestRangeKernelLibraryEquivalence drives every library program's
// outermost loop through a RangeKernel at 1, 2 and 4 workers and requires
// bit-identical results to the interpreter at every worker count. Programs
// the analysis cannot prove parallel (SOR's neighbor reads) silently run
// sequentially — the output contract is the same.
func TestRangeKernelLibraryEquivalence(t *testing.T) {
	params := kernelTestParams()
	for name, prog := range Library() {
		prm := params[name]
		ref, err := NewInstance(prog, prm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, outer := distVarOf(t, ref.Prog)
		if err := ref.Interpret(); err != nil {
			t.Fatalf("%s: interpret: %v", name, err)
		}
		env := map[string]int{}
		for k, val := range prm {
			env[k] = val
		}
		lo, err1 := EvalIndex(outer.Lo, env)
		hi, err2 := EvalIndex(outer.Hi, env)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: outer bounds not parameter-only", name)
		}
		if outer.BreakIf != nil {
			// A range kernel models a fixed [lo,hi) slice; data-dependent
			// outer breaks (jacobi-converge, threshold-relax) are driven by
			// the runtime loop, not the kernel. Skip those outers here.
			continue
		}
		for _, workers := range []int{1, 2, 4} {
			fast, err := NewInstance(prog, prm)
			if err != nil {
				t.Fatal(err)
			}
			rk, err := fast.CompileRangeKernel(v, outer.Body)
			if err != nil {
				if UsesIArr(prog.Body) {
					break // data-dependent programs run interpreted by design
				}
				t.Fatalf("%s: compile range kernel: %v", name, err)
			}
			rk.RunParallel(lo, hi, nil, workers)
			for arr := range ref.Arrays {
				if d := ref.Arrays[arr].MaxAbsDiff(fast.Arrays[arr]); d != 0 {
					t.Errorf("%s/workers=%d: array %q differs by %g (parallelSafe=%v, reason=%q)",
						name, workers, arr, d, rk.ParallelSafe(), rk.SeqReason())
				}
			}
		}
	}
}

// TestRangeKernelAnalysisVerdicts pins the parallel-safety analysis on the
// canonical cases: owner-computes loops parallelize, loops with
// cross-iteration reads of the written array do not.
func TestRangeKernelAnalysisVerdicts(t *testing.T) {
	params := kernelTestParams()
	type tc struct {
		prog    string
		v       string
		body    func(p *Program) []Stmt
		wantPar bool
	}
	cases := []tc{
		// mm distributed over the outer i: c[i][j] owned by row.
		{"mm", "i", func(p *Program) []Stmt {
			return p.Body[0].(*Loop).Body
		}, true},
		// sor distributed over the inner column loop j: reads b[j-1][i]
		// and b[j+1][i] of the written array — pipelined, not partitionable.
		{"sor", "j", func(p *Program) []Stmt {
			return p.Body[0].(*Loop).Body[0].(*Loop).Body[0].(*Loop).Body
		}, false},
		// jacobi's stencil sweep over i: writes anew[i][*], reads a only.
		{"jacobi", "i", func(p *Program) []Stmt {
			return p.Body[0].(*Loop).Body[0].(*Loop).Body
		}, true},
		// jacobi's copy-back sweep over i2: a[i2][*] = anew[i2][*].
		{"jacobi", "i2", func(p *Program) []Stmt {
			return p.Body[0].(*Loop).Body[1].(*Loop).Body
		}, true},
	}
	for _, c := range cases {
		in, err := NewInstance(Library()[c.prog], params[c.prog])
		if err != nil {
			t.Fatal(err)
		}
		rk, err := in.CompileRangeKernel(c.v, c.body(in.Prog))
		if err != nil {
			t.Fatalf("%s/%s: %v", c.prog, c.v, err)
		}
		if rk.ParallelSafe() != c.wantPar {
			t.Errorf("%s/%s: ParallelSafe = %v, want %v (reason %q)",
				c.prog, c.v, rk.ParallelSafe(), c.wantPar, rk.SeqReason())
		}
	}
}

// TestRangeKernelGuard exercises the runtime guard: a range-invariant read
// of a partitioned array (LU's pivot row pattern) blocks parallel execution
// only when the read row lands inside the executed range.
func TestRangeKernelGuard(t *testing.T) {
	n := Iv("n")
	prog := &Program{
		Name:   "guard",
		Params: []string{"n", "p"},
		Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{n, n}, Init: saltedInit(7)}},
		Body: []Stmt{
			For("i", Ic(0), n,
				For("j", Ic(0), n,
					Set(Fref("a", Iv("i"), Iv("j")),
						Fadd(Fref("a", Iv("i"), Iv("j")), Fref("a", Iv("p"), Iv("j")))))),
		},
	}
	in, err := NewInstance(prog, map[string]int{"n": 8, "p": 2})
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Body[0].(*Loop)
	rk, err := in.CompileRangeKernel("i", outer.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !rk.ParallelSafe() {
		t.Fatalf("guarded program not parallel-safe: %s", rk.SeqReason())
	}
	if w := rk.Workers(0, 8, nil, 4); w != 1 {
		t.Errorf("Workers(0,8) = %d, want 1 (pivot row 2 inside range)", w)
	}
	if w := rk.Workers(3, 8, nil, 4); w != 4 {
		t.Errorf("Workers(3,8) = %d, want 4 (pivot row 2 outside range)", w)
	}
}

// randParProgram generates programs the parallel analysis accepts:
// owner-computes writes a[i][*] (reads of a only at row i), unrestricted
// reads of b, and optionally a scalar reduction chain into r[0] — the shape
// the worker-partitioned replay must keep bit-identical.
func randParProgram(r *rand.Rand) *Program {
	n := Iv("n")
	off := func(col string) IExpr {
		v := Iv(col)
		switch r.Intn(3) {
		case 0:
			return Isub(v, Ic(1))
		case 1:
			return Iadd(v, Ic(1))
		}
		return v
	}
	bref := func(col string) Ref {
		row := IExpr(Iv("i"))
		if r.Intn(2) == 0 {
			if r.Intn(2) == 0 {
				row = Isub(Iv("i"), Ic(1))
			} else {
				row = Iadd(Iv("i"), Ic(1))
			}
		}
		return Fref("b", row, off(col))
	}
	aref := func(col string) Ref { return Fref("a", Iv("i"), off(col)) }

	var dataExpr func(d int, col string) Expr
	dataExpr = func(d int, col string) Expr {
		if d <= 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return Fc(float64(1+r.Intn(7)) * 0.25)
			case 1:
				return aref(col)
			}
			return bref(col)
		}
		ops := []byte{'+', '-', '*'}
		return Bin{Op: ops[r.Intn(len(ops))], L: dataExpr(d-1, col), R: dataExpr(d-1, col)}
	}

	inner := []Stmt{Set(Fref("a", Iv("i"), Iv("j")), dataExpr(2, "j"))}
	if r.Intn(2) == 0 {
		inner = append(inner, Set(Fref("a", Iv("i"), Iv("j")), dataExpr(1, "j")))
	}
	body := []Stmt{For("j", Ic(1), Isub(n, Ic(1)), inner...)}
	if r.Intn(2) == 0 {
		// A reduction chain over the row: r[0] = r[0] ⊕ d or d ⊕ r[0].
		d := Expr(Bin{Op: '*', L: dataExpr(1, "j2"), R: dataExpr(1, "j2")})
		red := Fref("r", Ic(0))
		var rhs Expr
		op := []byte{'+', '-'}[r.Intn(2)]
		if r.Intn(2) == 0 {
			rhs = Bin{Op: op, L: red, R: d}
		} else {
			rhs = Bin{Op: op, L: d, R: red}
		}
		body = append(body, For("j2", Ic(1), Isub(n, Ic(1)), Set(red, rhs)))
	}
	return &Program{
		Name:   "randpar",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{
			{Name: "a", Dims: []IExpr{n, n}, Init: saltedInit(3)},
			{Name: "b", Dims: []IExpr{n, n}, Init: saltedInit(17)},
			{Name: "r", Dims: []IExpr{Ic(2)}},
		},
		Body: []Stmt{For("i", Ic(1), Isub(n, Ic(1)), body...)},
	}
}

// TestQuickKernelEquivalence cross-checks the whole-program kernel against
// the interpreter on random programs (randProgram).
func TestQuickKernelEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r)
		if err := p.Validate(); err != nil {
			t.Logf("seed %d: generated invalid program: %v", seed, err)
			return false
		}
		nVal := 5 + r.Intn(6)
		ref, err := NewInstance(p, map[string]int{"n": nVal})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		fast := ref.Clone()
		if err := ref.Interpret(); err != nil {
			t.Logf("seed %d: interpret: %v", seed, err)
			return false
		}
		k, err := fast.CompileKernel(fast.Prog.Body)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		k.Run(nil)
		d := ref.Arrays["a"].MaxAbsDiff(fast.Arrays["a"])
		if d != 0 && !math.IsNaN(d) {
			t.Logf("seed %d: divergence %g", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeKernelWorkers is the differential fuzz test for worker
// partitioning: random parallel-friendly programs (including reduction
// chains) executed through RunParallel at 1, 2 and 4 workers must be
// bit-identical to the interpreter — reductions included, thanks to the
// ordered chain replay.
func TestQuickRangeKernelWorkers(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randParProgram(r)
		if err := p.Validate(); err != nil {
			t.Logf("seed %d: generated invalid program: %v", seed, err)
			return false
		}
		nVal := 6 + r.Intn(6)
		params := map[string]int{"n": nVal}
		ref, err := NewInstance(p, params)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := ref.Interpret(); err != nil {
			t.Logf("seed %d: interpret: %v", seed, err)
			return false
		}
		outer := p.Body[0].(*Loop)
		for _, workers := range []int{1, 2, 4} {
			fast, err := NewInstance(p, params)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			rk, err := fast.CompileRangeKernel("i", outer.Body)
			if err != nil {
				t.Logf("seed %d: compile: %v", seed, err)
				return false
			}
			if !rk.ParallelSafe() {
				t.Logf("seed %d: generator produced non-parallel program: %s", seed, rk.SeqReason())
				return false
			}
			rk.RunParallel(1, nVal-1, nil, workers)
			for _, arr := range []string{"a", "r"} {
				d := ref.Arrays[arr].MaxAbsDiff(fast.Arrays[arr])
				if d != 0 && !math.IsNaN(d) {
					t.Logf("seed %d workers %d: array %q diverges by %g", seed, workers, arr, d)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestKernelRate sanity-checks the calibration: a positive, cached rate.
func TestKernelRate(t *testing.T) {
	r1 := KernelRate()
	if r1 <= 0 {
		t.Fatalf("KernelRate = %g, want > 0", r1)
	}
	if r2 := KernelRate(); r2 != r1 {
		t.Errorf("KernelRate not cached: %g then %g", r1, r2)
	}
}

// BenchmarkKernel compares the interpreter with the compiled kernel on the
// stencil (jacobi) and pipelined (sor) programs plus mm. The kernel/interp
// ratio here is the ≥5x acceptance bar recorded in BENCH_kernel.json.
func BenchmarkKernel(b *testing.B) {
	progs := []struct {
		name   string
		params map[string]int
	}{
		{"jacobi", map[string]int{"n": 64, "maxiter": 2}},
		{"sor", map[string]int{"n": 64, "maxiter": 2}},
		{"mm", map[string]int{"n": 48}},
	}
	for _, p := range progs {
		prog := Library()[p.name]
		flops := func() int64 {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			return ExactFlops(in.Prog.Body, p.params)
		}()
		b.Run(p.name+"/interp", func(b *testing.B) {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Interpret(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.name+"/kernel", func(b *testing.B) {
			in, err := NewInstance(prog, p.params)
			if err != nil {
				b.Fatal(err)
			}
			k, err := in.CompileKernel(in.Prog.Body)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Run(nil)
			}
		})
	}
}

// BenchmarkRangeKernelWorkers measures worker scaling of one partitioned
// jacobi sweep at 1..4 workers.
func BenchmarkRangeKernelWorkers(b *testing.B) {
	prog := Library()["jacobi"]
	params := map[string]int{"n": 256, "maxiter": 1}
	in, err := NewInstance(prog, params)
	if err != nil {
		b.Fatal(err)
	}
	iter := in.Prog.Body[0].(*Loop)
	sweep := iter.Body[0].(*Loop) // the spatial i loop inside the iteration loop
	rk, err := in.CompileRangeKernel(sweep.Var, sweep.Body)
	if err != nil {
		b.Fatal(err)
	}
	if !rk.ParallelSafe() {
		b.Fatalf("jacobi sweep not parallel-safe: %s", rk.SeqReason())
	}
	n := params["n"]
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rk.RunParallel(1, n-1, nil, w)
			}
		})
	}
}
