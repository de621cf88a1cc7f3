package loopir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randProgram builds a random but always-valid loop-nest program: a nest of
// 1–3 loops over [1, n-1) with affine subscripts offset by -1/0/+1 (safe
// within the loop bounds) and random arithmetic right-hand sides. It is
// used to cross-check the compiled kernel against the interpreter on
// inputs no human wrote (TestQuickKernelEquivalence).
func randProgram(r *rand.Rand) *Program {
	n := Iv("n")
	depth := 1 + r.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]

	idxExpr := func() IExpr {
		v := Iv(vars[r.Intn(len(vars))])
		switch r.Intn(3) {
		case 0:
			return Isub(v, Ic(1))
		case 1:
			return Iadd(v, Ic(1))
		}
		return v
	}
	ref := func() Ref { return Fref("a", idxExpr(), idxExpr()) }

	var dataExpr func(depth int) Expr
	dataExpr = func(d int) Expr {
		if d <= 0 || r.Intn(3) == 0 {
			if r.Intn(2) == 0 {
				return Fc(float64(r.Intn(7)) * 0.25)
			}
			return ref()
		}
		ops := []byte{'+', '-', '*'}
		return Bin{Op: ops[r.Intn(len(ops))], L: dataExpr(d - 1), R: dataExpr(d - 1)}
	}

	nAssigns := 1 + r.Intn(3)
	var body []Stmt
	for a := 0; a < nAssigns; a++ {
		body = append(body, Set(ref(), dataExpr(2)))
	}
	var stmt Stmt
	for d := depth - 1; d >= 0; d-- {
		if stmt != nil {
			body = []Stmt{stmt}
		}
		stmt = For(vars[d], Ic(1), Isub(n, Ic(1)), body...)
	}
	return &Program{
		Name:   "rand",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{{Name: "a", Dims: []IExpr{n, n}, Init: saltedInit(99)}},
		Body:   []Stmt{stmt},
	}
}

// randIndex builds a random index expression over the loop variables i, j,
// k and the parameter n. With affine set, every product has a constant
// side; otherwise products of two variables may appear.
func randIndex(r *rand.Rand, depth int, affine bool) IExpr {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(3) == 0 {
			return Ic(r.Intn(11) - 5)
		}
		return Iv([]string{"i", "j", "k", "n"}[r.Intn(4)])
	}
	l, rt := randIndex(r, depth-1, affine), randIndex(r, depth-1, affine)
	switch r.Intn(3) {
	case 0:
		return Iadd(l, rt)
	case 1:
		return Isub(l, rt)
	}
	if affine {
		return Imul(Ic(r.Intn(7)-3), rt)
	}
	return Imul(l, rt)
}

// TestQuickLowerEquivalence fuzzes the affine front end: a lowered index
// expression, evaluated on its register file, must equal EvalIndex on the
// same bindings; the parameter n folds into the constant term; and a
// lowering error is only allowed for a genuine product of two variables.
func TestQuickLowerEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		affine := r.Intn(2) == 0
		e := randIndex(r, 4, affine)
		in := &Instance{Params: map[string]int{"n": 3 + r.Intn(20)}}
		lw := &lowerer{in: in, regIndex: map[string]int{}}
		l, err := lw.lowerIndex(e)
		if err != nil {
			if affine {
				t.Logf("seed %d: affine %s rejected: %v", seed, e.String(), err)
				return false
			}
			return true
		}
		if _, ok := lw.regIndex["n"]; ok {
			t.Logf("seed %d: parameter n given a register in %s", seed, e.String())
			return false
		}
		env := map[string]int{"n": in.Params["n"]}
		regs := make([]int, lw.nregs)
		for name, reg := range lw.regIndex {
			v := r.Intn(41) - 20
			env[name], regs[reg] = v, v
		}
		for _, name := range []string{"i", "j", "k"} {
			if _, ok := env[name]; !ok {
				env[name] = r.Intn(41) - 20
			}
		}
		want, err := EvalIndex(e, env)
		if err != nil {
			t.Logf("seed %d: eval %s: %v", seed, e.String(), err)
			return false
		}
		if got := l.eval(regs); got != want {
			t.Logf("seed %d: %s lowered to %d, interpreter gives %d", seed, e.String(), got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstFlopsRectangularExact(t *testing.T) {
	// For rectangular nests (constant bounds), the midpoint estimate must
	// equal the exact count.
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randProgram(r)
		env := map[string]int{"n": 4 + r.Intn(8)}
		return EstFlops(p.Body, env) == float64(ExactFlops(p.Body, env))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickArrayFlatRoundTrip(t *testing.T) {
	check := func(d0, d1, d2 uint8) bool {
		dims := []int{int(d0%5) + 1, int(d1%5) + 1, int(d2%5) + 1}
		a := NewArray("a", dims)
		flat := 0
		for i0 := 0; i0 < dims[0]; i0++ {
			for i1 := 0; i1 < dims[1]; i1++ {
				for i2 := 0; i2 < dims[2]; i2++ {
					if a.Flat(i0, i1, i2) != flat {
						return false
					}
					flat++
				}
			}
		}
		return flat == len(a.Data)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
