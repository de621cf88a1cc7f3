// Package loopir defines a small loop-nest intermediate representation for
// dense scientific codes: perfectly or imperfectly nested counted loops over
// multi-dimensional float64 arrays with affine subscripts.
//
// It plays the role of the sequential source program in the paper: the
// authors hand-compiled Fortran routines (matrix multiplication, successive
// overrelaxation, LU decomposition) into C; here the same routines are
// expressed in this IR, analyzed by internal/depend, and parallelized by
// internal/compile. The package also provides a sequential interpreter
// (the correctness reference for all parallel executions) and one loop
// compiler with two backends: a postfix VM (kernel.go) used by both the
// reference runs and the generated slave code, and a Go source emitter
// (emit.go) whose output the aot package builds into native kernels.
package loopir

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Index expressions (integers: loop bounds and array subscripts)
// ---------------------------------------------------------------------------

// IExpr is an integer-valued index expression over loop variables and
// program parameters.
type IExpr interface {
	isIExpr()
	String() string
}

// ICon is an integer constant.
type ICon int

// IVar names a loop variable or program parameter.
type IVar string

// IBin is a binary integer operation; Op is one of '+', '-', '*'.
type IBin struct {
	Op   byte
	L, R IExpr
}

// IArr reads a data-array element and truncates it toward zero to an
// integer — a data-dependent subscript or loop bound (CSR row lengths,
// per-cell particle counts). An array read through IArr anywhere in a
// program must never be written by that program: the dependence analysis
// does not trace data-dependent index values, and read-only index arrays
// are what make that sound (Validate enforces it). IArr is not accepted in
// array dimension declarations.
type IArr struct {
	Array string
	Idx   []IExpr
}

func (ICon) isIExpr() {}
func (IVar) isIExpr() {}
func (IBin) isIExpr() {}
func (IArr) isIExpr() {}

func (c ICon) String() string { return fmt.Sprintf("%d", int(c)) }
func (v IVar) String() string { return string(v) }
func (b IBin) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L.String(), b.Op, b.R.String())
}
func (a IArr) String() string {
	var sb strings.Builder
	sb.WriteString(a.Array)
	for _, ix := range a.Idx {
		fmt.Fprintf(&sb, "[%s]", ix.String())
	}
	return sb.String()
}

// Convenience constructors for index expressions.

// Ic returns an integer constant.
func Ic(n int) IExpr { return ICon(n) }

// Iv returns a variable reference.
func Iv(name string) IExpr { return IVar(name) }

// Iadd returns l + r.
func Iadd(l, r IExpr) IExpr { return IBin{'+', l, r} }

// Isub returns l - r.
func Isub(l, r IExpr) IExpr { return IBin{'-', l, r} }

// Imul returns l * r.
func Imul(l, r IExpr) IExpr { return IBin{'*', l, r} }

// Ia returns a data-array index read (truncated toward zero).
func Ia(array string, idx ...IExpr) IExpr { return IArr{Array: array, Idx: idx} }

// ---------------------------------------------------------------------------
// Data expressions (float64)
// ---------------------------------------------------------------------------

// Expr is a float64-valued expression.
type Expr interface {
	isExpr()
	String() string
}

// Const is a floating-point constant.
type Const float64

// Ref reads (or, as an Assign LHS, writes) an array element.
type Ref struct {
	Array string
	Idx   []IExpr
}

// Bin is a binary arithmetic operation; Op is one of '+', '-', '*', '/'.
type Bin struct {
	Op   byte
	L, R Expr
}

func (Const) isExpr() {}
func (Ref) isExpr()   {}
func (Bin) isExpr()   {}

func (c Const) String() string { return fmt.Sprintf("%g", float64(c)) }
func (r Ref) String() string {
	var sb strings.Builder
	sb.WriteString(r.Array)
	for _, ix := range r.Idx {
		fmt.Fprintf(&sb, "[%s]", ix.String())
	}
	return sb.String()
}
func (b Bin) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L.String(), b.Op, b.R.String())
}

// Convenience constructors for data expressions.

// Fc returns a float constant.
func Fc(v float64) Expr { return Const(v) }

// Fref returns an array element reference.
func Fref(array string, idx ...IExpr) Ref { return Ref{Array: array, Idx: idx} }

// Fadd returns l + r.
func Fadd(l, r Expr) Expr { return Bin{'+', l, r} }

// Fsub returns l - r.
func Fsub(l, r Expr) Expr { return Bin{'-', l, r} }

// Fmul returns l * r.
func Fmul(l, r Expr) Expr { return Bin{'*', l, r} }

// Fdiv returns l / r.
func Fdiv(l, r Expr) Expr { return Bin{'/', l, r} }

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is a statement: a counted loop, an assignment, or a conditional.
type Stmt interface {
	isStmt()
}

// Loop iterates Var from Lo (inclusive) to Hi (exclusive) with unit step.
// A non-nil BreakIf makes the trip count data dependent: the condition is
// evaluated after each iteration and the loop exits early when it holds —
// the paper's "distributed loop nested inside a data-dependent WHILE loop"
// case (§4.1), written as a bounded loop with a convergence test.
type Loop struct {
	Var     string
	Lo      IExpr
	Hi      IExpr
	Body    []Stmt
	BreakIf *Cond
}

// Assign stores the value of RHS into the element named by LHS.
type Assign struct {
	LHS Ref
	RHS Expr
}

// Cond is a floating-point comparison; Op is one of "<", "<=", ">", ">=",
// "==", "!=".
type Cond struct {
	Op   string
	L, R Expr
}

// If executes Then when Cond holds, Else otherwise. Its presence in a loop
// body makes iteration cost data-dependent (a Table 1 property).
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

func (*Loop) isStmt()   {}
func (*Assign) isStmt() {}
func (*If) isStmt()     {}

// For constructs a Loop.
func For(v string, lo, hi IExpr, body ...Stmt) *Loop {
	return &Loop{Var: v, Lo: lo, Hi: hi, Body: body}
}

// Set constructs an Assign.
func Set(lhs Ref, rhs Expr) *Assign { return &Assign{LHS: lhs, RHS: rhs} }

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

// InitFn produces the initial value of an array element from its index
// vector. A nil InitFn means zero initialization.
type InitFn func(idx []int) float64

// ArrayDecl declares a dense float64 array with parameterized extents.
// InitSpec, when non-empty, names Init in the source language's initializer
// syntax (e.g. "hash(3)") so formatting a program preserves its initial
// data; Init alone is an opaque function and cannot be serialized.
type ArrayDecl struct {
	Name     string
	Dims     []IExpr
	Init     InitFn
	InitSpec string
}

// Program is a complete sequential loop-nest program.
type Program struct {
	Name   string
	Params []string
	Arrays []*ArrayDecl
	Body   []Stmt
}

// Array looks up a declaration by name, or nil.
func (p *Program) Array(name string) *ArrayDecl {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Validate checks structural well-formedness: declared parameter and array
// names are unique, every referenced array is declared with matching rank,
// every variable in an index expression is a parameter or an enclosing loop
// variable, and loop variables do not shadow parameters or each other.
// Data-dependent indexing carries two extra rules: IArr may not appear in
// array dimension declarations, and an array read through IArr anywhere
// must never be written (the dependence analysis does not trace values, so
// soundness requires index arrays to be read-only).
func (p *Program) Validate() error {
	seen := map[string]bool{}
	for _, prm := range p.Params {
		if seen[prm] {
			return fmt.Errorf("%s: duplicate parameter %q", p.Name, prm)
		}
		seen[prm] = true
	}
	arrays := map[string]int{}
	for _, a := range p.Arrays {
		if _, dup := arrays[a.Name]; dup {
			return fmt.Errorf("%s: duplicate array %q", p.Name, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%s: array %q collides with a parameter", p.Name, a.Name)
		}
		if len(a.Dims) == 0 {
			return fmt.Errorf("%s: array %q has no dimensions", p.Name, a.Name)
		}
		for _, d := range a.Dims {
			if err := p.checkIVars(d, nil, nil); err != nil {
				return fmt.Errorf("%s: array %q dims: %v", p.Name, a.Name, err)
			}
		}
		arrays[a.Name] = len(a.Dims)
	}
	if err := p.validateStmts(p.Body, nil, arrays); err != nil {
		return err
	}
	idxRead := map[string]bool{}
	collectIArrStmts(p.Body, idxRead)
	return p.checkIdxWrites(p.Body, idxRead)
}

// collectIArrStmts records every array name read through an IArr index
// expression anywhere in the statement list.
func collectIArrStmts(stmts []Stmt, set map[string]bool) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			collectIArrIdx(s.Lo, set)
			collectIArrIdx(s.Hi, set)
			if s.BreakIf != nil {
				collectIArrExpr(s.BreakIf.L, set)
				collectIArrExpr(s.BreakIf.R, set)
			}
			collectIArrStmts(s.Body, set)
		case *Assign:
			for _, ix := range s.LHS.Idx {
				collectIArrIdx(ix, set)
			}
			collectIArrExpr(s.RHS, set)
		case *If:
			collectIArrExpr(s.Cond.L, set)
			collectIArrExpr(s.Cond.R, set)
			collectIArrStmts(s.Then, set)
			collectIArrStmts(s.Else, set)
		}
	}
}

func collectIArrIdx(e IExpr, set map[string]bool) {
	switch e := e.(type) {
	case IBin:
		collectIArrIdx(e.L, set)
		collectIArrIdx(e.R, set)
	case IArr:
		set[e.Array] = true
		for _, ix := range e.Idx {
			collectIArrIdx(ix, set)
		}
	}
}

func collectIArrExpr(e Expr, set map[string]bool) {
	switch e := e.(type) {
	case Ref:
		for _, ix := range e.Idx {
			collectIArrIdx(ix, set)
		}
	case Bin:
		collectIArrExpr(e.L, set)
		collectIArrExpr(e.R, set)
	}
}

// UsesIArr reports whether the statement list contains any data-dependent
// IArr index read — the property that routes a program to data-aware cost
// accounting and the interpreter execution tier.
func UsesIArr(stmts []Stmt) bool {
	set := map[string]bool{}
	collectIArrStmts(stmts, set)
	return len(set) > 0
}

// checkIdxWrites rejects assignments to arrays that are read through IArr.
func (p *Program) checkIdxWrites(stmts []Stmt, idxRead map[string]bool) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			if err := p.checkIdxWrites(s.Body, idxRead); err != nil {
				return err
			}
		case *Assign:
			if idxRead[s.LHS.Array] {
				return fmt.Errorf("%s: array %q is read as an index and must be read-only", p.Name, s.LHS.Array)
			}
		case *If:
			if err := p.checkIdxWrites(s.Then, idxRead); err != nil {
				return err
			}
			if err := p.checkIdxWrites(s.Else, idxRead); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateStmts(stmts []Stmt, loopVars []string, arrays map[string]int) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			for _, lv := range loopVars {
				if lv == s.Var {
					return fmt.Errorf("%s: loop variable %q shadows an enclosing loop", p.Name, s.Var)
				}
			}
			for _, prm := range p.Params {
				if prm == s.Var {
					return fmt.Errorf("%s: loop variable %q shadows a parameter", p.Name, s.Var)
				}
			}
			if err := p.checkIVars(s.Lo, loopVars, arrays); err != nil {
				return fmt.Errorf("%s: loop %q lower bound: %v", p.Name, s.Var, err)
			}
			if err := p.checkIVars(s.Hi, loopVars, arrays); err != nil {
				return fmt.Errorf("%s: loop %q upper bound: %v", p.Name, s.Var, err)
			}
			if s.BreakIf != nil {
				inner := append(loopVars, s.Var)
				if err := p.checkExpr(s.BreakIf.L, inner, arrays); err != nil {
					return err
				}
				if err := p.checkExpr(s.BreakIf.R, inner, arrays); err != nil {
					return err
				}
				switch s.BreakIf.Op {
				case "<", "<=", ">", ">=", "==", "!=":
				default:
					return fmt.Errorf("%s: bad breakif op %q", p.Name, s.BreakIf.Op)
				}
			}
			if err := p.validateStmts(s.Body, append(loopVars, s.Var), arrays); err != nil {
				return err
			}
		case *Assign:
			if err := p.checkRef(s.LHS, loopVars, arrays); err != nil {
				return err
			}
			if err := p.checkExpr(s.RHS, loopVars, arrays); err != nil {
				return err
			}
		case *If:
			if err := p.checkExpr(s.Cond.L, loopVars, arrays); err != nil {
				return err
			}
			if err := p.checkExpr(s.Cond.R, loopVars, arrays); err != nil {
				return err
			}
			switch s.Cond.Op {
			case "<", "<=", ">", ">=", "==", "!=":
			default:
				return fmt.Errorf("%s: bad comparison op %q", p.Name, s.Cond.Op)
			}
			if err := p.validateStmts(s.Then, loopVars, arrays); err != nil {
				return err
			}
			if err := p.validateStmts(s.Else, loopVars, arrays); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%s: unknown statement type %T", p.Name, s)
		}
	}
	return nil
}

func (p *Program) checkRef(r Ref, loopVars []string, arrays map[string]int) error {
	rank, ok := arrays[r.Array]
	if !ok {
		return fmt.Errorf("%s: reference to undeclared array %q", p.Name, r.Array)
	}
	if len(r.Idx) != rank {
		return fmt.Errorf("%s: array %q has rank %d but is indexed with %d subscripts", p.Name, r.Array, rank, len(r.Idx))
	}
	for _, ix := range r.Idx {
		if err := p.checkIVars(ix, loopVars, arrays); err != nil {
			return fmt.Errorf("%s: subscript of %q: %v", p.Name, r.Array, err)
		}
	}
	return nil
}

func (p *Program) checkExpr(e Expr, loopVars []string, arrays map[string]int) error {
	switch e := e.(type) {
	case Const:
		return nil
	case Ref:
		return p.checkRef(e, loopVars, arrays)
	case Bin:
		switch e.Op {
		case '+', '-', '*', '/':
		default:
			return fmt.Errorf("%s: bad arithmetic op %q", p.Name, string(e.Op))
		}
		if err := p.checkExpr(e.L, loopVars, arrays); err != nil {
			return err
		}
		return p.checkExpr(e.R, loopVars, arrays)
	default:
		return fmt.Errorf("%s: unknown expression type %T", p.Name, e)
	}
}

// checkIVars validates an index expression. arrays is the declared-array
// rank table; nil means IArr is not allowed in this position (array
// dimension declarations, which are evaluated before any data exists).
func (p *Program) checkIVars(e IExpr, loopVars []string, arrays map[string]int) error {
	switch e := e.(type) {
	case ICon:
		return nil
	case IVar:
		name := string(e)
		for _, prm := range p.Params {
			if prm == name {
				return nil
			}
		}
		for _, lv := range loopVars {
			if lv == name {
				return nil
			}
		}
		return fmt.Errorf("unbound variable %q", name)
	case IBin:
		switch e.Op {
		case '+', '-', '*':
		default:
			return fmt.Errorf("bad index op %q", string(e.Op))
		}
		if err := p.checkIVars(e.L, loopVars, arrays); err != nil {
			return err
		}
		return p.checkIVars(e.R, loopVars, arrays)
	case IArr:
		if arrays == nil {
			return fmt.Errorf("array read %q not allowed here", e.Array)
		}
		rank, ok := arrays[e.Array]
		if !ok {
			return fmt.Errorf("index read of undeclared array %q", e.Array)
		}
		if len(e.Idx) != rank {
			return fmt.Errorf("index read of %q: rank %d indexed with %d subscripts", e.Array, rank, len(e.Idx))
		}
		for _, ix := range e.Idx {
			if err := p.checkIVars(ix, loopVars, arrays); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown index expression type %T", e)
	}
}
