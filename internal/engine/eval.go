package engine

import (
	"fmt"
	"math"
	"strings"

	"github.com/approxdb/congress/internal/sqlparse"
)

// rowEnv maps column references to positions in a (possibly joined) row.
type rowEnv struct {
	cols   []envCol
	byName map[string][]int // lower(name) -> candidate indices
	byQual map[string]int   // lower(table.name) -> index
}

type envCol struct {
	table string // qualifier (alias or table name), lower-cased; may be empty
	name  string // lower-cased
}

func newRowEnv() *rowEnv {
	return &rowEnv{byName: make(map[string][]int), byQual: make(map[string]int)}
}

func (e *rowEnv) add(table, name string) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	idx := len(e.cols)
	e.cols = append(e.cols, envCol{table: table, name: name})
	e.byName[name] = append(e.byName[name], idx)
	if table != "" {
		e.byQual[table+"."+name] = idx
	}
}

// merge appends all columns of o to e.
func (e *rowEnv) merge(o *rowEnv) {
	for _, c := range o.cols {
		e.add(c.table, c.name)
	}
}

func (e *rowEnv) resolve(table, name string) (int, error) {
	name = strings.ToLower(name)
	if table != "" {
		if idx, ok := e.byQual[strings.ToLower(table)+"."+name]; ok {
			return idx, nil
		}
		return -1, fmt.Errorf("engine: unknown column %s.%s", table, name)
	}
	cands := e.byName[name]
	switch len(cands) {
	case 0:
		return -1, fmt.Errorf("engine: unknown column %s", name)
	case 1:
		return cands[0], nil
	default:
		return -1, fmt.Errorf("engine: ambiguous column %s", name)
	}
}

// evalCtx carries everything needed to evaluate an expression against
// one row (and, inside grouped queries, the already-computed aggregate
// values for the current group).
type evalCtx struct {
	env  *rowEnv
	row  Row
	aggs map[string]Value // aggregate expr rendering -> value
}

func (ctx *evalCtx) eval(e sqlparse.Expr) (Value, error) {
	switch n := e.(type) {
	case *sqlparse.Literal:
		return literalValue(n)
	case *sqlparse.ColumnRef:
		idx, err := ctx.env.resolve(n.Table, n.Name)
		if err != nil {
			return Null, err
		}
		if idx >= len(ctx.row) {
			// Global aggregate over zero input rows: the group has no
			// representative row, so bare column references are NULL.
			return Null, nil
		}
		return ctx.row[idx], nil
	case *sqlparse.BinaryExpr:
		return ctx.evalBinary(n)
	case *sqlparse.UnaryExpr:
		return ctx.evalUnary(n)
	case *sqlparse.BetweenExpr:
		v, err := ctx.eval(n.Expr)
		if err != nil {
			return Null, err
		}
		lo, err := ctx.eval(n.Lo)
		if err != nil {
			return Null, err
		}
		hi, err := ctx.eval(n.Hi)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return NewBool(n.Not), nil
		}
		in := compareCoerced(v, lo) >= 0 && compareCoerced(v, hi) <= 0
		return NewBool(in != n.Not), nil
	case *sqlparse.InExpr:
		v, err := ctx.eval(n.Expr)
		if err != nil {
			return Null, err
		}
		found := false
		for _, item := range n.List {
			iv, err := ctx.eval(item)
			if err != nil {
				return Null, err
			}
			if !v.IsNull() && !iv.IsNull() && compareCoerced(v, iv) == 0 {
				found = true
				break
			}
		}
		return NewBool(found != n.Not), nil
	case *sqlparse.IsNullExpr:
		v, err := ctx.eval(n.Expr)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != n.Not), nil
	case *sqlparse.FuncCall:
		if sqlparse.AggregateFuncs[n.Name] {
			if ctx.aggs == nil {
				return Null, fmt.Errorf("engine: aggregate %s used outside grouped query", strings.ToUpper(n.Name))
			}
			v, ok := ctx.aggs[n.String()]
			if !ok {
				return Null, fmt.Errorf("engine: internal: aggregate %s not computed", n.String())
			}
			return v, nil
		}
		return ctx.evalScalarFunc(n)
	case *sqlparse.CaseExpr:
		return ctx.evalCase(n)
	default:
		return Null, fmt.Errorf("engine: unsupported expression %T", e)
	}
}

func literalValue(l *sqlparse.Literal) (Value, error) {
	switch l.Kind {
	case sqlparse.LitNull:
		return Null, nil
	case sqlparse.LitInt:
		return NewInt(l.I), nil
	case sqlparse.LitFloat:
		return NewFloat(l.F), nil
	case sqlparse.LitBool:
		return NewBool(l.B), nil
	case sqlparse.LitDate:
		return ParseDate(l.S)
	default:
		return NewString(l.S), nil
	}
}

// compareCoerced compares values, coercing an ISO-date string against a
// DATE so predicates like l_shipdate <= '1998-09-01' work as they do on
// the paper's testbed.
func compareCoerced(a, b Value) int {
	if a.K == KindDate && b.K == KindString {
		if d, err := ParseDate(b.S); err == nil {
			b = d
		}
	} else if b.K == KindDate && a.K == KindString {
		if d, err := ParseDate(a.S); err == nil {
			a = d
		}
	}
	return a.Compare(b)
}

func (ctx *evalCtx) evalBinary(n *sqlparse.BinaryExpr) (Value, error) {
	switch n.Op {
	case "and":
		l, err := ctx.eval(n.Left)
		if err != nil {
			return Null, err
		}
		if !l.Bool() {
			return NewBool(false), nil
		}
		r, err := ctx.eval(n.Right)
		if err != nil {
			return Null, err
		}
		return NewBool(r.Bool()), nil
	case "or":
		l, err := ctx.eval(n.Left)
		if err != nil {
			return Null, err
		}
		if l.Bool() {
			return NewBool(true), nil
		}
		r, err := ctx.eval(n.Right)
		if err != nil {
			return Null, err
		}
		return NewBool(r.Bool()), nil
	}

	l, err := ctx.eval(n.Left)
	if err != nil {
		return Null, err
	}
	r, err := ctx.eval(n.Right)
	if err != nil {
		return Null, err
	}

	switch n.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return NewBool(false), nil // NULL comparisons are never true
		}
		c := compareCoerced(l, r)
		var ok bool
		switch n.Op {
		case "=":
			ok = c == 0
		case "<>":
			ok = c != 0
		case "<":
			ok = c < 0
		case "<=":
			ok = c <= 0
		case ">":
			ok = c > 0
		case ">=":
			ok = c >= 0
		}
		return NewBool(ok), nil
	case "like":
		if l.K != KindString || r.K != KindString {
			return NewBool(false), nil
		}
		return NewBool(matchLike(l.S, r.S)), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewString(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return arith(n.Op, l, r)
	default:
		return Null, fmt.Errorf("engine: unsupported operator %q", n.Op)
	}
}

// arith performs SQL arithmetic: integer ops stay integral except
// division, which always yields a float (the rewrites divide scaled sums
// and must not truncate). NULL propagates.
func arith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Null, fmt.Errorf("engine: non-numeric operand for %q (%s, %s)", op, l.K, r.K)
	}
	intOp := l.K == KindInt && r.K == KindInt
	switch op {
	case "+":
		if intOp {
			return NewInt(l.I + r.I), nil
		}
		return NewFloat(lf + rf), nil
	case "-":
		if intOp {
			return NewInt(l.I - r.I), nil
		}
		return NewFloat(lf - rf), nil
	case "*":
		if intOp {
			return NewInt(l.I * r.I), nil
		}
		return NewFloat(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null, nil
		}
		return NewFloat(lf / rf), nil
	case "%":
		if !intOp || r.I == 0 {
			return Null, nil
		}
		return NewInt(l.I % r.I), nil
	}
	return Null, fmt.Errorf("engine: unknown arithmetic op %q", op)
}

func (ctx *evalCtx) evalUnary(n *sqlparse.UnaryExpr) (Value, error) {
	v, err := ctx.eval(n.Expr)
	if err != nil {
		return Null, err
	}
	switch n.Op {
	case "not":
		return NewBool(!v.Bool()), nil
	case "-":
		switch v.K {
		case KindInt:
			return NewInt(-v.I), nil
		case KindFloat:
			return NewFloat(-v.F), nil
		case KindNull:
			return Null, nil
		default:
			return Null, fmt.Errorf("engine: cannot negate %s", v.K)
		}
	}
	return Null, fmt.Errorf("engine: unknown unary op %q", n.Op)
}

func (ctx *evalCtx) evalCase(n *sqlparse.CaseExpr) (Value, error) {
	if n.Operand != nil {
		op, err := ctx.eval(n.Operand)
		if err != nil {
			return Null, err
		}
		for _, w := range n.Whens {
			wv, err := ctx.eval(w.Cond)
			if err != nil {
				return Null, err
			}
			if !op.IsNull() && !wv.IsNull() && compareCoerced(op, wv) == 0 {
				return ctx.eval(w.Result)
			}
		}
	} else {
		for _, w := range n.Whens {
			cv, err := ctx.eval(w.Cond)
			if err != nil {
				return Null, err
			}
			if cv.Bool() {
				return ctx.eval(w.Result)
			}
		}
	}
	if n.Else != nil {
		return ctx.eval(n.Else)
	}
	return Null, nil
}

func (ctx *evalCtx) evalScalarFunc(n *sqlparse.FuncCall) (Value, error) {
	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ctx.eval(a)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	need := func(k int) error {
		if len(args) != k {
			return fmt.Errorf("engine: %s expects %d argument(s), got %d", strings.ToUpper(n.Name), k, len(args))
		}
		return nil
	}
	num := func(i int) (float64, bool) { return args[i].AsFloat() }

	switch n.Name {
	case "abs":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if args[0].K == KindInt {
			if args[0].I < 0 {
				return NewInt(-args[0].I), nil
			}
			return args[0], nil
		}
		f, _ := num(0)
		return NewFloat(math.Abs(f)), nil
	case "sqrt":
		if err := need(1); err != nil {
			return Null, err
		}
		f, ok := num(0)
		if !ok {
			return Null, nil
		}
		return NewFloat(math.Sqrt(f)), nil
	case "ln":
		if err := need(1); err != nil {
			return Null, err
		}
		f, ok := num(0)
		if !ok || f <= 0 {
			return Null, nil
		}
		return NewFloat(math.Log(f)), nil
	case "exp":
		if err := need(1); err != nil {
			return Null, err
		}
		f, ok := num(0)
		if !ok {
			return Null, nil
		}
		return NewFloat(math.Exp(f)), nil
	case "power":
		if err := need(2); err != nil {
			return Null, err
		}
		b, ok1 := num(0)
		e, ok2 := num(1)
		if !ok1 || !ok2 {
			return Null, nil
		}
		return NewFloat(math.Pow(b, e)), nil
	case "round":
		if len(args) == 1 {
			f, ok := num(0)
			if !ok {
				return Null, nil
			}
			return NewFloat(math.Round(f)), nil
		}
		if err := need(2); err != nil {
			return Null, err
		}
		f, ok1 := num(0)
		d, ok2 := args[1].AsInt()
		if !ok1 || !ok2 {
			return Null, nil
		}
		scale := math.Pow(10, float64(d))
		return NewFloat(math.Round(f*scale) / scale), nil
	case "floor":
		if err := need(1); err != nil {
			return Null, err
		}
		f, ok := num(0)
		if !ok {
			return Null, nil
		}
		return NewFloat(math.Floor(f)), nil
	case "ceil", "ceiling":
		if err := need(1); err != nil {
			return Null, err
		}
		f, ok := num(0)
		if !ok {
			return Null, nil
		}
		return NewFloat(math.Ceil(f)), nil
	case "mod":
		if err := need(2); err != nil {
			return Null, err
		}
		return arith("%", args[0], args[1])
	case "lower":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "upper":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "length":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "substr", "substring":
		if len(args) < 2 || len(args) > 3 {
			return Null, fmt.Errorf("engine: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			ln, _ := args[2].AsInt()
			if ln < 0 {
				ln = 0
			}
			if int(ln) < len(out) {
				out = out[:ln]
			}
		}
		return NewString(out), nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	case "nullif":
		if err := need(2); err != nil {
			return Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && compareCoerced(args[0], args[1]) == 0 {
			return Null, nil
		}
		return args[0], nil
	case "year":
		if err := need(1); err != nil {
			return Null, err
		}
		if args[0].K != KindDate {
			return Null, nil
		}
		return NewInt(int64(epochDaysToYear(args[0].I))), nil
	default:
		return Null, fmt.Errorf("engine: unknown function %s", strings.ToUpper(n.Name))
	}
}

func epochDaysToYear(days int64) int {
	// 1970-01-01 + days; cheap conversion via civil-from-days algorithm.
	z := days + 719468
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	if mp >= 10 {
		y++
	}
	return int(y)
}

// matchLike implements SQL LIKE with % (any run) and _ (any single
// character) wildcards, matching bytes (the dialect is ASCII-oriented).
func matchLike(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Dynamic programming over pattern positions with greedy % handling.
	var si, pi int
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
