package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose body performs an order-sensitive
// operation: scheduling an event, encoding or sending a packet, emitting a
// stat or a row, sending on a channel, or appending to a slice declared
// outside the loop that is never subsequently sorted. Go randomizes map
// iteration order per run, so any of these leaks nondeterminism into the
// trace — the exact bug class fixed by hand in PR 2 (Ekta/Bithoc/DSDV) and
// PR 3 (PIT downstream fan-out). The fix is always the same: collect the
// keys, sort them, iterate the slice (docs/CONTRACTS.md §2).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "Iterating a Go map feeds a randomized order into whatever the loop " +
		"body does. Bodies that schedule, encode, send, emit, or build an " +
		"output slice must iterate sorted keys instead.",
	Run: runMapOrder,
}

// sinkNames are method/function names that consume values in order. A method
// only counts when it is defined in this module (obj.Pkg() under "dapes/"):
// bytes.Buffer.Reset or io.Writer.Write in a map loop is order-independent
// noise, dapes' Timer.Reset or Face.Send is the bug.
var sinkNames = map[string]string{
	"Schedule":       "schedules an event",
	"ScheduleAfter":  "schedules an event",
	"ScheduleFunc":   "schedules an event",
	"ScheduleFuncAt": "schedules an event",
	"Reset":          "reschedules a timer",
	"Send":           "sends a packet",
	"SendTo":         "sends a packet",
	"Broadcast":      "broadcasts a packet",
	"Transmit":       "transmits a frame",
	"Deliver":        "delivers a frame",
	"Forward":        "forwards a packet",
	"Emit":           "emits a result",
	"EmitRow":        "emits a result row",
	"Record":         "records a stat",
	"Observe":        "records a stat",
	"Encode":         "encodes wire bytes",
	"EncodeTo":       "encodes wire bytes",
	"AppendWire":     "encodes wire bytes",
	"Write":          "writes output",
	"WriteString":    "writes output",
	"WriteRow":       "writes output",
}

// fmtSinks are the fmt functions that write to a stream (as opposed to
// Sprintf and friends, which are pure).
var fmtSinks = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, enclosingFuncBody(stack))
			return true
		})
	}
	return nil
}

func checkMapRange(pass *Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	// Order-sensitive calls and channel sends directly in the body.
	reported := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(rs.Pos(), "map iteration order reaches a channel send; range over sorted keys instead")
			reported = true
			return false
		case *ast.CallExpr:
			if verb, name := sinkCall(pass, n); verb != "" {
				pass.Reportf(rs.Pos(), "map iteration order reaches %s (%s); range over sorted keys instead", name, verb)
				reported = true
				return false
			}
		}
		return true
	})

	// Appends that build a slice declared outside the loop: the collect-keys
	// idiom itself. Legal only when the slice is sorted after the loop —
	// deleting the sort is exactly the PR-2-era regression this analyzer
	// exists to catch.
	appended := map[types.Object]ast.Expr{} // target -> first offending LHS
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
				continue
			}
			obj := rootObject(pass, as.Lhs[i])
			if obj == nil {
				continue
			}
			// Declared inside the loop body: the slice cannot outlive the
			// iteration, so its order cannot leak.
			if obj.Pos() >= rs.Body.Pos() && obj.Pos() < rs.Body.End() {
				continue
			}
			if _, seen := appended[obj]; !seen {
				appended[obj] = as.Lhs[i]
			}
		}
		return true
	})
	for obj, lhs := range appended {
		if funcBody != nil && sortedAfter(pass, funcBody, rs, obj) {
			continue
		}
		pass.Reportf(rs.Pos(),
			"map iteration appends to %q, which is never sorted afterwards — the slice's order changes per run; sort it (or range over sorted keys)",
			exprString(lhs))
	}
}

// sinkCall reports whether the call is an order-sensitive sink, returning a
// verb describing it and the callee's name.
func sinkCall(pass *Pass, call *ast.CallExpr) (verb, name string) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return "", ""
		}
		if obj.Pkg().Path() == "fmt" && fmtSinks[fun.Sel.Name] {
			return "writes output", "fmt." + fun.Sel.Name
		}
		if v, ok := sinkNames[fun.Sel.Name]; ok && strings.HasPrefix(obj.Pkg().Path(), "dapes/") {
			return v, fun.Sel.Name
		}
	case *ast.Ident:
		obj, ok := pass.TypesInfo.Uses[fun].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return "", ""
		}
		if v, ok := sinkNames[fun.Name]; ok && strings.HasPrefix(obj.Pkg().Path(), "dapes/") {
			return v, fun.Name
		}
	}
	return "", ""
}

// sortedAfter reports whether, after the range loop, the enclosing function
// passes obj to a sort (package sort or slices, or a module helper whose
// name mentions sorting).
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(pass, call) {
			return true
		}
		ast.Inspect(call, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj {
					found = true
					return false
				}
			}
			return true
		})
		return true
	})
	return found
}

// isSortCall recognizes sort.* and slices.Sort* calls plus module-local
// helpers whose name contains "sort".
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	var name string
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		obj = pass.TypesInfo.Uses[fun.Sel]
	case *ast.Ident:
		name = fun.Name
		obj = pass.TypesInfo.Uses[fun]
	default:
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// rootObject resolves the variable (or field) an assignment target refers
// to: `x`, `s.field`, or `x[i]` all root at x / field.
func rootObject(pass *Pass, expr ast.Expr) types.Object {
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootObject(pass, e.X)
	}
	return nil
}

// exprString renders a short source-ish form of an assignment target.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return fmt.Sprintf("%T", expr)
}
