package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd requires that every span created via the trace layer —
// trace.Start, trace.StartInst, or any other call returning a span — is
// Ended on all paths of the
// creating function. A span that is never Ended silently loses its
// histogram observation, its trace record and its flight-recorder note,
// so the exported trace under-reports exactly the code path being
// debugged.
//
// Accepted shapes:
//
//   - defer sp.End() (including inside a deferred closure), which
//     covers every exit path by construction;
//   - explicit sp.End() calls, provided no return statement sits
//     between the creation and the last End — an early return there
//     would leak the span.
//
// Spans that escape the creating function (returned, stored, passed to
// another function) are skipped: responsibility for Ending them moved
// with the value. Discarding a span result (`_` or a bare call
// statement) is always flagged.
const spanendName = "spanend"

var spanEndRule = Rule{
	Name:  spanendName,
	Doc:   "spans from trace.Start/trace.StartInst must be Ended on all paths (defer or explicit)",
	Check: checkSpanEnd,
}

func checkSpanEnd(pkg *Package) []Diagnostic {
	var out []Diagnostic
	pkg.eachFile(false, func(f *File) {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					spanendCheckBody(pkg, fn.Body, &out)
				}
			case *ast.FuncLit:
				spanendCheckBody(pkg, fn.Body, &out)
			}
			return true
		})
	})
	return out
}

// spanendTracked is one span variable created in the function under
// analysis.
type spanendTracked struct {
	obj    types.Object // identity in typed files; nil in test files
	name   string       // identity fallback for untyped files
	defIdent *ast.Ident // the defining occurrence (skipped as a use)
	pos    token.Pos    // creation position
}

// spanendCheckBody analyses one function body. Span creations are
// matched at this body's nesting level only (nested func literals get
// their own call), but End/escape uses are searched through the whole
// subtree so `defer func() { sp.End() }()` counts.
func spanendCheckBody(pkg *Package, body *ast.BlockStmt, out *[]Diagnostic) {
	var tracked []spanendTracked

	// Pass 1: creations and discards at this nesting level.
	spanendWalkLevel(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if _, ok := spanendSpanIndex(pkg, call); ok {
					*out = append(*out, Diagnostic{
						Rule:    spanendName,
						Pos:     pkg.position(call),
						Message: "span result discarded; assign it and End it on every path",
					})
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			idx, ok := spanendSpanIndex(pkg, call)
			if !ok || idx >= len(st.Lhs) {
				return
			}
			id, ok := st.Lhs[idx].(*ast.Ident)
			if !ok {
				// Stored straight into a field or element: escapes.
				return
			}
			if id.Name == "_" {
				*out = append(*out, Diagnostic{
					Rule:    spanendName,
					Pos:     pkg.position(call),
					Message: "span result discarded as _; assign it and End it on every path",
				})
				return
			}
			t := spanendTracked{name: id.Name, defIdent: id, pos: call.Pos()}
			if pkg.Info != nil {
				if obj := pkg.Info.Defs[id]; obj != nil {
					t.obj = obj
				} else if obj := pkg.Info.Uses[id]; obj != nil {
					t.obj = obj // plain `=` reassignment of an existing var
				}
			}
			tracked = append(tracked, t)
		}
	})
	if len(tracked) == 0 {
		return
	}

	// Returns at this nesting level, for the explicit-End leak check.
	var returns []token.Pos
	spanendWalkLevel(body, func(n ast.Node) {
		if r, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, r.Pos())
		}
	})

	// Pass 2: classify every use of each tracked span in the full
	// subtree.
	for _, tr := range tracked {
		var (
			deferredEnd bool
			lastEnd     token.Pos
			ends        int
			escaped     bool
		)
		var stack []ast.Node
		ast.Inspect(body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			id, ok := n.(*ast.Ident)
			if !ok || id == tr.defIdent || !spanendSameVar(pkg, id, tr) {
				return true
			}
			switch spanendClassifyUse(stack) {
			case useEnd:
				ends++
				if id.Pos() > lastEnd {
					lastEnd = id.Pos()
				}
				if spanendInsideDefer(stack) {
					deferredEnd = true
				}
			case useNeutral:
				// Reading Path/SpanID: neither ends nor escapes.
			case useEscape:
				escaped = true
			}
			return true
		})

		switch {
		case escaped || deferredEnd:
			// Escaped spans are someone else's to End; deferred End
			// covers every path.
		case ends == 0:
			*out = append(*out, Diagnostic{
				Rule:    spanendName,
				Pos:     pkg.Fset.Position(tr.pos),
				Message: "span " + tr.name + " is never Ended; defer " + tr.name + ".End() after creating it",
			})
		default:
			for _, r := range returns {
				if r > tr.pos && r < lastEnd {
					*out = append(*out, Diagnostic{
						Rule:    spanendName,
						Pos:     pkg.Fset.Position(tr.pos),
						Message: fmt.Sprintf("span %s leaks on the return at line %d; End it before returning or use defer",
							tr.name, pkg.Fset.Position(r).Line),
					})
					break
				}
			}
		}
	}
}

// spanendWalkLevel visits the nodes of body without descending into
// nested function literals.
func spanendWalkLevel(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

type spanendUseKind int

const (
	useEscape spanendUseKind = iota
	useEnd
	useNeutral
)

// spanendClassifyUse inspects the ancestor chain of a tracked ident
// (stack top) and decides what the use does with the span.
func spanendClassifyUse(stack []ast.Node) spanendUseKind {
	if len(stack) < 3 {
		return useEscape
	}
	sel, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	if !ok || sel.X != stack[len(stack)-1] {
		return useEscape
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	if !ok || call.Fun != sel {
		// Method value (f := sp.End) or field access: the span can be
		// Ended anywhere from here — treat as escaped.
		return useEscape
	}
	if sel.Sel.Name == "End" {
		return useEnd
	}
	// Any other method call (Path, SpanID) just reads the span.
	return useNeutral
}

// spanendInsideDefer reports whether the current node (stack top) is
// lexically inside a defer statement — a direct `defer sp.End()` or a
// deferred closure body.
func spanendInsideDefer(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

// spanendSameVar reports whether id refers to the tracked span
// variable: object identity when type information covers the file, name
// match otherwise (untyped test files).
func spanendSameVar(pkg *Package, id *ast.Ident, tr spanendTracked) bool {
	if tr.obj != nil && pkg.Info != nil {
		if use := pkg.Info.Uses[id]; use != nil {
			return use == tr.obj
		}
		if def := pkg.Info.Defs[id]; def != nil {
			return def == tr.obj
		}
		return false
	}
	return id.Name == tr.name
}

// spanendSpanIndex reports whether call creates a span and at which
// result index the span sits. With type information any call whose
// results include exactly one trace span pointer matches; in
// untyped (test) files only the qualified creation calls are
// recognised, so unqualified in-package helpers never false-positive.
func spanendSpanIndex(pkg *Package, call *ast.CallExpr) (int, bool) {
	if pkg.Info != nil {
		if t := pkg.Info.TypeOf(call); t != nil {
			switch tt := t.(type) {
			case *types.Tuple:
				idx, found := -1, 0
				for i := 0; i < tt.Len(); i++ {
					if spanendIsSpanPtr(tt.At(i).Type()) {
						idx, found = i, found+1
					}
				}
				return idx, found == 1
			default:
				if spanendIsSpanPtr(tt) {
					return 0, true
				}
				return -1, false
			}
		}
	}
	if pkg.isPkgDot(call.Fun, "samurai/internal/obs/trace", "Start") ||
		pkg.isPkgDot(call.Fun, "samurai/internal/obs/trace", "StartInst") {
		return 1, true
	}
	return -1, false
}

// spanendIsSpanPtr reports whether t is *trace.Span.
func spanendIsSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Name() == "Span" &&
		named.Obj().Pkg().Path() == "samurai/internal/obs/trace"
}
