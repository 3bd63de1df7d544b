package flow

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"

	"samurai/internal/lint"
)

const detflowName = "detflow"

var detflowRule = lint.Rule{
	Name:        detflowName,
	Doc:         "no nondeterminism source (clock, pid, env, scheduler) may flow into a seeded simulation result, the jobd WAL, rng seeding, or a vv report",
	CheckModule: checkDetflow,
}

// callSinks are functions whose arguments (or receiver, for record)
// must be deterministic, keyed by types.Func.FullName. These are the
// repo's replayability chokepoints: everything a golden test pins
// passes through one of them.
var callSinks = map[string]string{
	"(*samurai/internal/jobd.Store).append":     "jobd WAL append",
	"samurai/internal/rng.New":                  "rng stream seeding",
	"samurai/internal/rng.NewSeq":               "rng stream seeding",
	"(*samurai/internal/rng.Stream).Split":      "rng stream split id",
	"(*samurai/internal/rng.Stream).SplitInto":  "rng stream split id",
	"(*samurai/internal/circuit.Runner).record": "transient probe record buffer",
}

// returnSinks are functions whose results must be deterministic: the
// seeded simulation entry points whose outputs golden tests replay.
var returnSinks = map[string]string{
	"samurai/internal/montecarlo.simulateCell": "per-cell Monte Carlo outcome",
	"samurai/internal/montecarlo.RunArrayCtx":  "Monte Carlo array result",
	"samurai.Run":    "seeded transient simulation result",
	"samurai.RunCtx": "seeded transient simulation result",
}

// serializerPkgs are packages where any encoding/json marshal call is a
// sink: their byte-identical reports are a pinned invariant.
var serializerPkgs = map[string]string{
	"samurai/cmd/samuraivv": "samuraivv report serialization",
	"samurai/internal/vv":   "vv report serialization",
}

// checkDetflow reports every witnessed source→sink taint path. The
// diagnostic is anchored at the SOURCE line (so a //lint:nondet-ok
// there documents the intent where the nondeterminism enters) and the
// message carries the whole chain to the sink.
func checkDetflow(pkgs []*lint.Package) []lint.Diagnostic {
	g, a := analyze(pkgs)
	var out []lint.Diagnostic
	seen := map[string]bool{}
	report := func(t *trace, sinkDesc string, sinkPos string) {
		root := t.root()
		key := fmt.Sprintf("%s:%d|%s", root.pos.Filename, root.pos.Line, sinkDesc)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, lint.Diagnostic{
			Rule: detflowName,
			Pos:  root.pos,
			Message: fmt.Sprintf("nondeterministic value reaches %s at %s: %s",
				sinkDesc, sinkPos, t.chain()),
		})
	}

	for _, n := range g.Sorted {
		node := n
		ast.Inspect(node.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			pos := g.position(node.Pkg, call)
			at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			for _, fn := range node.callees[call] {
				desc, isSink := callSinks[fn.FullName()]
				if !isSink {
					if d, ok := serializerPkgs[node.Pkg.Path]; ok && isJSONMarshal(fn) {
						desc, isSink = d, true
					}
				}
				if !isSink {
					continue
				}
				for _, arg := range call.Args {
					if t := a.exprTaint(node, arg); t != nil {
						report(step(t, "into "+desc, pos), desc, at)
					}
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if s, isSel := node.Pkg.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
						if t := a.exprTaint(node, sel.X); t != nil {
							report(step(t, "into "+desc, pos), desc, at)
						}
					}
				}
			}
			return true
		})
	}

	// Return sinks: the function's own result summary must be clean.
	names := make([]string, 0, len(returnSinks))
	for name := range returnSinks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range g.Sorted {
			if n.Name() != name {
				continue
			}
			if t := a.retAny(n); t != nil {
				pos := g.position(n.Pkg, n.Decl)
				report(t, returnSinks[name], fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
			}
		}
	}
	return out
}

// isJSONMarshal matches encoding/json marshalling entry points.
func isJSONMarshal(fn *types.Func) bool {
	if p := fn.Pkg(); p == nil || p.Path() != "encoding/json" {
		return false
	}
	switch fn.Name() {
	case "Marshal", "MarshalIndent":
		return true
	case "Encode": // (*json.Encoder).Encode
		return true
	}
	return false
}
