package lint

import (
	"go/ast"
	"go/types"
)

// GoleakAnalyzer enforces the goroutine-lifecycle contract: every go
// statement must have an owner with a collection story. A spawned goroutine
// is accounted for when either
//
//  1. its spawner joins it — the goroutine signals completion (wg.Done() on
//     a sync.WaitGroup, a send on or close of a channel) and the spawning
//     function observes that same variable (wg.Wait(), a receive, a range),
//     the fork-join and handoff idioms; or
//  2. it observes a cancellation signal — ctx.Done()/ctx.Err() or a receive
//     from a chan struct{} stop channel — anywhere in its transitive
//     module-internal call tree, so shutdown can reach it.
//
// Anything else is a detached goroutine: nothing ever collects it, and on
// the serving path it outlives the request, the drain, or both. The analysis
// is interprocedural two ways: "cancellable" rides the shared effect
// summaries (the signal may live arbitrarily deep in the spawned call tree),
// and detachment itself propagates through spawn-helper wrappers via the
// EffSpawnDetached summary bit — a goroutine that is itself collected but
// runs a helper that leaks workers is still a finding at the spawn site.
//
// Designed process-lifetime loops (the snapshot/compaction ticker class)
// carry //sapla:daemon <reason>; the directive also keeps EffSpawnDetached
// from propagating the daemon to its callers. Opaque spawns — plain function
// values — are skipped: the analyzer is conservative toward silence.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "every goroutine must be joined by its spawner or observe a cancellation signal",
	Run:  runGoleak,
}

func runGoleak(p *Pass) {
	ip := p.Prog.Interproc()
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			eachGoStmt(fd.Body, func(scope *ast.BlockStmt, g *ast.GoStmt) {
				checkGoStmt(p, ip, info, scope, g)
			})
		}
	}
}

// checkGoStmt applies both lifecycle rules to one go statement: the direct
// rule (joined or cancellable), then the transitive rule (the spawned tree
// must not launch detached workers of its own).
func checkGoStmt(p *Pass, ip *Interproc, info *types.Info, scope *ast.BlockStmt, g *ast.GoStmt) {
	eff, spawned, spawnedInfo, what, ok := spawnTarget(ip, info, g)
	if !ok {
		return // opaque function value: nothing to prove either way
	}
	if eff&EffCancel == 0 && !joinedBySpawner(ip, info, scope, g, spawned, spawnedInfo) {
		p.Reportf(g.Pos(),
			"%s is neither joined by its spawner (no WaitGroup Done/Wait pair or channel handoff received back here) nor observes a cancellation signal (ctx.Done/ctx.Err or a chan struct{} receive); it can outlive its spawner — //sapla:daemon <reason> marks a designed process-lifetime loop",
			what)
		return
	}
	if eff&EffSpawnDetached != 0 {
		p.Reportf(g.Pos(),
			"%s transitively spawns a detached goroutine through a helper in its call tree; join or cancel the worker where it is launched",
			what)
	}
}
