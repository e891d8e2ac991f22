package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPathPackages are the packages whose code runs inside (or feeds) the
// discrete-event simulation. Inside them, every timestamp must come from the
// kernel clock and every random draw from a sim.Stream derived from the
// trial seed — a single wall-clock read, global-RNG call or privately seeded
// generator breaks the golden-trace determinism contract that gates every
// optimization in this repo (docs/CONTRACTS.md §1). Code outside these
// packages (cmd/ mains, the metadata/keys/merkle toolchain, tests) may use
// real time and math/rand freely.
var simPathPackages = []string{
	simPath,
	"dapes/internal/geo",
	"dapes/internal/rpf",
	"dapes/internal/phy",
	"dapes/internal/core",
	"dapes/internal/nfd",
	"dapes/internal/transport",
	"dapes/internal/bithoc",
	"dapes/internal/ekta",
	"dapes/internal/dht",
	"dapes/internal/routing",
	"dapes/internal/multihop",
	"dapes/internal/peba",
	"dapes/internal/fault",
	"dapes/internal/experiment",
	"dapes/internal/plan",
}

// wallClockFuncs are the package time functions that read or wait on the
// machine's clock. Pure conversions (time.Duration arithmetic, time.Unix)
// stay legal — the contract bans the wall clock, not the time types.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// randSourceFuncs are the math/rand constructors of a generator with a seed
// of its own. A second generator on a simulation path is a sequence that
// does not derive from (trial seed, node, purpose): only internal/sim, which
// defines the derivation, may build one. Everything else at package level
// except rand.New and rand.NewZipf (rand.Int, rand.Intn, rand.Float64,
// rand.Perm, rand.Shuffle, rand.Seed, ...) draws from the process-global
// source and is banned on simulation paths outright.
var randSourceFuncs = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// SimClock flags wall-clock reads (time.Now, time.Since, time.Sleep, ...),
// global math/rand use (rand.Intn, rand.Float64, ...) and privately seeded
// generators (rand.NewSource; rand.New over anything but a *sim.Stream)
// inside simulation-path packages.
var SimClock = &Analyzer{
	Name: "simclock",
	Doc: "In simulation-path packages all time must come from the kernel clock " +
		"and all randomness from a sim.Stream derived from the trial seed. " +
		"Wall-clock reads, the global math/rand source and generators seeded " +
		"on the side make trials non-reproducible or partition-dependent and " +
		"break the golden-trace gates.",
	Run: runSimClock,
}

func runSimClock(pass *Pass) error {
	if !onSimPath(pass.Pkg.Path()) {
		return nil
	}
	mayBuildSources := inSim(pass.Pkg.Path())
	// overStream holds the rand.New selectors already seen as the callee of
	// rand.New(&stream): the one way a *rand.Rand is made on these paths.
	overStream := map[*ast.SelectorExpr]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 {
				if fn, ok := call.Fun.(*ast.SelectorExpr); ok && isSimStreamPtr(pass.TypesInfo.TypeOf(call.Args[0])) {
					overStream[fn] = true
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[base].(*types.PkgName)
			if !ok {
				return true
			}
			switch pkgName.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"wall clock on a simulation path: time.%s; use the kernel clock (sim.Kernel.Now / the layer's Clock) so trials replay byte-identically",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
					break
				}
				switch name := sel.Sel.Name; {
				case name == "NewZipf": // takes a *rand.Rand, which was checked where it was made
				case randSourceFuncs[name] || name == "New":
					if !mayBuildSources && !overStream[sel] {
						pass.Reportf(sel.Pos(),
							"privately seeded generator on a simulation path: rand.%s; derive a sim.Stream (sim.NewStream, Kernel.Stream) and, for a *rand.Rand, wrap it: rand.New(&stream)",
							name)
					}
				default:
					pass.Reportf(sel.Pos(),
						"global math/rand source on a simulation path: rand.%s; draw from the node's sim.Stream instead",
						name)
				}
			}
			return true
		})
	}
	return nil
}

// isSimStreamPtr reports whether t is *sim.Stream.
func isSimStreamPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Stream" && obj.Pkg() != nil && obj.Pkg().Path() == simPath
}

// onSimPath reports whether the import path is one of the simulation-path
// packages or a subpackage of one.
func onSimPath(path string) bool {
	for _, p := range simPathPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
