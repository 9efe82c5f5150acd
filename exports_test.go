package here_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of this module; bench/ is a module of
// its own that imports it under this prefix.
const modulePath = "github.com/here-ft/here"

// keptExports are exported functions and methods that no non-test code
// calls but that stay, each for the reason given. A key is
// "pkgdir.Name" for a function and "pkgdir.Recv.Name" for a method;
// pkgdir is the package's directory relative to the repository root.
// An entry the scan would not flag fails the test, so the list cannot
// outlive what it excuses.
var keptExports = map[string]string{
	// The paper's own models, kept whatever calls them today.
	"internal/period.FitPauseModel":         "Algorithm 1's pause model t = αN/P + C (§5.4)",
	"internal/period.PauseModel.Predict":    "Algorithm 1's pause model t = αN/P + C (§5.4)",
	"internal/devices.NewGuestKernel":       "§7.6 guest kernel module",
	"internal/devices.GuestKernel.Attached": "§7.6 guest kernel module; its tests observe the attach through it",
	"internal/exploit.NewSentinel":          "§6 attack-detector coupling (EXPERIMENTS.md)",
	"internal/exploit.Sentinel.Intercept":   "§6 attack-detector coupling (EXPERIMENTS.md)",
	"internal/vclock.NewReal":               "wall-clock Clock for a daemon paced by real time (ROADMAP item 14)",
	// Fault constructors a seeded fault-schedule sweep composes
	// (ROADMAP item 7).
	"internal/faults.Plan.BandwidthDegrade":   "fault constructor (ROADMAP item 7)",
	"internal/faults.Plan.DaemonCrash":        "fault constructor (ROADMAP item 7)",
	"internal/faults.Plan.HostHang":           "fault constructor (ROADMAP item 7)",
	"internal/faults.Plan.HostStarve":         "fault constructor (ROADMAP item 7)",
	"internal/faults.Plan.HostTransientCrash": "fault constructor (ROADMAP item 7)",
	"internal/faults.Plan.MicrorebootFailure": "fault constructor (ROADMAP item 7)",
	// Test seams: other packages' tests drive or observe behaviour
	// through them.
	"internal/memory.GuestMemory.Hash":             "replica == primary checks across packages",
	"internal/replication.Replicator.ReplicaImage": "what a leg's replica holds",
	"internal/journal.Store.LogSize":               "WAL growth and compaction",
	"internal/fleet.Scheduler.Owner":               "which placement group owns a protection",
	"internal/hypervisor.NewHostOf":                "a host of a given backend",
	"internal/faults.Plan.Remaining":               "chaos test: every scheduled fault fired",
	"internal/faults.Proxy.SetStall":               "transport tests: lose acks while data flows",
	"internal/faults.Proxy.CutAfter":               "transport tests: cut a stream mid-write",
	"internal/faults.Proxy.Cuts":                   "transport tests: the cut happened",
	"internal/simnet.Link.SetDown":                 "tests cut a simulated link",
	"internal/metrics.Series.MeanBetween":          "experiments tests average a figure's series over a window",
	"internal/blockdev.Disk.Hash":                  "blockdev tests: replica disk == primary disk",
	"internal/trace.Kind.IsSpan":                   "golden-trace test picks Span or Event by it",
	"internal/vulns.Flavors":                       "overlap test cross-checks every flavor pair against the dataset",
	"internal/vulns.Flavor.Components":             "overlap test cross-checks every flavor pair against the dataset",
}

// keptFiles are files whose every export is API for code outside this
// module, whatever calls it inside.
var keptFiles = map[string]string{
	"here.go":                         "facade API",
	"security.go":                     "facade API",
	"workloads.go":                    "facade API",
	"fleet.go":                        "facade API",
	"internal/controlplane/client.go": "control-plane client helpers for herectl and library users",
}

// stdInterfaceMethods are method names that standard-library code calls
// through an interface, so no call site in this repository names them.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true, "Set": true,
	"Seed": true, "Int63": true, "Uint64": true,
}

type goFile struct {
	rel  string // slash path relative to the repository root
	dir  string // package directory, "." for the root
	file *ast.File
}

// TestNoUncalledExports fails for every exported function or method that
// no non-test code references outside its own declaration — neither this
// module's nor bench/'s. A reference is a name match: a function by its
// package-qualified name (or its bare name inside its own package), a
// method by any selector of that name, so a method shares its callers
// with every method and field of the same name. Code that only tests
// call goes with its tests; a deliberate exception goes in keptExports
// or keptFiles with its reason.
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(p)
		if d.IsDir() {
			if rel == "bench/out" || (rel != "." && strings.HasPrefix(d.Name(), ".")) || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{rel: rel, dir: path.Dir(rel), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type funcKey struct{ dir, name string }
	funcRefs := map[funcKey]int{}  // package-level function references
	methodRefs := map[string]int{} // selector references by name
	for _, gf := range files {
		imports := map[string]string{} // local name → package dir
		for _, imp := range gf.file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
				name := path.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = "" // an outside package: not ours
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
			if dir == "" {
				dir = "."
			}
			name := path.Base(p)
			if dir == "." {
				name = "here"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range gf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declNames[fd.Name] = true
			}
		}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, isPkg := imports[id.Name]; isPkg {
						if dir != "" {
							funcRefs[funcKey{dir, x.Sel.Name}]++
						}
						return false
					}
				}
				methodRefs[x.Sel.Name]++
			case *ast.Ident:
				if !declNames[x] {
					funcRefs[funcKey{gf.dir, x.Name}]++
				}
			}
			return true
		})
	}

	var offenders []string
	excused := map[string]bool{}
	for _, gf := range files {
		if keptFiles[gf.rel] != "" {
			excused[gf.rel] = true
			continue
		}
		if strings.HasPrefix(gf.rel, "bench/") {
			continue
		}
		for _, d := range gf.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			key := gf.dir + "." + name
			used := funcRefs[funcKey{gf.dir, name}] > 0
			if fd.Recv != nil {
				key = gf.dir + "." + recvType(fd.Recv.List[0].Type) + "." + name
				used = methodRefs[name] > 0 || stdInterfaceMethods[name]
			}
			if used {
				continue
			}
			if keptExports[key] != "" {
				excused[key] = true
				continue
			}
			offenders = append(offenders, key+" ("+fset.Position(fd.Pos()).String()+")")
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("exported but called by no non-test code: %s", o)
	}
	for _, kept := range []map[string]string{keptExports, keptFiles} {
		for k := range kept {
			if !excused[k] {
				t.Errorf("allowlist entry %s excuses nothing: drop it", k)
			}
		}
	}
}

// recvType names a method's receiver type without its pointer or type
// parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
