// Command detvet is the repo's determinism vet: a syntactic analyzer
// over every package under internal/, whose results must be
// bit-identical across runs and machines: the kernel and everything in
// its event loop, the gate-level evaluator, the compiler, the checkers
// and the layers that render cacheable result bodies. It flags the three
// ways nondeterminism usually leaks into a Go simulator:
//
//   - importing "time" (wall-clock reads in simulated-time code),
//   - calling the global math/rand source (rand.Intn and friends share
//     process-global state; seeded rand.New(rand.NewSource(...)) streams
//     are fine),
//   - ranging over a map (iteration order is randomized per run).
//
// Packages listed in floatFreeDirs are additionally barred from
// floating point (float32/float64 names and floating literals): their
// published numbers are exact rationals, and a single float sneaking
// into a bound computation would silently trade exactness for rounding.
//
// A finding can be waived by putting a "//detvet:ok <reason>" comment on
// the offending line or the line above it.
//
// The analysis is deliberately syntactic — go/parser and go/ast only, no
// type checking — so it runs instantly with no module resolution and
// errs toward flagging; the waiver comment handles the rare false
// positive. Test files are exempt.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkedDirs returns every directory under root/internal, relative to
// root and in lexical order: all of internal/ is under the determinism
// contract, so a new package is checked without being listed anywhere.
// testdata directories hold fixtures, not package source.
func checkedDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.Walk(filepath.Join(root, "internal"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.IsDir() {
			return err
		}
		if fi.Name() == "testdata" {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		dirs = append(dirs, filepath.ToSlash(rel))
		return err
	})
	return dirs, err
}

// floatFreeDirs are checked packages additionally barred from floating
// point. ratecheck's whole contract is exact rational arithmetic — a
// float64 in a bound computation rounds, and a rounded bound is no
// longer a sound bound. mc's verdicts are reachability facts over
// packed bitvector states; floats have nothing to contribute there
// either.
var floatFreeDirs = map[string]bool{
	"internal/ratecheck": true,
	"internal/mc":        true,
}

// randAllowed are the math/rand selectors that construct or name seeded
// streams rather than touching the global source.
var randAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
}

type finding struct {
	pos token.Position
	msg string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dirs, err := checkedDirs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detvet:", err)
		os.Exit(2)
	}
	var all []finding
	for _, dir := range dirs {
		fs, err := checkDir(filepath.Join(root, dir), floatFreeDirs[dir])
		if err != nil {
			fmt.Fprintln(os.Stderr, "detvet:", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range all {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(all) > 0 {
		fmt.Fprintf(os.Stderr, "detvet: %d finding(s)\n", len(all))
		os.Exit(1)
	}
}

func checkDir(dir string, noFloat bool) ([]finding, error) {
	fset := token.NewFileSet()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var fs []finding
	// Deterministic file order, fittingly.
	var files []*ast.File
	var names []string
	byName := map[string]*ast.File{}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files { //detvet:ok sorted into names below
			names = append(names, name)
			byName[name] = f
		}
	}
	sort.Strings(names)
	for _, n := range names {
		files = append(files, byName[n])
	}
	// Map-typed names visible package-wide: struct fields and
	// package-level vars. Locals are collected per enclosing function in
	// checkFile, so a map named "x" in one function never taints a slice
	// named "x" elsewhere. The range check matches ranged expressions
	// against these sets by name — coarse, but sound enough with the
	// waiver escape hatch.
	mapFields := map[string]bool{}
	for _, f := range files {
		collectPackageMapNames(f, mapFields)
	}
	for _, n := range names {
		fs = append(fs, checkFile(fset, byName[n], mapFields, noFloat)...)
	}
	return fs, nil
}

func isMakeMap(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok || len(c.Args) == 0 {
		return false
	}
	if id, ok := c.Fun.(*ast.Ident); !ok || id.Name != "make" {
		return false
	}
	_, ok = c.Args[0].(*ast.MapType)
	return ok
}

func isMapLit(e ast.Expr) bool {
	c, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	_, ok = c.Type.(*ast.MapType)
	return ok
}

// collectPackageMapNames records map-typed struct fields and
// package-level vars.
func collectPackageMapNames(f *ast.File, out map[string]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch spec := spec.(type) {
			case *ast.ValueSpec:
				collectSpecMapNames(spec, out)
			case *ast.TypeSpec:
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fld := range st.Fields.List {
						if _, ok := fld.Type.(*ast.MapType); ok {
							for _, id := range fld.Names {
								out[id.Name] = true
							}
						}
					}
					return true
				})
			}
		}
	}
}

// collectLocalMapNames records identifiers bound to a map type inside
// one function: map-typed parameters, var specs, and assignment targets
// whose right-hand side is make(map...) or a map composite literal.
func collectLocalMapNames(fn *ast.FuncDecl, out map[string]bool) {
	if fn.Type.Params != nil {
		for _, fld := range fn.Type.Params.List {
			if _, ok := fld.Type.(*ast.MapType); ok {
				for _, id := range fld.Names {
					out[id.Name] = true
				}
			}
		}
	}
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			collectSpecMapNames(n, out)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if (isMakeMap(rhs) || isMapLit(rhs)) && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

func collectSpecMapNames(spec *ast.ValueSpec, out map[string]bool) {
	if _, ok := spec.Type.(*ast.MapType); ok {
		for _, id := range spec.Names {
			out[id.Name] = true
		}
	}
	for i, v := range spec.Values {
		if (isMakeMap(v) || isMapLit(v)) && i < len(spec.Names) {
			out[spec.Names[i].Name] = true
		}
	}
}

func checkFile(fset *token.FileSet, f *ast.File, mapFields map[string]bool, noFloat bool) []finding {
	// Lines carrying a waiver comment, plus the line each waiver covers
	// when it stands alone above the offending statement.
	waived := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "detvet:ok") {
				line := fset.Position(c.Pos()).Line
				waived[line] = true
				waived[line+1] = true
			}
		}
	}
	report := func(fs *[]finding, pos token.Pos, msg string) {
		p := fset.Position(pos)
		if waived[p.Line] {
			return
		}
		*fs = append(*fs, finding{pos: p, msg: msg})
	}

	var fs []finding
	randName := ""
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		switch path {
		case "time":
			report(&fs, imp.Pos(), `imports "time": wall-clock reads are nondeterministic in simulated-time code (use sim.Time)`)
		case "math/rand":
			randName = "rand"
			if imp.Name != nil {
				randName = imp.Name.Name
			}
		}
	}
	// Locals are scoped to their enclosing top-level function; the
	// package-wide field/var set applies everywhere.
	for _, decl := range f.Decls {
		local := map[string]bool{}
		if fn, ok := decl.(*ast.FuncDecl); ok {
			collectLocalMapNames(fn, local)
		}
		isMap := func(name string) bool { return local[name] || mapFields[name] }
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || randName == "" || id.Name != randName || randAllowed[sel.Sel.Name] {
					return true
				}
				report(&fs, n.Pos(), fmt.Sprintf("calls %s.%s: the global math/rand source is process-shared; use a seeded rand.New(rand.NewSource(...))", randName, sel.Sel.Name))
			case *ast.RangeStmt:
				switch x := n.X.(type) {
				case *ast.Ident:
					if isMap(x.Name) {
						report(&fs, n.Pos(), fmt.Sprintf("ranges over map %q: iteration order is randomized per run", x.Name))
					}
				case *ast.SelectorExpr:
					if isMap(x.Sel.Name) {
						report(&fs, n.Pos(), fmt.Sprintf("ranges over map field %q: iteration order is randomized per run", x.Sel.Name))
					}
				}
			case *ast.Ident:
				// Syntactic, so a selector like math.Float64bits passes (its
				// Sel is "Float64bits", not the type name); only the bare
				// type names in declarations, conversions, and type switches
				// are caught — which is where floats enter a computation.
				if noFloat && (n.Name == "float64" || n.Name == "float32") {
					report(&fs, n.Pos(), fmt.Sprintf("uses %s: this package publishes exact rationals; floating point rounds and a rounded bound is unsound", n.Name))
				}
			case *ast.BasicLit:
				if noFloat && n.Kind == token.FLOAT {
					report(&fs, n.Pos(), fmt.Sprintf("floating literal %s: this package publishes exact rationals; use integer or sim.Rat arithmetic", n.Value))
				}
			}
			return true
		})
	}
	return fs
}
