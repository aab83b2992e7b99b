package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's absolute directory.
	Dir string
	// Files are the package's non-test Go files, as the go command selects
	// them for the host platform.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Program is a set of loaded packages sharing one file set.
type Program struct {
	Fset *token.FileSet
	// Pkgs is every package the load patterns name, in dependency order.
	Pkgs []*Package

	sources  map[string][]byte // filename -> raw bytes (directive placement)
	suppress map[suppressKey]bool
}

// listedPackage is the part of one `go list -json` record that Load reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
	Module                  *struct{ GoVersion string }
	Error                   *struct{ Err string }
}

// Load parses and type-checks the packages that patterns name, as `go list`
// run in dir resolves them: "./..." is every package of dir's module (a
// nested module is not part of it), "./testdata/src/floatcmp" one package (a
// testdata directory must be named explicitly). The go command picks each
// package's files for the host platform and the module's go version, and
// compiles the export data that every import, the named packages' own
// included, is read from; so only the named packages are checked from
// source. The go command must be on PATH (`go test` puts it there).
func Load(dir string, patterns []string) (*Program, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module,Error"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v: %s", err, stderr.Bytes())
	}
	var listed []listedPackage
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		listed = append(listed, p)
		exports[p.ImportPath] = p.Export
	}

	prog := newProgram()
	imp := importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		// The go command read this directory in a child process, which the
		// test cache cannot see. Listing it here makes a file added to it, or
		// a package added beside it, re-run a cached `go test`.
		if _, err := os.ReadDir(p.Dir); err != nil {
			return nil, err
		}
		var goVersion string
		if p.Module != nil {
			goVersion = "go" + p.Module.GoVersion
		}
		if err := prog.check(p.ImportPath, p.Dir, p.GoFiles, imp, goVersion); err != nil {
			return nil, err
		}
	}
	if len(prog.Pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages match %q in %s", patterns, dir)
	}
	return prog, nil
}

func newProgram() *Program {
	return &Program{Fset: token.NewFileSet(), sources: make(map[string][]byte)}
}

// check parses the files of the package at path in dir, type-checks them
// with imp at goVersion ("go1.22"; "" is the toolchain's) and appends the
// package to prog.
func (prog *Program) check(path, dir string, files []string, imp types.Importer, goVersion string) error {
	pkg := &Package{Path: path, Dir: dir}
	for _, name := range files {
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return err
		}
		file, err := parser.ParseFile(prog.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: parse: %w", err)
		}
		prog.sources[filename] = src
		pkg.Files = append(pkg.Files, file)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, GoVersion: goVersion}
	tpkg, err := conf.Check(path, prog.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg.Types = tpkg
	prog.Pkgs = append(prog.Pkgs, pkg)
	return nil
}
