package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (module path + relative directory).
	Path string
	// Dir is the package directory, relative to the module root.
	Dir string
	// Files are the package's non-test source files that build for the
	// host platform.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
	// Analyze marks packages named by the load patterns; packages pulled in
	// only as dependencies are type-checked but not analyzed.
	Analyze bool

	imports []string // module-internal import paths
}

// Program is a set of loaded packages sharing one file set.
type Program struct {
	Fset *token.FileSet
	// Pkgs is every loaded package in dependency order.
	Pkgs []*Package
	// Root is the absolute module root directory.
	Root string
	// Module is the module path from go.mod.
	Module string

	sources  map[string][]byte // filename -> raw bytes (directive placement)
	suppress map[suppressKey]bool
}

// Load parses and type-checks the packages matched by patterns, plus any
// module-internal dependencies they need. dir is any directory inside the
// module; the module root is found by walking up to go.mod. Patterns are
// module-relative: "./..." (everything), "./internal/foo/..." (a subtree) or
// "./internal/foo" (one package). Directories named testdata are skipped by
// tree patterns but may be named explicitly (the analyzer fixtures live
// there).
//
// Type-checking is stdlib-only: module-internal imports are resolved from
// the packages being loaded, everything else goes through the compiler
// export-data importer with the source importer as fallback.
func Load(dir string, patterns []string) (*Program, error) {
	root, module, goVersion, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		Root:    root,
		Module:  module,
		sources: make(map[string][]byte),
	}

	dirs, analyze, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}

	// Parse every matched directory, then chase module-internal imports so
	// dependencies are available for type-checking.
	pkgs := make(map[string]*Package) // keyed by module-relative dir
	queue := append([]string(nil), dirs...)
	for len(queue) > 0 {
		d := queue[0]
		queue = queue[1:]
		if _, done := pkgs[d]; done {
			continue
		}
		pkg, err := prog.parseDir(d)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		pkg.Analyze = analyze[d]
		pkgs[d] = pkg
		for _, imp := range pkg.imports {
			rel := strings.TrimPrefix(strings.TrimPrefix(imp, module), "/")
			if rel == "" {
				rel = "."
			}
			if _, done := pkgs[rel]; !done {
				queue = append(queue, rel)
			}
		}
	}

	ordered, err := topoSort(pkgs, module)
	if err != nil {
		return nil, err
	}

	imp := &chainedImporter{
		loaded: make(map[string]*types.Package),
		gc:     importer.ForCompiler(prog.Fset, "gc", nil),
		fset:   prog.Fset,
	}
	for _, pkg := range ordered {
		conf := types.Config{Importer: imp, GoVersion: goVersion}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		tpkg, err := conf.Check(pkg.Path, prog.Fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: typecheck %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.loaded[pkg.Path] = tpkg
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// findModule walks up from dir to go.mod and returns the module root, module
// path and go directive version ("go1.22").
func findModule(dir string) (root, module, goVersion string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, readErr := os.ReadFile(filepath.Join(d, "go.mod"))
		if readErr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					module = strings.TrimSpace(rest)
				}
				if rest, ok := strings.CutPrefix(line, "go "); ok {
					goVersion = "go" + strings.TrimSpace(rest)
				}
			}
			if module == "" {
				return "", "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, module, goVersion, nil
		}
		if filepath.Dir(d) == d {
			return "", "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// expandPatterns resolves patterns into module-relative package directories.
// The second result marks directories named by the patterns (vs dependencies
// added later).
func expandPatterns(root string, patterns []string) ([]string, map[string]bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyze := make(map[string]bool)
	var dirs []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		if rel == "" {
			rel = "."
		}
		if !analyze[rel] {
			analyze[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "." {
			pat = "..."
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			base := root
			if ok && rest != "" {
				base = filepath.Join(root, filepath.FromSlash(rest))
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					rel, relErr := filepath.Rel(root, path)
					if relErr != nil {
						return relErr
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, nil, err
			}
			continue
		}
		abs := filepath.Join(root, filepath.FromSlash(pat))
		if !hasGoFiles(abs) {
			return nil, nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return nil, nil, err
		}
		add(rel)
	}
	sort.Strings(dirs)
	return dirs, analyze, nil
}

// hasGoFiles reports whether dir directly contains at least one non-test Go
// file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// parseDir parses the non-test Go files of one module-relative directory
// that build for the host's GOOS and GOARCH (file-name suffixes and
// //go:build lines, as go build selects them). Returns nil when the
// directory has no non-test Go files.
func (prog *Program) parseDir(rel string) (*Package, error) {
	abs := filepath.Join(prog.Root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	path := prog.Module
	if rel != "." {
		path = prog.Module + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Dir: rel}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(abs, name)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	seen := make(map[string]bool)
	for _, name := range names {
		filename := filepath.Join(abs, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(prog.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		prog.sources[filename] = src
		pkg.Files = append(pkg.Files, file)
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if (p == prog.Module || strings.HasPrefix(p, prog.Module+"/")) && !seen[p] {
				seen[p] = true
				pkg.imports = append(pkg.imports, p)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// topoSort orders packages so every module-internal dependency precedes its
// importers.
func topoSort(pkgs map[string]*Package, module string) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	var rels []string
	for rel, p := range pkgs {
		byPath[p.Path] = p
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	var ordered []*Package
	state := make(map[*Package]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		ordered = append(ordered, p)
		return nil
	}
	for _, rel := range rels {
		if err := visit(pkgs[rel]); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// chainedImporter resolves module-internal imports from the packages being
// loaded and everything else through the compiler export-data importer, with
// the slower source importer as a fallback (useful when export data is
// unavailable, e.g. a cold build cache).
type chainedImporter struct {
	loaded map[string]*types.Package
	gc     types.Importer
	src    types.Importer
	fset   *token.FileSet
}

func (c *chainedImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.loaded[path]; ok {
		return p, nil
	}
	p, gcErr := c.gc.Import(path)
	if gcErr == nil {
		return p, nil
	}
	if c.src == nil {
		c.src = importer.ForCompiler(c.fset, "source", nil)
	}
	p, srcErr := c.src.Import(path)
	if srcErr == nil {
		return p, nil
	}
	return nil, fmt.Errorf("import %q: %v (source fallback: %v)", path, gcErr, srcErr)
}
