package lint

import (
	"go/importer"
	"path/filepath"
)

// CheckFile type-checks one file as the package at path, the way Load checks
// a listed package, but resolves imports through the default gc importer
// instead of `go list`: a fuzz input starts no go command.
func CheckFile(path, filename string) (*Program, error) {
	prog := newProgram()
	imp := importer.ForCompiler(prog.Fset, "gc", nil)
	err := prog.check(path, filepath.Dir(filename), []string{filepath.Base(filename)}, imp, "go1.22")
	return prog, err
}
