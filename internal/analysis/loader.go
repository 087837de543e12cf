package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
)

// Package is one parsed and type-checked package, the unit the
// analyzers run over.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// escapes are the compiler's heap-allocation reports in the
	// package's files, for the hotpath analyzer.
	escapes []escape
}

// listedPackage is the subset of `go list -json` output the loader
// needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// chainImporter resolves module-internal imports from the packages the
// loader has already checked and everything else (the standard
// library) from source. Type-checking stdlib from source is the one
// importer that works without compiled export data or network access;
// the whole repo resolves in a couple of seconds.
type chainImporter struct {
	local map[string]*types.Package
	src   types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.src.ImportFrom(path, "", 0)
}

// newFileSetImporter builds the shared fileset and its source
// importer. Cgo is disabled for the loader's build context: the
// source importer cannot process `import "C"` files, and with cgo off
// the standard library presents its pure-Go fallbacks instead.
func newFileSetImporter() (*token.FileSet, *chainImporter) {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return fset, &chainImporter{
		local: make(map[string]*types.Package),
		src:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// newInfo allocates the types.Info maps the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
}

// checkFiles parses and type-checks one package's files.
func checkFiles(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	files := make([]*ast.File, 0, len(fileNames))
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadPackages loads, parses and type-checks the packages matched by
// the go-list patterns (e.g. "./...") relative to dir, in dependency
// order, and attaches the compiler's escape analysis to those that
// hold //valora:hotpath functions. Test files are not loaded: the
// contracts the analyzers enforce are properties of production code
// (tests measure wall-clock and spin goroutines on purpose).
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// `go list -deps` lists the matched packages with their dependency
	// closure, each after its imports, so module-internal imports
	// resolve from packages already checked.
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset, imp := newFileSetImporter()
	var matched []*Package
	for _, p := range listed {
		if p.Standard {
			continue // the source importer resolves the standard library
		}
		pkg, err := checkFiles(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.local[p.ImportPath] = pkg.Types
		if !p.DepOnly {
			matched = append(matched, pkg)
		}
	}
	if err := attachEscapes(dir, matched); err != nil {
		return nil, err
	}
	return matched, nil
}

// goList shells out to `go list -json -deps` and decodes the package
// stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json", "-deps"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v: %s", patterns, err, stderr.String())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		listed = append(listed, &p)
	}
	return listed, nil
}
