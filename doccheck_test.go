package braidio

// doccheck_test walks the module's source and fails if any exported
// declaration lacks a doc comment — the documentation contract README
// promises ("doc comments on every public item"), enforced. It flags
// exported funcs and methods (interface methods on unexported types
// too), exported types and package-level values outside a documented
// group, and exported struct fields of any struct type. A field needs
// a doc comment or a line comment; one comment covers a multi-name
// field line. Test files, testdata and dot directories are skipped, as
// is any subdirectory holding its own go.mod (a separate module).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestEveryExportedItemIsDocumented(t *testing.T) {
	var missing []string
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			// A directory with its own go.mod is another module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		parsed++
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc.Text() == "" {
					missing = append(missing, loc(path, fset, dd.Pos(), "func "+dd.Name.Name))
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc.Text() != ""
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc.Text() == "" {
							missing = append(missing, loc(path, fset, sp.Pos(), "type "+sp.Name.Name))
						}
						// Struct fields: exported fields need docs or a
						// line comment.
						if st, ok := sp.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									if n.IsExported() && f.Doc.Text() == "" && f.Comment.Text() == "" {
										missing = append(missing, loc(path, fset, n.Pos(), "field "+sp.Name.Name+"."+n.Name))
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
								missing = append(missing, loc(path, fset, n.Pos(), "value "+n.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed == 0 {
		t.Fatal("no source files parsed")
	}
	t.Logf("%d source files parsed", parsed)
	for _, m := range missing {
		t.Error(m)
	}
	if len(missing) > 0 {
		t.Logf("%d exported items missing documentation", len(missing))
	}
}

func loc(path string, fset *token.FileSet, pos token.Pos, what string) string {
	p := fset.Position(pos)
	return path + ":" + strconv.Itoa(p.Line) + ": undocumented " + what
}
