package minequery

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designDocMaxBytes bounds DESIGN.md. The document maps the paper onto
// the code and records what the code does not show; measurement
// histories belong in CHANGES.md. Raising the bound is a decision a
// change must give its reason for.
const designDocMaxBytes = 69500

// TestDesignDocCurrent holds DESIGN.md to the code it describes: its
// size stays bounded, every backticked `pkg.Name` it writes names a
// declaration of an in-repo package, every "DESIGN §N" citation
// elsewhere names one of its headings, and every test name it or
// README.md writes, or a test's doc comment opens with, is declared.
func TestDesignDocCurrent(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("size", func(t *testing.T) {
		if len(doc) > designDocMaxBytes {
			t.Errorf("DESIGN.md is %d bytes, over the %d-byte bound", len(doc), designDocMaxBytes)
		}
	})
	pkgs, cites, misdocs := scanRepo(t)
	t.Run("names", func(t *testing.T) {
		for _, name := range designDocNames(string(doc)) {
			parts := strings.Split(name, ".")
			p, ok := pkgs[parts[0]]
			if !ok {
				continue
			}
			if !p.top[parts[1]] && !p.members[parts[1]] {
				t.Errorf("DESIGN.md names `%s`: package %s declares no %s", name, parts[0], parts[1])
				continue
			}
			for _, sel := range parts[2:] {
				if !p.members[sel] {
					t.Errorf("DESIGN.md names `%s`: package %s has no method or field %s", name, parts[0], sel)
				}
			}
		}
	})
	t.Run("tests", func(t *testing.T) {
		declared := func(name string, prefix bool) bool {
			for _, p := range pkgs {
				for top := range p.top {
					if top == name || prefix && strings.HasPrefix(top, name) {
						return true
					}
				}
			}
			return false
		}
		for _, file := range []string{"DESIGN.md", "README.md"} {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, span := range codeSpan.FindAllString(string(b), -1) {
				m := bareTestName.FindStringSubmatch(strings.Trim(span, "`"))
				if m != nil && !declared(m[1], m[2] == "*") {
					t.Errorf("%s names %s, which no package declares", file, span)
				}
			}
		}
		for _, m := range misdocs {
			t.Error(m)
		}
	})
	t.Run("citations", func(t *testing.T) {
		headings := designDocHeadings(string(doc))
		for _, c := range cites {
			if !headings[c.section] {
				t.Errorf("%s cites DESIGN §%s, which is not a heading of DESIGN.md", c.where, c.section)
			}
		}
	})
}

// docPackage is what a package name declares across the repo's
// packages of that name: top-level names, and the methods, struct
// fields and interface methods of its types.
type docPackage struct {
	top, members map[string]bool
}

type designCitation struct{ where, section string }

// citation matches "DESIGN §N" and "DESIGN.md §N", across a line break
// and a Go comment's "//" too.
var citation = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//)+§(\d+[a-z]?(?:\.\d+)?)`)

func addCitations(out []designCitation, where, text string) []designCitation {
	for _, m := range citation.FindAllStringSubmatch(text, -1) {
		out = append(out, designCitation{where, m[1]})
	}
	return out
}

// scanRepo parses every Go file in the repository, test files included
// (an external test package counts as its package), and returns what
// each package name declares, the citations of DESIGN.md in README.md,
// ROADMAP.md and Go comments, and the test functions whose doc comment
// opens with another test's name. CHANGES.md is history and keeps the
// section numbers of its day.
func scanRepo(t *testing.T) (map[string]*docPackage, []designCitation, []string) {
	t.Helper()
	var cites []designCitation
	var misdocs []string
	for _, name := range []string{"README.md", "ROADMAP.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		cites = addCitations(cites, name, string(b))
	}
	pkgs := map[string]*docPackage{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			var text strings.Builder
			for _, c := range g.List {
				text.WriteString(c.Text)
				text.WriteByte('\n')
			}
			cites = addCitations(cites, path, text.String())
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		p := pkgs[name]
		if p == nil {
			p = &docPackage{top: map[string]bool{}, members: map[string]bool{}}
			pkgs[name] = p
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					p.members[d.Name.Name] = true
					continue
				}
				p.top[d.Name.Name] = true
				if d.Doc == nil || !testName.MatchString(d.Name.Name) {
					continue
				}
				if opens := testName.FindString(d.Doc.Text()); opens != "" && opens != d.Name.Name {
					misdocs = append(misdocs, fmt.Sprintf("%s: the doc comment of %s opens with %s", fset.Position(d.Name.Pos()), d.Name.Name, opens))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.top[s.Name.Name] = true
						addMembers(p.members, s.Type)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.top[n.Name] = true
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
	return pkgs, cites, misdocs
}

// addMembers records the named fields and methods a type declares.
func addMembers(members map[string]bool, typ ast.Expr) {
	var fields *ast.FieldList
	switch x := typ.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			members[n.Name] = true
		}
	}
}

var (
	codeSpan   = regexp.MustCompile("`[^`\n]+`")
	dottedName = regexp.MustCompile(`(^|[^A-Za-z0-9_./])([a-z][a-z0-9]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`)
	heading    = regexp.MustCompile(`(?m)^#{2,3} (\d+[a-z]?(?:\.\d+)?)[. ]`)
	// testName matches a test, fuzz or benchmark function's name at the
	// start of a text; bareTestName a code span that is one such name,
	// package-qualified or not, with a subtest path or a trailing * that
	// stands for every name it prefixes.
	testName     = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)
	bareTestName = regexp.MustCompile(`^(?:[a-z][a-z0-9]*\.)?((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)(\*?)(?:/\S*)?$`)
)

// designDocNames returns the dotted names written in code spans. A
// span's snake_case names are metric series and fault sites, and its
// names ending in .go are files; neither is a Go declaration.
func designDocNames(doc string) []string {
	var out []string
	for _, span := range codeSpan.FindAllString(doc, -1) {
		for _, m := range dottedName.FindAllStringSubmatch(span, -1) {
			name := m[2]
			if strings.Contains(name, "_") || strings.HasSuffix(name, ".go") {
				continue
			}
			out = append(out, name)
		}
	}
	return out
}

func designDocHeadings(doc string) map[string]bool {
	out := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(doc, -1) {
		out[m[1]] = true
	}
	return out
}
