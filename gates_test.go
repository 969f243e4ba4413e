package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestGatesNameTests holds every go test command written down in
// scripts/verify.sh, in the verify skill's SKILL.md and in docs/*.md
// (bash blocks and inline code) to tests that exist. go test passes a -run
// pattern that matches nothing with "no tests to run", so a renamed test
// would otherwise drop out of its gate unnoticed. Each top-level |
// alternative of each -run, -bench and -fuzz pattern must match at least
// one function in the command's packages: Test, Fuzz and Example
// functions for -run and -fuzz, Benchmark functions for -bench. As in go
// test, only the part before the first / names a top-level function.
// '^$' (run nothing) is the one pattern exempt.
//
// verify.sh is the one place a gate is written: a command outside it
// that adds a mode (-race, -short, -count or -bench) must be one of its
// lines, word for word, so a gate cannot be restated with a weaker mode
// and drift from the one that runs. And no two of its commands run one
// test of one package with the same flags, the -run pattern and package
// arguments aside: the second run would only repeat the first. (A command
// without -run is its packages' whole suite in its mode, and is not
// compared.)
func TestGatesNameTests(t *testing.T) {
	const verify = "scripts/verify.sh"
	funcs := testFuncs(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	gates := make(map[string]bool)
	ran := make(map[string]string) // a test and its flags → the verify.sh line that runs it
	for _, src := range append([]string{verify, ".claude/skills/verify/SKILL.md"}, docs...) {
		text, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		scripts := []string{string(text)}
		if src != verify {
			scripts = append(bashBlocks(string(text)), inlineCommands(string(text))...)
		}
		commands, patterns := 0, 0
		for _, script := range scripts {
			for _, line := range strings.Split(strings.ReplaceAll(script, "\\\n", " "), "\n") {
				for _, cmd := range goTestCommands(line) {
					commands++
					key := strings.Join(cmd.words, " ")
					switch {
					case src == verify:
						gates[key] = true
						for _, test := range runTests(cmd, funcs) {
							run := test + " " + strings.Join(cmd.flags, " ")
							if first, ok := ran[run]; ok {
								t.Errorf("%s: %s runs again with the flags it ran with in\n\t%s\n\t%s",
									src, test, first, strings.TrimSpace(line))
							}
							ran[run] = strings.TrimSpace(line)
						}
					case cmd.mode && !gates[key]:
						t.Errorf("%s: a go test command that adds a mode is not a line of scripts/verify.sh\n\t%s",
							src, strings.TrimSpace(line))
					}
					for _, p := range cmd.patterns {
						patterns++
						checkPattern(t, src, line, cmd.pkgs, p, funcs)
					}
				}
			}
		}
		if src == verify && commands == 0 {
			t.Errorf("%s: no go test command found", src)
		}
		t.Logf("%s: %d go test commands, %d patterns", src, commands, patterns)
	}
}

// testFuncs maps each directory (slash-separated, relative to the repo
// root) to the top-level functions of its _test.go files, whatever
// their build tags.
func testFuncs(t *testing.T) map[string][]string {
	funcs := make(map[string][]string)
	fset := token.NewFileSet()
	for _, path := range treeFiles(t, "_test.go") {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[dir] = append(funcs[dir], fn.Name.Name)
			}
		}
	}
	return funcs
}

// treeFiles returns the files of the tree whose names end in suffix,
// outside testdata and hidden directories.
func treeFiles(t *testing.T, suffix string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// bashBlocks returns the bodies of markdown's ```bash fences.
func bashBlocks(md string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(md, "\n") {
		switch {
		case !in && strings.TrimSpace(line) == "```bash":
			in, cur = true, nil
		case in && strings.TrimSpace(line) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// inlineCode is a go test command in markdown's inline code, which may
// run over a line break.
var inlineCode = regexp.MustCompile("`(go test [^`]*)`")

// inlineCommands returns markdown's inline go test commands, each on one
// line.
func inlineCommands(md string) []string {
	var cmds []string
	for _, m := range inlineCode.FindAllStringSubmatch(md, -1) {
		cmds = append(cmds, strings.Join(strings.Fields(m[1]), " "))
	}
	return cmds
}

// gateCommand is one go test invocation: its words from go on, its
// package arguments, its patterns, each with the flag that carries it,
// its other flags (name=value, sorted), and whether it adds a mode
// (-race, -short, -count or -bench).
type gateCommand struct {
	words    []string
	pkgs     []string
	patterns []gatePattern
	flags    []string
	mode     bool
}

type gatePattern struct {
	flag, expr string
}

// valueFlags are the go test flags used in the gates that take their
// value as the next word.
var valueFlags = map[string]bool{
	"run": true, "bench": true, "fuzz": true, "count": true,
	"benchtime": true, "fuzztime": true, "parallel": true, "timeout": true, "cpu": true,
}

// goTestCommands finds the go test commands on one shell line.
func goTestCommands(line string) []gateCommand {
	var cmds []gateCommand
	words := shellWords(line)
	for i := 0; i+1 < len(words); i++ {
		if words[i] != "go" || words[i+1] != "test" {
			continue
		}
		var cmd gateCommand
		start := i
		for i += 2; i < len(words) && words[i] != ""; i++ {
			w := words[i]
			if !strings.HasPrefix(w, "-") {
				if strings.HasPrefix(w, ".") {
					cmd.pkgs = append(cmd.pkgs, w)
				}
				continue
			}
			name, value, hasValue := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !hasValue && valueFlags[name] && i+1 < len(words) {
				i++
				value = words[i]
			}
			if name == "run" || name == "bench" || name == "fuzz" {
				cmd.patterns = append(cmd.patterns, gatePattern{name, value})
			}
			if name != "run" {
				cmd.flags = append(cmd.flags, name+"="+value)
			}
			switch name {
			case "race", "short", "count", "bench":
				cmd.mode = true
			}
		}
		cmd.words = words[start:i]
		slices.Sort(cmd.flags)
		if len(cmd.pkgs) == 0 {
			cmd.pkgs = []string{"."}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// shellWords splits a shell line into words, honouring single and
// double quotes. A command separator (; | &) becomes an empty word, and
// an unquoted # ends the line.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	var quote rune
	inWord := false
	flush := func() {
		if inWord {
			words = append(words, cur.String())
			cur.Reset()
			inWord = false
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			flush()
		case r == ';' || r == '|' || r == '&':
			flush()
			words = append(words, "")
		case r == '#' && !inWord:
			flush()
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	flush()
	return words
}

// checkPattern fails the test for each alternative of p that matches no
// function of the right kind in pkgs.
func checkPattern(t *testing.T, src, line string, pkgs []string, p gatePattern, funcs map[string][]string) {
	t.Helper()
	if p.expr == "^$" {
		return
	}
	prefixes := []string{"Test", "Fuzz", "Example"}
	if p.flag == "bench" {
		prefixes = []string{"Benchmark"}
	}
	var names []string
	for _, pkg := range pkgs {
		for dir, fns := range funcs {
			if !inPackage(dir, pkg) {
				continue
			}
			for _, fn := range fns {
				for _, prefix := range prefixes {
					if strings.HasPrefix(fn, prefix) {
						names = append(names, fn)
					}
				}
			}
		}
	}
	top := splitTop(p.expr, '/')[0]
	for _, alt := range splitTop(top, '|') {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("%s: -%s %q: %v\n\t%s", src, p.flag, p.expr, err, strings.TrimSpace(line))
			continue
		}
		matched := false
		for _, name := range names {
			if re.MatchString(name) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: -%s alternative %q matches no function in %s\n\t%s",
				src, p.flag, alt, strings.Join(pkgs, " "), strings.TrimSpace(line))
		}
	}
}

// runTests returns the tests a command's -run pattern selects, each as
// "<dir> <name>", or none when it has no -run.
func runTests(cmd gateCommand, funcs map[string][]string) []string {
	var tests []string
	for _, p := range cmd.patterns {
		re, err := regexp.Compile(splitTop(p.expr, '/')[0])
		if p.flag != "run" || err != nil {
			continue
		}
		for dir, fns := range funcs {
			if !slices.ContainsFunc(cmd.pkgs, func(pkg string) bool { return inPackage(dir, pkg) }) {
				continue
			}
			for _, fn := range fns {
				isTest := strings.HasPrefix(fn, "Test") || strings.HasPrefix(fn, "Fuzz") || strings.HasPrefix(fn, "Example")
				if isTest && re.MatchString(fn) {
					tests = append(tests, dir+" "+fn)
				}
			}
		}
	}
	return tests
}

// inPackage reports whether dir is one of the packages a go test
// argument (".", "./x/", "./x/...") names.
func inPackage(dir, arg string) bool {
	if base, ok := strings.CutSuffix(arg, "..."); ok {
		base = filepath.ToSlash(filepath.Clean(base))
		return base == "." || dir == base || strings.HasPrefix(dir, base+"/")
	}
	return dir == filepath.ToSlash(filepath.Clean(arg))
}

// splitTop splits a regular expression at each sep outside brackets,
// parentheses and escapes.
func splitTop(expr string, sep byte) []string {
	var parts []string
	depth, bracket, start := 0, false, 0
	for i := 0; i < len(expr); i++ {
		switch c := expr[i]; {
		case c == '\\':
			i++
		case bracket:
			bracket = c != ']'
		case c == '[':
			bracket = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, expr[start:i])
			start = i + 1
		}
	}
	return append(parts, expr[start:])
}

// docTestName is a test, fuzz, benchmark or example function's name as
// the docs write it.
var docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*`)

// docPath is a command, example or internal package directory as the
// docs name it.
var docPath = regexp.MustCompile(`(?:\./|\b)examples/[\w-]+|\./(?:cmd|internal)/[\w-]+`)

// TestDocsNameTests holds every Test*, Fuzz*, Benchmark* and Example*
// name in the docs (docs/*.md, README.md, DESIGN.md, EXPERIMENTS.md) to a function
// of a _test.go file, or to the prefix of one: the docs name families
// such as BenchmarkObs* by their common prefix. Every examples/<dir>,
// ./cmd/<dir> and ./internal/<dir> they or the verify skill's SKILL.md
// name must be a directory in the tree.
func TestDocsNameTests(t *testing.T) {
	var all []string
	for _, fns := range testFuncs(t) {
		all = append(all, fns...)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	const skill = ".claude/skills/verify/SKILL.md"
	names, paths := 0, 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", skill) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range docPath.FindAllString(string(text), -1) {
			paths++
			if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
				t.Errorf("%s: %s is not a directory in the tree", doc, path)
			}
		}
		if doc == skill {
			continue
		}
		for _, name := range docTestName.FindAllString(string(text), -1) {
			names++
			found := false
			for _, fn := range all {
				if strings.HasPrefix(fn, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s names no test function", doc, name)
			}
		}
	}
	t.Logf("%d names and %d paths checked", names, paths)
}

// docSymbol is a package-qualified name as the docs write it:
// <pkg>.<Name>, or <pkg>.<Type>.<Name> for a field or method.
var docSymbol = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// inlineSpan is markdown's inline code, which may run over a line break.
var inlineSpan = regexp.MustCompile("`[^`]+`")

// TestDocsNameSymbols holds every <pkg>.<Name> in the inline code of the
// docs (docs/*.md, README.md, DESIGN.md, EXPERIMENTS.md; fenced blocks
// aside), where internal/<pkg> is a package of the tree, to what that
// package declares: a top-level name, a method of any of its types (the
// docs write cache.Do), a test function, or for <pkg>.<Type>.<Name> a
// field, method or interface method of Type. A doc that names a deleted
// or renamed symbol fails it.
func TestDocsNameSymbols(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*pkgSymbols)
	refs := 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range inlineSpan.FindAllString(unfenced(string(text)), -1) {
			for _, m := range docSymbol.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				syms, ok := pkgs[pkg]
				if !ok {
					syms = readPkgSymbols(t, filepath.Join("internal", pkg))
					pkgs[pkg] = syms
				}
				if syms == nil {
					continue
				}
				refs++
				if !syms.names(name, member) {
					t.Errorf("%s: %s names nothing in internal/%s", doc, m[0], pkg)
				}
			}
		}
	}
	t.Logf("%d references checked", refs)
}

// unfenced returns md without its fenced code blocks.
func unfenced(md string) string {
	var b strings.Builder
	fence := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fence = !fence
			continue
		}
		if !fence {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// pkgSymbols is what one package declares, as its docs may name it.
type pkgSymbols struct {
	top     map[string]bool            // top-level declarations and test functions
	methods map[string]bool            // methods of any type
	members map[string]map[string]bool // type -> its fields, methods and interface methods
}

// names reports whether name, or name's member when member is set, is
// declared.
func (p *pkgSymbols) names(name, member string) bool {
	if member != "" {
		return p.members[name][member]
	}
	return p.top[name] || p.methods[name]
}

// readPkgSymbols parses the Go files of dir, or returns nil when dir is
// no directory of the tree.
func readPkgSymbols(t *testing.T, dir string) *pkgSymbols {
	t.Helper()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	p := &pkgSymbols{top: map[string]bool{}, methods: map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					p.methods[d.Name.Name] = true
					member(recvType(d.Recv.List[0].Type), d.Name.Name)
				case !test || docTestName.MatchString(d.Name.Name):
					p.top[d.Name.Name] = true
				}
			case *ast.GenDecl:
				if test {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.top[n.Name] = true
						}
					case *ast.TypeSpec:
						p.top[s.Name.Name] = true
						var fields *ast.FieldList
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields
						case *ast.InterfaceType:
							fields = ty.Methods
						}
						if fields == nil {
							continue
						}
						for _, f := range fields.List {
							for _, n := range f.Names {
								member(s.Name.Name, n.Name)
							}
							if len(f.Names) == 0 { // embedded: named by its type
								member(s.Name.Name, recvType(f.Type))
							}
						}
					}
				}
			}
		}
	}
	return p
}

// recvType is the name of a method receiver's or an embedded field's
// type: T for T, *T, T[P] and pkg.T.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// sectionCitation is a cited section of a doc as the tree writes it,
// docs/<file>.md "<Section>" (a comma may follow the file), once line breaks and the comment markers
// that open a continued line are folded into spaces.
var sectionCitation = regexp.MustCompile(`docs/([\w-]+\.md),?\s+"([^"]+)"`)

// foldLines joins continued lines: a line break, its indentation and a
// leading // or # become one space.
var foldLines = regexp.MustCompile(`\n[ \t]*(?://+|#+)?[ \t]*`)

// TestSectionCitationsResolve holds every docs/<file>.md "<Section>"
// citation in the Go files, the docs, ROADMAP.md, the verify skill's
// SKILL.md and scripts/ to a heading of that file. A heading answers to
// its text with or without a trailing parenthetical: "Smart racing"
// names "## Smart racing (per-destination transport selection)".
func TestSectionCitationsResolve(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}
	for _, glob := range []string{"docs/*.md", "scripts/*"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	files = append(files, treeFiles(t, ".go")...)
	headings := make(map[string]map[string]bool)
	cites := 0
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sectionCitation.FindAllStringSubmatch(foldLines.ReplaceAllString(string(text), " "), -1) {
			doc, section := m[1], m[2]
			if headings[doc] == nil {
				headings[doc] = docHeadings(t, "docs/"+doc)
			}
			cites++
			if !headings[doc][section] {
				t.Errorf("%s: docs/%s %q names no heading of that file", file, doc, section)
			}
		}
	}
	t.Logf("%d citations in %d files", cites, len(files))
}

// docHeadings returns the headings of a markdown file outside its code
// fences, each also without a trailing parenthetical.
func docHeadings(t *testing.T, path string) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	heads := make(map[string]bool)
	fence := false
	for _, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			fence = !fence
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimLeft(line, "#"), " ")
		if fence || !ok || !strings.HasPrefix(line, "#") {
			continue
		}
		heads[rest] = true
		if i := strings.LastIndex(rest, " ("); i > 0 && strings.HasSuffix(rest, ")") {
			heads[rest[:i]] = true
		}
	}
	return heads
}

// flagCommands are the commands whose flags the docs cite, each with
// its flags recorded in cmd/<name>/testdata/flags.golden.
var flagCommands = []string{"authdns", "dohquery", "dohsrv", "recursor", "superproxy", "worldstudy"}

// TestDocsNameFlags holds every <cmd> -<flag> in the docs (docs/*.md,
// README.md, DESIGN.md, EXPERIMENTS.md and the verify skill's SKILL.md;
// fenced lines and inline code) to a flag of
// cmd/<cmd>/testdata/flags.golden. The command may be written as a path
// (bin/worldstudy, go run ./cmd/worldstudy); a go test, vet or build of
// its package is not a run of it. Its flags are read as the flag
// package reads them: up to the first word that is no flag, a flag that
// is not bool taking the next word as its value unless it is written
// -name=value. A doc that names a deleted or misspelt flag fails it.
func TestDocsNameFlags(t *testing.T) {
	flags := make(map[string]map[string]string) // command -> flag -> type
	for _, cmd := range flagCommands {
		golden, err := os.ReadFile(filepath.Join("cmd", cmd, "testdata", "flags.golden"))
		if err != nil {
			t.Fatal(err)
		}
		flags[cmd] = make(map[string]string)
		for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
			if f := strings.Fields(line); len(f) >= 2 {
				flags[cmd][f[0]] = f[1]
			}
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, doc := range append(docs, "README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md") {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		md := strings.ReplaceAll(string(text), "\\\n", " ")
		var lines []string
		fence := false
		for _, line := range strings.Split(md, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fence = !fence
			} else if fence {
				lines = append(lines, line)
			}
		}
		for _, span := range inlineSpan.FindAllString(unfenced(md), -1) {
			lines = append(lines, strings.Join(strings.Fields(strings.Trim(span, "`")), " "))
		}
		for _, line := range lines {
			words := shellWords(line)
			built := false // inside a go test, vet or build command
			for i, w := range words {
				switch {
				case w == "":
					built = false
				case w == "go" && i+1 < len(words) && (words[i+1] == "test" || words[i+1] == "vet" || words[i+1] == "build"):
					built = true
				}
				cmd := w[strings.LastIndex(w, "/")+1:]
				known := flags[cmd]
				if built || known == nil {
					continue
				}
				for j := i + 1; j < len(words); j++ {
					arg := words[j]
					if !strings.HasPrefix(arg, "-") || arg == "-" || arg == "--" {
						break
					}
					// -cert/-key names two flags.
					names, _, hasValue := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					typ := ""
					for _, name := range strings.Split(names, "/-") {
						refs++
						if typ = known[name]; typ == "" {
							t.Errorf("%s: %s -%s names no flag in cmd/%s/testdata/flags.golden\n\t%s", doc, cmd, name, cmd, line)
						}
					}
					if typ == "" {
						break
					}
					if typ != "bool" && !hasValue {
						j++
					}
				}
			}
		}
	}
	if refs == 0 {
		t.Error("no <cmd> -<flag> reference found in the docs")
	}
	t.Logf("%d flag references checked", refs)
}

// knobSuffixes names the option structs TestEveryKnobHasACaller reads:
// the exported structs of internal/ whose names end in one of these.
var knobSuffixes = []string{"Config", "Options", "Policy", "Params", "Server", "Client"}

// unsetKnobs lists, with its reason, every exported field of an option
// struct that no non-test file outside its package sets. A field that
// no command, example or bench/ sets, and that has no reason here, is a
// constant beside the struct's defaults, not a field.
var unsetKnobs = map[string]string{
	// Test seams: a clock or a sleep a test injects.
	"resolver.BreakerPolicy.Now":      "test seam: the clock that paces probes",
	"resolver.RetryPolicy.Sleep":      "test seam: the backoff sleep",
	"smart.Config.NowNanos":           "test seam: the clock that paces probes and ages winners",
	"authserver.Server.QueryLogLimit": "ring-wrap tests: a 64-entry ring wraps where the 65536 default cannot",
	// Set by a constructor or a DefaultConfig argument.
	"campaign.Config.Seed":       "DefaultConfig's argument",
	"cachestudy.Config.Seed":     "DefaultConfig's argument",
	"webload.Config.Seed":        "DefaultConfig's argument",
	"webload.Config.CountryCode": "DefaultConfig's argument",
	"authserver.Server.Zone":     "NewServer's argument",
	"dot.Server.Resolver":        "NewServer's argument",
	"recursive.Server.Resolver":  "NewServer's argument",
	// Read by other packages, or filled from another field.
	"campaign.Config.OnCountryDone": "tests cancel a campaign mid-run with it and observe restores",
	"campaign.Config.MinClients":    "read by bench/rungs.go; goes with ROADMAP item 1h",
	"resolver.RetryPolicy.Metrics":  "Apply fills it from Policy.Metrics",
	"netsim.Params.Providers":       "per-provider calibration, ROADMAP item 22's",
	// The cache study's model tests vary these (TestTTLBoundsHits,
	// TestSkewIncreasesHits, TestCentralizationImprovesHitRatio).
	"cachestudy.Config.TTLSeconds": "metamorphic model test seam",
	"cachestudy.Config.ZipfS":      "metamorphic model test seam",
	"cachestudy.Config.Provider":   "metamorphic model test seam",
}

// TestEveryKnobHasACaller holds the option structs to the knob rule: an
// exported field of an exported internal/ struct named *Config,
// *Options, *Policy, *Params, *Server or *Client is set by some non-test
// file outside its package, or it has a row in unsetKnobs. A field is
// set by a composite-literal key (or an unkeyed element), by an
// assignment, ++ or -- to it or through it, or by taking its address
// (flag.*Var). The repo's packages are type-checked from source, so two
// fields that share a name are told apart; the standard library comes
// from the export data one go list names. A field without a caller and
// without a row fails the test, and so does a row whose field is gone
// or has found a caller.
func TestEveryKnobHasACaller(t *testing.T) {
	unset := uncalledKnobs(t)
	for _, key := range unset {
		if unsetKnobs[key] == "" {
			t.Errorf("%s: no non-test file outside its package sets it; make it a constant or give it a row in unsetKnobs", key)
		}
	}
	for key := range unsetKnobs {
		if !slices.Contains(unset, key) {
			t.Errorf("unsetKnobs: stale row %s: the field is gone or has a caller", key)
		}
	}
}

// uncalledKnobs type-checks the module's packages (their non-test files,
// as go/build selects them) and returns, sorted, the option-struct
// fields that no package but the declaring one sets, each written
// <package under internal/>.<Type>.<Field>.
func uncalledKnobs(t *testing.T) []string {
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard", "./...").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go list: %v\n%s", err, exit.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		Standard                bool
	}
	var local []listed // dependencies first
	export := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			export[p.ImportPath] = p.Export
		} else {
			local = append(local, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := export[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}

	const internal = "repro/internal/"
	knobs := make(map[*types.Var]string) // field -> its key
	set := make(map[*types.Var]bool)
	for _, p := range local {
		bp, err := build.ImportDir(p.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg

		if strings.HasPrefix(p.ImportPath, internal) {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !slices.ContainsFunc(knobSuffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := range st.NumFields() {
					if f := st.Field(i); f.Exported() {
						knobs[f] = strings.TrimPrefix(p.ImportPath, internal) + "." + name + "." + f.Name()
					}
				}
			}
		}

		mark := func(v *types.Var) {
			if v != nil && v.Pkg() != pkg {
				set[v.Origin()] = true
			}
		}
		// through marks every field selected on the way to what e names:
		// a.B.C = x and &a.B[i].C set both B and C.
		var through func(e ast.Expr)
		through = func(e ast.Expr) {
			switch e := e.(type) {
			case *ast.ParenExpr:
				through(e.X)
			case *ast.StarExpr:
				through(e.X)
			case *ast.IndexExpr:
				through(e.X)
			case *ast.SelectorExpr:
				if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					mark(sel.Obj().(*types.Var))
					through(e.X)
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								v, _ := info.Uses[id].(*types.Var)
								mark(v)
							}
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						through(lhs)
					}
				case *ast.IncDecStmt:
					through(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						through(n.X)
					}
				}
				return true
			})
		}
	}
	if len(knobs) == 0 {
		t.Fatal("no option struct found under internal/")
	}
	var unset []string
	for v, key := range knobs {
		if !set[v] {
			unset = append(unset, key)
		}
	}
	slices.Sort(unset)
	t.Logf("%d option-struct fields, %d set by no other package", len(knobs), len(unset))
	return unset
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
